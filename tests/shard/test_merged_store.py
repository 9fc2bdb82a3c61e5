"""The ``merged.db`` sink's contract on a hand-built candidate stream.

:class:`~repro.shard.merge.MergedCandidateStore` must keep, per table,
exactly the rows a python first-win dedup over canonical unordered pair
keys keeps, in stream order; hold one ``offers`` row per referenced
offer id, shared by both tables, in first-appearance order; and serve
the survivors back unchanged through
:class:`~repro.shard.merge.StoredMergedCandidates`.
"""

import sqlite3

import pytest

from repro.corpus.schema import ProductOffer
from repro.io.store import OFFER_COLUMNS, row_to_offer
from repro.shard.merge import (
    MergedCandidate,
    MergedCandidateStore,
    StoredMergedCandidates,
)

# Ids deliberately out of lexical order, so first-appearance order and
# sorted order disagree.
OFFERS = {
    offer.offer_id: offer
    for offer in (
        ProductOffer("s1:b", "c1", "acme usb-c cable 2m", price=9.5,
                     price_currency="EUR", brand="acme", source="a.example"),
        ProductOffer("s0:c", "c1", "ACME USB C cable (2 m)", description=None,
                     brand=None, language="de", true_cluster_id="c1"),
        ProductOffer("s2:a", "c2", "orbit 65w charger", description="gan",
                     identifier_kind="mpn", identifier_value="OR-65"),
        ProductOffer("s0:a", "c2", "Orbit GaN 65 W charger", price=39.0,
                     true_cluster_id="c3"),
        ProductOffer("s1:a", "c4", "", price=None, source="b.example"),
        ProductOffer("s0:b", "c4", "plain cable", brand="orbit"),
    )
}


def _candidate(a, b, label, score, provenance, metric="cosine"):
    return MergedCandidate(
        offer_a=OFFERS[a],
        offer_b=OFFERS[b],
        label=label,
        score=score,
        metric=metric,
        provenance=provenance,
    )


COMPLETED = [
    _candidate("s1:b", "s0:c", 1, 0.91, "shard:1→0:cosine"),
    # "s1:b" is shared by several candidates.
    _candidate("s1:b", "s2:a", 0, 0.42, "shard:1→2:cosine"),
    # A later duplicate of the first pair: reversed, other score and
    # provenance; the first row must win.
    _candidate("s0:c", "s1:b", 1, 0.27, "shard:0→1:dice", metric="dice"),
    _candidate("s2:a", "s0:a", 1, 0.66, "shard:2→0:group", metric="group"),
    _candidate("s1:b", "s0:a", 0, 0.13, "shard:1→0:cosine"),
    # "s0:b" only ever appears as ``offer_b``.
    _candidate("s2:a", "s0:b", 0, 0.08, "shard:2→0:cosine"),
]

JOIN_ONLY = [
    # "s0:a" was written by the completed table; "s1:a" is new here.
    _candidate("s0:a", "s1:a", 0, 0.05, "shard:0→1:cosine"),
    _candidate("s0:c", "s2:a", 0, 0.31, "shard:0→2:dice", metric="dice"),
    _candidate("s1:a", "s0:a", 0, 0.99, "shard:1→0:dice", metric="dice"),
    _candidate("s1:b", "s0:c", 1, 0.91, "shard:1→0:cosine"),
]

TABLES = {
    "completed": "candidates_completed",
    "join_only": "candidates_join_only",
}
STREAMS = {"completed": COMPLETED, "join_only": JOIN_ONLY}
META = dict(k=10, metrics=("cosine", "dice"), n_shards=3)


def _first_win(stream):
    seen, kept = set(), []
    for candidate in stream:
        key = tuple(
            sorted((candidate.offer_a.offer_id, candidate.offer_b.offer_id))
        )
        if key not in seen:
            seen.add(key)
            kept.append(candidate)
    return kept


def _row(candidate):
    a, b = candidate.offer_a.offer_id, candidate.offer_b.offer_id
    return (
        *sorted((a, b)), a, b, candidate.label, candidate.score,
        candidate.metric, candidate.provenance,
    )


def _first_appearance_offers(*streams):
    offers = {}
    for stream in streams:
        for candidate in stream:
            for offer in (candidate.offer_a, candidate.offer_b):
                offers.setdefault(offer.offer_id, offer)
    return list(offers.values())


@pytest.fixture
def merged_db(tmp_path):
    path = tmp_path / "merged.db"
    store = MergedCandidateStore(path)
    try:
        for key, stream in STREAMS.items():
            store.write(key, iter(stream), **META)
    finally:
        store.close()
    return path


def _query(path, sql):
    db = sqlite3.connect(f"file:{path}?mode=ro", uri=True)
    try:
        return db.execute(sql).fetchall()
    finally:
        db.close()


class TestMergedCandidateStore:
    def test_tables_equal_first_win_dedup(self, merged_db):
        for key, table in TABLES.items():
            rows = _query(
                merged_db,
                "SELECT key_a, key_b, offer_a, offer_b, label, score, "
                f"metric, provenance FROM {table} ORDER BY rowid",
            )
            assert rows == [_row(c) for c in _first_win(STREAMS[key])]

    def test_one_offer_row_per_id_in_first_appearance_order(self, merged_db):
        rows = _query(
            merged_db,
            f"SELECT {', '.join(OFFER_COLUMNS)} FROM offers ORDER BY rowid",
        )
        assert [row_to_offer(row) for row in rows] == (
            _first_appearance_offers(COMPLETED, JOIN_ONLY)
        )
        assert len(rows) == len(OFFERS)

    def test_reopened_views_yield_deduped_candidates(self, merged_db):
        for key, stream in STREAMS.items():
            view = StoredMergedCandidates.open(merged_db, key)
            try:
                assert (view.k, view.metrics, view.n_shards) == (
                    META["k"], META["metrics"], META["n_shards"]
                )
                assert list(view) == _first_win(stream)
                # Windowed paging crosses window boundaries unchanged.
                view.window = 2
                assert list(view) == _first_win(stream)
                assert len(view) == len(_first_win(stream))
            finally:
                view.close()

    def test_failed_write_rolls_back_offers_too(self, tmp_path):
        def torn():
            yield from COMPLETED[:2]
            raise RuntimeError("stream broke")

        path = tmp_path / "merged.db"
        store = MergedCandidateStore(path)
        try:
            with pytest.raises(RuntimeError, match="stream broke"):
                store.write("completed", torn(), **META)
            assert _query(path, "SELECT COUNT(*) FROM offers") == [(0,)]
            # A retry after the failure must still write every offer.
            for key, stream in STREAMS.items():
                store.write(key, iter(stream), **META)
        finally:
            store.close()
        ids = [row[0] for row in _query(
            path, "SELECT offer_id FROM offers ORDER BY rowid"
        )]
        assert ids == [
            offer.offer_id
            for offer in _first_appearance_offers(COMPLETED, JOIN_ONLY)
        ]
        view = StoredMergedCandidates.open(path, "completed")
        try:
            assert list(view) == _first_win(COMPLETED)
        finally:
            view.close()
