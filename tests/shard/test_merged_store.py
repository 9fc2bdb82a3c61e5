"""``merged.db``: the SQL merge against the python-stream oracle.

:class:`~repro.shard.merge.MergedCandidateStore` merges a session in
SQL: each shard's join is selected out of its ``shard.db``, only group
positives and cross-shard rows come from python.  The reference it must
equal, table for table and rowid for rowid, is the in-memory merge of
the same shards (their joins rebound to namespaced blockers by
:func:`adopt`, merged by ``merge_candidate_sets``) streamed by the
python writer the SQL merge replaced, kept here as
:class:`PythonStreamStore`: it streams
:class:`~repro.shard.merge.MergedCandidate` rows into the same schema
with ``INSERT OR IGNORE``.  The oracle's own contract is pinned
on a hand-built stream first: per table, exactly the rows a python
first-win dedup over canonical unordered pair keys keeps, in stream
order; one ``offers`` row per referenced offer id, shared by both
tables, in first-appearance order; and the survivors served back
unchanged through :class:`~repro.shard.merge.StoredMergedCandidates`.
"""

import json
import re
import shutil
import sqlite3

import pytest

from repro.blocking.candidates import BlockedPairSet
from repro.core import BuildConfig
from repro.corpus.schema import ProductOffer
from repro.errors import StoreError
from repro.io.store import OFFER_COLUMNS, StoredShard, offer_to_row, row_to_offer
from repro.shard import FaultPlan, FaultSpec, ShardPlan, ShardedBenchmarkSession
from repro.shard.merge import (
    _MERGED_DDL,
    _MERGED_TABLES,
    MERGED_SCHEMA,
    MergedCandidate,
    MergedCandidateStore,
    StoredMergedCandidates,
)
from repro.shard.session import _sweep_universes
from repro.shard.sweep import shard_universe
from repro.similarity.engine import SimilarityEngine


def adopt(universe, join):
    """``join`` — a shard build's within-shard join over raw ids — bound
    to ``universe``'s namespaced blocker, pairs unchanged: the in-memory
    input of the oracle merge."""
    assert len(join.blocker) == len(universe) == join.n_queries
    return BlockedPairSet(
        universe.blocker(),
        join.pairs,
        k=join.k,
        metrics=join.metrics,
        n_queries=join.n_queries,
    )


class PythonStreamStore:
    """The python stream into ``merged.db`` that the SQL merge replaced.

    Each :meth:`write` streams one table's candidates through one
    ``executemany`` of ``INSERT OR IGNORE`` over canonical pair keys in
    one transaction, then writes every offer not yet written, in
    first-appearance order.
    """

    def __init__(self, path):
        self.path = path
        self._connection = sqlite3.connect(path)
        self._written_offers = set()
        with self._connection:
            for statement in _MERGED_DDL:
                self._connection.execute(statement)
            self._connection.execute(
                "INSERT INTO meta VALUES ('schema', ?)", (str(MERGED_SCHEMA),)
            )

    def write(self, table_key, candidates, *, k, metrics, n_shards):
        table = _MERGED_TABLES[table_key]
        referenced = {}

        def rows():
            for candidate in candidates:
                a = candidate.offer_a.offer_id
                b = candidate.offer_b.offer_id
                referenced.setdefault(a, candidate.offer_a)
                referenced.setdefault(b, candidate.offer_b)
                key_a, key_b = (a, b) if a <= b else (b, a)
                yield (
                    key_a, key_b, a, b, candidate.label, candidate.score,
                    candidate.metric, candidate.provenance,
                )

        marks = ", ".join("?" for _ in OFFER_COLUMNS)
        with self._connection:
            self._connection.executemany(
                f"INSERT OR IGNORE INTO {table} "
                "VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
                rows(),
            )
            self._connection.executemany(
                f"INSERT INTO offers VALUES ({marks})",
                (
                    offer_to_row(offer)
                    for offer_id, offer in referenced.items()
                    if offer_id not in self._written_offers
                ),
            )
            for key, value in (
                (f"{table_key}:k", str(int(k))),
                (f"{table_key}:metrics", json.dumps(list(metrics))),
                (f"{table_key}:n_shards", str(int(n_shards))),
            ):
                self._connection.execute(
                    "INSERT OR REPLACE INTO meta VALUES (?, ?)", (key, value)
                )
        self._written_offers.update(referenced)

    def close(self):
        self._connection.close()


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
    store = PythonStreamStore(path)
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
    """The ``merged.db`` contract on a hand-built stream, written by the
    python-stream oracle the SQL merge is compared against below."""

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
        store = PythonStreamStore(path)
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


class TestOpenErrors:
    def test_missing_table_is_a_store_error(self, tmp_path):
        path = tmp_path / "merged.db"
        store = PythonStreamStore(path)
        try:
            store.write("completed", iter(COMPLETED), **META)
        finally:
            store.close()
        StoredMergedCandidates.open(path, "completed").close()
        with pytest.raises(StoreError) as raised:
            StoredMergedCandidates.open(path, "join_only")
        assert str(path) in str(raised.value)
        assert "candidates_join_only" in str(raised.value)

    def test_foreign_file_is_a_store_error(self, tmp_path):
        text = tmp_path / "notes.txt"
        text.write_text("not a database at all, " * 100)
        other = tmp_path / "other.db"
        shard_like = tmp_path / "shard.db"
        for path, table in (
            (other, "t (x)"),
            (shard_like, "meta (key TEXT PRIMARY KEY, value TEXT)"),
        ):
            db = sqlite3.connect(path)
            db.execute(f"CREATE TABLE {table}")
            db.close()
        for path in (text, other, shard_like, tmp_path / "absent.db"):
            with pytest.raises(StoreError, match=re.escape(str(path))):
                StoredMergedCandidates.open(path, "completed")


# --------------------------------------------------------------------- #
# The SQL merge of store-backed sessions against the oracle
# --------------------------------------------------------------------- #
SWEEP_K = 10
MERGED_DB_TABLES = ("meta", "offers", *_MERGED_TABLES.values())


def _plan():
    # The plan of the shared ``store_session`` fixture.
    return ShardPlan.create(
        3, base_config=BuildConfig.small(n_products=30), seed=42
    )


def _session(store_dir, **kwargs):
    return ShardedBenchmarkSession(
        _plan(),
        sweep_k=SWEEP_K,
        executor="serial",
        retry_backoff=0.0,
        store_dir=store_dir,
        **kwargs,
    )


def _dump(path):
    """Every ``merged.db`` table, rowids included."""
    db = sqlite3.connect(f"file:{path}?mode=ro", uri=True)
    try:
        return {
            table: db.execute(
                f"SELECT rowid, * FROM {table} ORDER BY rowid"
            ).fetchall()
            for table in MERGED_DB_TABLES
        }
    finally:
        db.close()


def _oracle(artifacts, path):
    """The session's ``merged.db`` as the python stream wrote it: the
    in-memory merge of the same shards, streamed into the oracle."""
    universes = [
        shard_universe(stored, shard)
        for shard, stored in zip(artifacts.shard_ids, artifacts.shards)
    ]
    joins = [
        adopt(universe, stored.blocked_candidates)
        for universe, stored in zip(universes, artifacts.shards)
    ]
    for join in joins:
        assert join.k == SWEEP_K
        assert join.metrics == SimilarityEngine.METRICS
    completed, join_only, _ = _sweep_universes(
        universes,
        joins,
        k=SWEEP_K,
        cross_metrics=artifacts.sweep_metrics,
        n_shards=artifacts.n_shards,
        sweep_mode=artifacts.sweep_mode,
        signature_threshold=artifacts.signature_threshold,
    )
    store = PythonStreamStore(path)
    try:
        for key, merged in (("completed", completed), ("join_only", join_only)):
            store.write(
                key,
                merged,
                k=merged.k,
                metrics=merged.metrics,
                n_shards=merged.n_shards,
            )
    finally:
        store.close()
    return _dump(path)


@pytest.fixture(scope="module")
def finished(store_root, store_session, tmp_path_factory):
    """The shared fresh 3-shard store session's directory (see
    ``tests/shard/conftest.py``) and its oracle tables."""
    assert set(store_session.health.statuses.values()) == {"built"}
    oracle = _oracle(
        store_session, tmp_path_factory.mktemp("oracle") / "oracle.db"
    )
    return store_root / "serial", oracle


@pytest.fixture
def copied_root(finished, tmp_path):
    root = tmp_path / "store"
    shutil.copytree(finished[0], root)
    return root


def _assert_tables(root, oracle):
    merged = _dump(root / "merged.db")
    for table in MERGED_DB_TABLES:
        assert merged[table] == oracle[table], table
    assert len(merged["candidates_join_only"]) < len(
        merged["candidates_completed"]
    )
    assert not (root / "merged.db.tmp").exists()


class TestSqlMergeMatchesOracle:
    def test_fresh_session(self, finished):
        _assert_tables(*finished)

    def test_resumed_session_over_a_dead_writers_temp_file(
        self, finished, copied_root, monkeypatch
    ):
        (copied_root / "merged.db.tmp").write_bytes(b"debris")
        reads = []
        join_rows = StoredShard.__dict__["blocked_candidates"].func

        def counted(self):
            reads.append(self.directory)
            return join_rows(self)

        # The store path never builds the joins' BlockedPair rows.
        monkeypatch.setattr(
            StoredShard, "blocked_candidates", property(counted)
        )
        artifacts = _session(copied_root).build()
        assert set(artifacts.health.statuses.values()) == {"checkpoint"}
        assert reads == []
        _assert_tables(copied_root, finished[1])
        artifacts.close()

    def test_degraded_session_namespaces_by_plan_id(self, copied_root, tmp_path):
        # Shard 0 has no store and crashes on every attempt: the survivors
        # are plan shards 1 and 2, merged under their own namespaces.
        shutil.rmtree(copied_root / "shard-0000")
        artifacts = _session(
            copied_root,
            failure_policy="degrade",
            fault_plan=FaultPlan(
                tuple(
                    FaultSpec(shard=0, attempt=attempt, kind="crash")
                    for attempt in (1, 2, 3)
                )
            ),
        ).build()
        assert artifacts.shard_ids == (1, 2)
        _assert_tables(copied_root, _oracle(artifacts, tmp_path / "oracle.db"))
        offers = _dump(copied_root / "merged.db")["offers"]
        assert {row[1].split(":")[0] for row in offers} == {"s1", "s2"}
        artifacts.close()

    def test_one_attached_shard_at_a_time(
        self, finished, copied_root, monkeypatch
    ):
        limit = {"attached": 1}
        original = MergedCandidateStore.__init__

        def limited(self, path):
            original(self, path)
            self._connection.setlimit(
                sqlite3.SQLITE_LIMIT_ATTACHED, limit["attached"]
            )

        monkeypatch.setattr(MergedCandidateStore, "__init__", limited)
        _session(copied_root).build().close()
        _assert_tables(copied_root, finished[1])
        # The limit is in force: with none allowed the merge cannot run.
        limit["attached"] = 0
        with pytest.raises(sqlite3.OperationalError, match="attached"):
            _session(copied_root).build()


class TestCrashConsistentMergedDb:
    @pytest.fixture
    def torn_second_table(self, monkeypatch):
        def torn(self, **meta):
            raise RuntimeError("injected: join_only write failed")

        monkeypatch.setattr(MergedCandidateStore, "_write_join_only", torn)

    def test_no_previous_file_leaves_none(self, copied_root, torn_second_table):
        (copied_root / "merged.db").unlink()
        with pytest.raises(RuntimeError, match="injected"):
            _session(copied_root).build()
        assert not (copied_root / "merged.db").exists()
        assert not (copied_root / "merged.db.tmp").exists()

    def test_previous_file_survives_unchanged(
        self, copied_root, torn_second_table
    ):
        before = (copied_root / "merged.db").read_bytes()
        with pytest.raises(RuntimeError, match="injected"):
            _session(copied_root).build()
        assert (copied_root / "merged.db").read_bytes() == before
        assert not (copied_root / "merged.db.tmp").exists()
        for key in _MERGED_TABLES:
            StoredMergedCandidates.open(copied_root / "merged.db", key).close()
