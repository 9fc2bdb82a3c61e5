"""Merging per-shard and cross-shard results into one session view.

Two merges happen at the end of a sharded session:

* :func:`merge_candidate_sets` folds every shard's own blocking join and
  every cross-shard sweep join into one deduplicated
  :class:`MergedCandidates` set.  Each candidate carries directional
  provenance ``shard:<i>→<j>:<metric>`` — the pair first surfaced as a
  query from shard ``i`` against shard ``j``'s sub-universe under
  ``metric`` (``i == j`` for within-shard candidates, metric ``group``
  for ground-truth positives completed after the join).  Dedup runs on
  globally namespaced unordered offer-id keys, and sets are consumed in
  deterministic (shard, then shard-pair) order, so the merged set is
  byte-identical regardless of worker count or completion order.

* :func:`merge_benchmarks` / :func:`merge_corpora` build the merged
  benchmark view: per-variant pair/multi-class datasets concatenated
  across shards in shard order with namespaced offers, which a plain
  :class:`~repro.eval.runner.ExperimentRunner` consumes unchanged.

Both merges exist in two physical shapes.  The historical in-memory
shape materializes python lists (:class:`MergedCandidates`).  The
out-of-core shape streams the *same* candidate iterator into a
self-contained SQLite file (:class:`MergedCandidateStore` →
``merged.db``) whose dedup is an ``INSERT OR IGNORE`` over canonical
unordered pair keys.  Each candidate table streams through one
``executemany`` and each distinct offer is written once; the first-win
dedup is the same.  The file is served back as
:class:`StoredMergedCandidates` — a lazy query view with windowed
iteration and SQL aggregates, duck-type compatible with
:class:`MergedCandidates` so recall and dataset consumers run unchanged
without a merged copy in RAM.  One shared generator feeds both shapes,
so python-set dedup and SQL first-win dedup see identical insertion
order and keep byte-identical survivors.
"""

from __future__ import annotations

import json
import sqlite3
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.blocking.candidates import BlockedPairSet
from repro.core.benchmark import WDCProductsBenchmark
from repro.core.datasets import LabeledPair, MulticlassDataset, PairDataset
from repro.corpus.schema import ProductOffer, SyntheticCorpus
from repro.io.store import OFFER_COLUMNS, offer_to_row, row_to_offer
from repro.shard.namespace import (
    namespace_id,
    namespace_multiclass_dataset,
    namespace_offers,
    namespace_pair_dataset,
)

__all__ = [
    "MergedCandidate",
    "MergedCandidates",
    "MergedCandidateStore",
    "StoredMergedCandidates",
    "MERGED_SCHEMA",
    "iter_merged_candidates",
    "merge_candidate_sets",
    "merge_benchmarks",
    "merge_corpora",
]

MERGED_SCHEMA = 1


@dataclass(frozen=True)
class MergedCandidate:
    """One candidate pair of the merged session-level set.

    ``offer_a``/``offer_b`` are globally namespaced; ``provenance`` is
    ``shard:<i>→<j>:<metric>`` with ``i`` the querying shard and ``j`` the
    shard whose sub-universe surfaced the candidate.
    """

    offer_a: ProductOffer
    offer_b: ProductOffer
    label: int
    score: float
    metric: str
    provenance: str


class MergedCandidates:
    """The session-wide deduplicated candidate set.

    Duck-type compatible with
    :class:`~repro.blocking.candidates.BlockedPairSet` where it matters
    (``pair_keys`` / ``k`` / ``metrics`` / ``__len__`` / ``summary`` /
    ``to_dataset``), so :func:`~repro.blocking.recall.blocking_recall`
    measures it against a (merged, namespaced) reference unchanged.
    """

    def __init__(
        self,
        pairs: list[MergedCandidate],
        *,
        k: int,
        metrics: tuple[str, ...],
        n_shards: int,
    ) -> None:
        self.pairs = pairs
        self.k = k
        self.metrics = metrics
        self.n_shards = n_shards

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self) -> Iterator[MergedCandidate]:
        return iter(self.pairs)

    def pair_keys(self) -> set[tuple[str, str]]:
        """Unordered (namespaced) offer-id keys, as ``LabeledPair.key()``."""
        keys: set[tuple[str, str]] = set()
        for pair in self.pairs:
            a, b = pair.offer_a.offer_id, pair.offer_b.offer_id
            keys.add((a, b) if a <= b else (b, a))
        return keys

    def to_dataset(self, name: str) -> PairDataset:
        """The merged candidates as one labeled ``PairDataset``."""
        dataset = PairDataset(name=name)
        dataset.pairs = [
            LabeledPair(
                pair_id=f"{name}-{position:07d}",
                offer_a=pair.offer_a,
                offer_b=pair.offer_b,
                label=pair.label,
                provenance=pair.provenance,
            )
            for position, pair in enumerate(self.pairs)
        ]
        return dataset

    def summary(self) -> dict[str, int]:
        positives = sum(pair.label for pair in self.pairs)
        cross = sum(
            1 for pair in self.pairs if not _is_within_shard(pair.provenance)
        )
        return {
            "all": len(self.pairs),
            "pos": positives,
            "neg": len(self.pairs) - positives,
            "cross_shard": cross,
        }

    def per_provenance_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for pair in self.pairs:
            counts[pair.provenance] = counts.get(pair.provenance, 0) + 1
        return counts


def _is_within_shard(provenance: str) -> bool:
    _, _, tail = provenance.partition(":")
    direction, _, _ = tail.partition(":")
    source, _, target = direction.partition("→")
    return source == target


def provenance_tag(query_shard: int, candidate_shard: int, metric: str) -> str:
    """The canonical ``shard:<i>→<j>:<metric>`` provenance string."""
    return f"shard:{int(query_shard)}→{int(candidate_shard)}:{metric}"


def _iter_blocked(
    blocked: BlockedPairSet,
    shard_of_row: np.ndarray | int,
    seen: set[tuple[str, str]] | None,
) -> Iterator[MergedCandidate]:
    """Yield ``blocked``'s pairs (already namespaced) as merged candidates.

    ``shard_of_row`` maps engine rows to shard ids — a scalar for a
    within-shard set, the partition array for a cross-shard sweep.
    ``seen`` enables python-set dedup; ``None`` yields every occurrence
    in the same order (a SQL sink dedups downstream on the identical
    canonical keys, so both consumers keep the same first-win survivors).
    """
    offers = blocked.blocker.offers
    labels = blocked.blocker.group_labels
    if offers is None or labels is None:
        raise ValueError("merging needs blockers built with offers and labels")
    scalar_shard = shard_of_row if isinstance(shard_of_row, int) else None
    for pair in blocked.pairs:
        offer_a, offer_b = offers[pair.row_a], offers[pair.row_b]
        if seen is not None:
            a, b = offer_a.offer_id, offer_b.offer_id
            key = (a, b) if a <= b else (b, a)
            if key in seen:
                continue
            seen.add(key)
        if scalar_shard is not None:
            query_shard = candidate_shard = scalar_shard
        else:
            query_shard = int(shard_of_row[pair.query_row])
            candidate = (
                pair.row_b if pair.row_a == pair.query_row else pair.row_a
            )
            candidate_shard = int(shard_of_row[candidate])
        yield MergedCandidate(
            offer_a=offer_a,
            offer_b=offer_b,
            label=int(labels[pair.row_a] == labels[pair.row_b]),
            score=pair.score,
            metric=pair.metric,
            provenance=provenance_tag(
                query_shard, candidate_shard, pair.metric
            ),
        )


def iter_merged_candidates(
    shard_sets: Sequence[tuple[int, BlockedPairSet]],
    cross_sets: Sequence[tuple[tuple[int, int], BlockedPairSet, np.ndarray]],
    *,
    dedup: bool = True,
) -> Iterator[MergedCandidate]:
    """Stream the session's merged candidates in canonical merge order.

    Consumes ``shard_sets`` then ``cross_sets`` in the given order (the
    session passes shard order, then lexicographic pair order).  With
    ``dedup=True`` the stream is the exact in-memory merged set; with
    ``dedup=False`` duplicates ride along for a downstream first-win
    sink (``INSERT OR IGNORE`` over the same canonical keys).
    """
    seen: set[tuple[str, str]] | None = set() if dedup else None
    for shard, blocked in shard_sets:
        yield from _iter_blocked(blocked, int(shard), seen)
    for _, blocked, partition in cross_sets:
        yield from _iter_blocked(blocked, partition, seen)


def merge_candidate_sets(
    shard_sets: Sequence[tuple[int, BlockedPairSet]],
    cross_sets: Sequence[tuple[tuple[int, int], BlockedPairSet, np.ndarray]],
    *,
    k: int,
    metrics: Sequence[str],
    n_shards: int,
) -> MergedCandidates:
    """Fold per-shard joins and cross-shard sweeps into one candidate set.

    ``shard_sets`` holds ``(shard, blocked)`` per shard; ``cross_sets``
    holds ``((i, j), blocked, partition)`` per shard pair, with
    ``partition`` mapping the combined engine's rows to shard ids.  Both
    are consumed in the given order, and all blockers must carry
    namespaced offers/labels, so dedup keys are globally unique and the
    merge is deterministic by construction.
    """
    return MergedCandidates(
        list(iter_merged_candidates(shard_sets, cross_sets, dedup=True)),
        k=k,
        metrics=tuple(metrics),
        n_shards=n_shards,
    )


# --------------------------------------------------------------------- #
# Out-of-core merged views (merged.db)
# --------------------------------------------------------------------- #
_MERGED_TABLES = {
    "completed": "candidates_completed",
    "join_only": "candidates_join_only",
}

_MERGED_OFFER_SQL = ", ".join(
    f"{name} {'REAL' if name == 'price' else 'TEXT'}"
    + (" PRIMARY KEY" if name == "offer_id" else "")
    for name in OFFER_COLUMNS
)

_MERGED_DDL = [
    "CREATE TABLE meta (key TEXT PRIMARY KEY, value TEXT NOT NULL)",
    f"CREATE TABLE offers ({_MERGED_OFFER_SQL})",
    *(
        f"""CREATE TABLE {table} (
            key_a TEXT NOT NULL,
            key_b TEXT NOT NULL,
            offer_a TEXT NOT NULL REFERENCES offers (offer_id),
            offer_b TEXT NOT NULL REFERENCES offers (offer_id),
            label INTEGER NOT NULL,
            score REAL NOT NULL,
            metric TEXT NOT NULL,
            provenance TEXT NOT NULL,
            UNIQUE (key_a, key_b)
        )"""
        for table in _MERGED_TABLES.values()
    ),
]

_OFFER_PLACEHOLDERS = ", ".join("?" for _ in OFFER_COLUMNS)


class MergedCandidateStore:
    """Write side of ``merged.db`` — the session-level candidate sink.

    Self-contained by design: the merged file carries its own
    (namespaced) offers table, so reading merged candidates back never
    touches a per-shard store.  Dedup happens *in* the database — the
    candidate tables are unique over canonical unordered pair keys and
    rows arrive via ``INSERT OR IGNORE`` in canonical merge order, so
    the surviving rows equal the in-memory python-set dedup exactly.

    Each :meth:`write` streams its table's rows through one
    ``executemany`` in one transaction.  Offers are written once per
    distinct id, in first-appearance order; the id set spans both tables,
    which share the one ``offers`` table.  Writing the offers of every
    streamed candidate, not just the surviving ones, changes nothing: a
    duplicate that ``INSERT OR IGNORE`` drops has the same two offer ids
    as the earlier row that won.
    """

    def __init__(self, path: Path | str) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        # Recreate from scratch: the sink is derived data, rebuilt by
        # every sweep, so a stale file must never contribute rows.
        if self.path.exists():
            self.path.unlink()
        self._connection = sqlite3.connect(self.path)
        self._written_offers: set[str] = set()
        self._connection.execute("PRAGMA journal_mode=MEMORY")
        self._connection.execute("PRAGMA synchronous=OFF")
        with self._connection:
            for statement in _MERGED_DDL:
                self._connection.execute(statement)
            self._connection.execute(
                "INSERT INTO meta VALUES ('schema', ?)", (str(MERGED_SCHEMA),)
            )

    def write(
        self,
        table_key: str,
        candidates: Iterable[MergedCandidate],
        *,
        k: int,
        metrics: Sequence[str],
        n_shards: int,
    ) -> "StoredMergedCandidates":
        """Stream one candidate table and return its lazy query view."""
        table = _MERGED_TABLES[table_key]
        written = self._written_offers
        # Every offer this table references, in first-appearance order.
        # Ids join ``written`` only once the transaction commits, so a
        # failed write leaves no offer behind as already written.
        referenced: dict[str, ProductOffer] = {}

        def rows() -> Iterator[tuple]:
            for candidate in candidates:
                a = candidate.offer_a.offer_id
                b = candidate.offer_b.offer_id
                referenced.setdefault(a, candidate.offer_a)
                referenced.setdefault(b, candidate.offer_b)
                key_a, key_b = (a, b) if a <= b else (b, a)
                yield (
                    key_a,
                    key_b,
                    a,
                    b,
                    candidate.label,
                    candidate.score,
                    candidate.metric,
                    candidate.provenance,
                )

        connection = self._connection
        with connection:
            connection.executemany(
                f"INSERT OR IGNORE INTO {table} "
                "VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
                rows(),
            )
            connection.executemany(
                f"INSERT INTO offers VALUES ({_OFFER_PLACEHOLDERS})",
                (
                    offer_to_row(offer)
                    for offer_id, offer in referenced.items()
                    if offer_id not in written
                ),
            )
            for key, value in (
                (f"{table_key}:k", str(int(k))),
                (f"{table_key}:metrics", json.dumps(list(metrics))),
                (f"{table_key}:n_shards", str(int(n_shards))),
            ):
                connection.execute(
                    "INSERT OR REPLACE INTO meta VALUES (?, ?)", (key, value)
                )
        written.update(referenced)
        return StoredMergedCandidates(
            self.path,
            table_key,
            k=int(k),
            metrics=tuple(metrics),
            n_shards=int(n_shards),
        )

    def close(self) -> None:
        self._connection.close()


def _reopen_stored_merged(path: str, table_key: str) -> "StoredMergedCandidates":
    return StoredMergedCandidates.open(path, table_key)


class StoredMergedCandidates:
    """Lazy, windowed query view over one ``merged.db`` candidate table.

    Duck-type compatible with :class:`MergedCandidates` (``pair_keys`` /
    ``k`` / ``metrics`` / ``__len__`` / ``__iter__`` / ``summary`` /
    ``per_provenance_counts`` / ``to_dataset``), but nothing is resident:
    iteration pages through the table in rowid order ``window`` rows at a
    time (offers resolved per window from the merged file's own offers
    table), and the aggregates are SQL.  ``.pairs`` exists as an explicit
    materialization escape hatch for callers that genuinely need a list.
    """

    def __init__(
        self,
        path: Path | str,
        table_key: str,
        *,
        k: int,
        metrics: tuple[str, ...],
        n_shards: int,
        window: int = 2048,
    ) -> None:
        if table_key not in _MERGED_TABLES:
            raise ValueError(
                f"table_key must be one of {sorted(_MERGED_TABLES)}, got "
                f"{table_key!r}"
            )
        self.path = Path(path)
        self.table_key = table_key
        self.k = k
        self.metrics = metrics
        self.n_shards = n_shards
        self.window = window
        self._table = _MERGED_TABLES[table_key]
        self._connection_cache: sqlite3.Connection | None = None
        self._length: int | None = None

    @classmethod
    def open(cls, path: Path | str, table_key: str) -> "StoredMergedCandidates":
        """Reopen a view from the metadata persisted beside the table."""
        connection = sqlite3.connect(f"file:{Path(path)}?mode=ro", uri=True)
        try:
            meta = dict(connection.execute("SELECT key, value FROM meta"))
        finally:
            connection.close()
        if meta.get("schema") != str(MERGED_SCHEMA):
            raise ValueError(
                f"merged store {path} has schema {meta.get('schema')!r}, "
                f"expected {MERGED_SCHEMA}"
            )
        return cls(
            path,
            table_key,
            k=int(meta[f"{table_key}:k"]),
            metrics=tuple(json.loads(meta[f"{table_key}:metrics"])),
            n_shards=int(meta[f"{table_key}:n_shards"]),
        )

    def __reduce__(self):
        return (_reopen_stored_merged, (str(self.path), self.table_key))

    @property
    def _connection(self) -> sqlite3.Connection:
        if self._connection_cache is None:
            self._connection_cache = sqlite3.connect(
                f"file:{self.path}?mode=ro", uri=True, check_same_thread=False
            )
        return self._connection_cache

    def close(self) -> None:
        if self._connection_cache is not None:
            self._connection_cache.close()
            self._connection_cache = None

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        if self._length is None:
            (self._length,) = self._connection.execute(
                f"SELECT COUNT(*) FROM {self._table}"
            ).fetchone()
        return self._length

    def _window_offers(
        self, rows: list[tuple]
    ) -> dict[str, ProductOffer]:
        wanted = sorted({row[1] for row in rows} | {row[2] for row in rows})
        offers: dict[str, ProductOffer] = {}
        for start in range(0, len(wanted), 512):
            chunk = wanted[start : start + 512]
            marks = ", ".join("?" for _ in chunk)
            for values in self._connection.execute(
                f"SELECT {', '.join(OFFER_COLUMNS)} FROM offers "
                f"WHERE offer_id IN ({marks})",
                chunk,
            ):
                offer = row_to_offer(values)
                offers[offer.offer_id] = offer
        return offers

    def __iter__(self) -> Iterator[MergedCandidate]:
        last_rowid = 0
        while True:
            rows = self._connection.execute(
                f"SELECT rowid, offer_a, offer_b, label, score, metric, "
                f"provenance FROM {self._table} WHERE rowid > ? "
                f"ORDER BY rowid LIMIT ?",
                (last_rowid, self.window),
            ).fetchall()
            if not rows:
                return
            offers = self._window_offers(rows)
            for rowid, a, b, label, score, metric, provenance in rows:
                yield MergedCandidate(
                    offer_a=offers[a],
                    offer_b=offers[b],
                    label=label,
                    score=score,
                    metric=metric,
                    provenance=provenance,
                )
            last_rowid = rows[-1][0]

    @property
    def pairs(self) -> list[MergedCandidate]:
        """Materialized list — the explicit opt-out from laziness."""
        return list(self)

    def pair_keys(self) -> set[tuple[str, str]]:
        return {
            (key_a, key_b)
            for key_a, key_b in self._connection.execute(
                f"SELECT key_a, key_b FROM {self._table}"
            )
        }

    def to_dataset(self, name: str) -> PairDataset:
        dataset = PairDataset(name=name)
        dataset.pairs = [
            LabeledPair(
                pair_id=f"{name}-{position:07d}",
                offer_a=pair.offer_a,
                offer_b=pair.offer_b,
                label=pair.label,
                provenance=pair.provenance,
            )
            for position, pair in enumerate(self)
        ]
        return dataset

    def summary(self) -> dict[str, int]:
        total, positives = self._connection.execute(
            f"SELECT COUNT(*), COALESCE(SUM(label), 0) FROM {self._table}"
        ).fetchone()
        cross = sum(
            count
            for provenance, count in self._connection.execute(
                f"SELECT provenance, COUNT(*) FROM {self._table} "
                "GROUP BY provenance"
            )
            if not _is_within_shard(provenance)
        )
        return {
            "all": total,
            "pos": positives,
            "neg": total - positives,
            "cross_shard": cross,
        }

    def per_provenance_counts(self) -> dict[str, int]:
        return dict(
            self._connection.execute(
                f"SELECT provenance, COUNT(*) FROM {self._table} "
                "GROUP BY provenance ORDER BY MIN(rowid)"
            )
        )


# --------------------------------------------------------------------- #
# Merged benchmark view
# --------------------------------------------------------------------- #
def _merge_pair_datasets(
    datasets: Sequence[tuple[int, PairDataset]], name: str
) -> PairDataset:
    merged = PairDataset(name=name)
    for shard, dataset in datasets:
        merged.pairs.extend(namespace_pair_dataset(dataset, shard).pairs)
    return merged


def _merge_multiclass(
    datasets: Sequence[tuple[int, MulticlassDataset]], name: str
) -> MulticlassDataset:
    merged = MulticlassDataset(name=name)
    for shard, dataset in datasets:
        spaced = namespace_multiclass_dataset(dataset, shard)
        merged.offers.extend(spaced.offers)
        merged.labels.extend(spaced.labels)
    return merged


def merge_benchmarks(
    benchmarks: Sequence[WDCProductsBenchmark],
    *,
    shard_ids: Sequence[int] | None = None,
) -> WDCProductsBenchmark:
    """Concatenate per-shard benchmarks into one namespaced benchmark.

    Every shard must cover the same variant keys (the session spawns all
    shards from one base config, so they do); datasets are concatenated in
    shard order with ``s<i>:``-prefixed offer/pair ids and multi-class
    labels, producing ``merged-``-named datasets an
    :class:`~repro.eval.runner.ExperimentRunner` trains on unchanged.

    ``shard_ids`` names the shard behind each benchmark (default: the
    positional ``0..n-1``).  A degraded session passes the *surviving*
    shard ids here, so namespaces in the merged view always refer to the
    plan's shard numbering, never to a compacted survivor index.
    """
    if not benchmarks:
        raise ValueError("merge_benchmarks needs at least one benchmark")
    if shard_ids is None:
        shard_ids = range(len(benchmarks))
    shard_ids = list(shard_ids)
    if len(shard_ids) != len(benchmarks):
        raise ValueError(
            f"shard_ids covers {len(shard_ids)} shards but "
            f"{len(benchmarks)} benchmarks were given"
        )
    reference = benchmarks[0]
    for other in benchmarks[1:]:
        for attribute in (
            "train_sets",
            "valid_sets",
            "test_sets",
            "multiclass_train",
            "multiclass_valid",
            "multiclass_test",
        ):
            if set(getattr(other, attribute)) != set(
                getattr(reference, attribute)
            ):
                raise ValueError(
                    f"shard benchmarks disagree on {attribute} variants; "
                    "merged views need homogeneous shard configs"
                )
    merged = WDCProductsBenchmark()
    for attribute in ("train_sets", "valid_sets", "test_sets"):
        target = getattr(merged, attribute)
        for key, dataset in getattr(reference, attribute).items():
            target[key] = _merge_pair_datasets(
                [
                    (shard, getattr(benchmark, attribute)[key])
                    for shard, benchmark in zip(shard_ids, benchmarks)
                ],
                name=f"merged-{dataset.name}",
            )
    for attribute in ("multiclass_train", "multiclass_valid", "multiclass_test"):
        target = getattr(merged, attribute)
        for key, dataset in getattr(reference, attribute).items():
            target[key] = _merge_multiclass(
                [
                    (shard, getattr(benchmark, attribute)[key])
                    for shard, benchmark in zip(shard_ids, benchmarks)
                ],
                name=f"merged-{dataset.name}",
            )
    return merged


def merge_corpora(
    corpora: Sequence[SyntheticCorpus],
    *,
    shard_ids: Sequence[int] | None = None,
) -> SyntheticCorpus:
    """One namespaced corpus over every shard's cleansed offers.

    Cluster metadata (category / family) carries over with namespaced
    cluster and family ids, so cluster-level consumers (pre-training
    cluster extraction, profiling) see the same structure they would on a
    single corpus.  ``shard_ids`` names the shard behind each corpus
    (default positional) — degraded sessions pass survivor ids.
    """
    if shard_ids is None:
        shard_ids = range(len(corpora))
    shard_ids = list(shard_ids)
    if len(shard_ids) != len(corpora):
        raise ValueError(
            f"shard_ids covers {len(shard_ids)} shards but "
            f"{len(corpora)} corpora were given"
        )
    merged = SyntheticCorpus()
    for shard, corpus in zip(shard_ids, corpora):
        merged.extend(namespace_offers(corpus.offers, shard))
        for cluster_id, (category, family_id) in corpus._cluster_meta.items():
            merged.register_cluster_meta(
                namespace_id(shard, cluster_id),
                category=category,
                family_id=namespace_id(shard, family_id),
            )
    return merged
