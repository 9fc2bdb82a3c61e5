"""Merging per-shard and cross-shard results into one session view.

Two merges happen at the end of a sharded session:

* The candidate merge folds every shard's own blocking join and every
  cross-shard sweep join into one deduplicated candidate set.  Each
  candidate carries directional
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

A session's candidate merge runs in SQLite (:class:`MergedCandidateStore`
→ ``merged.db`` in the session directory), where the rows already are:
every shard's join and its group completion are selected straight out of
that shard's ``shard.db`` with ``INSERT OR IGNORE … SELECT``, the
namespaced ids, canonical pair keys and provenance being SQL
expressions.  Each cross-shard join is written by the worker that
computed it into a small pair store (:func:`write_pair_store`), already
namespaced and tagged, and appended the same way, so no candidate row
passes through the merging process's python.  Dedup is ``INSERT OR
IGNORE`` over canonical unordered pair keys in first-win order.  The file is served back as
:class:`StoredMergedCandidates` — a lazy query view with windowed
iteration and SQL aggregates, so recall and dataset consumers run
without a merged copy in RAM.  :func:`merge_candidate_sets` is the
in-memory shape of the same first-win merge, python lists
(:class:`MergedCandidates`) with a python-set dedup: it serves the
split-scoped candidates of
:meth:`~repro.shard.session.ShardedArtifacts.split_candidates`, whose
universes are views the parent builds and that no store holds.
"""

from __future__ import annotations

import json
import os
import sqlite3
from collections.abc import Iterator, Sequence
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from repro.blocking.candidates import BlockedPairSet
from repro.core.benchmark import WDCProductsBenchmark
from repro.core.datasets import LabeledPair, MulticlassDataset, PairDataset
from repro.corpus.schema import ProductOffer, SyntheticCorpus
from repro.errors import StoreError
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
    "StoredShardJoin",
    "StoredPairJoin",
    "MERGED_SCHEMA",
    "write_pair_store",
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


# One merged candidate's fields, in :class:`MergedCandidate` order:
# ``(offer_a, offer_b, label, score, metric, provenance)``.
_CandidateFields = tuple[ProductOffer, ProductOffer, int, float, str, str]


def _iter_blocked(
    blocked: BlockedPairSet, shard_of_row: np.ndarray | int
) -> Iterator[_CandidateFields]:
    """Yield every pair of ``blocked`` (already namespaced), in order.

    Each pair comes as its :class:`MergedCandidate` fields.  ``shard_of_row`` maps
    engine rows to shard ids — a scalar for a within-shard set, the
    partition array for a cross-shard sweep.
    """
    offers = blocked.blocker.offers
    labels = blocked.blocker.group_labels
    if offers is None or labels is None:
        raise ValueError("merging needs blockers built with offers and labels")
    shards = None if isinstance(shard_of_row, int) else shard_of_row.tolist()
    tags: dict[tuple[int, int, str], str] = {}
    for pair in blocked.pairs:
        a, b = pair.row_a, pair.row_b
        if shards is None:
            direction = (shard_of_row, shard_of_row, pair.metric)
        else:
            query = pair.query_row
            candidate = b if a == query else a
            direction = (shards[query], shards[candidate], pair.metric)
        tag = tags.get(direction)
        if tag is None:
            tag = tags[direction] = provenance_tag(*direction)
        yield (
            offers[a],
            offers[b],
            int(labels[a] == labels[b]),
            pair.score,
            pair.metric,
            tag,
        )


def _iter_cross(
    cross_sets: Sequence[tuple[tuple[int, int], BlockedPairSet, np.ndarray]],
) -> Iterator[_CandidateFields]:
    for _, blocked, partition in cross_sets:
        yield from _iter_blocked(blocked, partition)


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
    first-win merge is deterministic by construction.
    """
    seen: set[tuple[str, str]] = set()
    pairs: list[MergedCandidate] = []
    within = (
        _iter_blocked(blocked, int(shard)) for shard, blocked in shard_sets
    )
    for fields in chain(*within, _iter_cross(cross_sets)):
        a, b = fields[0].offer_id, fields[1].offer_id
        key = (a, b) if a <= b else (b, a)
        if key not in seen:
            seen.add(key)
            pairs.append(MergedCandidate(*fields))
    return MergedCandidates(
        pairs, k=k, metrics=tuple(metrics), n_shards=n_shards
    )


@dataclass(frozen=True)
class StoredShardJoin:
    """One shard's within-shard join, left where it sits: in its store.

    ``database`` is the shard's ``shard.db``, whose ``blocked_pairs``
    (the join) and ``group_positives`` (the group positives that join
    misses, stored by the build) :class:`MergedCandidateStore` selects
    in place.  Built by :func:`~repro.shard.sweep.adopt_stored`.
    """

    shard: int
    database: Path
    metrics: tuple[str, ...]


@dataclass(frozen=True)
class StoredPairJoin:
    """One cross-shard join, written to its pair store by the process
    that computed it (:func:`write_pair_store`).

    ``pair`` is the ``(i, j)`` shard pair, ``database`` the pair store
    and ``pid`` the process that ran the join.
    """

    pair: tuple[int, int]
    database: Path
    pid: int


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

# The offer columns that carry shard-local ids, namespaced on the way in.
_NAMESPACED_OFFER_COLUMNS = ("offer_id", "cluster_id", "true_cluster_id")

# One attached shard's stored rows as merged candidates, in position
# order: its join (``blocked_pairs``) or its group completion
# (``group_positives``, metric ``group``).  ``:tag`` is the shard's
# ``s<i>:`` prefix and ``:provenance`` its ``shard:<i>→<i>:`` tag.
# Inside one shard the prefix is shared, so the raw ids order the
# canonical key exactly like the namespaced ones.
_SEGMENT_INSERT = """
INSERT OR IGNORE INTO candidates_completed
SELECT
    :tag || CASE WHEN a.offer_id <= b.offer_id
        THEN a.offer_id ELSE b.offer_id END,
    :tag || CASE WHEN a.offer_id <= b.offer_id
        THEN b.offer_id ELSE a.offer_id END,
    :tag || a.offer_id,
    :tag || b.offer_id,
    a.cluster_id = b.cluster_id,
    p.score,
    {metric},
    :provenance || {metric}
FROM shard.{table} AS p
JOIN shard.corpus_rows AS row_a ON row_a.row = p.row_a
JOIN shard.offers AS a ON a.oid = row_a.oid
JOIN shard.corpus_rows AS row_b ON row_b.row = p.row_b
JOIN shard.offers AS b ON b.oid = row_b.oid
ORDER BY p.position
"""

# The namespaced offers those rows reference, in first-appearance order
# (``offer_a`` before ``offer_b`` within a row).
_SEGMENT_OFFERS_INSERT = f"""
INSERT OR IGNORE INTO offers
SELECT {", ".join(
    f":tag || o.{name}" if name in _NAMESPACED_OFFER_COLUMNS else f"o.{name}"
    for name in OFFER_COLUMNS
)}
FROM (
    SELECT row, MIN(appearance) AS first FROM (
        SELECT row_a AS row, 2 * position AS appearance
        FROM shard.{{table}}
        UNION ALL
        SELECT row_b, 2 * position + 1 FROM shard.{{table}}
    )
    GROUP BY row
) AS ref
JOIN shard.corpus_rows AS r ON r.row = ref.row
JOIN shard.offers AS o ON o.oid = r.oid
ORDER BY ref.first
"""

# (table, metric expression) of a shard's two segments, in merge order.
_SHARD_SEGMENTS = (("blocked_pairs", "p.metric"), ("group_positives", "'group'"))

_CANDIDATE_COLUMNS = (
    "key_a, key_b, offer_a, offer_b, label, score, metric, provenance"
)

# A pair store: one cross-shard join's merged candidates and the offers
# they reference, both in the order the merge appends them.
_PAIR_DDL = [
    """CREATE TABLE candidates (
        position INTEGER PRIMARY KEY,
        key_a TEXT NOT NULL,
        key_b TEXT NOT NULL,
        offer_a TEXT NOT NULL,
        offer_b TEXT NOT NULL,
        label INTEGER NOT NULL,
        score REAL NOT NULL,
        metric TEXT NOT NULL,
        provenance TEXT NOT NULL
    )""",
    "CREATE TABLE offers (position INTEGER PRIMARY KEY, "
    + ", ".join(
        f"{name} {'REAL' if name == 'price' else 'TEXT'}" for name in OFFER_COLUMNS
    )
    + ")",
]

_PAIR_INSERTS = (
    f"INSERT OR IGNORE INTO candidates_completed SELECT {_CANDIDATE_COLUMNS} "
    "FROM pair.candidates ORDER BY position",
    f"INSERT OR IGNORE INTO offers SELECT {', '.join(OFFER_COLUMNS)} "
    "FROM pair.offers ORDER BY position",
)


def write_pair_store(
    path: Path | str,
    pair: tuple[int, int],
    blocked: BlockedPairSet,
    partition: np.ndarray,
) -> StoredPairJoin:
    """Write one cross-shard join's candidates into the pair store ``path``.

    ``blocked`` is the join over a combined universe and ``partition``
    maps its rows to shard ids (see
    :func:`~repro.shard.sweep.cross_shard_candidates`).  Rows are stored
    namespaced, keyed and tagged exactly as ``merged.db`` holds them, in
    join order, with every offer they reference once, in first-appearance
    order.  The file is written at ``<path>.tmp`` and renamed, so a
    crash leaves no partial store under ``path``.
    """
    path = Path(path)
    temp = path.with_name(path.name + ".tmp")
    temp.unlink(missing_ok=True)
    referenced: dict[str, ProductOffer] = {}

    def rows() -> Iterator[tuple]:
        for offer_a, offer_b, label, score, metric, provenance in (
            _iter_blocked(blocked, partition)
        ):
            a, b = offer_a.offer_id, offer_b.offer_id
            referenced.setdefault(a, offer_a)
            referenced.setdefault(b, offer_b)
            key_a, key_b = (a, b) if a <= b else (b, a)
            yield key_a, key_b, a, b, label, score, metric, provenance

    connection = sqlite3.connect(temp)
    try:
        with connection:
            for statement in _PAIR_DDL:
                connection.execute(statement)
            connection.executemany(
                f"INSERT INTO candidates ({_CANDIDATE_COLUMNS}) "
                "VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
                rows(),
            )
            connection.executemany(
                f"INSERT INTO offers ({', '.join(OFFER_COLUMNS)}) "
                f"VALUES ({_OFFER_PLACEHOLDERS})",
                (offer_to_row(offer) for offer in referenced.values()),
            )
    finally:
        connection.close()
    os.replace(temp, path)
    return StoredPairJoin(
        pair=(int(pair[0]), int(pair[1])),
        database=path,
        pid=os.getpid(),
    )


class MergedCandidateStore:
    """Write side of ``merged.db`` — the session-level candidate sink.

    Self-contained by design: the merged file carries its own
    (namespaced) offers table, so reading merged candidates back never
    touches a per-shard store.  The merge runs in the database: one
    :meth:`write` fills both candidate tables, unique over canonical
    unordered pair keys, with ``INSERT OR IGNORE`` in the in-memory
    merge's order, so the surviving rows and their rowids equal
    :func:`merge_candidate_sets`' first-win dedup exactly.

    Each shard's join and group completion are selected from its
    ``shard.db``, and each cross-shard join from its pair store, every
    file attached read-only one at a time (so any number of shards stays
    within SQLite's attach limit).  The ``offers`` table holds each
    referenced offer once, in first-appearance order over
    ``candidates_completed``.

    The file is built at ``merged.db.tmp`` beside ``merged.db`` and
    moved over it only after the last table commits, so a crash leaves
    either the previous complete file or none; :meth:`close` removes
    the temporary file of a write that did not finish.
    """

    def __init__(self, path: Path | str) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._temp = self.path.with_name(self.path.name + ".tmp")
        # Left behind by a writer that died: derived data, never resumed.
        self._temp.unlink(missing_ok=True)
        # A URI connection, so ATTACH accepts the read-only URIs.
        self._connection = sqlite3.connect(
            self._temp.resolve().as_uri(), uri=True
        )
        self._connection.execute("PRAGMA journal_mode=MEMORY")
        self._connection.execute("PRAGMA synchronous=OFF")
        with self._connection:
            for statement in _MERGED_DDL:
                self._connection.execute(statement)
            self._connection.execute(
                "INSERT INTO meta VALUES ('schema', ?)", (str(MERGED_SCHEMA),)
            )

    @contextmanager
    def _attached(self, database: Path, alias: str) -> Iterator[None]:
        """``database`` attached read-only as ``alias``, in one transaction."""
        connection = self._connection
        connection.execute(
            f"ATTACH DATABASE ? AS {alias}",
            (f"{database.resolve().as_uri()}?mode=ro",),
        )
        try:
            with connection:
                yield
        finally:
            connection.execute(f"DETACH DATABASE {alias}")

    def write(
        self,
        joins: Sequence[StoredShardJoin],
        pairs: Sequence[StoredPairJoin],
        *,
        k: int,
        metrics: Sequence[str],
        n_shards: int,
    ) -> tuple["StoredMergedCandidates", "StoredMergedCandidates"]:
        """Merge into both tables, commit the file, return both views.

        ``candidates_completed`` takes every shard's join rows followed
        by its group positives, shard by shard in the given order, then
        every cross-shard pair store in the given order.
        ``candidates_join_only`` copies that table in rowid order without
        its group rows.  A group positive is a within-group pair its own
        shard's join missed, so it never shares a key with a join or
        cross-shard row: the copy keeps exactly the rows a first-win
        merge of the joins and cross sets keeps.  Returns the
        ``(completed, join_only)`` views; a store writes once.
        """
        meta = dict(k=int(k), metrics=tuple(metrics), n_shards=int(n_shards))
        connection = self._connection
        for join in joins:
            shard = int(join.shard)
            names = {
                "tag": namespace_id(shard, ""),
                "provenance": provenance_tag(shard, shard, ""),
            }
            with self._attached(join.database, "shard"):
                for table, metric in _SHARD_SEGMENTS:
                    connection.execute(
                        _SEGMENT_INSERT.format(table=table, metric=metric),
                        names,
                    )
                    connection.execute(
                        _SEGMENT_OFFERS_INSERT.format(table=table), names
                    )
        for pair in pairs:
            with self._attached(pair.database, "pair"):
                for statement in _PAIR_INSERTS:
                    connection.execute(statement)
        with connection:
            self._write_meta("completed", **meta)
        self._write_join_only(**meta)
        connection.close()
        os.replace(self._temp, self.path)
        return tuple(
            StoredMergedCandidates(self.path, table_key, **meta)
            for table_key in _MERGED_TABLES
        )

    def _write_meta(
        self, table_key: str, *, k: int, metrics: tuple[str, ...], n_shards: int
    ) -> None:
        self._connection.executemany(
            "INSERT OR REPLACE INTO meta VALUES (?, ?)",
            (
                (f"{table_key}:k", str(k)),
                (f"{table_key}:metrics", json.dumps(list(metrics))),
                (f"{table_key}:n_shards", str(n_shards)),
            ),
        )

    def _write_join_only(self, **meta) -> None:
        with self._connection:
            self._connection.execute(
                f"INSERT OR IGNORE INTO {_MERGED_TABLES['join_only']} "
                f"SELECT * FROM {_MERGED_TABLES['completed']} "
                "WHERE metric != 'group' ORDER BY rowid"
            )
            self._write_meta("join_only", **meta)

    def close(self) -> None:
        """Close the connection; drop the file of an unfinished write."""
        self._connection.close()
        self._temp.unlink(missing_ok=True)


def _table_name(table_key: str) -> str:
    if table_key not in _MERGED_TABLES:
        raise ValueError(
            f"table_key must be one of {sorted(_MERGED_TABLES)}, got "
            f"{table_key!r}"
        )
    return _MERGED_TABLES[table_key]


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
        self._table = _table_name(table_key)
        self.path = Path(path)
        self.table_key = table_key
        self.k = k
        self.metrics = metrics
        self.n_shards = n_shards
        self.window = window
        self._connection_cache: sqlite3.Connection | None = None
        self._length: int | None = None

    @classmethod
    def open(cls, path: Path | str, table_key: str) -> "StoredMergedCandidates":
        """Reopen a view from the metadata persisted beside the table.

        A file that is no merged store, carries another schema or never
        committed ``table_key``'s table raises
        :class:`~repro.errors.StoreError` naming the path.
        """
        table = _table_name(table_key)
        try:
            connection = sqlite3.connect(f"file:{Path(path)}?mode=ro", uri=True)
            try:
                meta = dict(connection.execute("SELECT key, value FROM meta"))
            finally:
                connection.close()
        except sqlite3.Error as error:
            raise StoreError(
                f"{path} is not a merged candidate store: {error}"
            ) from None
        if meta.get("schema") != str(MERGED_SCHEMA):
            raise StoreError(
                f"merged store {path} has schema {meta.get('schema')!r}, "
                f"expected {MERGED_SCHEMA}"
            )
        try:
            return cls(
                path,
                table_key,
                k=int(meta[f"{table_key}:k"]),
                metrics=tuple(json.loads(meta[f"{table_key}:metrics"])),
                n_shards=int(meta[f"{table_key}:n_shards"]),
            )
        except KeyError:
            raise StoreError(
                f"merged store {path} has no committed {table} table"
            ) from None

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
