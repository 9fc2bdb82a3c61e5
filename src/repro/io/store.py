"""The out-of-core artifact store: SQLite schema + mmap sidecar arrays.

Everything a shard build produces is one large object graph.  Held as
such it forces three expensive shapes on the session layer: worker
processes return multi-hundred-MB ``BuildArtifacts`` graphs through the
pool, the parent holds every shard's graph at once, and resume
verification re-reads entire payloads into memory.  This module gives
each shard a *queryable* on-disk layout instead — the one format shard
checkpoints are written in::

    <shard dir>/
      manifest.json            # commit point: schema, fingerprints,
                               # per-file sha256, stage timings
      shard.db                 # SQLite: offers, clusters, tokens,
                               # pair/multiclass datasets, split entries,
                               # selections, blocked candidates
      incidence_data.npy       # CSR token-incidence matrix, verbatim
      incidence_indices.npy    #   (dtypes preserved, mmap-loadable)
      incidence_indptr.npy
      set_sizes.npy            # per-row token-set sizes (float64)
      token_keys.npy           # canonical token-set ids (intp)
      embeddings.npy           # LSA embedding matrix (when fitted)

Write protocol (one writer at a time, enforced with an exclusive
``writer.lock``): every payload file is written to a temp name and
atomically renamed, the manifest last — a writer killed mid-store leaves
either no manifest (store ignored) or a complete pair whose streamed
sha256 verification decides trust.  A store that fails verification is
*refused* with a typed :class:`~repro.errors.StoreError` in strict mode
and treated as missing (rebuild the shard) otherwise — exactly the
checkpoint contract, now queryable.

:class:`StoredShard` is the read side: duck-type compatible with the
slice of :class:`~repro.core.builder.BuildArtifacts` the shard session
consumes (``cleansed`` / ``engine`` / ``benchmark`` / ``splits`` /
``stage_timings`` / ``pretraining_clusters`` / ``blocked_candidates``),
with every piece loaded lazily — the engine's incidence matrix and
signature vectors memory-map straight off the sidecars, so opening a
shard costs metadata, not a deserialized object graph.
:class:`StoredShardHandle` is the picklable token workers hand back
across the pool boundary instead of artifacts.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import os
import sqlite3
import time
from contextlib import contextmanager
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterable

import numpy as np
from scipy.sparse import csr_matrix

from repro.blocking.candidates import BlockedPair, BlockedPairSet, CandidateBlocker
from repro.core.benchmark import WDCProductsBenchmark
from repro.core.datasets import LabeledPair, MulticlassDataset, PairDataset
from repro.core.dimensions import CornerCaseRatio, DevSetSize, UnseenRatio
from repro.corpus.schema import ProductOffer, SyntheticCorpus
from repro.errors import StoreError
from repro.similarity.engine import SimilarityEngine
from repro.similarity.features import BoundedPairCache
from repro.similarity.signatures import RowSignatures

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (builder imports us)
    from repro.core.builder import BuildArtifacts, BuildConfig

__all__ = [
    "STORE_SCHEMA",
    "ArtifactStore",
    "StoredShard",
    "StoredShardHandle",
    "StoredSplit",
    "write_store",
    "append_store",
    "verify_store",
    "open_store",
    "amend_manifest",
    "clear_stale_lock",
    "config_fingerprint",
    "offer_to_row",
    "row_to_offer",
    "OFFER_COLUMNS",
]

STORE_SCHEMA = 1

_MANIFEST = "manifest.json"
_DB = "shard.db"
_LOCK = "writer.lock"
_HASH_CHUNK = 1 << 20

# The 12 ProductOffer fields, in declaration order — the one column order
# every offers table (per-shard and merged) shares.
OFFER_COLUMNS = tuple(field.name for field in dataclasses.fields(ProductOffer))

_OFFER_COLUMN_SQL = ", ".join(
    f"{name} {'REAL' if name == 'price' else 'TEXT'}" for name in OFFER_COLUMNS
)


def offer_to_row(offer: ProductOffer) -> tuple:
    """The offer's 12 fields as one DB row, in ``OFFER_COLUMNS`` order."""
    return tuple(getattr(offer, name) for name in OFFER_COLUMNS)


def row_to_offer(row: Iterable) -> ProductOffer:
    """Rebuild a :class:`ProductOffer` from one ``OFFER_COLUMNS`` row."""
    return ProductOffer(*row)


# --------------------------------------------------------------------- #
# Config fingerprints (moved here from shard/checkpoint.py — the store is
# the layer both checkpoints and sessions key resume identity on).
# --------------------------------------------------------------------- #
def _jsonable(value: Any) -> Any:
    """A stable, JSON-serializable projection of a config value tree."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            field.name: _jsonable(getattr(value, field.name))
            for field in dataclasses.fields(value)
        }
    if isinstance(value, enum.Enum):
        return f"{type(value).__name__}.{value.name}"
    if isinstance(value, (tuple, list)):
        return [_jsonable(item) for item in value]
    if isinstance(value, dict):
        return {str(key): _jsonable(item) for key, item in value.items()}
    return value


def config_fingerprint(config: "BuildConfig") -> str:
    """sha256 over the config's stable JSON projection.

    Two configs fingerprint equally iff every field (nested dataclasses,
    enums and tuples included) except ``store_dir`` is equal — the
    identity a checkpoint or store is keyed on.  ``store_dir`` only says
    where the store sits on disk, so a copied or moved store still
    resumes; the manifest's ``config`` record keeps it.
    """
    projection = _jsonable(config)
    projection.pop("store_dir", None)
    payload = json.dumps(projection, sort_keys=True).encode()
    return hashlib.sha256(payload).hexdigest()


# --------------------------------------------------------------------- #
# Low-level file plumbing
# --------------------------------------------------------------------- #
def stream_sha256(path: Path) -> str | None:
    """Chunked sha256 of ``path`` — never loads the file whole.

    Returns ``None`` when the file is missing/unreadable, so callers can
    fold "absent" and "corrupt" into one verification flow.
    """
    digest = hashlib.sha256()
    try:
        with open(path, "rb") as handle:
            while chunk := handle.read(_HASH_CHUNK):
                digest.update(chunk)
    except OSError:
        return None
    return digest.hexdigest()


def _atomic_replace(temp: Path, final: Path) -> None:
    os.replace(temp, final)


def _write_array(path: Path, array: np.ndarray) -> None:
    temp = path.with_suffix(path.suffix + ".tmp")
    with open(temp, "wb") as handle:
        np.save(handle, np.ascontiguousarray(array))
    _atomic_replace(temp, path)


def _write_json(path: Path, payload: dict) -> None:
    temp = path.with_suffix(path.suffix + ".tmp")
    temp.write_text(json.dumps(payload, indent=2, sort_keys=True))
    _atomic_replace(temp, path)


@contextmanager
def _writer_lock(directory: Path):
    """Exclusive write lock: a second concurrent writer refuses, typed."""
    lock_path = directory / _LOCK
    try:
        descriptor = os.open(lock_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        raise StoreError(
            f"artifact store at {directory} is locked by another writer "
            f"({_LOCK} exists — concurrent write, or a crashed writer left "
            "a stale lock)"
        ) from None
    os.close(descriptor)
    try:
        yield
    finally:
        try:
            os.unlink(lock_path)
        except OSError:
            pass


def clear_stale_lock(directory: Path | str) -> None:
    """Remove a ``writer.lock`` left behind by a killed writer.

    Only for a caller that owns ``directory`` exclusively — a shard
    build attempt or a checkpoint save (the supervisor never runs two
    attempts of one shard at once), for whom a present lock can only be
    debris that would otherwise make the rebuild refuse itself.
    """
    Path(directory, _LOCK).unlink(missing_ok=True)


# --------------------------------------------------------------------- #
# SQLite schema
# --------------------------------------------------------------------- #
_DDL = f"""
CREATE TABLE meta (key TEXT PRIMARY KEY, value TEXT NOT NULL);
CREATE TABLE offers (oid INTEGER PRIMARY KEY, {_OFFER_COLUMN_SQL});
CREATE INDEX offers_by_id ON offers (offer_id);
CREATE TABLE corpus_rows (
    row INTEGER PRIMARY KEY,
    oid INTEGER NOT NULL REFERENCES offers (oid)
);
CREATE TABLE clusters (
    cluster_id TEXT PRIMARY KEY,
    category TEXT NOT NULL,
    family_id TEXT NOT NULL
);
CREATE TABLE tokens (col INTEGER PRIMARY KEY, token TEXT NOT NULL);
CREATE TABLE datasets (
    did INTEGER PRIMARY KEY,
    kind TEXT NOT NULL,
    corner TEXT NOT NULL,
    dim TEXT NOT NULL,
    name TEXT NOT NULL,
    position INTEGER NOT NULL,
    UNIQUE (kind, position)
);
CREATE TABLE pairs (
    did INTEGER NOT NULL REFERENCES datasets (did),
    position INTEGER NOT NULL,
    pair_id TEXT NOT NULL,
    oid_a INTEGER NOT NULL,
    oid_b INTEGER NOT NULL,
    label INTEGER NOT NULL,
    provenance TEXT NOT NULL,
    PRIMARY KEY (did, position)
) WITHOUT ROWID;
CREATE TABLE multiclass_members (
    did INTEGER NOT NULL REFERENCES datasets (did),
    position INTEGER NOT NULL,
    oid INTEGER NOT NULL,
    label TEXT NOT NULL,
    PRIMARY KEY (did, position)
) WITHOUT ROWID;
CREATE TABLE split_entries (
    corner TEXT NOT NULL,
    part TEXT NOT NULL,
    position INTEGER NOT NULL,
    cluster_id TEXT NOT NULL,
    oid INTEGER NOT NULL,
    PRIMARY KEY (corner, part, position)
) WITHOUT ROWID;
CREATE TABLE selected_clusters (
    corner TEXT NOT NULL,
    part TEXT NOT NULL,
    position INTEGER NOT NULL,
    cluster_id TEXT NOT NULL,
    PRIMARY KEY (corner, part, position)
) WITHOUT ROWID;
CREATE TABLE blocked_pairs (
    position INTEGER PRIMARY KEY,
    row_a INTEGER NOT NULL,
    row_b INTEGER NOT NULL,
    score REAL NOT NULL,
    metric TEXT NOT NULL,
    query_row INTEGER NOT NULL,
    rank INTEGER NOT NULL
);
"""

_OFFER_SELECT = ", ".join(OFFER_COLUMNS)
_OFFER_PLACEHOLDERS = ", ".join("?" for _ in OFFER_COLUMNS)

# (kind, benchmark attribute, dim enum or None) — the six dataset families
# of a WDCProductsBenchmark, with the dimension each key carries beside
# the corner-case ratio.
_DATASET_KINDS = (
    ("train", "train_sets", DevSetSize),
    ("valid", "valid_sets", DevSetSize),
    ("test", "test_sets", UnseenRatio),
    ("mc_train", "multiclass_train", DevSetSize),
    ("mc_valid", "multiclass_valid", None),
    ("mc_test", "multiclass_test", None),
)
_PAIR_KINDS = {"train", "valid", "test"}


def _split_parts(split) -> list[tuple[str, list]]:
    """Every (part label, entries) list an ``OfferSplit`` materializes."""
    parts = [
        (f"train:{dev.value}", split.train_offers(dev)) for dev in DevSetSize
    ]
    parts.append(("valid", split.valid_offers()))
    parts.extend(
        (f"test:{unseen.name}", split.test_offers(unseen))
        for unseen in UnseenRatio
    )
    return parts


class _OfferInterner:
    """Value-level offer dedup for one DB write: one row per distinct offer."""

    def __init__(self, connection: sqlite3.Connection) -> None:
        self._connection = connection
        self._by_value: dict[tuple, int] = {}

    def oid(self, offer: ProductOffer) -> int:
        row = offer_to_row(offer)
        known = self._by_value.get(row)
        if known is None:
            known = len(self._by_value) + 1
            self._by_value[row] = known
            self._connection.execute(
                f"INSERT INTO offers VALUES (?, {_OFFER_PLACEHOLDERS})",
                (known, *row),
            )
        return known


def _populate_db(connection: sqlite3.Connection, artifacts) -> None:
    connection.executescript(_DDL)
    connection.execute(
        "INSERT INTO meta VALUES ('schema', ?)", (str(STORE_SCHEMA),)
    )
    interner = _OfferInterner(connection)

    for row, offer in enumerate(artifacts.cleansed.offers):
        connection.execute(
            "INSERT INTO corpus_rows VALUES (?, ?)", (row, interner.oid(offer))
        )
    for cluster_id, (category, family_id) in (
        artifacts.cleansed._cluster_meta.items()
    ):
        connection.execute(
            "INSERT INTO clusters VALUES (?, ?, ?)",
            (cluster_id, category, family_id),
        )
    if artifacts.engine is not None:
        connection.executemany(
            "INSERT INTO tokens VALUES (?, ?)",
            ((col, token) for token, col in artifacts.engine.vocabulary.items()),
        )

    did = 0
    benchmark = artifacts.benchmark
    for kind, attribute, dim_enum in _DATASET_KINDS:
        for position, (key, dataset) in enumerate(
            getattr(benchmark, attribute).items()
        ):
            corner, dim = (key, "") if dim_enum is None else (key[0], key[1].name)
            did += 1
            connection.execute(
                "INSERT INTO datasets VALUES (?, ?, ?, ?, ?, ?)",
                (did, kind, corner.name, dim, dataset.name, position),
            )
            if kind in _PAIR_KINDS:
                connection.executemany(
                    "INSERT INTO pairs VALUES (?, ?, ?, ?, ?, ?, ?)",
                    (
                        (
                            did,
                            pair_position,
                            pair.pair_id,
                            interner.oid(pair.offer_a),
                            interner.oid(pair.offer_b),
                            pair.label,
                            pair.provenance,
                        )
                        for pair_position, pair in enumerate(dataset.pairs)
                    ),
                )
            else:
                connection.executemany(
                    "INSERT INTO multiclass_members VALUES (?, ?, ?, ?)",
                    (
                        (did, member, interner.oid(offer), label)
                        for member, (offer, label) in enumerate(
                            zip(dataset.offers, dataset.labels)
                        )
                    ),
                )

    for corner, split in artifacts.splits.items():
        for part, entries in _split_parts(split):
            connection.executemany(
                "INSERT INTO split_entries VALUES (?, ?, ?, ?, ?)",
                (
                    (corner.name, part, position, cluster_id, interner.oid(offer))
                    for position, (cluster_id, offer) in enumerate(entries)
                ),
            )

    for (corner, part), selection in artifacts.selections.items():
        connection.executemany(
            "INSERT INTO selected_clusters VALUES (?, ?, ?, ?)",
            (
                (corner.name, part, position, cluster_id)
                for position, cluster_id in enumerate(
                    sorted(selection.cluster_ids())
                )
            ),
        )

    if artifacts.blocked_candidates is not None:
        connection.executemany(
            "INSERT INTO blocked_pairs VALUES (?, ?, ?, ?, ?, ?, ?)",
            (
                (
                    position,
                    pair.row_a,
                    pair.row_b,
                    pair.score,
                    pair.metric,
                    pair.query_row,
                    pair.rank,
                )
                for position, pair in enumerate(
                    artifacts.blocked_candidates.pairs
                )
            ),
        )


# --------------------------------------------------------------------- #
# Write / verify / open
# --------------------------------------------------------------------- #
def write_store(
    directory: Path | str,
    artifacts,
    *,
    shard: int | None = None,
    base_fingerprint: str | None = None,
    attempt: int = 1,
    elapsed: float = 0.0,
    clock: Callable[[], float] | None = None,
) -> Path:
    """Persist one shard's artifacts into ``directory``; returns the manifest.

    The manifest is the commit point: payload files (sidecars first, then
    the SQLite DB) are written via temp-and-rename, the manifest last, so
    a killed writer leaves either no manifest or a complete verifiable
    store.  ``base_fingerprint`` is the resume key (the plan's config for
    this shard — defaults to the built config's own fingerprint);
    ``shard`` / ``attempt`` / ``elapsed`` are provenance a supervisor may
    amend after adoption.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    with _writer_lock(directory):
        files: dict[str, dict] = {}

        engine = artifacts.engine
        engine_info = None
        if engine is not None:
            matrix = engine._matrix.tocsr()
            sidecars: dict[str, np.ndarray] = {
                "incidence_data": matrix.data,
                "incidence_indices": matrix.indices,
                "incidence_indptr": matrix.indptr,
                "set_sizes": engine._set_sizes,
                "token_keys": engine._token_keys,
            }
            if engine._embeddings is not None:
                sidecars["embeddings"] = engine._embeddings
            for name, array in sidecars.items():
                path = directory / f"{name}.npy"
                _write_array(path, array)
                files[path.name] = {
                    "sha256": stream_sha256(path),
                    "bytes": path.stat().st_size,
                }
            engine_info = {
                "rows": len(engine),
                "matrix_shape": [int(side) for side in matrix.shape],
                "prefilter": engine.prefilter,
                "gj_cache_entries": engine._gj_cache.capacity,
                "has_embeddings": engine._embeddings is not None,
            }

        db_path = directory / _DB
        temp_db = db_path.with_suffix(".db.tmp")
        if temp_db.exists():
            temp_db.unlink()
        connection = sqlite3.connect(temp_db)
        try:
            with connection:
                _populate_db(connection, artifacts)
        finally:
            connection.close()
        _atomic_replace(temp_db, db_path)
        files[_DB] = {
            "sha256": stream_sha256(db_path),
            "bytes": db_path.stat().st_size,
        }

        fingerprint = config_fingerprint(artifacts.config)
        blocked = artifacts.blocked_candidates
        # The build's own timer closes after this manifest is committed,
        # so persist the store stage's elapsed as measured here.
        stage_timings = dict(artifacts.stage_timings)
        stage_timings.setdefault("store", time.perf_counter() - start)
        manifest = {
            "schema": STORE_SCHEMA,
            "shard": shard,
            "base_fingerprint": (
                base_fingerprint if base_fingerprint is not None else fingerprint
            ),
            "config_fingerprint": fingerprint,
            "config": _jsonable(artifacts.config),
            "build_seed": artifacts.config.seed,
            "corpus_seed": artifacts.config.corpus.seed,
            "engine": engine_info,
            "blocked": (
                None
                if blocked is None
                else {
                    "k": blocked.k,
                    "metrics": list(blocked.metrics),
                    "n_queries": blocked.n_queries,
                }
            ),
            "stage_timings": stage_timings,
            "attempt": attempt,
            "elapsed_seconds": elapsed,
            "files": files,
            "created_at": (time.time if clock is None else clock)(),
        }
        manifest_path = directory / _MANIFEST
        _write_json(manifest_path, manifest)
    return manifest_path


def amend_manifest(
    directory: Path | str,
    *,
    shard: int | None = None,
    base_fingerprint: str | None = None,
    attempt: int | None = None,
    elapsed: float | None = None,
) -> dict:
    """Rewrite provenance fields of an existing manifest, atomically.

    The adoption step of the lazy-worker flow: workers write a store keyed
    on the config they built with, and the supervising parent re-keys it
    on the *plan's* config fingerprint (plus the attempt ledger) without
    touching any payload file.
    """
    directory = Path(directory)
    manifest_path = directory / _MANIFEST
    try:
        manifest = json.loads(manifest_path.read_text())
    except (OSError, json.JSONDecodeError) as error:
        raise StoreError(
            f"cannot amend artifact store at {directory}: manifest missing "
            f"or unreadable ({error})"
        ) from None
    if shard is not None:
        manifest["shard"] = shard
    if base_fingerprint is not None:
        manifest["base_fingerprint"] = base_fingerprint
    if attempt is not None:
        manifest["attempt"] = attempt
    if elapsed is not None:
        manifest["elapsed_seconds"] = elapsed
    _write_json(manifest_path, manifest)
    return manifest


def append_store(
    directory: Path | str,
    offers: Iterable[ProductOffer],
    *,
    base_fingerprint: str | None = None,
) -> np.ndarray:
    """Append offers to a committed store; returns their new corpus rows.

    The serving layer's persistence path: instead of rebuilding and
    rewriting a whole shard, new offers are inserted into ``shard.db``
    (offers + corpus rows + any new vocabulary tokens) and only the
    engine sidecars an append actually changes — the CSR triplet,
    ``set_sizes`` and ``token_keys`` — are rewritten.  Pair datasets,
    splits, selections and blocked candidates are untouched bytes.

    The commit discipline matches :func:`write_store`: everything lands
    under temp names first, the batch of renames happens together, and
    the manifest — with refreshed sha256 records and engine metadata —
    is rewritten last.  A writer killed mid-append leaves the *old*
    manifest beside partially-renamed payloads, so verification fails
    closed and the store is refused/rebuilt, exactly the checkpoint
    contract.  Appending to a store whose ``base_fingerprint`` does not
    match is refused with :class:`~repro.errors.StoreError` — the
    foreign-manifest rule is unchanged.

    A store fitted with LSA embeddings loses them here (the appended
    rows are outside the fitted space): ``embeddings.npy`` leaves the
    manifest and ``has_embeddings`` flips false, mirroring the live
    engine's staleness contract.  Row retirement is deliberately *not*
    persisted — tombstones are serving-session state; stores always
    hold the full corpus.
    """
    directory = Path(directory)
    start = time.perf_counter()
    verified = verify_store(directory, base_fingerprint=base_fingerprint)
    if isinstance(verified, str):
        raise StoreError(
            f"cannot append to artifact store at {directory}: {verified}"
        )
    if verified.get("engine") is None:
        raise StoreError(
            f"artifact store at {directory} holds no similarity engine; "
            "append_store has nothing to extend"
        )
    new_offers = list(offers)
    if not new_offers:
        return np.empty(0, dtype=np.intp)

    with _writer_lock(directory):
        stored = StoredShard(directory, verified)
        try:
            known_ids = {
                offer_id
                for (offer_id,) in stored._connection.execute(
                    "SELECT o.offer_id FROM corpus_rows c "
                    "JOIN offers o ON o.oid = c.oid"
                )
            }
            batch_ids = [offer.offer_id for offer in new_offers]
            duplicates = sorted(
                set(batch_ids) & known_ids
                | {oid for oid in batch_ids if batch_ids.count(oid) > 1}
            )
            if duplicates:
                raise StoreError(
                    f"cannot append to artifact store at {directory}: "
                    f"offer ids already present (or repeated): {duplicates}"
                )

            engine = stored.engine
            old_vocabulary = len(engine.vocabulary)
            rows = engine.append([offer.title for offer in new_offers])
            matrix = engine._matrix.tocsr()

            files = dict(verified["files"])
            files.pop("embeddings.npy", None)
            sidecars: dict[str, np.ndarray] = {
                "incidence_data": matrix.data,
                "incidence_indices": matrix.indices,
                "incidence_indptr": matrix.indptr,
                "set_sizes": engine._set_sizes,
                "token_keys": engine._token_keys,
            }
            renames: list[tuple[Path, Path]] = []
            for name, array in sidecars.items():
                path = directory / f"{name}.npy"
                temp = path.with_suffix(".npy.tmp")
                with open(temp, "wb") as handle:
                    np.save(handle, np.ascontiguousarray(array))
                files[path.name] = {
                    "sha256": stream_sha256(temp),
                    "bytes": temp.stat().st_size,
                }
                renames.append((temp, path))

            db_path = directory / _DB
            temp_db = db_path.with_suffix(".db.tmp")
            if temp_db.exists():
                temp_db.unlink()
            source = sqlite3.connect(
                f"file:{db_path}?mode=ro", uri=True
            )
            connection = sqlite3.connect(temp_db)
            try:
                source.backup(connection)
                source.close()
                with connection:
                    (max_oid,) = connection.execute(
                        "SELECT COALESCE(MAX(oid), 0) FROM offers"
                    ).fetchone()
                    for position, offer in enumerate(new_offers):
                        oid = max_oid + 1 + position
                        connection.execute(
                            f"INSERT INTO offers VALUES "
                            f"(?, {_OFFER_PLACEHOLDERS})",
                            (oid, *offer_to_row(offer)),
                        )
                        connection.execute(
                            "INSERT INTO corpus_rows VALUES (?, ?)",
                            (int(rows[position]), oid),
                        )
                    connection.executemany(
                        "INSERT INTO tokens VALUES (?, ?)",
                        (
                            (col, token)
                            for token, col in engine.vocabulary.items()
                            if col >= old_vocabulary
                        ),
                    )
            finally:
                connection.close()
            files[_DB] = {
                "sha256": stream_sha256(temp_db),
                "bytes": temp_db.stat().st_size,
            }
            renames.append((temp_db, db_path))
        finally:
            stored.close()

        # Commit: batch rename, then the manifest. A crash between the
        # first rename and the manifest write leaves the old manifest
        # disagreeing with the payload sha256s — verification refuses.
        for temp, path in renames:
            _atomic_replace(temp, path)
        manifest = dict(verified)
        engine_info = dict(manifest["engine"])
        engine_info["rows"] = len(engine)
        engine_info["matrix_shape"] = [int(side) for side in matrix.shape]
        engine_info["has_embeddings"] = False
        manifest["engine"] = engine_info
        manifest["files"] = files
        manifest["appends"] = int(manifest.get("appends", 0)) + 1
        manifest["appended_offers"] = int(
            manifest.get("appended_offers", 0)
        ) + len(new_offers)
        timings = dict(manifest.get("stage_timings", {}))
        timings["append"] = timings.get("append", 0.0) + (
            time.perf_counter() - start
        )
        manifest["stage_timings"] = timings
        _write_json(directory / _MANIFEST, manifest)
        # The dropped embedding sidecar is outside the manifest now; the
        # stray file is inert, but clean it up when we can.
        embeddings_path = directory / "embeddings.npy"
        if embeddings_path.exists():
            try:
                embeddings_path.unlink()
            except OSError:
                pass
    return rows


def verify_store(
    directory: Path | str, *, base_fingerprint: str | None = None
) -> dict | str:
    """The verified manifest of ``directory``, or a rejection reason.

    Verification is streamed: every payload file's sha256 is hashed in
    chunks against the manifest record, so trusting a multi-GB store
    never doubles peak RSS.  A present ``writer.lock`` is a rejection —
    the store is mid-write (or its writer crashed) and must not be
    trusted.
    """
    directory = Path(directory)
    manifest_path = directory / _MANIFEST
    if not manifest_path.exists():
        return "no manifest"
    try:
        manifest = json.loads(manifest_path.read_text())
    except (OSError, json.JSONDecodeError):
        return "manifest unreadable or truncated"
    if manifest.get("schema") != STORE_SCHEMA:
        return f"store schema {manifest.get('schema')!r} != {STORE_SCHEMA}"
    if (
        base_fingerprint is not None
        and manifest.get("base_fingerprint") != base_fingerprint
    ):
        return (
            "base config fingerprint mismatch (store belongs to a "
            "different plan/config)"
        )
    if (directory / _LOCK).exists():
        return "writer.lock present (store is mid-write or its writer crashed)"
    files = manifest.get("files")
    if not isinstance(files, dict) or _DB not in files:
        return "manifest records no payload files"
    for name, meta in files.items():
        digest = stream_sha256(directory / name)
        if digest is None:
            return f"{name} missing"
        if digest != meta.get("sha256"):
            return f"{name} sha256 mismatch (truncated or corrupt)"
    return manifest


def open_store(
    directory: Path | str,
    *,
    base_fingerprint: str | None = None,
    strict: bool = False,
) -> "StoredShard | None":
    """Open a verified :class:`StoredShard`, or ``None``.

    ``None`` means "no usable store — rebuild the shard".  With
    ``strict=True`` any failure (including an absent store) raises
    :class:`~repro.errors.StoreError` naming what mismatched instead.
    """
    verified = verify_store(directory, base_fingerprint=base_fingerprint)
    if isinstance(verified, str):
        if strict:
            raise StoreError(
                f"artifact store at {directory} failed verification: "
                f"{verified}"
            )
        return None
    return StoredShard(directory, verified)


def _reopen_stored_shard(directory: str) -> "StoredShard":
    return open_store(directory, strict=True)


# --------------------------------------------------------------------- #
# Read side
# --------------------------------------------------------------------- #
@dataclasses.dataclass(frozen=True)
class StoredShardHandle:
    """The picklable token a worker returns instead of built artifacts.

    Two small fields cross the pool boundary; the supervising parent
    adopts the handle by (re-)opening the store at ``directory`` — no
    ``BuildArtifacts`` graph is ever pickled back.
    """

    directory: str
    shard: int | None = None

    def open(self, *, strict: bool = True) -> "StoredShard | None":
        return open_store(self.directory, strict=strict)


class StoredSplit:
    """One corner-case ratio's offer split, read lazily from the store.

    Serves the exact ``(cluster_id, offer)`` entry lists
    :class:`~repro.core.splitting.OfferSplit` materializes — the
    interface ``split_universe`` and blocked-split training consume.
    """

    def __init__(self, shard: "StoredShard", corner: CornerCaseRatio) -> None:
        self._shard = shard
        self.corner_cases = corner
        self.corner_case_ratio = corner.value

    def _entries(self, part: str) -> list[tuple[str, ProductOffer]]:
        offers = self._shard._offers_by_oid
        rows = self._shard._connection.execute(
            "SELECT cluster_id, oid FROM split_entries "
            "WHERE corner = ? AND part = ? ORDER BY position",
            (self.corner_cases.name, part),
        )
        return [(cluster_id, offers[oid]) for cluster_id, oid in rows]

    def train_offers(self, dev_size: DevSetSize) -> list[tuple[str, ProductOffer]]:
        return self._entries(f"train:{dev_size.value}")

    def valid_offers(self) -> list[tuple[str, ProductOffer]]:
        return self._entries("valid")

    def test_offers(self, unseen: UnseenRatio) -> list[tuple[str, ProductOffer]]:
        return self._entries(f"test:{unseen.name}")


class StoredShard:
    """One shard's artifacts, opened lazily off its on-disk store.

    Construct through :func:`open_store` (which verifies first).  Every
    property materializes on first access and caches: the similarity
    engine memory-maps its sidecar arrays, the benchmark and splits
    rebuild from windable SQL queries, and nothing is touched until a
    consumer asks — a sweep-only session never deserializes a single
    pair dataset.
    """

    def __init__(self, directory: Path | str, manifest: dict) -> None:
        self.directory = Path(directory)
        self.manifest = manifest
        self.shard = manifest.get("shard")

    def __reduce__(self):
        return (_reopen_stored_shard, (str(self.directory),))

    @cached_property
    def _connection(self) -> sqlite3.Connection:
        # Read-only URI open: a committed store is immutable, and a
        # read-only handle can never invalidate the manifest's sha256.
        uri = f"file:{self.directory / _DB}?mode=ro"
        return sqlite3.connect(uri, uri=True, check_same_thread=False)

    def close(self) -> None:
        connection = self.__dict__.pop("_connection", None)
        if connection is not None:
            connection.close()

    # ------------------------------------------------------------------ #
    @property
    def stage_timings(self) -> dict[str, float]:
        return dict(self.manifest.get("stage_timings", {}))

    @cached_property
    def _offers_by_oid(self) -> dict[int, ProductOffer]:
        return {
            oid: row_to_offer(row)
            for oid, *row in self._connection.execute(
                f"SELECT oid, {_OFFER_SELECT} FROM offers ORDER BY oid"
            )
        }

    def offers_by_raw_id(self, offer_ids: Iterable[str]) -> dict[str, ProductOffer]:
        """Offers of this shard's store by their raw (un-namespaced) ids."""
        wanted = set(offer_ids)
        found: dict[str, ProductOffer] = {}
        for offer in self._offers_by_oid.values():
            if offer.offer_id in wanted and offer.offer_id not in found:
                found[offer.offer_id] = offer
        return found

    @cached_property
    def cleansed(self) -> SyntheticCorpus:
        offers = self._offers_by_oid
        corpus = SyntheticCorpus(
            offers[oid]
            for (oid,) in self._connection.execute(
                "SELECT oid FROM corpus_rows ORDER BY row"
            )
        )
        for cluster_id, category, family_id in self._connection.execute(
            "SELECT cluster_id, category, family_id FROM clusters ORDER BY rowid"
        ):
            corpus.register_cluster_meta(
                cluster_id, category=category, family_id=family_id
            )
        return corpus

    # ------------------------------------------------------------------ #
    def _sidecar(self, name: str) -> np.ndarray:
        path = self.directory / f"{name}.npy"
        try:
            return np.load(path, mmap_mode="r")
        except (OSError, ValueError) as error:
            raise StoreError(
                f"sidecar {path.name} of store {self.directory} is "
                f"unreadable: {error}"
            ) from None

    @cached_property
    def _tokens(self) -> list[str]:
        return [
            token
            for (token,) in self._connection.execute(
                "SELECT token FROM tokens ORDER BY col"
            )
        ]

    def engine_parts(self) -> dict | None:
        """Everything :meth:`SimilarityEngine.open` assembles an engine from.

        The incidence matrix's CSR arrays, set sizes, canonical token-set
        keys and (when fitted) embeddings come back memory-mapped; token
        sets are rebuilt from the CSR structure and the token table, so
        no title is re-tokenized.
        """
        info = self.manifest.get("engine")
        if info is None:
            return None
        indptr = self._sidecar("incidence_indptr")
        indices = self._sidecar("incidence_indices")
        matrix = csr_matrix(
            (self._sidecar("incidence_data"), indices, indptr),
            shape=tuple(info["matrix_shape"]),
            copy=False,
        )
        tokens = self._tokens
        token_sets = [
            {tokens[column] for column in indices[start:stop]}
            for start, stop in zip(indptr[:-1], indptr[1:])
        ]
        return {
            "titles": [offer.title for offer in self.cleansed.offers],
            "token_sets": token_sets,
            "matrix": matrix,
            "set_sizes": self._sidecar("set_sizes"),
            "embeddings": (
                self._sidecar("embeddings") if info["has_embeddings"] else None
            ),
            "prefilter": info["prefilter"],
            "token_keys": self._sidecar("token_keys"),
            "vocabulary": {token: column for column, token in enumerate(tokens)},
            "gj_cache": BoundedPairCache(info["gj_cache_entries"]),
        }

    @cached_property
    def engine(self) -> SimilarityEngine | None:
        if self.manifest.get("engine") is None:
            return None
        return SimilarityEngine.open(self)

    def signatures(self) -> RowSignatures | None:
        """The shard's signature summary, rebuilt off the mmap engine."""
        if self.engine is None:
            return None
        return RowSignatures.from_engine(self.engine)

    # ------------------------------------------------------------------ #
    def _pair_dataset(self, did: int, name: str) -> PairDataset:
        offers = self._offers_by_oid
        dataset = PairDataset(name=name)
        dataset.pairs = [
            LabeledPair(
                pair_id=pair_id,
                offer_a=offers[oid_a],
                offer_b=offers[oid_b],
                label=label,
                provenance=provenance,
            )
            for pair_id, oid_a, oid_b, label, provenance in (
                self._connection.execute(
                    "SELECT pair_id, oid_a, oid_b, label, provenance "
                    "FROM pairs WHERE did = ? ORDER BY position",
                    (did,),
                )
            )
        ]
        return dataset

    def _multiclass_dataset(self, did: int, name: str) -> MulticlassDataset:
        offers = self._offers_by_oid
        members = self._connection.execute(
            "SELECT oid, label FROM multiclass_members "
            "WHERE did = ? ORDER BY position",
            (did,),
        ).fetchall()
        return MulticlassDataset(
            name=name,
            offers=[offers[oid] for oid, _ in members],
            labels=[label for _, label in members],
        )

    @cached_property
    def benchmark(self) -> WDCProductsBenchmark:
        benchmark = WDCProductsBenchmark()
        for kind, attribute, dim_enum in _DATASET_KINDS:
            target = getattr(benchmark, attribute)
            for did, corner_name, dim_name, name in self._connection.execute(
                "SELECT did, corner, dim, name FROM datasets "
                "WHERE kind = ? ORDER BY position",
                (kind,),
            ):
                corner = CornerCaseRatio[corner_name]
                key = corner if dim_enum is None else (corner, dim_enum[dim_name])
                if kind in _PAIR_KINDS:
                    target[key] = self._pair_dataset(did, name)
                else:
                    target[key] = self._multiclass_dataset(did, name)
        return benchmark

    @cached_property
    def splits(self) -> dict[CornerCaseRatio, StoredSplit]:
        present = {
            corner
            for (corner,) in self._connection.execute(
                "SELECT DISTINCT corner FROM split_entries"
            )
        }
        return {
            corner: StoredSplit(self, corner)
            for corner in CornerCaseRatio
            if corner.name in present
        }

    # ------------------------------------------------------------------ #
    def selected_cluster_ids(self) -> set[str]:
        return {
            cluster_id
            for (cluster_id,) in self._connection.execute(
                "SELECT DISTINCT cluster_id FROM selected_clusters"
            )
        }

    def pretraining_clusters(
        self, serializer=None
    ) -> list[tuple[str, str, list[str]]]:
        """Identifier clusters usable for checkpoint pre-training.

        Mirrors :meth:`BuildArtifacts.pretraining_clusters`: only clusters
        never selected for the benchmark, serialized with the same
        default (brand + title).
        """
        if serializer is None:
            def serializer(offer):
                if offer.brand:
                    return f"{offer.brand} {offer.title}"
                return offer.title

        selected = self.selected_cluster_ids()
        result: list[tuple[str, str, list[str]]] = []
        for cluster in self.cleansed.clusters(min_size=2):
            if cluster.cluster_id in selected:
                continue
            texts = [serializer(offer) for offer in cluster.offers]
            result.append((cluster.cluster_id, cluster.family_id, texts))
        return result

    @cached_property
    def blocked_candidates(self) -> BlockedPairSet | None:
        info = self.manifest.get("blocked")
        if info is None or self.engine is None:
            return None
        offers = list(self.cleansed.offers)
        blocker = CandidateBlocker(
            self.engine,
            offers=offers,
            group_labels=[offer.cluster_id for offer in offers],
        )
        pairs = [
            BlockedPair(
                row_a=row_a,
                row_b=row_b,
                score=score,
                metric=metric,
                query_row=query_row,
                rank=rank,
            )
            for row_a, row_b, score, metric, query_row, rank in (
                self._connection.execute(
                    "SELECT row_a, row_b, score, metric, query_row, rank "
                    "FROM blocked_pairs ORDER BY position"
                )
            )
        ]
        return BlockedPairSet(
            blocker,
            pairs,
            k=info["k"],
            metrics=tuple(info["metrics"]),
            n_queries=info["n_queries"],
        )

    @property
    def blocker(self) -> CandidateBlocker | None:
        blocked = self.blocked_candidates
        return None if blocked is None else blocked.blocker


# --------------------------------------------------------------------- #
# Multi-shard root
# --------------------------------------------------------------------- #
class ArtifactStore:
    """Directory of per-shard stores plus the session-level merged views.

    One ``ArtifactStore`` roots a sharded session: ``shard-0000/``,
    ``shard-0001/``, … hold each shard's store, and ``merged.db`` (written
    by the sweep's merged-candidate sink) the session-level candidate
    tables.  The per-shard layout is exactly :func:`write_store`'s.
    """

    def __init__(self, root: Path | str) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def shard_dir(self, shard: int) -> Path:
        return self.root / f"shard-{shard:04d}"

    def merged_path(self) -> Path:
        return self.root / "merged.db"

    def save(
        self,
        shard: int,
        artifacts,
        *,
        base_fingerprint: str | None = None,
        attempt: int = 1,
        elapsed: float = 0.0,
        clock: Callable[[], float] | None = None,
    ) -> Path:
        return write_store(
            self.shard_dir(shard),
            artifacts,
            shard=shard,
            base_fingerprint=base_fingerprint,
            attempt=attempt,
            elapsed=elapsed,
            clock=clock,
        )

    def open_shard(
        self,
        shard: int,
        *,
        base_fingerprint: str | None = None,
        strict: bool = False,
    ) -> StoredShard | None:
        return open_store(
            self.shard_dir(shard),
            base_fingerprint=base_fingerprint,
            strict=strict,
        )

    def completed_shards(self, configs) -> list[int]:
        """Shards of ``configs`` with a verifiable store on disk."""
        return [
            shard
            for shard, config in enumerate(configs)
            if not isinstance(
                verify_store(
                    self.shard_dir(shard),
                    base_fingerprint=config_fingerprint(config),
                ),
                str,
            )
        ]
