"""The shared, vectorized similarity backend of the Figure-2 pipeline.

Every similarity-hungry stage — corner-case selection (§3.4), offer
splitting (§3.5) and pair generation (§3.6) — needs the same four title
metrics (Cosine, Dice, Generalized Jaccard, LSA embedding) over the same
title universe.  ``SimilarityEngine`` tokenizes that universe **once**,
precomputes the sparse token-incidence matrix, the token-set sizes and the
dense embedding matrix, and then serves every metric through batched
NumPy/SciPy kernels:

* ``scores_batch`` — similarities of query rows against the whole
  universe (Generalized Jaccard is rescored exactly on a
  cosine-prefiltered candidate set, exactly like the paper's top-k use,
  from token ids: each Jaro–Winkler token pair is scored once per
  corpus into a table every view shares),
* ``top_k_scores_batch`` — most-similar ``(indices, scores)`` lookups
  with exclusion masks or group ids,
* ``rank`` — exact ranking of an explicit candidate subset for a query,
* ``pairwise_matrix`` — exact symmetric similarity matrix of a subset,
* ``view`` — a cheap sub-engine over a row subset (no re-tokenization),
  which is how per-split pair generation and per-cluster splitting reuse
  the corpus-level precomputation,
* ``attribute_view`` / ``pair_features_batch`` — the matcher-facing
  featurization layer: per-attribute sparse token views (title built-in,
  further attributes registered with ``register_attribute``) whose
  token-set metrics over N explicit pairs are a handful of sparse matrix
  ops (see :mod:`repro.similarity.features`).

Since the serving layer landed, a *root* engine is also mutable:

* ``append`` / ``retire`` — amortized-O(delta) row-block appends into
  capacity-doubling CSR buffers (the vocabulary grows append-only, so
  existing column ids never move) and tombstone retirement.  Embeddings
  are invalidated lazily (``refresh_embeddings``), the canonical
  token-set keys keep the shared :class:`BoundedPairCache` coherent
  across mutations, the stable column ids keep the shared
  :class:`~repro.similarity.features.JaroWinklerTable` valid, and
  ``row_signatures`` serves a per-delta-version cached
  :class:`~repro.similarity.signatures.RowSignatures` summary.
* ``external_scores_batch`` / ``external_top_k_batch`` — scoring of
  query token sets that are *not* part of the universe, numerically
  identical to append-then-score-then-retire (out-of-vocabulary query
  tokens count toward set sizes but intersect nothing).

Corpus rows and external token sets share one scoring kernel: both
become token-id rows in the engine's column space, and their
intersections with the universe are counted from a cached token → rows
postings index (the incidence matrix, column-major), so no sparse matrix
is built or transposed per call.  Cosine/Dice everywhere — including the
Generalized Jaccard cosine prefilter, exact subset ranking and the pair
featurizer — come from :func:`~repro.similarity.features.cosine_dice_scores`.
"""

from __future__ import annotations

import warnings
from collections.abc import Callable, Mapping, Sequence

import numpy as np
from scipy.sparse import csr_matrix

from repro.errors import EmbeddingsDroppedWarning
from repro.similarity.embedding import LsaEmbeddingModel
from repro.similarity.features import (
    TOKEN_METRICS,
    AttributeView,
    BoundedPairCache,
    JaroWinklerTable,
    TokenIdRows,
    TokenIdSpace,
    cosine_dice_scores,
    generalized_jaccard_batch,
    token_incidence,
)
from repro.similarity.signatures import RowSignatures
from repro.text.tokenize import tokenize

__all__ = ["SimilarityEngine"]

_GEN_JACCARD_PREFILTER = 48
_BATCH_ROWS = 256  # cap on dense (queries x universe) score blocks
_GATHER_ENTRIES = 1 << 16  # cap on posting entries gathered per counting pass
_GJ_CACHE_ENTRIES = 1 << 20  # per-corpus Generalized-Jaccard pair cache bound


def _canonical_ids(token_sets: Sequence[set[str]]) -> np.ndarray:
    """One id per distinct token set, numbered in first-seen order.

    Rows with identical token sets share an id, so the Generalized-Jaccard
    pair cache (bounded, lock-protected, shared with every view) dedupes
    duplicate titles.
    """
    canon: dict[frozenset, int] = {}
    return np.array(
        [canon.setdefault(frozenset(tokens), len(canon)) for tokens in token_sets],
        dtype=np.intp,
    )


def _grow(buffer: np.ndarray, used: int, extra: int) -> np.ndarray:
    """``buffer`` with room for ``used + extra`` rows, doubling to amortize."""
    needed = used + extra
    if buffer.shape[0] >= needed:
        return buffer
    capacity = max(needed, 2 * buffer.shape[0], 16)
    grown = np.empty((capacity, *buffer.shape[1:]), dtype=buffer.dtype)
    grown[:used] = buffer[:used]
    return grown


class _RowBuffers:
    """Capacity-doubling CSR row storage behind a mutable engine.

    ``csr_matrix`` arrays are fixed-length, so the first mutation copies
    them into these buffers once (this also lifts store-opened engines
    out of their read-only memory maps); every further append writes
    into spare capacity, which makes N row-block appends amortized
    O(total rows appended) rather than O(N × corpus).
    """

    __slots__ = (
        "data", "indices", "indptr", "sizes", "keys", "retired",
        "rows", "nnz", "n_retired",
    )

    def __init__(
        self, matrix: csr_matrix, set_sizes: np.ndarray, token_keys: np.ndarray
    ) -> None:
        self.rows = int(matrix.shape[0])
        self.nnz = int(matrix.indptr[self.rows])
        self.data = np.array(matrix.data[: self.nnz], dtype=np.float64)
        self.indices = np.array(matrix.indices[: self.nnz], dtype=np.int64)
        self.indptr = np.array(matrix.indptr[: self.rows + 1], dtype=np.int64)
        self.sizes = np.array(set_sizes[: self.rows], dtype=np.float64)
        self.keys = np.array(token_keys[: self.rows], dtype=np.intp)
        self.retired = np.zeros(self.rows, dtype=bool)
        self.n_retired = 0

    def append_rows(
        self,
        row_columns: Sequence[np.ndarray],
        keys: Sequence[int],
        sizes: Sequence[float],
    ) -> None:
        extra_rows = len(row_columns)
        extra_nnz = int(sum(columns.size for columns in row_columns))
        self.data = _grow(self.data, self.nnz, extra_nnz)
        self.indices = _grow(self.indices, self.nnz, extra_nnz)
        self.indptr = _grow(self.indptr, self.rows + 1, extra_rows)
        self.sizes = _grow(self.sizes, self.rows, extra_rows)
        self.keys = _grow(self.keys, self.rows, extra_rows)
        self.retired = _grow(self.retired, self.rows, extra_rows)
        for columns, key, size in zip(row_columns, keys, sizes):
            end = self.nnz + columns.size
            self.data[self.nnz : end] = 1.0
            self.indices[self.nnz : end] = columns
            self.sizes[self.rows] = size
            self.keys[self.rows] = key
            self.retired[self.rows] = False
            self.rows += 1
            self.nnz = end
            self.indptr[self.rows] = end


class SimilarityEngine:
    """Precomputed batch similarity over a fixed title universe."""

    METRICS = ("cosine", "dice", "generalized_jaccard", "lsa_embedding")

    def __init__(
        self,
        titles: Sequence[str],
        *,
        embedding_model: LsaEmbeddingModel | None = None,
        prefilter: int = _GEN_JACCARD_PREFILTER,
        attributes: Mapping[str, Sequence[str | None]] | None = None,
        gj_cache_entries: int = _GJ_CACHE_ENTRIES,
    ) -> None:
        self.titles = list(titles)
        self.prefilter = prefilter
        self.token_sets: list[set[str]] = [
            set(tokenize(title)) for title in self.titles
        ]

        self.vocabulary, self._matrix = token_incidence(self.token_sets)
        self._set_sizes = np.array(
            [len(tokens) for tokens in self.token_sets], dtype=np.float64
        )

        self._attributes: dict[str, list[str | None]] = {}
        self._attribute_views: dict[str, AttributeView] = {}
        if attributes:
            for name, texts in attributes.items():
                self.register_attribute(name, texts)

        self._embeddings: np.ndarray | None = None
        if embedding_model is not None:
            self._embeddings = embedding_model.embed_many(self.titles)

        self._token_keys = _canonical_ids(self.token_sets)
        self._gj_cache = BoundedPairCache(gj_cache_entries)
        self._jw_table = JaroWinklerTable()
        self._init_mutation_state(embedding_model=embedding_model)

    def _init_mutation_state(
        self, *, embedding_model: LsaEmbeddingModel | None = None
    ) -> None:
        self._embedding_model = embedding_model
        self._embeddings_stale = False
        self._retired: np.ndarray | None = None
        self._canon: dict[frozenset, int] | None = None
        self._is_view = False
        self._growable: _RowBuffers | None = None
        self._signature_cache: tuple[int, RowSignatures] | None = None
        self._postings: tuple[np.ndarray, np.ndarray] | None = None
        self.delta_version = 0

    @classmethod
    def _from_parts(
        cls,
        titles: list[str],
        token_sets: list[set[str]],
        matrix: csr_matrix,
        set_sizes: np.ndarray,
        embeddings: np.ndarray | None,
        prefilter: int,
        token_keys: np.ndarray,
        gj_cache: BoundedPairCache,
        jw_table: JaroWinklerTable | None = None,
    ) -> "SimilarityEngine":
        engine = cls.__new__(cls)
        engine.titles = titles
        engine.prefilter = prefilter
        engine.token_sets = token_sets
        engine.vocabulary = {}
        engine._matrix = matrix
        engine._set_sizes = set_sizes
        engine._embeddings = embeddings
        engine._token_keys = token_keys
        engine._gj_cache = gj_cache
        engine._jw_table = JaroWinklerTable() if jw_table is None else jw_table
        engine._attributes = {}
        engine._attribute_views = {}
        engine._init_mutation_state()
        return engine

    @classmethod
    def open(cls, store) -> "SimilarityEngine":
        """An engine over a shard's on-disk artifact store, memory-mapped.

        ``store`` is anything exposing ``engine_parts()``, such as a
        :class:`~repro.io.store.StoredShard`.  The incidence matrix's CSR
        arrays, the set sizes, token-set keys and embeddings come back as
        read-only memory maps over the store's sidecar files, so opening costs
        page-table setup, not a deserialized copy; everything else
        (``view()``, ``concat``, scoring) works unchanged on top.
        """
        parts = store.engine_parts()
        if parts is None:
            raise ValueError(
                f"store {store!r} holds no engine (built without one?)"
            )
        engine = cls._from_parts(
            titles=parts["titles"],
            token_sets=parts["token_sets"],
            matrix=parts["matrix"],
            set_sizes=parts["set_sizes"],
            embeddings=parts["embeddings"],
            prefilter=parts["prefilter"],
            token_keys=parts["token_keys"],
            gj_cache=parts["gj_cache"],
        )
        # _from_parts leaves the vocabulary empty (views share the
        # parent's); a store-opened engine is a root engine, so restore
        # the token → column map in sidecar column order.
        engine.vocabulary = parts["vocabulary"]
        return engine

    @classmethod
    def concat(
        cls,
        engines: Sequence["SimilarityEngine"],
        *,
        prefilter: int | None = None,
        gj_cache_entries: int = _GJ_CACHE_ENTRIES,
        strict_embeddings: bool | None = None,
    ) -> "SimilarityEngine":
        """One combined engine over several engines' universes, in order.

        The cross-shard counterpart of :meth:`view`: rows of the combined
        engine are the concatenation of the input engines' rows, reusing
        their token sets and set sizes so no title is re-tokenized.  Only
        the incidence matrix is rebuilt (per-engine vocabularies differ, so
        columns must be remapped onto one merged vocabulary) and token-set
        keys are re-canonicalized globally, which lets the fresh
        Generalized-Jaccard pair cache dedupe duplicate titles *across*
        the inputs.

        Embeddings are dropped: each input engine's LSA model is fitted on
        its own corpus, so their vectors are not comparable — the combined
        engine serves the token metrics only (``metric_names`` reflects
        that).  ``strict_embeddings`` controls how the drop surfaces when
        any input actually carries embeddings: ``None`` (default) emits
        :class:`~repro.errors.EmbeddingsDroppedWarning`, ``True`` raises
        :class:`ValueError`, and ``False`` acknowledges the drop silently.
        """
        if not engines:
            raise ValueError("concat needs at least one engine")
        if any(engine._embeddings is not None for engine in engines):
            if strict_embeddings:
                raise ValueError(
                    "concat drops embeddings (per-corpus LSA spaces are "
                    "not comparable); pass strict_embeddings=False to "
                    "acknowledge the drop"
                )
            if strict_embeddings is None:
                warnings.warn(
                    EmbeddingsDroppedWarning(
                        "SimilarityEngine.concat drops the input engines' "
                        "embeddings; the combined engine serves token "
                        "metrics only (pass strict_embeddings=False to "
                        "acknowledge, strict_embeddings=True to forbid)"
                    ),
                    stacklevel=2,
                )
        if any(engine._retired is not None for engine in engines):
            raise ValueError(
                "cannot concat an engine with retired rows; concat "
                "engine.view(engine.live_rows()) instead"
            )
        titles = [title for engine in engines for title in engine.titles]
        token_sets = [
            tokens for engine in engines for tokens in engine.token_sets
        ]
        vocabulary, matrix = token_incidence(token_sets)
        combined = cls._from_parts(
            titles=titles,
            token_sets=token_sets,
            matrix=matrix,
            set_sizes=np.concatenate(
                [engine._set_sizes for engine in engines]
            ),
            embeddings=None,
            prefilter=(
                min(engine.prefilter for engine in engines)
                if prefilter is None
                else prefilter
            ),
            token_keys=_canonical_ids(token_sets),
            gj_cache=BoundedPairCache(gj_cache_entries),
        )
        combined.vocabulary = vocabulary
        return combined

    def view(self, indices: Sequence[int]) -> "SimilarityEngine":
        """A sub-engine over ``indices`` sharing this engine's precomputation.

        The view is itself a full :class:`SimilarityEngine` whose universe is
        the selected rows (in the given order); building it slices arrays
        instead of re-tokenizing or re-embedding.  Registered attributes
        carry over, and any already-built attribute view is sliced rather
        than rebuilt.
        """
        rows = np.asarray(list(indices), dtype=np.intp)
        usable_embeddings = (
            None
            if self._embeddings is None or self._embeddings_stale
            else self._embeddings[rows]
        )
        engine = SimilarityEngine._from_parts(
            titles=[self.titles[int(i)] for i in rows],
            token_sets=[self.token_sets[int(i)] for i in rows],
            matrix=self._matrix[rows],
            set_sizes=self._set_sizes[rows],
            embeddings=usable_embeddings,
            prefilter=self.prefilter,
            token_keys=self._token_keys[rows],
            gj_cache=self._gj_cache,
            jw_table=self._jw_table,
        )
        engine.vocabulary = self.vocabulary
        engine._is_view = True
        if self._retired is not None:
            sliced = self._retired[rows]
            engine._retired = sliced if sliced.any() else None
        engine._attributes = {
            name: [texts[int(i)] for i in rows]
            for name, texts in self._attributes.items()
        }
        engine._attribute_views = {
            name: view.slice(rows) for name, view in self._attribute_views.items()
        }
        return engine

    def __len__(self) -> int:
        return len(self.titles)

    @property
    def metric_names(self) -> tuple[str, ...]:
        if self._embeddings is None or self._embeddings_stale:
            return ("cosine", "dice", "generalized_jaccard")
        return self.METRICS

    # ------------------------------------------------------------------ #
    # Live deltas: append / retire on a root engine
    # ------------------------------------------------------------------ #
    def _require_mutable(self) -> None:
        if self._is_view:
            raise ValueError(
                "views are immutable; append/retire on the root engine"
            )
        if self._attributes:
            raise ValueError(
                "cannot mutate an engine with registered attributes; "
                "attribute rows cannot be extended incrementally"
            )

    def _canonical_keys(self) -> dict[frozenset, int]:
        """The ``frozenset(tokens) -> canonical key`` map, rebuilt lazily.

        ``__init__``/``concat`` discard this dict after assigning keys;
        the first mutation reconstructs it so appended duplicate titles
        keep sharing keys (and therefore shared
        :class:`BoundedPairCache` entries) with their existing rows.
        """
        if self._canon is None:
            canon: dict[frozenset, int] = {}
            for tokens, key in zip(self.token_sets, self._token_keys):
                canon.setdefault(frozenset(tokens), int(key))
            self._canon = canon
        return self._canon

    def _ensure_growable(self) -> None:
        if self._growable is None:
            self._growable = _RowBuffers(
                self._matrix, self._set_sizes, self._token_keys
            )

    def _refresh_from_buffers(self) -> None:
        buffers = self._growable
        self._matrix = csr_matrix(
            (
                buffers.data[: buffers.nnz],
                buffers.indices[: buffers.nnz],
                buffers.indptr[: buffers.rows + 1],
            ),
            shape=(buffers.rows, max(len(self.vocabulary), 1)),
            copy=False,
        )
        self._set_sizes = buffers.sizes[: buffers.rows]
        self._token_keys = buffers.keys[: buffers.rows]
        self._retired = (
            buffers.retired[: buffers.rows] if buffers.n_retired else None
        )
        self.delta_version += 1
        self._signature_cache = None
        self._postings = None
        # The cached title view wraps the pre-mutation matrix.
        self._attribute_views.pop("title", None)

    def append(self, titles: Sequence[str]) -> np.ndarray:
        """Append new title rows; returns their row indices.

        Amortized O(delta): rows land in capacity-doubling CSR buffers,
        the vocabulary grows append-only (existing column ids never
        move, so prior scores and the shared Jaro–Winkler table stay
        valid; the table re-ranks the grown vocabulary lexicographically
        on its next use), and canonical token-set keys extend the
        existing numbering so the shared Generalized-Jaccard pair cache
        stays coherent.  Embeddings are
        *invalidated*, not recomputed — ``lsa_embedding`` disappears
        from ``metric_names`` until :meth:`refresh_embeddings`.
        """
        self._require_mutable()
        new_titles = [str(title) for title in titles]
        if not new_titles:
            return np.empty(0, dtype=np.intp)
        new_sets = [set(tokenize(title)) for title in new_titles]
        canon = self._canonical_keys()
        next_key = (max(canon.values()) + 1) if canon else 0
        new_keys: list[int] = []
        for tokens in new_sets:
            frozen = frozenset(tokens)
            key = canon.get(frozen)
            if key is None:
                key = next_key
                canon[frozen] = key
                next_key += 1
            new_keys.append(key)
        # Column ids for new tokens are assigned in lexicographic token
        # order, so the grown vocabulary is deterministic regardless of
        # set iteration order.
        vocabulary = self.vocabulary
        row_columns = [
            np.array(
                sorted(
                    vocabulary.setdefault(token, len(vocabulary))
                    for token in sorted(tokens)
                ),
                dtype=np.int64,
            )
            for tokens in new_sets
        ]
        start = len(self.titles)
        self._ensure_growable()
        self._growable.append_rows(
            row_columns,
            new_keys,
            [float(len(tokens)) for tokens in new_sets],
        )
        self.titles.extend(new_titles)
        self.token_sets.extend(new_sets)
        if self._embeddings is not None:
            self._embeddings_stale = True
        self._refresh_from_buffers()
        return np.arange(start, len(self.titles), dtype=np.intp)

    def retire(self, rows: Sequence[int]) -> np.ndarray:
        """Tombstone rows: excluded from every top-k, never re-indexed.

        Row numbering is stable (``len(self)`` counts total rows ever
        appended), so retirement is O(delta) and existing row references
        stay valid.  Retiring an unknown or already-retired row raises.
        """
        self._require_mutable()
        row_array = np.unique(np.asarray(list(rows), dtype=np.intp))
        if row_array.size == 0:
            return row_array
        if row_array[0] < 0 or row_array[-1] >= len(self):
            raise IndexError(
                f"retire rows out of range for engine of {len(self)} rows"
            )
        self._ensure_growable()
        buffers = self._growable
        already = buffers.retired[row_array]
        if already.any():
            raise ValueError(
                f"rows already retired: {row_array[already].tolist()}"
            )
        buffers.retired[row_array] = True
        buffers.n_retired += int(row_array.size)
        self._refresh_from_buffers()
        return row_array

    def live_rows(self) -> np.ndarray:
        """Row indices that have not been retired, ascending."""
        if self._retired is None:
            return np.arange(len(self), dtype=np.intp)
        return np.flatnonzero(~self._retired).astype(np.intp)

    @property
    def live_count(self) -> int:
        if self._retired is None:
            return len(self)
        return int(len(self) - np.count_nonzero(self._retired))

    def is_retired(self, row: int) -> bool:
        if self._retired is None:
            return False
        return bool(self._retired[int(row)])

    def refresh_embeddings(
        self, model: LsaEmbeddingModel | None = None
    ) -> None:
        """Re-embed every title after appends invalidated the LSA space.

        Appends only mark embeddings stale (the paper's LSA space is
        corpus-fitted, so per-delta incremental updates would change its
        semantics); this is the explicit, whole-corpus refresh point.
        """
        if model is None:
            model = self._embedding_model
        if model is None:
            raise ValueError(
                "no embedding model to refresh with; pass one explicitly"
            )
        self._embedding_model = model
        self._embeddings = model.embed_many(self.titles)
        self._embeddings_stale = False

    def row_signatures(self) -> RowSignatures:
        """Signature summary over the live rows, cached per delta version.

        The cross-shard signature index consumes these; caching on
        ``delta_version`` keeps the summary coherent across mutations
        without recomputing it per query.
        """
        cached = self._signature_cache
        if cached is not None and cached[0] == self.delta_version:
            return cached[1]
        base = self if self._retired is None else self.view(self.live_rows())
        signatures = RowSignatures.from_engine(base)
        self._signature_cache = (self.delta_version, signatures)
        return signatures

    # ------------------------------------------------------------------ #
    # Per-attribute featurization views
    # ------------------------------------------------------------------ #
    def register_attribute(self, name: str, texts: Sequence[str | None]) -> None:
        """Attach a per-row textual attribute (description, brand, …).

        Registration only stores the texts; the sparse token view is built
        lazily on first :meth:`attribute_view` access and cached, so every
        matcher sharing the engine tokenizes each attribute at most once.
        """
        texts = list(texts)
        if len(texts) != len(self):
            raise ValueError(
                f"attribute {name!r} has {len(texts)} rows, engine has {len(self)}"
            )
        self._attributes[name] = texts
        self._attribute_views.pop(name, None)

    def has_attribute(self, name: str) -> bool:
        return name == "title" or name in self._attributes

    def attribute_names(self) -> tuple[str, ...]:
        return ("title", *self._attributes)

    def attribute_view(self, name: str = "title") -> AttributeView:
        """The cached sparse token view over ``name``'s texts.

        ``"title"`` wraps this engine's own incidence matrix (no extra
        tokenization); other attributes must have been registered.
        """
        cached = self._attribute_views.get(name)
        if cached is None:
            if name in self._attributes:
                cached = AttributeView(self._attributes[name])
            elif name == "title":
                cached = AttributeView.over_engine_titles(self)
            else:
                raise KeyError(
                    f"unknown attribute {name!r}; registered: {self.attribute_names()}"
                )
            self._attribute_views[name] = cached
        return cached

    def pair_features_batch(
        self,
        pairs: Sequence[tuple[int, int]],
        *,
        attribute: str = "title",
        metrics: Sequence[str] = TOKEN_METRICS,
    ) -> np.ndarray:
        """Token-set metric features for N explicit ``(row_a, row_b)`` pairs.

        Returns a ``(len(pairs), len(metrics))`` block computed by the
        attribute's sparse pair kernel — the batched replacement for
        calling the scalar metric functions pair by pair.
        """
        pair_array = np.asarray(list(pairs), dtype=np.intp).reshape(-1, 2)
        return self.attribute_view(attribute).pair_metrics(
            pair_array[:, 0], pair_array[:, 1], metrics
        )

    # ------------------------------------------------------------------ #
    # Batched query-vs-universe scoring
    # ------------------------------------------------------------------ #
    def _require_embeddings(self) -> np.ndarray:
        if self._embeddings is None:
            raise ValueError("engine built without an embedding model")
        if self._embeddings_stale:
            raise ValueError(
                "embeddings are stale after append(); call "
                "refresh_embeddings() to rebuild the LSA space"
            )
        return self._embeddings

    def _token_postings(self) -> tuple[np.ndarray, np.ndarray]:
        """The token → rows postings index, built on first use.

        ``(indptr, rows)``: the incidence matrix column-major, so the rows
        holding token ``t`` are ``rows[indptr[t]:indptr[t + 1]]``.  It is
        derived state — a mutation drops it, no store persists it.
        """
        if self._postings is None:
            by_token = self._matrix.tocsc()
            self._postings = (
                by_token.indptr.astype(np.int64), by_token.indices
            )
        return self._postings

    def _intersections(self, queries: TokenIdRows) -> np.ndarray:
        """``(len(queries), len(self))`` token-intersection counts.

        Each query token's posting rows are gathered, and every
        ``(query, row)`` hit adds one to the dense block in place
        (``np.add.at`` on its flat view).  Ids past the index
        (out-of-vocabulary tokens of external queries) hold no rows: they
        count toward the query's set size but intersect nothing.  A
        counting pass gathers at most ``_GATHER_ENTRIES`` entries (or one
        token's postings), so the transient arrays stay bounded however
        common the tokens are.  Counts are small integers, so the float64
        block is exact.
        """
        token_ptr, token_rows = self._token_postings()
        n = len(self)
        counts = np.zeros((len(queries), n), dtype=np.float64)
        hits = counts.reshape(-1)  # a view: ``counts`` is C-contiguous
        owners, ids = queries.flat()
        known = ids < token_ptr.size - 1
        owners, ids = owners[known], ids[known]
        if ids.size == 0:
            return counts
        offsets = token_ptr[ids]
        widths = token_ptr[ids + 1] - offsets
        ends = np.cumsum(widths)
        step = np.arange(min(ends[-1], max(_GATHER_ENTRIES, widths.max())))
        lo = 0
        while lo < ids.size:
            # Tokens lo..hi-1 fill this pass: their postings sit at
            # [base, ends[hi - 1]) of the concatenated gather.
            base = ends[lo] - widths[lo]
            hi = max(
                lo + 1,
                int(np.searchsorted(ends, base + _GATHER_ENTRIES, side="right")),
            )
            span = widths[lo:hi]
            positions = np.repeat(offsets[lo:hi] - (ends[lo:hi] - span - base), span)
            positions += step[: ends[hi - 1] - base]
            keys = np.repeat(owners[lo:hi] * n, span)
            keys += token_rows[positions]
            np.add.at(hits, keys, 1.0)
            lo = hi
        return counts

    def _score_queries(
        self,
        queries: TokenIdRows,
        query_sizes: np.ndarray,
        metric: str,
        gj: tuple[np.ndarray, TokenIdSpace, BoundedPairCache | None]
        | None = None,
    ) -> np.ndarray:
        """The one query-vs-universe scoring loop over token metrics.

        ``queries`` holds the queries as id rows in this engine's column
        space and ``query_sizes`` their token-set sizes — corpus rows and
        external token sets alike.  Generalized Jaccard also needs ``gj``:
        the queries' canonical keys, token space and set-pair cache (see
        :meth:`_generalized_jaccard_block`).  Chunked by ``_BATCH_ROWS``
        so the dense block stays bounded.
        """
        out = np.empty((len(queries), len(self)), dtype=np.float64)
        sizes = self._set_sizes[None, :]
        for start in range(0, len(queries), _BATCH_ROWS):
            stop = start + _BATCH_ROWS
            intersections = self._intersections(queries[start:stop])
            chunk_sizes = query_sizes[start:stop, None]
            if metric == "generalized_jaccard":
                keys, space, cache = gj
                out[start:stop] = self._generalized_jaccard_block(
                    queries[start:stop],
                    keys[start:stop],
                    space,
                    intersections,
                    chunk_sizes,
                    cache=cache,
                )
            else:
                out[start:stop] = cosine_dice_scores(
                    metric, intersections, chunk_sizes, sizes
                )
        return out

    def scores_batch(self, query_indices: Sequence[int], metric: str) -> np.ndarray:
        """``(len(queries), len(universe))`` similarity block for ``metric``.

        Generalized Jaccard scores are exact on each query's top
        ``prefilter`` cosine candidates and fall back to plain Jaccard (a
        lower bound) elsewhere — identical to the semantics the pair
        generator has always used for top-k search.
        """
        queries = np.asarray(list(query_indices), dtype=np.intp)
        if queries.size == 0:
            return np.zeros((0, len(self)), dtype=np.float64)
        if metric == "lsa_embedding":
            embeddings = self._require_embeddings()
            return np.clip(embeddings[queries] @ embeddings.T, 0.0, 1.0)
        gj = None
        if metric == "generalized_jaccard":
            gj = (self._token_keys[queries], self._token_space(), self._gj_cache)
        return self._score_queries(
            self._token_ids()[queries], self._set_sizes[queries], metric, gj
        )

    def _token_ids(self) -> TokenIdRows:
        """Every row's token ids, straight from the incidence matrix."""
        return TokenIdRows(self._matrix.indices, self._matrix.indptr)

    def _token_space(self) -> TokenIdSpace:
        """The vocabulary's id space over the JW table this engine shares."""
        return self._jw_table.space(self.vocabulary)

    def generalized_jaccard_pairs(
        self, rows_a: Sequence[int], rows_b: Sequence[int]
    ) -> np.ndarray:
        """Exact Generalized Jaccard of aligned row pairs, batched and cached.

        Pairs are deduped on the corpus-global canonical token-set ids (so
        duplicate titles score once) and served through the per-corpus
        bounded cache every view shares; token pairs are scored through the
        shared :class:`~repro.similarity.features.JaroWinklerTable`.  See
        :func:`~repro.similarity.features.generalized_jaccard_batch`.
        """
        rows_a = np.asarray(rows_a, dtype=np.intp).ravel()
        rows_b = np.asarray(rows_b, dtype=np.intp).ravel()
        ids = self._token_ids()
        return generalized_jaccard_batch(
            ids[rows_a],
            ids[rows_b],
            keys=(self._token_keys[rows_a], self._token_keys[rows_b]),
            cache=self._gj_cache,
            space=self._token_space(),
        )

    def _generalized_jaccard_block(
        self,
        queries: TokenIdRows,
        query_keys: np.ndarray,
        space: TokenIdSpace,
        intersections: np.ndarray,
        query_sizes: np.ndarray,
        *,
        cache: BoundedPairCache | None,
    ) -> np.ndarray:
        """Jaccard scores with each query's cosine prefilter rescored exactly.

        ``queries`` are corpus rows or external token sets, as id rows in
        ``space`` with their canonical keys; ``cache`` is the corpus's
        set-pair cache, or None for keys that are not corpus-stable.
        """
        sizes = self._set_sizes
        union = np.maximum(sizes[None, :] + query_sizes - intersections, 1e-12)
        scores = intersections / union
        cosine = cosine_dice_scores(
            "cosine", intersections, sizes[None, :], query_sizes
        )
        # Retired rows never occupy prefilter slots: a cold rebuild of
        # the live corpus has no such columns, and the delta-parity pin
        # requires both paths to rescore the same candidate set.
        if self._retired is not None:
            cosine = np.where(self._retired[None, :], -np.inf, cosine)
        prefilter = min(self.prefilter, self.live_count)
        if prefilter <= 0:
            return scores
        # Exact rescoring of each query's strongest candidates.  The
        # rescored values do not depend on the partition order, only on
        # which candidates fall inside the prefilter.
        if prefilter < cosine.shape[1]:
            top_block = np.argpartition(-cosine, prefilter - 1, axis=1)[:, :prefilter]
        else:
            top_block = np.broadcast_to(
                np.arange(cosine.shape[1]), cosine.shape
            )
        n_queries, width = top_block.shape
        candidates = np.ascontiguousarray(top_block).ravel()
        owners = np.repeat(np.arange(n_queries), width)
        values = generalized_jaccard_batch(
            queries[owners],
            self._token_ids()[candidates],
            keys=(query_keys[owners], self._token_keys[candidates]),
            cache=cache,
            space=space,
        )
        scores[owners, candidates] = values
        return scores

    # ------------------------------------------------------------------ #
    # Top-k retrieval
    # ------------------------------------------------------------------ #
    @staticmethod
    def _select_top_k(scores: np.ndarray, k: int) -> list[int]:
        """Top ``k`` finite entries ordered by (-score, index).

        ``-inf`` marks excluded entries; the selection widens past them no
        matter how many there are, so a large exclusion mask can never
        starve the result below ``k`` while finite candidates remain.
        """
        valid = np.flatnonzero(scores > -np.inf)
        k = min(k, valid.size)
        if k <= 0:
            return []
        sub = scores[valid]
        if k < valid.size:
            kth_score = sub[np.argpartition(-sub, k - 1)[k - 1]]
            tied = np.flatnonzero(sub >= kth_score)
            order = np.lexsort((valid[tied], -sub[tied]))
            chosen = valid[tied[order][:k]]
        else:
            order = np.lexsort((valid, -sub))
            chosen = valid[order]
        return [int(i) for i in chosen]

    def _top_k_chunks(
        self,
        n_queries: int,
        score_chunk: Callable[[int, int], np.ndarray],
        k: int,
    ) -> list[tuple[list[int], np.ndarray]]:
        """Per-query ``(indices, scores)`` top-``k`` with retired rows masked.

        ``score_chunk(start, stop)`` returns the score block of queries
        ``start:stop`` with any query-specific exclusions already set to
        ``-inf``; chunking by ``_BATCH_ROWS`` keeps that block bounded
        regardless of the number of queries.
        """
        results: list[tuple[list[int], np.ndarray]] = []
        for start in range(0, n_queries, _BATCH_ROWS):
            block = score_chunk(start, start + _BATCH_ROWS)
            if self._retired is not None:
                block[:, self._retired] = -np.inf
            for scores in block:
                chosen = self._select_top_k(scores, k)
                results.append((chosen, scores[chosen]))
        return results

    def top_k_scores_batch(
        self,
        query_indices: Sequence[int],
        metric: str,
        *,
        k: int,
        exclude: np.ndarray | None = None,
        exclude_groups: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> list[tuple[list[int], np.ndarray]]:
        """Per-query top-``k`` most similar titles under ``metric``.

        Returns one ``(indices, scores)`` pair per query with ``scores``
        aligned to ``indices``.  ``exclude`` is an optional boolean mask,
        either one row of shape ``(len(universe),)`` shared by all queries
        or one row per query of shape ``(len(queries), len(universe))``.
        ``exclude_groups`` is the memory-bounded alternative for the
        common "skip my own cluster" case: a ``(query_group_ids,
        universe_group_ids)`` pair of integer arrays under which each
        query excludes every universe row sharing its group id.  The
        comparison happens per score chunk, so no ``(len(queries),
        len(universe))`` boolean matrix is ever materialized.  Each query
        always excludes itself, and retired rows are never returned.
        """
        queries = np.asarray(list(query_indices), dtype=np.intp)
        mask = None
        if exclude is not None:
            mask = np.asarray(exclude, dtype=bool)
            if mask.ndim == 1:
                mask = np.broadcast_to(mask, (queries.size, len(self)))
        query_groups = universe_groups = None
        if exclude_groups is not None:
            query_groups = np.asarray(exclude_groups[0]).ravel()
            universe_groups = np.asarray(exclude_groups[1]).ravel()
            if query_groups.size != queries.size:
                raise ValueError(
                    f"exclude_groups has {query_groups.size} query groups, "
                    f"got {queries.size} queries"
                )
            if universe_groups.size != len(self):
                raise ValueError(
                    f"exclude_groups covers {universe_groups.size} universe "
                    f"rows, engine has {len(self)}"
                )

        def score_chunk(start: int, stop: int) -> np.ndarray:
            chunk = queries[start:stop]
            block = self.scores_batch(chunk, metric)
            block[np.arange(chunk.size), chunk] = -np.inf
            if mask is not None:
                block[mask[start:stop]] = -np.inf
            if universe_groups is not None:
                same_group = (
                    query_groups[start:stop, None] == universe_groups[None, :]
                )
                block[same_group] = -np.inf
            return block

        return self._top_k_chunks(queries.size, score_chunk, k)

    # ------------------------------------------------------------------ #
    # External queries: token sets outside the universe
    # ------------------------------------------------------------------ #
    def _external_ids(
        self, token_sets: Sequence[set[str]]
    ) -> tuple[TokenIdRows, list[str]]:
        """Query token sets as id rows, each token mapped once per query.

        Vocabulary tokens keep their column ids; out-of-vocabulary tokens
        get call-local ids past the vocabulary, returned in id order.
        Those ids intersect no corpus row but still count toward the
        query's set size (``rows.sizes()``), so external scores equal what
        ``append()`` → score → ``retire()`` would produce — the identity
        the serving layer's parity pin rests on.
        """
        vocabulary = self.vocabulary
        extra: dict[str, int] = {}
        indices: list[int] = []
        indptr = [0]
        for tokens in token_sets:
            for token in tokens:
                column = vocabulary.get(token)
                if column is None:
                    column = extra.setdefault(token, len(vocabulary) + len(extra))
                indices.append(column)
            indptr.append(len(indices))
        rows = TokenIdRows(
            np.array(indices, dtype=np.int64), np.array(indptr, dtype=np.int64)
        )
        return rows, list(extra)

    def _external_keys(self, token_sets: Sequence[set[str]]) -> np.ndarray:
        """Call-local canonical keys past the corpus's: equal query sets
        share a key, and no key equals a corpus row's."""
        first = int(self._token_keys.max()) + 1 if len(self) else 0
        return first + _canonical_ids(token_sets)

    def external_scores_batch(
        self, token_sets: Sequence[set[str]], metric: str
    ) -> np.ndarray:
        """``(len(queries), len(universe))`` scores for external token sets.

        Same semantics as :meth:`scores_batch` for the token metrics
        (Generalized Jaccard rescored exactly on the cosine prefilter,
        Jaccard fallback elsewhere); ``lsa_embedding`` is unsupported —
        external titles have no vector in the corpus-fitted LSA space.
        Retired rows keep their scores here (exclusion happens in
        :meth:`external_top_k_batch`) but never occupy prefilter slots.
        """
        queries = [set(tokens) for tokens in token_sets]
        if not queries:
            return np.zeros((0, len(self)), dtype=np.float64)
        if metric == "lsa_embedding":
            raise ValueError(
                "external queries serve token metrics only (no external "
                "title has a vector in the corpus-fitted LSA space)"
            )
        query_ids, extra = self._external_ids(queries)
        gj = None
        if metric == "generalized_jaccard":
            # The set-pair cache stays out of it (the query keys are
            # call-local); token pairs within the vocabulary still go
            # through the shared JW table.
            gj = (
                self._external_keys(queries),
                self._token_space().with_tokens(extra),
                None,
            )
        return self._score_queries(
            query_ids, query_ids.sizes().astype(np.float64), metric, gj
        )

    def external_top_k_batch(
        self, token_sets: Sequence[set[str]], metric: str, *, k: int
    ) -> list[tuple[list[int], np.ndarray]]:
        """Per-query ``(indices, scores)`` over the live universe.

        The serving-layer entry point: queries are token sets of titles
        *not* in the universe, so there is no self-exclusion — an exact
        duplicate of a corpus title scores 1.0 and is returned.  Retired
        rows are excluded.
        """
        queries = [set(tokens) for tokens in token_sets]
        return self._top_k_chunks(
            len(queries),
            lambda start, stop: self.external_scores_batch(
                queries[start:stop], metric
            ),
            k,
        )

    # ------------------------------------------------------------------ #
    # Exact subset scoring (selection and splitting)
    # ------------------------------------------------------------------ #
    def _exact_subset_scores(
        self, query_index: int, candidates: np.ndarray, metric: str
    ) -> np.ndarray:
        """Exact scores of ``query_index`` against explicit candidate rows.

        Unlike :meth:`scores_batch`, Generalized Jaccard is exact for every
        candidate here: candidate subsets on the selection/splitting path
        are small (a DBSCAN group or one cluster's offers), and the paper
        scores them exactly.
        """
        if metric == "lsa_embedding":
            embeddings = self._require_embeddings()
            raw = embeddings[candidates] @ embeddings[query_index]
            return np.clip(raw, 0.0, 1.0)
        if metric == "generalized_jaccard":
            return self.generalized_jaccard_pairs(
                np.full(candidates.size, query_index, dtype=np.intp), candidates
            )
        intersections = np.asarray(
            (self._matrix[candidates] @ self._matrix[query_index].T).todense()
        ).ravel()
        return cosine_dice_scores(
            metric,
            intersections,
            self._set_sizes[candidates],
            self._set_sizes[query_index],
        )

    def rank(
        self, query_index: int, candidate_indices: Sequence[int], metric: str
    ) -> list[tuple[int, float]]:
        """Rank candidate rows by descending exact similarity to the query.

        Returns ``(position, score)`` pairs where ``position`` indexes into
        ``candidate_indices``; ties break toward the earlier position, the
        ordering :class:`~repro.similarity.registry.SimilarityRegistry` has
        always produced.
        """
        candidates = np.asarray(list(candidate_indices), dtype=np.intp)
        if candidates.size == 0:
            return []
        scores = self._exact_subset_scores(query_index, candidates, metric)
        order = np.lexsort((np.arange(candidates.size), -scores))
        return [(int(pos), float(scores[pos])) for pos in order]

    def pairwise_matrix(self, indices: Sequence[int], metric: str) -> np.ndarray:
        """Exact symmetric similarity matrix of the given rows.

        The diagonal is fixed at 1.0 (every title matches itself), matching
        the registry's historical ``pairwise_scores`` contract.
        """
        rows = np.asarray(list(indices), dtype=np.intp)
        m = rows.size
        if m == 0:
            return np.zeros((0, 0), dtype=np.float64)
        if metric == "lsa_embedding":
            embeddings = self._require_embeddings()[rows]
            matrix = np.clip(embeddings @ embeddings.T, 0.0, 1.0)
        elif metric == "generalized_jaccard":
            matrix = np.zeros((m, m), dtype=np.float64)
            upper_i, upper_j = np.triu_indices(m, k=1)
            if upper_i.size:
                scores = self.generalized_jaccard_pairs(
                    rows[upper_i], rows[upper_j]
                )
                matrix[upper_i, upper_j] = scores
                matrix[upper_j, upper_i] = scores
        else:
            block = self._matrix[rows]
            intersections = np.asarray((block @ block.T).todense())
            sizes = self._set_sizes[rows]
            matrix = cosine_dice_scores(
                metric, intersections, sizes[:, None], sizes[None, :]
            )
        np.fill_diagonal(matrix, 1.0)
        return matrix
