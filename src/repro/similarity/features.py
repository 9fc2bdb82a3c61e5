"""Batched featurization kernels shared by the matcher stack.

The Section-5 matchers historically scored every pair with scalar metric
functions — quadratic Python-call overhead on top of work that is, per
pair, a handful of arithmetic operations.  This module provides the
corpus-level counterpart of :class:`~repro.similarity.engine.SimilarityEngine`
for *pair-shaped* workloads:

* :class:`AttributeView` — a sparse token-incidence view over one textual
  attribute (title, description, brand, a serialized offer, …).  All
  token-set metrics of N explicit pairs (Jaccard, cosine, Dice, overlap)
  come out of one sparse row-product per chunk instead of N Python calls,
  and :meth:`AttributeView.hashed_incidence` folds the view's vocabulary
  through a :class:`~repro.text.vectorize.HashingVectorizer` once so binary
  hashed features are a sparse matmul away.  Its Cosine/Dice columns and
  every engine Cosine/Dice score come from :func:`cosine_dice_scores`,
  and the engine and the view build their incidence with
  :func:`token_incidence`.
* :func:`levenshtein_similarity_batch` — a chunked NumPy edit-distance DP
  over padded char-code arrays.  The row recurrence's left-to-right
  dependency is resolved with a prefix-minimum scan, so each DP row is one
  vectorized step over the whole batch.
* :func:`jaro_winkler_similarity_batch` — the standard greedy Jaro match
  loop run position-wise across the batch (the per-string inner scan
  becomes a masked argmax), followed by vectorized transposition counting
  and prefix boosting.
* :func:`generalized_jaccard_batch` — Generalized Jaccard with soft token
  matching over N explicit set pairs, run on token ids
  (:class:`TokenIdRows` in a :class:`TokenIdSpace`; string input is
  encoded over a call-local vocabulary first).  Requested pairs are
  deduped by canonical token-set key, every distinct symmetric-difference
  token pair gets one Jaro–Winkler score, and the greedy threshold
  matching runs as a masked argmax across all pairs at once — the batched
  replacement for the engine's per-pair rescoring loop.
  :class:`BoundedPairCache` is its thread-safe, bounded set-pair score
  cache, and :class:`JaroWinklerTable` its token-pair table: keyed by
  vocabulary ids (lexicographically smaller token first) in int64-keyed
  NumPy arrays, it scores each in-vocabulary token pair once per corpus
  through :func:`jaro_winkler_similarity_batch`.  Both belong to one
  corpus and are shared by every engine view.

All kernels are drop-in parity replacements for the scalar functions in
``similarity/token_based.py`` and ``similarity/character_based.py``; the
test-suite pins them together at 1e-9.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from collections.abc import Callable, Iterable, Mapping, Sequence
from itertools import islice
from typing import NamedTuple

import numpy as np
from scipy.sparse import csr_matrix

from repro.similarity.token_based import DEFAULT_SOFT_THRESHOLD
from repro.text.tokenize import tokenize

__all__ = [
    "AttributeView",
    "BoundedPairCache",
    "JaroWinklerTable",
    "TOKEN_METRICS",
    "TokenIdRows",
    "TokenIdSpace",
    "cosine_dice_scores",
    "generalized_jaccard_batch",
    "token_incidence",
    "levenshtein_similarity_batch",
    "jaro_winkler_similarity_batch",
]

TOKEN_METRICS = ("jaccard", "cosine", "dice", "overlap")

_PAIR_CHUNK = 8192  # rows per sparse pair-product block
_CHAR_CHUNK = 2048  # strings per char-kernel DP block
_GREEDY_CELL_BUDGET = 1 << 23  # dense cells per greedy-matching block (~64 MB)


def token_incidence(
    token_sets: Sequence[set[str]],
) -> tuple[dict[str, int], csr_matrix]:
    """The token → column map and binary ``(rows, vocabulary)`` incidence.

    Columns are numbered in first-seen order over the rows' iteration
    order; an empty vocabulary still gets one (all-zero) column.
    """
    vocabulary: dict[str, int] = {}
    rows: list[int] = []
    cols: list[int] = []
    for row, tokens in enumerate(token_sets):
        for token in tokens:
            cols.append(vocabulary.setdefault(token, len(vocabulary)))
            rows.append(row)
    matrix = csr_matrix(
        (np.ones(len(rows)), (rows, cols)),
        shape=(len(token_sets), max(len(vocabulary), 1)),
        dtype=np.float64,
    )
    return vocabulary, matrix


def cosine_dice_scores(
    metric: str,
    intersections: np.ndarray,
    sizes_a: np.ndarray,
    sizes_b: np.ndarray,
) -> np.ndarray:
    """Cosine or Dice from token-intersection counts and set sizes.

    The one implementation of both formulas: the arguments broadcast, so
    aligned pairs, one query against a candidate subset and whole
    (queries x universe) blocks all come through here.  Set sizes are
    integral, so flooring the denominators at 1 only touches empty sets,
    where the scalar references define Cosine with an empty side as 0.0
    and Dice of two empty sets as 1.0.
    """
    if metric == "cosine":
        return intersections / np.sqrt(np.maximum(sizes_a * sizes_b, 1.0))
    if metric == "dice":
        denominator = sizes_a + sizes_b
        return np.where(
            denominator == 0.0,
            1.0,
            2.0 * intersections / np.maximum(denominator, 1.0),
        )
    raise ValueError(f"unknown metric: {metric!r}")


# --------------------------------------------------------------------- #
# Sparse per-attribute token views
# --------------------------------------------------------------------- #
class AttributeView:
    """Sparse token-incidence view over one textual attribute.

    ``texts`` may contain ``None`` for missing values; those rows have an
    empty token set and ``present`` False.  Presence follows the *raw*
    string truthiness (an all-punctuation description is present but
    tokenizes to an empty set), matching the scalar featurizers' branch
    conditions exactly.
    """

    def __init__(self, texts: Sequence[str | None]) -> None:
        self.texts: list[str] = ["" if text is None else text for text in texts]
        self.present = np.array([bool(text) for text in self.texts], dtype=bool)
        token_sets = [set(tokenize(text)) for text in self.texts]
        vocabulary, matrix = token_incidence(token_sets)
        self._init_parts(
            token_sets,
            list(vocabulary),
            matrix,
            np.array([len(tokens) for tokens in token_sets], dtype=np.float64),
        )

    def _init_parts(
        self,
        token_sets: list[set[str]],
        vocabulary: list[str],
        matrix: csr_matrix,
        set_sizes: np.ndarray,
    ) -> None:
        self.token_sets = token_sets
        self._vocabulary = vocabulary
        self._matrix = matrix
        self._set_sizes = set_sizes
        self._hashed: dict[tuple[int, int], csr_matrix] = {}

    @classmethod
    def _from_parts(
        cls,
        texts: list[str],
        present: np.ndarray,
        token_sets: list[set[str]],
        vocabulary: list[str],
        matrix: csr_matrix,
        set_sizes: np.ndarray,
    ) -> "AttributeView":
        view = cls.__new__(cls)
        view.texts = texts
        view.present = present
        view._init_parts(token_sets, vocabulary, matrix, set_sizes)
        return view

    @classmethod
    def over_engine_titles(cls, engine) -> "AttributeView":
        """A view sharing a :class:`SimilarityEngine`'s title precomputation."""
        view = cls.__new__(cls)
        view.texts = list(engine.titles)
        view.present = np.array([bool(text) for text in view.texts], dtype=bool)
        view._init_parts(
            engine.token_sets,
            list(engine.vocabulary),  # insertion order == column order
            engine._matrix,
            engine._set_sizes,
        )
        return view

    def slice(self, rows: np.ndarray) -> "AttributeView":
        """A sub-view over ``rows`` sharing this view's tokenization."""
        rows = np.asarray(rows, dtype=np.intp)
        return AttributeView._from_parts(
            texts=[self.texts[int(i)] for i in rows],
            present=self.present[rows],
            token_sets=[self.token_sets[int(i)] for i in rows],
            vocabulary=self._vocabulary,
            matrix=self._matrix[rows],
            set_sizes=self._set_sizes[rows],
        )

    def __len__(self) -> int:
        return len(self.texts)

    def pair_metrics(
        self,
        rows_a: Sequence[int],
        rows_b: Sequence[int],
        metrics: Sequence[str] = TOKEN_METRICS,
    ) -> np.ndarray:
        """``(len(pairs), len(metrics))`` token-set scores for explicit pairs.

        Intersection counts come from chunked sparse row products; every
        metric then reduces to elementwise arithmetic on the counts and the
        per-row set sizes.  Empty-set semantics match the scalar metrics:
        Jaccard/Dice of two empty sets is 1.0, cosine/overlap with any
        empty side is 0.0.
        """
        unknown = set(metrics) - set(TOKEN_METRICS)
        if unknown:
            raise ValueError(f"unknown token metrics: {sorted(unknown)!r}")
        rows_a = np.asarray(list(rows_a), dtype=np.intp)
        rows_b = np.asarray(list(rows_b), dtype=np.intp)
        if rows_a.shape != rows_b.shape:
            raise ValueError("rows_a and rows_b must be aligned")
        n = rows_a.size
        out = np.empty((n, len(metrics)), dtype=np.float64)
        for start in range(0, n, _PAIR_CHUNK):
            chunk_a = rows_a[start : start + _PAIR_CHUNK]
            chunk_b = rows_b[start : start + _PAIR_CHUNK]
            left = self._matrix[chunk_a]
            right = self._matrix[chunk_b]
            inter = np.asarray(left.multiply(right).sum(axis=1)).ravel()
            sizes_a = self._set_sizes[chunk_a]
            sizes_b = self._set_sizes[chunk_b]
            both_empty = (sizes_a == 0.0) & (sizes_b == 0.0)
            any_empty = (sizes_a == 0.0) | (sizes_b == 0.0)
            with np.errstate(divide="ignore", invalid="ignore"):
                for col, metric in enumerate(metrics):
                    if metric == "jaccard":
                        union = sizes_a + sizes_b - inter
                        scores = np.where(
                            both_empty, 1.0, inter / np.maximum(union, 1.0)
                        )
                    elif metric in ("cosine", "dice"):
                        scores = cosine_dice_scores(metric, inter, sizes_a, sizes_b)
                    else:  # overlap
                        scores = np.where(
                            any_empty,
                            0.0,
                            inter / np.maximum(np.minimum(sizes_a, sizes_b), 1.0),
                        )
                    out[start : start + _PAIR_CHUNK, col] = scores
        return out

    def hashed_incidence(self, vectorizer) -> csr_matrix:
        """Binary ``(rows, n_features)`` bucket incidence under ``vectorizer``.

        The view's vocabulary is hashed once; the per-row incidence is then
        the sparse product of the token-incidence matrix with the
        (vocab x buckets) selection matrix.  Equals
        ``HashingVectorizer.transform`` row-for-row, cached per
        ``(n_features, seed)``.
        """
        key = (vectorizer.n_features, vectorizer.seed)
        cached = self._hashed.get(key)
        if cached is None:
            n_tokens = len(self._vocabulary)
            buckets = vectorizer.token_buckets(self._vocabulary)
            selector = csr_matrix(
                (np.ones(n_tokens), (np.arange(n_tokens), buckets)),
                shape=(max(n_tokens, 1), vectorizer.n_features),
                dtype=np.float64,
            )
            cached = (self._matrix @ selector).tocsr()
            cached.data = np.ones_like(cached.data)
            self._hashed[key] = cached
        return cached


# --------------------------------------------------------------------- #
# Chunked char-array kernels
# --------------------------------------------------------------------- #
def _encode_strings(strings: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """Pad ``strings`` into an int32 code-point matrix (+1 so 0 is padding).

    The whole chunk is encoded as one concatenated UTF-32 buffer and
    scattered into the padded matrix by offset — one ``encode`` per chunk
    instead of one per string.
    """
    lens = np.array([len(s) for s in strings], dtype=np.intp)
    width = max(int(lens.max()) if lens.size else 0, 1)
    codes = np.zeros((len(strings), width), dtype=np.int32)
    joined = "".join(strings)
    if joined:
        flat = (
            np.frombuffer(joined.encode("utf-32-le"), dtype=np.uint32).astype(
                np.int32
            )
            + 1
        )
        offsets = np.concatenate(([0], np.cumsum(lens)[:-1]))
        rows = np.repeat(np.arange(len(strings)), lens)
        codes[rows, np.arange(len(joined)) - offsets[rows]] = flat
    return codes, lens


def levenshtein_similarity_batch(
    lefts: Sequence[str], rights: Sequence[str]
) -> np.ndarray:
    """Vectorized ``levenshtein_similarity`` over aligned string pairs.

    The classic DP runs one row per left-hand character, with the row's
    sequential ``current[j-1]`` dependency eliminated analytically:
    ``current[j] = j + min_{k<=j}(candidate[k] - k)`` is a prefix-minimum
    scan, so every row is a constant number of whole-batch NumPy ops.
    """
    if len(lefts) != len(rights):
        raise ValueError("left and right string lists must be aligned")
    n = len(lefts)
    out = np.empty(n, dtype=np.float64)
    for start in range(0, n, _CHAR_CHUNK):
        chunk_l = list(lefts[start : start + _CHAR_CHUNK])
        chunk_r = list(rights[start : start + _CHAR_CHUNK])
        distances = _levenshtein_distance_block(chunk_l, chunk_r)
        longest = np.maximum(
            np.array([len(s) for s in chunk_l], dtype=np.float64),
            np.array([len(s) for s in chunk_r], dtype=np.float64),
        )
        block = np.where(
            longest == 0.0, 1.0, 1.0 - distances / np.maximum(longest, 1.0)
        )
        out[start : start + _CHAR_CHUNK] = block
    return out


def _levenshtein_distance_block(
    lefts: list[str], rights: list[str]
) -> np.ndarray:
    left_codes, left_lens = _encode_strings(lefts)
    right_codes, right_lens = _encode_strings(rights)
    n = left_codes.shape[0]
    width_r = right_codes.shape[1]
    col = np.arange(width_r + 1, dtype=np.int32)
    previous = np.broadcast_to(col, (n, width_r + 1)).copy()
    out = right_lens.astype(np.int32).copy()  # rows with empty left side
    max_len = int(left_lens.max()) if n else 0
    for i in range(1, max_len + 1):
        cost = (right_codes != left_codes[:, i - 1 : i]).astype(np.int32)
        candidate = np.minimum(previous[:, 1:] + 1, previous[:, :-1] + cost)
        candidate = np.concatenate(
            [np.full((n, 1), i, dtype=np.int32), candidate], axis=1
        )
        current = np.minimum.accumulate(candidate - col, axis=1) + col
        finished = np.flatnonzero(left_lens == i)
        if finished.size:
            out[finished] = current[finished, right_lens[finished]]
        previous = current
    return out.astype(np.float64)


def jaro_winkler_similarity_batch(
    lefts: Sequence[str],
    rights: Sequence[str],
    *,
    prefix_scale: float = 0.1,
    max_prefix: int = 4,
) -> np.ndarray:
    """Vectorized ``jaro_winkler_similarity`` over aligned string pairs.

    The greedy match loop runs once per left-hand position with the
    per-string window scan expressed as a masked ``argmax`` across the
    batch; transpositions come from compacting matched characters with a
    cumulative-sum scatter.  Identical pairs short-circuit to 1.0 exactly
    like the scalar function (including two empty strings).
    """
    if len(lefts) != len(rights):
        raise ValueError("left and right string lists must be aligned")
    n = len(lefts)
    out = np.empty(n, dtype=np.float64)
    for start in range(0, n, _CHAR_CHUNK):
        chunk_l = list(lefts[start : start + _CHAR_CHUNK])
        chunk_r = list(rights[start : start + _CHAR_CHUNK])
        out[start : start + _CHAR_CHUNK] = _jaro_winkler_block(
            chunk_l, chunk_r, prefix_scale=prefix_scale, max_prefix=max_prefix
        )
    return out


def _jaro_winkler_block(
    lefts: list[str],
    rights: list[str],
    *,
    prefix_scale: float,
    max_prefix: int,
) -> np.ndarray:
    left_codes, left_lens = _encode_strings(lefts)
    right_codes, right_lens = _encode_strings(rights)
    n, width_l = left_codes.shape
    width_r = right_codes.shape[1]

    window = np.maximum(np.maximum(left_lens, right_lens) // 2 - 1, 0)
    left_matched = np.zeros((n, width_l), dtype=bool)
    right_matched = np.zeros((n, width_r), dtype=bool)
    j_index = np.arange(width_r)
    for i in range(width_l):
        candidates = (
            (j_index >= (i - window)[:, None])
            & (j_index < np.minimum(i + window + 1, right_lens)[:, None])
            & ~right_matched
            & (right_codes == left_codes[:, i : i + 1])
            & (left_lens > i)[:, None]
        )
        first = candidates.argmax(axis=1)
        hit_rows = np.flatnonzero(candidates.any(axis=1))
        if hit_rows.size:
            right_matched[hit_rows, first[hit_rows]] = True
            left_matched[hit_rows, i] = True

    matches = left_matched.sum(axis=1)
    max_matches = int(matches.max()) if n else 0
    if max_matches:
        left_compact = _compact_matched(left_codes, left_matched, max_matches)
        right_compact = _compact_matched(right_codes, right_matched, max_matches)
        in_range = np.arange(max_matches) < matches[:, None]
        transpositions = ((left_compact != right_compact) & in_range).sum(axis=1) // 2
    else:
        transpositions = np.zeros(n, dtype=np.intp)

    safe_matches = np.maximum(matches, 1).astype(np.float64)
    jaro = (
        matches / np.maximum(left_lens, 1)
        + matches / np.maximum(right_lens, 1)
        + (matches - transpositions) / safe_matches
    ) / 3.0
    jaro = np.where(matches == 0, 0.0, jaro)
    equal = (left_lens == right_lens) & np.array(
        [left == right for left, right in zip(lefts, rights)]
    )
    jaro = np.where(equal, 1.0, jaro)

    prefix_width = min(max_prefix, width_l, width_r)
    if prefix_width > 0:
        agree = (
            (left_codes[:, :prefix_width] == right_codes[:, :prefix_width])
            & (np.arange(prefix_width) < np.minimum(left_lens, right_lens)[:, None])
        )
        prefix = np.cumprod(agree, axis=1).sum(axis=1)
    else:
        prefix = np.zeros(n, dtype=np.intp)
    return jaro + prefix * prefix_scale * (1.0 - jaro)


def _compact_matched(
    codes: np.ndarray, matched: np.ndarray, max_matches: int
) -> np.ndarray:
    """Gather matched char codes left-to-right into a dense (n, max) block."""
    positions = np.cumsum(matched, axis=1) - 1
    out = np.zeros((codes.shape[0], max_matches), dtype=codes.dtype)
    rows, cols = np.nonzero(matched)
    out[rows, positions[rows, cols]] = codes[rows, cols]
    return out


# --------------------------------------------------------------------- #
# Batched Generalized Jaccard
# --------------------------------------------------------------------- #
class BoundedPairCache:
    """Thread-safe bounded LRU cache over canonical ``(lo, hi)`` pair keys.

    One instance belongs to one corpus: keys must be stable across every
    consumer sharing the cache (the engine uses its corpus-global canonical
    token-set ids, which :meth:`SimilarityEngine.view` slices preserve), and
    all cached values must come from the same scoring configuration (the
    engine always scores at the default soft-match threshold).  Eviction is
    least-recently-used, so the pairs every ratio build of the corpus
    rescores stay resident while one-off pairs age out.
    """

    def __init__(self, capacity: int = 1 << 20) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._data: dict[tuple[int, int], float] = {}

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def get_many(
        self, keys: Iterable[tuple[int, int]]
    ) -> dict[tuple[int, int], float]:
        """The cached subset of ``keys``; every hit is marked recently used."""
        hits: dict[tuple[int, int], float] = {}
        with self._lock:
            data = self._data
            for key in keys:
                value = data.get(key)
                if value is not None:
                    del data[key]  # re-insert to refresh recency
                    data[key] = value
                    hits[key] = value
        return hits

    def put_many(
        self, items: Iterable[tuple[tuple[int, int], float]]
    ) -> None:
        with self._lock:
            data = self._data
            for key, value in items:
                data[key] = value
            excess = len(data) - self.capacity
            if excess > 0:
                for key in list(islice(iter(data), excess)):
                    del data[key]

    # The lock is process-local: engines (and their caches) cross process
    # boundaries when shard builds return from worker processes, so pickling
    # ships the cached scores and rebuilds a fresh lock on the other side.
    def __getstate__(self) -> dict:
        with self._lock:
            return {"capacity": self.capacity, "data": dict(self._data)}

    def __setstate__(self, state: dict) -> None:
        self.capacity = state["capacity"]
        self._data = state["data"]
        self._lock = threading.Lock()


TokenSets = Sequence[str | Iterable[str]]


def _as_token_set(value: str | Iterable[str]) -> set[str]:
    if isinstance(value, str):
        return set(tokenize(value))
    if isinstance(value, set):
        return value
    return set(value)


# --------------------------------------------------------------------- #
# Id-encoded token sets and the Jaro-Winkler pair table
# --------------------------------------------------------------------- #
_LOW_BITS = (1 << 32) - 1


def _pair_key(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Pack two non-negative id arrays into one int64 key per pair."""
    return (lo.astype(np.int64) << 32) | hi.astype(np.int64)


def _sorted_member(values: np.ndarray, sorted_pool: np.ndarray) -> np.ndarray:
    """``np.isin`` for an ascending ``sorted_pool``, without re-sorting."""
    if sorted_pool.size == 0:
        return np.zeros(values.size, dtype=bool)
    at = np.minimum(np.searchsorted(sorted_pool, values), sorted_pool.size - 1)
    return sorted_pool[at] == values


class JaroWinklerTable:
    """Thread-safe Jaro–Winkler scores of token-id pairs for one vocabulary.

    Ids are the columns of one append-only vocabulary — a root
    :class:`~repro.similarity.engine.SimilarityEngine` and every view of
    it — so an entry stays valid as the vocabulary grows.  Each entry is
    keyed by the lexicographically smaller token's id first and holds
    ``JW(smaller, larger)``, the orientation the GJ kernel scores in.
    Keys are packed into one int64 and kept sorted beside their scores in
    two NumPy arrays: 16 bytes per distinct pair, no entry is a Python
    object, and inserts replace the arrays instead of mutating them.  The
    table also serves its vocabulary's :class:`TokenIdSpace`, whose
    lexicographic order is recomputed only when the vocabulary has grown.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._fill_lock = threading.Lock()  # held while scoring misses
        self._keys = np.empty(0, dtype=np.int64)
        self._values = np.empty(0, dtype=np.float64)
        self._space: TokenIdSpace | None = None

    def __len__(self) -> int:
        with self._lock:
            return int(self._keys.size)

    def space(self, vocabulary: Mapping[str, int]) -> "TokenIdSpace":
        """``vocabulary``'s ids (dense, in insertion order) over this table."""
        space = self._space
        if space is None or len(space.tokens) != len(vocabulary):
            tokens = list(vocabulary)
            ranked = sorted(range(len(tokens)), key=tokens.__getitem__)
            order = np.empty(len(tokens), dtype=np.int64)
            order[ranked] = np.arange(len(tokens))
            space = TokenIdSpace(
                tokens,
                order,
                table=self,
                n_stored=len(tokens),
                sorted_tokens=[tokens[i] for i in ranked],
            )
            with self._lock:
                self._space = space
        return space

    def lookup(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(found, scores)`` for packed pair keys (scores valid where found)."""
        with self._lock:
            stored, values = self._keys, self._values
        if stored.size == 0:
            return np.zeros(keys.size, dtype=bool), np.empty(keys.size)
        at = np.minimum(np.searchsorted(stored, keys), stored.size - 1)
        return stored[at] == keys, values[at]

    def scores(
        self, keys: np.ndarray, score: Callable[[np.ndarray], np.ndarray]
    ) -> np.ndarray:
        """Scores of distinct packed pair keys, calling ``score(missing)``
        for the ones not yet stored and storing its result.

        Misses are scored under a fill lock and looked up again inside it,
        so threads sharing the table never score one pair twice; hits do
        not wait for it.
        """
        found, values = self.lookup(keys)
        if found.all():
            return values
        with self._fill_lock:
            missing = np.flatnonzero(~found)
            found, again = self.lookup(keys[missing])
            values[missing[found]] = again[found]
            missing = missing[~found]
            if missing.size:
                values[missing] = score(keys[missing])
                self.insert(keys[missing], values[missing])
        return values

    def insert(self, keys: np.ndarray, scores: np.ndarray) -> None:
        """Store distinct packed pair keys with their scores; present keys
        keep theirs."""
        order = np.argsort(keys)
        keys, scores = keys[order], np.asarray(scores, dtype=np.float64)[order]
        with self._lock:
            fresh = ~_sorted_member(keys, self._keys)
            at = np.searchsorted(self._keys, keys[fresh])
            self._keys = np.insert(self._keys, at, keys[fresh])
            self._values = np.insert(self._values, at, scores[fresh])

    # Engines cross process boundaries when shard builds return from
    # worker processes: pickling ships the entries and the other side
    # rebuilds the locks and (lazily) the id space.
    def __getstate__(self) -> dict:
        with self._lock:
            return {"keys": self._keys, "scores": self._values}

    def __setstate__(self, state: dict) -> None:
        self.__init__()
        self.insert(state["keys"], state["scores"])


class TokenIdSpace(NamedTuple):
    """Token ids as the Generalized-Jaccard kernel consumes them.

    ``tokens[i]`` is id ``i``'s token and ``order[i]`` its rank in the
    lexicographic order of every id in the space.  Pairs of ids below
    ``n_stored`` go through ``table`` (``n_stored`` is 0 without one);
    ids from ``n_stored`` on are call-local (out-of-vocabulary query
    tokens): their pairs are scored but never stored.  ``sorted_tokens``
    lists the table's vocabulary in lexicographic order, for placing
    call-local ids.
    """

    tokens: Sequence[str]
    order: np.ndarray
    table: JaroWinklerTable | None = None
    n_stored: int = 0
    sorted_tokens: Sequence[str] = ()

    def with_tokens(self, extra: Sequence[str]) -> "TokenIdSpace":
        """This space plus call-local ids ``len(tokens) + j`` for ``extra``.

        ``extra`` holds distinct tokens that are not in the space.  Ranks
        are spread by ``len(extra) + 1`` so each extra token slots in
        between the vocabulary ranks around it.
        """
        if not extra:
            return self
        n_vocab = len(self.tokens)
        spread = len(extra) + 1
        order = np.empty(n_vocab + len(extra), dtype=np.int64)
        order[:n_vocab] = self.order * spread + (spread - 1)
        for j, i in enumerate(sorted(range(len(extra)), key=extra.__getitem__)):
            order[n_vocab + i] = bisect_left(self.sorted_tokens, extra[i]) * spread + j
        return self._replace(tokens=[*self.tokens, *extra], order=order)


class TokenIdRows:
    """Token sets as rows of ids: a selection of CSR rows.

    Entry ``i`` is the id set ``indices[indptr[r]:indptr[r + 1]]`` of row
    ``r = rows[i]``, so a sparse incidence matrix's own ``indices`` and
    ``indptr`` serve as-is and no token set is materialized.  Indexing
    with an integer array or a slice selects entries.
    """

    __slots__ = ("indices", "indptr", "rows")

    def __init__(
        self,
        indices: np.ndarray,
        indptr: np.ndarray,
        rows: np.ndarray | None = None,
    ) -> None:
        self.indices = indices
        self.indptr = indptr
        self.rows = (
            np.arange(len(indptr) - 1) if rows is None else np.asarray(rows, dtype=np.intp)
        )

    def __len__(self) -> int:
        return int(self.rows.size)

    def __getitem__(self, positions) -> "TokenIdRows":
        return TokenIdRows(self.indices, self.indptr, self.rows[positions])

    def sizes(self) -> np.ndarray:
        return (self.indptr[self.rows + 1] - self.indptr[self.rows]).astype(np.intp)

    def flat(self) -> tuple[np.ndarray, np.ndarray]:
        """Every entry's ids, concatenated, and the entry each id belongs to."""
        starts = self.indptr[self.rows].astype(np.int64)
        lengths = self.indptr[self.rows + 1].astype(np.int64) - starts
        owner = np.repeat(np.arange(lengths.size), lengths)
        firsts = np.cumsum(lengths) - lengths
        positions = np.arange(owner.size) + (starts - firsts)[owner]
        return owner, np.asarray(self.indices[positions], dtype=np.int64)

    def ordered(
        self, order: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every entry's ids sorted by ``order`` within the entry, flat.

        Returns the ids, their ascending sort keys ``entry * stride +
        order[id]`` (``stride`` exceeds every order value) and the
        per-entry lengths.
        """
        owner, ids = self.flat()
        lengths = self.sizes().astype(np.int64)
        stride = int(order.max()) + 1 if order.size else 1
        tags = owner * stride + order[ids]
        sort = np.argsort(tags)
        return ids[sort], tags[sort], lengths


def _encode_call_local(
    lefts: TokenSets, rights: TokenSets
) -> tuple[TokenIdRows, TokenIdRows, TokenIdSpace, tuple[list[int], list[int]]]:
    """Both sides over one call-local vocabulary, plus canonical set keys.

    Ids are lexicographic ranks, so the space's order is the identity.
    """
    sides = (
        [_as_token_set(value) for value in lefts],
        [_as_token_set(value) for value in rights],
    )
    vocabulary = sorted({token for sets in sides for tokens in sets for token in tokens})
    rank = {token: i for i, token in enumerate(vocabulary)}
    canon: dict[frozenset, int] = {}
    encoded: list[TokenIdRows] = []
    keys: list[list[int]] = []
    for sets in sides:
        lengths = np.array([len(tokens) for tokens in sets], dtype=np.int64)
        indices = np.fromiter(
            (rank[token] for tokens in sets for token in tokens),
            dtype=np.int64,
            count=int(lengths.sum()),
        )
        encoded.append(TokenIdRows(indices, np.concatenate(([0], np.cumsum(lengths)))))
        keys.append([canon.setdefault(frozenset(tokens), len(canon)) for tokens in sets])
    space = TokenIdSpace(vocabulary, np.arange(len(vocabulary), dtype=np.int64))
    return encoded[0], encoded[1], space, (keys[0], keys[1])


def generalized_jaccard_batch(
    lefts: TokenSets | TokenIdRows,
    rights: TokenSets | TokenIdRows,
    *,
    threshold: float = DEFAULT_SOFT_THRESHOLD,
    keys: tuple[Sequence[int], Sequence[int]] | None = None,
    cache: BoundedPairCache | None = None,
    space: TokenIdSpace | None = None,
) -> np.ndarray:
    """Vectorized ``generalized_jaccard_similarity`` over aligned pairs.

    ``lefts``/``rights`` hold raw strings (tokenized internally) or
    pre-built token sets, encoded over a call-local vocabulary — or, with
    ``space``, :class:`TokenIdRows` over that space's ids, which is how
    the engine passes its corpus rows without materializing a string.
    ``keys`` are canonical token-set ids per side — rows with equal ids
    must have equal token sets — which let the engine dedupe duplicate
    titles without re-hashing; they are required with ``space``, and
    computed by frozenset otherwise.  Each distinct unordered key pair is
    scored once, through ``cache`` when given (the cache key is the
    canonical pair, so callers must pass corpus-stable ids and a
    consistent ``threshold``).

    The scoring itself batches the paper's soft matching: identical
    tokens are matched outright, every distinct symmetric-difference
    token pair gets one Jaro–Winkler score (from the space's
    :class:`JaroWinklerTable`, or one :func:`jaro_winkler_similarity_batch`
    pass), and the greedy descending-score matching runs as a masked
    argmax across all set pairs simultaneously.
    """
    if len(lefts) != len(rights):
        raise ValueError("left and right token-set lists must be aligned")
    if space is None:
        lefts, rights, space, canonical = _encode_call_local(lefts, rights)
        keys = canonical if keys is None else keys
    elif keys is None:
        raise ValueError("id-encoded token sets need canonical keys")
    n = len(lefts)
    out = np.empty(n, dtype=np.float64)
    if n == 0:
        return out
    keys_a = np.asarray(keys[0], dtype=np.int64)
    keys_b = np.asarray(keys[1], dtype=np.int64)
    if keys_a.shape != (n,) or keys_b.shape != (n,):
        raise ValueError("keys must align with the pair lists")

    sizes_a = lefts.sizes()
    sizes_b = rights.sizes()
    both_empty = (sizes_a == 0) & (sizes_b == 0)
    any_empty = (sizes_a == 0) | (sizes_b == 0)
    identical = keys_a == keys_b
    out[any_empty] = 0.0
    out[both_empty] = 1.0
    # Identical non-empty sets match fully at any reachable threshold; a
    # threshold above 1.0 rejects even identical tokens (scalar semantics).
    out[identical & ~any_empty] = 1.0 if threshold <= 1.0 else 0.0

    hard = np.flatnonzero(~identical & ~any_empty)
    if hard.size == 0:
        return out

    # Dedup on canonical unordered key pairs; the first row of each
    # distinct pair represents it, and its orientation is the one scored
    # (exactly as the scalar cache stored the first-seen orientation).
    hard_a = keys_a[hard]
    hard_b = keys_b[hard]
    unique, first, slot_of = np.unique(
        _pair_key(np.minimum(hard_a, hard_b), np.maximum(hard_a, hard_b)),
        return_index=True,
        return_inverse=True,
    )
    values = np.empty(unique.size, dtype=np.float64)
    missing = np.arange(unique.size)
    if cache is not None:
        unique_keys = list(zip((unique >> 32).tolist(), (unique & _LOW_BITS).tolist()))
        cached = cache.get_many(unique_keys)
        if cached:
            hit = np.array([key in cached for key in unique_keys])
            values[hit] = [cached[key] for key in unique_keys if key in cached]
            missing = np.flatnonzero(~hit)
    if missing.size:
        chosen = hard[first[missing]]
        computed = _generalized_jaccard_unique(
            lefts[chosen], rights[chosen], space, threshold=threshold
        )
        values[missing] = computed
        if cache is not None:
            cache.put_many(
                (unique_keys[slot], score)
                for slot, score in zip(missing.tolist(), computed.tolist())
            )
    out[hard] = values[slot_of]
    return out


def _token_pair_scores(keys: np.ndarray, space: TokenIdSpace) -> np.ndarray:
    """Jaro–Winkler of packed ``(smaller, larger)`` id pairs, repeats allowed.

    Each distinct pair is scored once: pairs within the table's vocabulary
    come from the table, which scores each one once per corpus, and pairs
    with a call-local id are scored here.  Either way, scoring goes
    through :func:`jaro_winkler_similarity_batch`.
    """
    tokens = space.tokens

    def score(keys: np.ndarray) -> np.ndarray:
        return jaro_winkler_similarity_batch(
            [tokens[i] for i in (keys >> 32).tolist()],
            [tokens[i] for i in (keys & _LOW_BITS).tolist()],
        )

    distinct, inverse = np.unique(keys, return_inverse=True)
    scores = np.empty(distinct.size, dtype=np.float64)
    storable = np.maximum(distinct >> 32, distinct & _LOW_BITS) < space.n_stored
    if storable.any():
        scores[storable] = space.table.scores(distinct[storable], score)
    if not storable.all():
        scores[~storable] = score(distinct[~storable])
    return scores[inverse]


def _generalized_jaccard_unique(
    lefts: TokenIdRows,
    rights: TokenIdRows,
    space: TokenIdSpace,
    *,
    threshold: float,
) -> np.ndarray:
    """Score distinct, non-trivial set pairs (non-empty, distinct keys).

    Shared tokens are matched outright (only score-1.0 pairs are
    identical-token pairs, and the greedy pass consumes them first), so
    the soft matching is restricted to the symmetric difference — unless
    the threshold exceeds 1.0, where not even identical tokens match and
    the full sets enter the (then fruitless) soft pass.  Each pair's
    tokens are taken in lexicographic order, the order the scalar greedy
    tie-break uses.
    """
    n_pairs = len(lefts)
    ids_a, tags_a, len_a = lefts.ordered(space.order)
    ids_b, tags_b, len_b = rights.ordered(space.order)
    total_sizes = (len_a + len_b).astype(np.float64)
    if threshold <= 1.0:
        # Both sides' tags ascend (pair first, then token), so shared
        # tokens are a sorted-array membership test.
        rest_a = ~_sorted_member(tags_a, tags_b)
        rest_b = ~_sorted_member(tags_b, tags_a)
        owner_a = np.repeat(np.arange(n_pairs), len_a)
        owner_b = np.repeat(np.arange(n_pairs), len_b)
        matches = np.bincount(owner_a[~rest_a], minlength=n_pairs)
        ids_a, ids_b = ids_a[rest_a], ids_b[rest_b]
        len_a = np.bincount(owner_a[rest_a], minlength=n_pairs)
        len_b = np.bincount(owner_b[rest_b], minlength=n_pairs)
    else:
        matches = np.zeros(n_pairs, dtype=np.int64)
    mass = matches.astype(np.float64)

    counts = len_a * len_b
    total = int(counts.sum())
    if total:
        offsets_a = np.concatenate(([0], np.cumsum(len_a)[:-1]))
        offsets_b = np.concatenate(([0], np.cumsum(len_b)[:-1]))
        starts = np.concatenate(([0], np.cumsum(counts)[:-1]))

        # The full cross product rest_a x rest_b of every pair, flattened
        # row-major so index order equals (token_a, token_b) lex order.
        pair_idx = np.repeat(np.arange(n_pairs), counts)
        within = np.arange(total) - starts[pair_idx]
        i_a = within // len_b[pair_idx]
        i_b = within - i_a * len_b[pair_idx]
        left_ids = ids_a[offsets_a[pair_idx] + i_a]
        right_ids = ids_b[offsets_b[pair_idx] + i_b]

        # One Jaro-Winkler score per distinct token pair, lexicographically
        # smaller token first (JW is symmetric; ordering doubles the dedup
        # rate).
        swap = space.order[left_ids] > space.order[right_ids]
        element_scores = _token_pair_scores(
            _pair_key(
                np.where(swap, right_ids, left_ids), np.where(swap, left_ids, right_ids)
            ),
            space,
        )

        # Only token pairs reaching the threshold can ever be matched.
        soft = np.flatnonzero(element_scores >= threshold)
        _greedy_match(
            pair_idx[soft], i_a[soft], i_b[soft], element_scores[soft], mass, matches
        )
    return mass / (total_sizes - matches)


def _greedy_match(
    owner: np.ndarray,
    rows: np.ndarray,
    cols: np.ndarray,
    scores: np.ndarray,
    mass: np.ndarray,
    matches: np.ndarray,
) -> None:
    """The greedy soft matching, accumulated into ``mass`` and ``matches``.

    ``owner``, ``rows`` and ``cols`` place each candidate token pair (all
    at or above the threshold) in its set pair's rest_a x rest_b grid,
    ascending in (owner, row, col) order.  Each round takes every set
    pair's best candidate — the first in row-major order among ties, as
    the scalar greedy does — and strikes its row and column.  Grids are
    compacted to the rows and columns holding a candidate; the maps are
    monotone, so row-major order and the tie-break are unchanged.

    Rounds run as one masked argmax across a bounded block of set pairs.
    Blocks are padded to the chunk-wide max grid, so chunk boundaries
    follow a dense-cell budget — one pathologically long title cannot
    inflate the padding of thousands of small pairs into a multi-GB
    allocation.
    """
    if owner.size == 0:
        return
    boundary = np.r_[True, owner[1:] != owner[:-1]]
    first = np.flatnonzero(boundary)
    group = np.cumsum(boundary) - 1
    row_rank = np.cumsum(boundary | np.r_[True, rows[1:] != rows[:-1]]) - 1
    rows = row_rank - row_rank[first][group]
    stride = int(cols.max()) + 1
    col_rank = np.unique(owner.astype(np.int64) * stride + cols, return_inverse=True)[1]
    cols = col_rank - np.minimum.reduceat(col_rank, first)[group]
    n_rows = np.maximum.reduceat(rows, first) + 1
    n_cols = np.maximum.reduceat(cols, first) + 1
    targets = owner[first]
    ends = np.r_[first[1:], owner.size]
    n_groups = first.size
    start = 0
    while start < n_groups:
        stop = start + 1
        max_a = int(n_rows[start])
        max_b = int(n_cols[start])
        while stop < n_groups and stop - start < _PAIR_CHUNK:
            next_a = max(max_a, int(n_rows[stop]))
            next_b = max(max_b, int(n_cols[stop]))
            if (stop - start + 1) * next_a * next_b > _GREEDY_CELL_BUDGET:
                break
            max_a, max_b = next_a, next_b
            stop += 1
        elements = slice(int(first[start]), int(ends[stop - 1]))
        block = np.full((stop - start, max_a, max_b), -np.inf)
        block[group[elements] - start, rows[elements], cols[elements]] = scores[elements]
        flat = block.reshape(stop - start, max_a * max_b)
        row_range = np.arange(stop - start)
        while True:
            best = flat.argmax(axis=1)
            best_scores = flat[row_range, best]
            live = np.flatnonzero(best_scores > -np.inf)
            if live.size == 0:
                break
            chosen = best[live]
            pairs = targets[start + live]
            mass[pairs] += best_scores[live]
            matches[pairs] += 1
            block[live, chosen // max_b, :] = -np.inf
            block[live, :, chosen % max_b] = -np.inf
        start = stop
