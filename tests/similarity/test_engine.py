"""Parity tests: the batched SimilarityEngine vs. the per-pair references.

The engine must reproduce the scalar ``token_based`` / ``embedding``
reference scores to 1e-9 on randomized titles — the refactor moved every
builder-path consumer onto the engine, so any drift here would silently
change the benchmark.
"""

import mmap
import random

import numpy as np
import pytest
from scipy.sparse import csr_matrix

from repro.io.store import open_store, write_store
from repro.similarity import engine as engine_module
from repro.similarity.embedding import LsaEmbeddingModel
from repro.similarity.engine import SimilarityEngine
from repro.similarity.features import TOKEN_METRICS, cosine_dice_scores
from repro.similarity.token_based import (
    cosine_similarity,
    dice_similarity,
    generalized_jaccard_similarity,
)
from repro.text.tokenize import tokenize

_VOCAB = [
    "exatron", "vortexdisk", "veltrix", "stormrider", "soniq", "tranquil",
    "lumora", "photon", "graphics", "card", "drive", "internal", "wireless",
    "headphones", "smartphone", "2tb", "4tb", "8gb", "12gb", "128gb",
    "black", "white", "blue", "gddr6", "sata", "ssd", "hdd", "pro", "max",
    "2tb.", "4tbs", "vortexdsk", "stormryder", "hedphones",  # near-misses
]


def _random_titles(n: int, seed: int) -> list[str]:
    rng = random.Random(seed)
    return [
        " ".join(rng.choices(_VOCAB, k=rng.randint(2, 8))) for _ in range(n)
    ]


# Titles that tokenize to nothing: the Cosine/Dice ``denominator == 0``
# branch (Dice 1.0, Cosine 0.0) and Generalized Jaccard's empty-set cases.
_EMPTY_TITLES = ["", "!!! ---"]


@pytest.fixture(scope="module")
def titles():
    return _random_titles(48, seed=1234) + _EMPTY_TITLES


@pytest.fixture(scope="module")
def model(titles):
    return LsaEmbeddingModel(dim=12).fit(titles)


@pytest.fixture(scope="module")
def engine(titles, model):
    # prefilter >= universe size: Generalized Jaccard is exact everywhere,
    # so the full score surface can be compared against the reference.
    return SimilarityEngine(titles, embedding_model=model, prefilter=len(titles))


class TestScoreParity:
    @pytest.mark.parametrize("metric,reference", [
        ("cosine", cosine_similarity),
        ("dice", dice_similarity),
        ("generalized_jaccard", generalized_jaccard_similarity),
    ])
    def test_scores_batch_matches_reference(self, engine, titles, metric, reference):
        n = len(titles)
        block = engine.scores_batch(range(n), metric)
        # The same titles as external token sets take the same kernel.
        external = engine.external_scores_batch(
            [set(tokenize(title)) for title in titles], metric
        )
        for i in range(n):
            for j in range(n):
                expected = reference(titles[i], titles[j])
                assert block[i, j] == pytest.approx(expected, abs=1e-9), (metric, i, j)
                assert external[i, j] == pytest.approx(expected, abs=1e-9), (
                    metric, i, j,
                )
        if metric in TOKEN_METRICS:
            pairs = [(i, j) for i in range(n) for j in range(n)]
            features = engine.pair_features_batch(pairs, metrics=(metric,))
            np.testing.assert_array_equal(features[:, 0], block.ravel())

    def test_embedding_scores_match_reference(self, engine, titles, model):
        block = engine.scores_batch(range(len(titles)), "lsa_embedding")
        for i in range(0, len(titles), 3):
            for j in range(len(titles)):
                assert block[i, j] == pytest.approx(
                    model.similarity(titles[i], titles[j]), abs=1e-9
                )

    @pytest.mark.parametrize("metric,reference", [
        ("cosine", cosine_similarity),
        ("dice", dice_similarity),
        ("generalized_jaccard", generalized_jaccard_similarity),
    ])
    def test_pairwise_matrix_matches_reference(
        self, engine, titles, metric, reference
    ):
        indices = [3, 11, 17, 20, 29, 41, 48, 49]
        matrix = engine.pairwise_matrix(indices, metric)
        assert np.allclose(matrix, matrix.T)
        assert np.allclose(np.diag(matrix), 1.0)
        for a, i in enumerate(indices):
            for b, j in enumerate(indices):
                if a == b:
                    continue
                assert matrix[a, b] == pytest.approx(
                    reference(titles[i], titles[j]), abs=1e-9
                )

    @pytest.mark.parametrize(
        "metric", ["cosine", "dice", "generalized_jaccard", "lsa_embedding"]
    )
    def test_rank_matches_reference_ordering(self, engine, titles, model, metric):
        references = {
            "cosine": cosine_similarity,
            "dice": dice_similarity,
            "generalized_jaccard": generalized_jaccard_similarity,
            "lsa_embedding": model.similarity,
        }
        reference = references[metric]
        for query in (0, len(titles) - 1):  # a plain title, an empty one
            candidates = [row for row in range(len(titles)) if row != query]
            ranked = engine.rank(query, candidates, metric)
            assert len(ranked) == len(candidates)
            expected = [
                (pos, reference(titles[query], titles[candidate]))
                for pos, candidate in enumerate(candidates)
            ]
            expected.sort(key=lambda item: (-item[1], item[0]))
            for (got_pos, got_score), (want_pos, want_score) in zip(
                ranked, expected
            ):
                assert got_pos == want_pos
                assert got_score == pytest.approx(want_score, abs=1e-9)

    def test_prefiltered_gen_jaccard_exact_on_top_candidates(self, titles, model):
        prefiltered = SimilarityEngine(titles, embedding_model=model, prefilter=8)
        scores = prefiltered.scores_batch([0], "generalized_jaccard")[0]
        cosine = prefiltered.scores_batch([0], "cosine")[0]
        top = np.argsort(-cosine, kind="stable")[:8]
        for candidate in top:
            assert scores[candidate] == pytest.approx(
                generalized_jaccard_similarity(titles[0], titles[int(candidate)]),
                abs=1e-9,
            )


class TestViewsAndBatches:
    def test_view_matches_standalone_engine(self, engine, titles, model):
        rows = [5, 9, 2, 30, 44, 13]
        view = engine.view(rows)
        standalone = SimilarityEngine(
            [titles[i] for i in rows],
            embedding_model=model,
            prefilter=len(titles),
        )
        for metric in view.metric_names:
            got = view.scores_batch(range(len(rows)), metric)
            want = standalone.scores_batch(range(len(rows)), metric)
            assert np.allclose(got, want, atol=1e-9), metric

    def test_top_k_batch_matches_single_queries(self, engine):
        queries = list(range(0, len(engine), 2))
        batched = engine.top_k_scores_batch(queries, "cosine", k=5)
        block = engine.scores_batch(queries, "cosine")
        for row, (query, (rows, scores)) in enumerate(zip(queries, batched)):
            [(single_rows, single_scores)] = engine.top_k_scores_batch(
                [query], "cosine", k=5
            )
            assert single_rows == rows
            np.testing.assert_array_equal(single_scores, scores)
            np.testing.assert_array_equal(scores, block[row, rows])

    def test_top_k_batch_with_per_query_masks(self, engine):
        queries = [0, 1, 2]
        exclude = np.zeros((3, len(engine)), dtype=bool)
        exclude[0, 1:10] = True
        exclude[2, :] = True
        results = [
            rows
            for rows, _ in engine.top_k_scores_batch(
                queries, "dice", k=4, exclude=exclude
            )
        ]
        assert all(candidate not in results[0] for candidate in range(1, 10))
        assert len(results[1]) == 4
        assert results[2] == []

    def test_empty_query_batch(self, engine):
        assert engine.scores_batch([], "cosine").shape == (0, len(engine))
        assert engine.top_k_scores_batch([], "cosine", k=3) == []
        assert engine.external_scores_batch([], "cosine").shape == (0, len(engine))
        assert engine.external_top_k_batch([], "cosine", k=3) == []

    def test_unknown_metric_raises(self, engine):
        with pytest.raises(ValueError):
            engine.scores_batch([0], "nope")
        with pytest.raises(ValueError):
            engine.pairwise_matrix([0, 1], "nope")

    def test_rank_of_empty_candidates(self, engine):
        assert engine.rank(0, [], "cosine") == []


# --------------------------------------------------------------------- #
# The SciPy product as the oracle of the postings-index kernel
# --------------------------------------------------------------------- #
def _oracle_corpus(engine, rows):
    """``(Q @ M.T).toarray()`` with Q the engine's own incidence rows."""
    matrix = engine._matrix
    return (matrix[np.asarray(rows, dtype=np.intp)] @ matrix.T).toarray()


def _oracle_external(engine, token_sets):
    """``(Q @ M.T).toarray()`` with Q built from the vocabulary directly.

    Out-of-vocabulary tokens have no column, so they intersect nothing.
    """
    matrix = engine._matrix
    rows, cols = [], []
    for row, tokens in enumerate(token_sets):
        for token in tokens:
            column = engine.vocabulary.get(token)
            if column is not None and column < matrix.shape[1]:
                rows.append(row)
                cols.append(column)
    queries = csr_matrix(
        (np.ones(len(rows)), (rows, cols)),
        shape=(len(token_sets), matrix.shape[1]),
    )
    return (queries @ matrix.T).toarray()


def _assert_corpus_oracle(engine, rows):
    rows = np.asarray(rows, dtype=np.intp)
    oracle = _oracle_corpus(engine, rows)
    got = engine._intersections(engine._token_ids()[rows])
    np.testing.assert_array_equal(got, oracle)
    query_sizes = engine._set_sizes[rows][:, None]
    for metric in ("cosine", "dice"):
        np.testing.assert_array_equal(
            engine.scores_batch(rows, metric),
            cosine_dice_scores(
                metric, oracle, query_sizes, engine._set_sizes[None, :]
            ),
        )
    np.testing.assert_array_equal(
        engine.scores_batch(rows, "generalized_jaccard"),
        engine._generalized_jaccard_block(
            engine._token_ids()[rows],
            engine._token_keys[rows],
            engine._token_space(),
            oracle,
            query_sizes,
            cache=engine._gj_cache,
        ),
    )


def _assert_external_oracle(engine, token_sets):
    oracle = _oracle_external(engine, token_sets)
    query_ids, _ = engine._external_ids(token_sets)
    np.testing.assert_array_equal(engine._intersections(query_ids), oracle)
    query_sizes = np.array([len(tokens) for tokens in token_sets], dtype=np.float64)[
        :, None
    ]
    for metric in ("cosine", "dice"):
        np.testing.assert_array_equal(
            engine.external_scores_batch(token_sets, metric),
            cosine_dice_scores(
                metric, oracle, query_sizes, engine._set_sizes[None, :]
            ),
        )


def _external_sets(titles):
    """Token sets with out-of-vocabulary tokens, OOV-only and empty sets."""
    sets = [set(tokenize(title)) for title in titles]
    return (
        [tokens | {"zzunseen", f"oov{i}"} for i, tokens in enumerate(sets)]
        + [{"zzunseen"}, {"zzunseen", "yyunseen"}]
        + [set(tokenize("")), set(tokenize("!!!"))]
    )


class TestPostingsKernelMatchesScipyProduct:
    """Every intersection block equals ``(Q @ M.T).toarray()`` exactly."""

    def test_corpus_row_queries(self, engine):
        _assert_corpus_oracle(engine, range(len(engine)))
        _assert_corpus_oracle(engine, [7, 7, 0, len(engine) - 1])

    def test_external_sets_with_oov_and_empty_sets(self, engine, titles):
        token_sets = _external_sets(titles)
        assert set(tokenize("")) == set() and set(tokenize("!!!")) == set()
        _assert_external_oracle(engine, token_sets)

    def test_empty_sets_intersect_nothing(self, engine):
        for title in ("", "!!!"):
            query_ids, _ = engine._external_ids([set(tokenize(title))])
            assert not engine._intersections(query_ids).any()
        empty_rows = [len(engine) - 2, len(engine) - 1]  # "" and "!!! ---"
        assert not engine._intersections(engine._token_ids()[empty_rows]).any()

    def test_after_append_and_after_retire(self, titles):
        live = SimilarityEngine(titles[:30], prefilter=8)
        _assert_corpus_oracle(live, range(len(live)))  # builds the index
        added = live.append(
            titles[30:] + ["zzfresh veltrix card", "zzfresh zzother"]
        )
        assert live._postings is None
        _assert_corpus_oracle(live, range(len(live)))
        fresh = live._intersections(live._external_ids([{"zzfresh"}])[0])
        assert fresh[0, added[-2:]].tolist() == [1.0, 1.0]
        _assert_external_oracle(live, _external_sets(titles[:10]))
        live.retire([0, 5, int(added[-1])])
        assert live._postings is None
        _assert_corpus_oracle(live, range(len(live)))
        _assert_external_oracle(live, _external_sets(titles[:10]))

    def test_view(self, engine, titles):
        view = engine.view([5, 9, 2, 30, 44, 13, 48, 49])
        _assert_corpus_oracle(view, range(len(view)))
        _assert_external_oracle(view, _external_sets(titles[:12]))

    def test_concat(self, titles):
        left = SimilarityEngine(titles[:20])
        right = SimilarityEngine(titles[20:] + ["zzonlyright card"])
        combined = SimilarityEngine.concat([left, right])
        _assert_corpus_oracle(combined, range(len(combined)))
        _assert_external_oracle(combined, _external_sets(titles[::3]))

    def test_store_opened_engine_over_mmap_arrays(self, tmp_path, artifacts_small):
        write_store(tmp_path / "shard", artifacts_small, shard=0)
        stored = open_store(tmp_path / "shard", strict=True).engine
        base = stored._matrix.indices
        while getattr(base, "base", None) is not None:
            base = base.base
        assert isinstance(base, (np.memmap, mmap.mmap))
        rows = np.arange(0, len(stored), max(1, len(stored) // 64))
        _assert_corpus_oracle(stored, rows)
        _assert_external_oracle(stored, _external_sets(stored.titles[:16]))

    def test_256_query_block_crosses_the_gather_cap(self):
        rng = random.Random(99)
        titles = [
            "common " + " ".join(rng.choices(_VOCAB, k=rng.randint(1, 6)))
            for _ in range(600)
        ]
        wide = SimilarityEngine(titles)
        rows = np.arange(256)
        ids = wide._token_ids()[rows]
        token_ptr, _ = wide._token_postings()
        _, query_tokens = ids.flat()
        gathered = int(
            (token_ptr[query_tokens + 1] - token_ptr[query_tokens]).sum()
        )
        assert gathered > engine_module._GATHER_ENTRIES
        _assert_corpus_oracle(wide, rows)
        _assert_external_oracle(wide, _external_sets(titles[:256]))

    @pytest.mark.parametrize("cap", [1, 7, 300])
    def test_small_caps_split_inside_queries_and_tokens(self, engine, titles, cap, monkeypatch):
        # A cap below one token's postings puts that token alone in a pass
        # and splits queries across passes.
        monkeypatch.setattr(engine_module, "_GATHER_ENTRIES", cap)
        _assert_corpus_oracle(engine, range(len(engine)))
        _assert_external_oracle(engine, _external_sets(titles))
