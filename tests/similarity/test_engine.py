"""Parity tests: the batched SimilarityEngine vs. the per-pair references.

The engine must reproduce the scalar ``token_based`` / ``embedding``
reference scores to 1e-9 on randomized titles — the refactor moved every
builder-path consumer onto the engine, so any drift here would silently
change the benchmark.
"""

import random

import numpy as np
import pytest

from repro.similarity.embedding import LsaEmbeddingModel
from repro.similarity.engine import SimilarityEngine
from repro.similarity.features import TOKEN_METRICS
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
