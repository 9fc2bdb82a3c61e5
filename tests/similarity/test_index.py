"""Single-query scoring and top-k semantics of SimilarityEngine.

Pair generation queries the engine one offer at a time when it widens a
corner-negative search; these cases pin that path on a small fixed title
list: self-exclusion, exclusion masks, ``k`` bounds and tie-breaking.
"""

import numpy as np
import pytest

from repro.similarity.embedding import LsaEmbeddingModel
from repro.similarity.engine import SimilarityEngine
from repro.similarity.token_based import (
    cosine_similarity,
    dice_similarity,
)

TITLES = [
    "exatron vortexdisk 2tb internal hard drive",
    "exatron vortexdisk 4tb internal hard drive",
    "veltrix stormrider graphics card 8gb",
    "veltrix stormrider graphics card 12gb",
    "soniq tranquil wireless headphones",
    "unrelated garden chair wood brown",
]


@pytest.fixture(scope="module")
def engine():
    return SimilarityEngine(TITLES)


def _scores(engine, metric):
    return engine.scores_batch([0], metric)[0]


def _top_k(engine, metric, *, k, exclude=None):
    [(rows, _)] = engine.top_k_scores_batch([0], metric, k=k, exclude=exclude)
    return rows


class TestScores:
    @pytest.mark.parametrize("metric,reference", [
        ("cosine", cosine_similarity),
        ("dice", dice_similarity),
    ])
    def test_matches_direct_metric(self, engine, metric, reference):
        scores = _scores(engine, metric)
        for candidate in range(len(TITLES)):
            expected = reference(TITLES[0], TITLES[candidate])
            assert scores[candidate] == pytest.approx(expected, abs=1e-9)

    def test_generalized_jaccard_top_candidates_exact(self, engine):
        from repro.similarity.token_based import generalized_jaccard_similarity

        scores = _scores(engine, "generalized_jaccard")
        # The top-ranked candidates are rescored exactly.
        best = int(np.argmax(np.delete(scores, 0))) + 1
        expected = generalized_jaccard_similarity(TITLES[0], TITLES[best])
        assert scores[best] == pytest.approx(expected, abs=1e-9)

    def test_embedding_metric_requires_model(self, engine):
        with pytest.raises(ValueError):
            _scores(engine, "lsa_embedding")

    def test_embedding_metric_with_model(self):
        model = LsaEmbeddingModel(dim=4).fit(TITLES)
        embedded = SimilarityEngine(TITLES, embedding_model=model)
        scores = _scores(embedded, "lsa_embedding")
        assert scores.shape == (len(TITLES),)
        assert "lsa_embedding" in embedded.metric_names

    def test_unknown_metric_raises(self, engine):
        with pytest.raises(ValueError):
            _scores(engine, "nope")


class TestTopK:
    def test_excludes_query_itself(self, engine):
        top = _top_k(engine, "cosine", k=3)
        assert 0 not in top

    def test_finds_sibling_first(self, engine):
        top = _top_k(engine, "cosine", k=1)
        assert top == [1]

    def test_respects_exclude_mask(self, engine):
        exclude = np.zeros(len(TITLES), dtype=bool)
        exclude[1] = True
        top = _top_k(engine, "cosine", k=1, exclude=exclude)
        assert top and top[0] != 1

    def test_k_zero(self, engine):
        assert _top_k(engine, "cosine", k=0) == []

    def test_k_larger_than_corpus(self, engine):
        top = _top_k(engine, "cosine", k=100)
        assert len(top) == len(TITLES) - 1  # everything except the query

    def test_ordering_is_descending(self, engine):
        [(top, values)] = engine.top_k_scores_batch([0], "dice", k=4)
        np.testing.assert_array_equal(values, _scores(engine, "dice")[top])
        assert list(values) == sorted(values, reverse=True)

    def test_large_exclude_mask_never_underfetches(self):
        """Regression: a mask covering most of the corpus must not starve
        the result below ``k`` while unexcluded candidates remain — the
        selection has to widen past the excluded entries instead of relying
        on a fixed over-fetch buffer."""
        titles = [f"alpha beta gamma item{i:03d} common tokens" for i in range(40)]
        engine = SimilarityEngine(titles)
        exclude = np.ones(len(titles), dtype=bool)
        survivors = [7, 21, 33]
        for survivor in survivors:
            exclude[survivor] = False
        for k in (1, 2, 3):
            top = _top_k(engine, "cosine", k=k, exclude=exclude)
            assert len(top) == k
            assert set(top) <= set(survivors)
        # More than the available candidates: return all of them, ranked.
        top = _top_k(engine, "cosine", k=10, exclude=exclude)
        assert sorted(top) == survivors

    def test_exclude_everything_returns_empty(self, engine):
        exclude = np.ones(len(TITLES), dtype=bool)
        assert _top_k(engine, "cosine", k=3, exclude=exclude) == []

    def test_top_k_ties_break_by_ascending_index(self):
        titles = ["x y z", "x y q", "x y r", "x y s", "unrelated thing here"]
        engine = SimilarityEngine(titles)
        # Candidates 1-3 all share two of three tokens with the query.
        assert _top_k(engine, "cosine", k=3) == [1, 2, 3]
