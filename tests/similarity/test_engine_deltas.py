"""Live engine deltas: append/retire parity against cold rebuilds.

The serving layer's correctness rests on one claim: an engine mutated
through N ``append`` and M ``retire`` calls answers every scoring
question *exactly* like an engine built cold over the final corpus.
These tests pin that claim for every token metric, for top-k, for
external (out-of-universe) queries, and for the cache/signature/view
surfaces that must stay coherent across mutations.
"""

import pickle
import random
import warnings

import numpy as np
import pytest

from repro.errors import EmbeddingsDroppedWarning
from repro.similarity.embedding import LsaEmbeddingModel
from repro.similarity.engine import SimilarityEngine
from repro.similarity.signatures import RowSignatures

_VOCAB = [
    "exatron", "vortexdisk", "veltrix", "stormrider", "soniq", "tranquil",
    "lumora", "photon", "graphics", "card", "drive", "internal", "wireless",
    "headphones", "smartphone", "2tb", "4tb", "8gb", "12gb", "128gb",
    "black", "white", "blue", "gddr6", "sata", "ssd", "hdd", "pro", "max",
]

TOKEN_METRICS = ("cosine", "dice", "generalized_jaccard")


def _titles(n: int, seed: int) -> list[str]:
    rng = random.Random(seed)
    return [
        " ".join(rng.choices(_VOCAB, k=rng.randint(2, 8))) for _ in range(n)
    ]


def _mutated_and_cold(seed: int = 7) -> tuple[SimilarityEngine, SimilarityEngine]:
    """An engine after appends+retires, and a cold build of its live rows."""
    rng = random.Random(seed)
    live = SimilarityEngine(_titles(30, seed))
    for wave in range(3):
        live.append(_titles(8, seed * 100 + wave))
        alive = [int(r) for r in live.live_rows()]
        live.retire(rng.sample(alive, 4))
    cold = SimilarityEngine(
        [live.titles[int(r)] for r in live.live_rows()],
        prefilter=live.prefilter,
    )
    return live, cold


class TestAppendParity:
    def test_scores_equal_cold_build(self):
        titles = _titles(40, seed=3)
        live = SimilarityEngine(titles[:25])
        live.append(titles[25:])
        cold = SimilarityEngine(titles)
        query = list(range(0, 40, 3))
        for metric in TOKEN_METRICS:
            np.testing.assert_array_equal(
                live.scores_batch(query, metric),
                cold.scores_batch(query, metric),
            )

    def test_append_returns_new_rows_and_extends_state(self):
        live = SimilarityEngine(_titles(10, seed=5))
        rows = live.append(["brand new veltrix drive", "soniq pro max"])
        assert list(rows) == [10, 11]
        assert len(live) == 12
        assert live.titles[10] == "brand new veltrix drive"
        assert live.token_sets[11] == {"soniq", "pro", "max"}
        assert live.delta_version > 0

    def test_vocabulary_grows_append_only(self):
        live = SimilarityEngine(_titles(10, seed=6))
        before = dict(live.vocabulary)
        live.append(["zzzunseentoken exatron"])
        for token, col in before.items():
            assert live.vocabulary[token] == col
        assert "zzzunseentoken" in live.vocabulary

    def test_duplicate_titles_share_canonical_keys(self):
        live = SimilarityEngine(["soniq pro max", "lumora photon"])
        rows = live.append(["soniq pro max"])
        assert live._token_keys[rows[0]] == live._token_keys[0]


class TestRetireParity:
    def test_mixed_deltas_equal_cold_build(self):
        live, cold = _mutated_and_cold(seed=11)
        alive = [int(r) for r in live.live_rows()]
        remap = {row: position for position, row in enumerate(alive)}
        query = alive[::3]
        for metric in TOKEN_METRICS:
            block = live.scores_batch(query, metric)
            reference = cold.scores_batch(
                [remap[row] for row in query], metric
            )
            np.testing.assert_array_equal(block[:, alive], reference)

    def test_top_k_never_returns_retired_rows(self):
        live, cold = _mutated_and_cold(seed=13)
        alive = [int(r) for r in live.live_rows()]
        remap = {row: position for position, row in enumerate(alive)}
        back = {position: row for row, position in remap.items()}
        for metric in TOKEN_METRICS:
            live_hits = live.top_k_scores_batch(alive, metric, k=5)
            cold_hits = cold.top_k_scores_batch(
                [remap[r] for r in alive], metric, k=5
            )
            for (live_rows, live_scores), (cold_rows, cold_scores) in zip(
                live_hits, cold_hits
            ):
                assert [int(r) for r in live_rows] == [
                    back[int(r)] for r in cold_rows
                ]
                np.testing.assert_array_equal(live_scores, cold_scores)

    def test_retire_guards(self):
        live = SimilarityEngine(_titles(6, seed=17))
        live.retire([2])
        assert live.is_retired(2)
        assert live.live_count == 5
        with pytest.raises(ValueError, match="already retired"):
            live.retire([2])
        with pytest.raises(IndexError):
            live.retire([99])


class TestExternalQueries:
    def test_external_equals_append_then_score(self):
        live, _ = _mutated_and_cold(seed=19)
        probes = _titles(5, seed=999) + ["totally-oov tokens only here"]
        token_sets = [set(title.split()) for title in probes]
        for metric in TOKEN_METRICS:
            external = live.external_scores_batch(token_sets, metric)
            shadow = pickle.loads(pickle.dumps(live))
            rows = shadow.append(probes)
            inline = shadow.scores_batch([int(r) for r in rows], metric)
            np.testing.assert_array_equal(
                external, inline[:, : len(live)]
            )

    def test_external_top_k_skips_retired(self):
        live, _ = _mutated_and_cold(seed=23)
        retired = {int(r) for r in range(len(live)) if live.is_retired(r)}
        hits = live.external_top_k_batch(
            [set(live.titles[0].split())], "cosine", k=len(live)
        )
        rows, _scores = hits[0]
        assert not ({int(r) for r in rows} & retired)

    def test_external_rejects_embedding_metric(self):
        live = SimilarityEngine(_titles(6, seed=29))
        with pytest.raises(ValueError, match="token metrics only"):
            live.external_scores_batch([{"exatron"}], "lsa_embedding")


class TestEmbeddingStaleness:
    def _fitted(self, n: int = 12, seed: int = 31) -> SimilarityEngine:
        titles = _titles(n, seed)
        model = LsaEmbeddingModel().fit(titles)
        return SimilarityEngine(titles, embedding_model=model)

    def test_append_invalidates_lazily(self):
        live = self._fitted()
        assert "lsa_embedding" in live.metric_names
        live.append(["fresh lumora card"])
        assert "lsa_embedding" not in live.metric_names
        with pytest.raises(ValueError, match="stale"):
            live.scores_batch([0], "lsa_embedding")

    def test_refresh_restores_embeddings(self):
        live = self._fitted()
        live.append(["fresh lumora card"])
        live.refresh_embeddings()
        assert "lsa_embedding" in live.metric_names
        live.scores_batch([0], "lsa_embedding")  # must not raise


class TestCoherence:
    def test_signatures_track_delta_version(self):
        live = SimilarityEngine(_titles(10, seed=37))
        first = live.row_signatures()
        assert live.row_signatures() is first  # cached per version
        live.append(["new soniq drive"])
        second = live.row_signatures()
        assert second is not first
        reference = RowSignatures.from_engine(
            live.view(live.live_rows())
        )
        np.testing.assert_array_equal(second.set_sizes, reference.set_sizes)

    def test_views_are_immutable(self):
        live = SimilarityEngine(_titles(8, seed=41))
        sliced = live.view(np.arange(4))
        with pytest.raises(ValueError, match="immutable"):
            sliced.append(["x y"])
        with pytest.raises(ValueError, match="immutable"):
            sliced.retire([0])

    def test_mutated_engine_pickles(self):
        live, _ = _mutated_and_cold(seed=43)
        # Warm the JW token-pair table first: it must ship with the engine.
        queries = [int(r) for r in live.live_rows()][::2]
        warm = live.scores_batch(queries, "generalized_jaccard")
        assert len(live._jw_table) > 0
        clone = pickle.loads(pickle.dumps(live))
        assert [int(r) for r in clone.live_rows()] == [
            int(r) for r in live.live_rows()
        ]
        np.testing.assert_array_equal(
            clone.scores_batch([0], "cosine"),
            live.scores_batch([0], "cosine"),
        )
        assert len(clone._jw_table) == len(live._jw_table)
        assert clone._jw_table._lock.acquire(blocking=False)
        clone._jw_table._lock.release()
        np.testing.assert_array_equal(
            clone.scores_batch(queries, "generalized_jaccard"), warm
        )
        # The clone's views share the clone's table, not the original's.
        assert clone.view(queries)._jw_table is clone._jw_table
        assert clone._jw_table is not live._jw_table


class TestConcatEmbeddings:
    def _fitted_pair(self):
        titles_a, titles_b = _titles(6, 47), _titles(6, 53)
        return (
            SimilarityEngine(
                titles_a, embedding_model=LsaEmbeddingModel().fit(titles_a)
            ),
            SimilarityEngine(titles_b),
        )

    def test_default_warns_on_drop(self):
        pair = self._fitted_pair()
        with pytest.warns(EmbeddingsDroppedWarning):
            merged = SimilarityEngine.concat(pair)
        assert "lsa_embedding" not in merged.metric_names

    def test_strict_raises(self):
        pair = self._fitted_pair()
        with pytest.raises(ValueError, match="strict_embeddings"):
            SimilarityEngine.concat(pair, strict_embeddings=True)

    def test_acknowledged_drop_is_silent(self):
        pair = self._fitted_pair()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            SimilarityEngine.concat(pair, strict_embeddings=False)

    def test_token_only_concat_never_warns(self):
        engines = (
            SimilarityEngine(_titles(4, 59)),
            SimilarityEngine(_titles(4, 61)),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            SimilarityEngine.concat(engines)

    def test_concat_refuses_retired_engines(self):
        left = SimilarityEngine(_titles(5, 67))
        left.retire([1])
        with pytest.raises(ValueError, match="retired"):
            SimilarityEngine.concat([left, SimilarityEngine(_titles(3, 71))])
