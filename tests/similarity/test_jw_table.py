"""The corpus-level Jaro–Winkler token-pair table behind GJ rescoring.

Generalized-Jaccard rescoring runs on token ids: every root engine owns
one :class:`JaroWinklerTable` keyed by vocabulary ids, which its views
share, so each in-vocabulary token pair reaches the JW kernel once per
corpus.  These tests pin:

* the table itself (lookup/insert, growth, present keys, pickling, threads);
* that the benchmark's layer hooks still see the GJ layer — the engine
  calls ``generalized_jaccard_batch`` with one entry per requested pair,
  ``_generalized_jaccard_unique`` gets one entry per distinct pair, and
  JW goes through ``jaro_winkler_similarity_batch`` — while no token pair
  is scored twice;
* out-of-vocabulary near misses in external queries, which are scored
  with call-local ids and never stored;
* a warm table across ``append``: scores stay bit-equal to a cold build.
"""

import importlib.util
import pickle
import random
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import repro.similarity.engine as engine_module
import repro.similarity.features as features
from repro.similarity.engine import SimilarityEngine
from repro.similarity.features import JaroWinklerTable, generalized_jaccard_batch
from repro.similarity.token_based import generalized_jaccard_similarity

_VOCAB = [
    "exatron", "vortexdisk", "veltrix", "stormrider", "soniq", "tranquil",
    "lumora", "photon", "graphics", "card", "drive", "internal", "wireless",
    "headphones", "smartphone", "2tb", "4tb", "8gb", "12gb", "128gb",
    "black", "white", "blue", "gddr6", "sata", "ssd", "hdd", "pro", "max",
]
_NEAR_MISSES = ["stormryder", "hedphones", "vortexdsk"]
_PERFBENCH = Path(__file__).resolve().parents[2] / "perfbench"


def _titles(n: int, seed: int) -> list[str]:
    rng = random.Random(seed)
    return [" ".join(rng.choices(_VOCAB, k=rng.randint(2, 8))) for _ in range(n)]


class TestTable:
    def test_lookup_returns_what_was_inserted(self):
        table = JaroWinklerTable()
        keys = np.array([7, 3 << 32 | 9, 12345678901], dtype=np.int64)
        table.insert(keys, np.array([0.5, 0.25, 1.0]))
        found, scores = table.lookup(np.array([3 << 32 | 9, 8, 7], dtype=np.int64))
        np.testing.assert_array_equal(found, [True, False, True])
        assert scores[0] == 0.25 and scores[2] == 0.5
        assert len(table) == 3

    def test_growth_keeps_every_entry(self):
        table = JaroWinklerTable()
        keys = np.arange(0, 50_000 * 7, 7, dtype=np.int64)
        for chunk in np.array_split(np.arange(keys.size), 9):
            table.insert(keys[chunk], keys[chunk] / 3.0)
        found, scores = table.lookup(keys)
        assert found.all() and len(table) == keys.size
        np.testing.assert_array_equal(scores, keys / 3.0)

    def test_present_keys_keep_their_first_score(self):
        table = JaroWinklerTable()
        table.insert(np.array([5, 6], dtype=np.int64), np.array([0.1, 0.2]))
        table.insert(np.array([7, 6], dtype=np.int64), np.array([0.3, 0.9]))
        assert len(table) == 3
        assert table.lookup(np.array([6], dtype=np.int64))[1][0] == 0.2

    def test_scores_calls_score_only_for_misses(self):
        table = JaroWinklerTable()
        calls: list[list[int]] = []

        def score(keys):
            calls.append(keys.tolist())
            return keys * 0.5

        keys = np.array([4, 2, 9], dtype=np.int64)
        np.testing.assert_array_equal(table.scores(keys, score), keys * 0.5)
        np.testing.assert_array_equal(table.scores(keys, score), keys * 0.5)
        more = np.array([9, 11, 2], dtype=np.int64)
        np.testing.assert_array_equal(table.scores(more, score), more * 0.5)
        assert calls == [[4, 2, 9], [11]]

    def test_pickle_round_trip_keeps_entries_and_a_fresh_lock(self):
        table = JaroWinklerTable()
        table.insert(np.arange(3000, dtype=np.int64), np.linspace(0, 1, 3000))
        clone = pickle.loads(pickle.dumps(table))
        assert len(clone) == 3000
        assert clone._lock is not table._lock
        with clone._lock:
            pass
        found, scores = clone.lookup(np.arange(3000, dtype=np.int64))
        assert found.all()
        np.testing.assert_array_equal(scores, np.linspace(0, 1, 3000))

    def test_concurrent_scorers_score_each_key_once(self):
        table = JaroWinklerTable()
        scored: list[int] = []
        wrong: list[int] = []
        guard = threading.Lock()

        def score(keys):
            with guard:
                scored.extend(keys.tolist())
            return keys.astype(np.float64)

        def worker(seed):
            rng = np.random.default_rng(seed)
            for _ in range(40):
                keys = np.unique(rng.integers(0, 2000, size=300)).astype(np.int64)
                if not np.array_equal(table.scores(keys, score), keys):
                    with guard:
                        wrong.append(seed)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=worker, args=(seed,)) for seed in range(6)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not wrong
        assert len(scored) == len(set(scored)) == len(table)


class TestBenchmarkHooks:
    def _shim(self, monkeypatch, module, name, record):
        original = getattr(module, name)

        def counting(*args, **kwargs):
            record(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)

    def test_hooked_names_resolve(self):
        spec = importlib.util.spec_from_file_location("_perfbench_layers", _PERFBENCH / "layers.py")
        sys.path.insert(0, str(_PERFBENCH))
        try:
            layers = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(layers)
            for module_name, path, _name, _options in layers.HOOKS:
                owner, attribute = layers._resolve(module_name, path)
                assert callable(getattr(owner, attribute)), (module_name, path)
        finally:
            sys.path.remove(str(_PERFBENCH))

    def test_gj_layer_is_visible_and_scores_each_token_pair_once(self, monkeypatch):
        requested: list[int] = []
        distinct: list[int] = []
        jw_pairs: list[tuple[str, str]] = []
        self._shim(monkeypatch, engine_module, "generalized_jaccard_batch",
                   lambda args: requested.append(len(args[0])))
        self._shim(monkeypatch, features, "_generalized_jaccard_unique",
                   lambda args: distinct.append(len(args[0])))
        self._shim(monkeypatch, features, "jaro_winkler_similarity_batch",
                   lambda args: jw_pairs.extend(zip(args[0], args[1])))

        engine = SimilarityEngine(_titles(120, seed=3), prefilter=12)
        queries = list(range(0, 120, 2))
        first = engine.top_k_scores_batch(queries, "generalized_jaccard", k=5)
        again = engine.top_k_scores_batch(queries, "generalized_jaccard", k=5)
        for (rows, scores), (rows_again, scores_again) in zip(first, again):
            assert rows_again == rows
            np.testing.assert_array_equal(scores_again, scores)
        view = engine.view(np.arange(10, 90))
        view.top_k_scores_batch(list(range(0, 80, 3)), "generalized_jaccard", k=5)

        assert sum(requested) >= 2 * len(queries) * 12
        assert 0 < sum(distinct) <= sum(requested)
        assert jw_pairs, "GJ rescoring must reach JW through the hooked name"
        canonical = [tuple(sorted(pair)) for pair in jw_pairs]
        assert len(canonical) == len(set(canonical))
        assert all(left <= right for left, right in jw_pairs)
        assert len(jw_pairs) == len(engine._jw_table)


class TestExternalNearMisses:
    @pytest.fixture
    def engine(self):
        titles = _titles(40, seed=17)
        assert not set(_NEAR_MISSES) & {t for title in titles for t in title.split()}
        return SimilarityEngine(titles)

    def _probes(self):
        return [
            "stormryder hedphones soniq pro",
            "vortexdsk 2tb internal drive",
            "hedphones wireless black",
            " ".join(_NEAR_MISSES),
        ]

    def test_matches_the_scalar_reference(self, engine):
        probes = self._probes()
        external = engine.external_scores_batch(
            [set(probe.split()) for probe in probes], "generalized_jaccard"
        )
        # 40 rows under the 48-row prefilter: every entry is rescored exactly.
        reference = [
            [generalized_jaccard_similarity(probe, title) for title in engine.titles]
            for probe in probes
        ]
        np.testing.assert_allclose(external, reference, atol=1e-9)

    def test_equals_append_then_score(self, engine):
        probes = self._probes()
        external = engine.external_scores_batch(
            [set(probe.split()) for probe in probes], "generalized_jaccard"
        )
        shadow = pickle.loads(pickle.dumps(engine))
        rows = shadow.append(probes)
        inline = shadow.scores_batch([int(r) for r in rows], "generalized_jaccard")
        np.testing.assert_array_equal(external, inline[:, : len(engine)])

    def test_all_oov_query_leaves_the_table_unchanged(self, engine):
        engine.external_scores_batch(
            [set(self._probes()[0].split())], "generalized_jaccard"
        )
        before = len(engine._jw_table)
        assert before > 0  # in-vocabulary token pairs are stored
        engine.external_scores_batch([set(_NEAR_MISSES)], "generalized_jaccard")
        assert len(engine._jw_table) == before
        assert len(engine._jw_table.space(engine.vocabulary).tokens) == len(engine.vocabulary)


class TestWarmTableDeltas:
    def test_append_between_existing_tokens_equals_cold_build(self):
        titles = _titles(36, seed=29)
        # Each new token sorts between two existing ones, so every existing
        # token's lexicographic rank moves while its id stays put.
        added = ["exatronx soniqa drive", "lumorb photon 2tbz", "cardz hdda soniq"]
        live = SimilarityEngine(titles)
        rows = list(range(len(titles)))
        live.scores_batch(rows, "generalized_jaccard")
        warm = len(live._jw_table)
        assert warm > 0
        live.append(added)
        cold = SimilarityEngine(titles + added)
        every = list(range(len(titles) + len(added)))
        np.testing.assert_array_equal(
            live.scores_batch(every, "generalized_jaccard"),
            cold.scores_batch(every, "generalized_jaccard"),
        )
        assert len(live._jw_table) >= warm
        np.testing.assert_array_equal(
            live.generalized_jaccard_pairs(every, every[::-1]),
            cold.generalized_jaccard_pairs(every, every[::-1]),
        )

    def test_call_local_vocabulary_matches_engine_ids(self):
        titles = _titles(30, seed=31)
        engine = SimilarityEngine(titles)
        rng = random.Random(7)
        rows_a = [rng.randrange(30) for _ in range(200)]
        rows_b = [rng.randrange(30) for _ in range(200)]
        np.testing.assert_array_equal(
            engine.generalized_jaccard_pairs(rows_a, rows_b),
            generalized_jaccard_batch(
                [titles[a] for a in rows_a], [titles[b] for b in rows_b]
            ),
        )
