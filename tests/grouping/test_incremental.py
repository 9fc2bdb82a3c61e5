"""Incremental DBSCAN: exact parity with the batch clusterer.

The serving layer's grouping claim is *exactness*, not approximation:
after any interleaving of appends and retires, the incremental
clusterer's canonical partition equals what the batch
:class:`~repro.grouping.dbscan.DBSCAN` computes over a cold rebuild of
the live rows.  These tests randomize the interleavings and pin the
partitions via :func:`partition_sha`.
"""

import random

import numpy as np
import pytest

from repro.cleansing import CleansingPipeline
from repro.corpus import CorpusConfig, CorpusGenerator
from repro.grouping.dbscan import DBSCAN, NOISE
from repro.grouping.incremental import (
    _LINK_BLOCK,
    IncrementalDBSCAN,
    canonical_assignments,
    partition_sha,
)
from repro.serve import LiveShard
from repro.similarity.engine import SimilarityEngine

_VOCAB = [
    "exatron", "vortexdisk", "veltrix", "stormrider", "soniq", "tranquil",
    "lumora", "photon", "graphics", "card", "drive", "internal", "wireless",
    "headphones", "smartphone", "2tb", "4tb", "8gb", "12gb", "128gb",
]


def _titles(n: int, seed: int) -> list[str]:
    rng = random.Random(seed)
    return [
        " ".join(rng.choices(_VOCAB, k=rng.randint(2, 6))) for _ in range(n)
    ]


def _batch_partition(engine, *, eps: float, min_samples: int) -> str:
    """The batch reference: DBSCAN over the live rows' cosine distances."""
    alive = [int(row) for row in engine.live_rows()]
    view = engine.view(np.array(alive, dtype=np.intp))
    distances = 1.0 - view.scores_batch(list(range(len(alive))), "cosine")
    labels = DBSCAN(
        eps=eps, min_samples=min_samples, metric="precomputed"
    ).fit_predict(distances)
    return partition_sha(
        {alive[position]: int(label) for position, label in enumerate(labels)}
    )


class TestCanonicalForm:
    def test_renumbers_by_smallest_member(self):
        raw = {0: 7, 1: 7, 2: 3, 3: NOISE}
        canon = canonical_assignments(raw)
        assert canon == {0: 0, 1: 0, 2: 1, 3: NOISE}

    def test_sha_ignores_raw_label_numbers(self):
        left = {0: 5, 1: 5, 2: NOISE}
        right = {0: 99, 1: 99, 2: NOISE}
        assert partition_sha(left) == partition_sha(right)
        different = {0: 1, 1: 2, 2: NOISE}
        assert partition_sha(left) != partition_sha(different)

    def test_sha_accepts_string_keys(self):
        assert partition_sha({"a": 0, "b": 0, "c": NOISE})


@pytest.mark.parametrize("eps", [0.2, 0.35, 0.6])
@pytest.mark.parametrize("min_samples", [1, 2, 3])
class TestBatchParity:
    def test_bootstrap_matches_batch(self, eps, min_samples):
        engine = SimilarityEngine(_titles(40, seed=eps_seed(eps, min_samples)))
        incremental = IncrementalDBSCAN(
            engine, eps=eps, min_samples=min_samples
        )
        assert incremental.sha() == _batch_partition(
            engine, eps=eps, min_samples=min_samples
        )

    def test_appends_match_batch(self, eps, min_samples):
        seed = eps_seed(eps, min_samples) + 1
        engine = SimilarityEngine(_titles(20, seed))
        incremental = IncrementalDBSCAN(
            engine, eps=eps, min_samples=min_samples
        )
        for wave in range(4):
            rows = engine.append(_titles(6, seed * 10 + wave))
            incremental.append(rows)
            assert incremental.sha() == _batch_partition(
                engine, eps=eps, min_samples=min_samples
            )

    def test_retires_match_batch(self, eps, min_samples):
        seed = eps_seed(eps, min_samples) + 2
        rng = random.Random(seed)
        engine = SimilarityEngine(_titles(36, seed))
        incremental = IncrementalDBSCAN(
            engine, eps=eps, min_samples=min_samples
        )
        for _ in range(5):
            alive = [int(row) for row in engine.live_rows()]
            victims = rng.sample(alive, 3)
            engine.retire(victims)
            incremental.retire(victims)
            assert incremental.sha() == _batch_partition(
                engine, eps=eps, min_samples=min_samples
            )

    def test_mixed_interleaving_matches_batch(self, eps, min_samples):
        seed = eps_seed(eps, min_samples) + 3
        rng = random.Random(seed)
        engine = SimilarityEngine(_titles(24, seed))
        incremental = IncrementalDBSCAN(
            engine, eps=eps, min_samples=min_samples
        )
        for step in range(8):
            if rng.random() < 0.5 or engine.live_count < 8:
                rows = engine.append(_titles(rng.randint(1, 5), seed + step))
                incremental.append(rows)
            else:
                alive = [int(row) for row in engine.live_rows()]
                victims = rng.sample(alive, rng.randint(1, 3))
                engine.retire(victims)
                incremental.retire(victims)
            assert incremental.sha() == _batch_partition(
                engine, eps=eps, min_samples=min_samples
            )


def eps_seed(eps: float, min_samples: int) -> int:
    return int(eps * 1000) * 7 + min_samples


def _assert_lifecycle_matches_batch(
    initial: list[str], appended: list[str], *, eps: float, min_samples: int
) -> None:
    """Bootstrap, one append, then a retire — batch parity after each."""
    engine = SimilarityEngine(initial)
    incremental = IncrementalDBSCAN(engine, eps=eps, min_samples=min_samples)
    assert incremental.sha() == _batch_partition(
        engine, eps=eps, min_samples=min_samples
    )
    rows = engine.append(appended)
    incremental.append(rows)
    assert incremental.sha() == _batch_partition(
        engine, eps=eps, min_samples=min_samples
    )
    alive = [int(row) for row in engine.live_rows()]
    victims = alive[::3]
    engine.retire(victims)
    incremental.retire(victims)
    assert incremental.sha() == _batch_partition(
        engine, eps=eps, min_samples=min_samples
    )


class TestEdgeCases:
    """Cases the eps grid above does not reach."""

    @pytest.mark.parametrize("eps", [1.0, 1.5])
    @pytest.mark.parametrize("min_samples", [1, 2])
    def test_eps_at_least_one_links_every_row(self, eps, min_samples):
        # A pair with no shared token scores 0, so every pair is within eps.
        _assert_lifecycle_matches_batch(
            _titles(18, seed=5) + ["", "!!!"],
            _titles(7, seed=6) + ["!!!"],
            eps=eps,
            min_samples=min_samples,
        )
        engine = SimilarityEngine(_titles(12, seed=8) + [""])
        incremental = IncrementalDBSCAN(engine, eps=eps, min_samples=min_samples)
        assert incremental.neighbors_of(0) == list(range(13))

    @pytest.mark.parametrize("eps", [0.2, 0.35, 0.6])
    @pytest.mark.parametrize("min_samples", [1, 2])
    def test_empty_token_sets(self, eps, min_samples):
        # An empty title shares no token, not even with itself: its cosine
        # is 0 everywhere, so below eps 1 it has no neighbour at all.
        _assert_lifecycle_matches_batch(
            ["", "!!!"] + _titles(16, seed=11) + [""],
            ["!!!", ""] + _titles(5, seed=12),
            eps=eps,
            min_samples=min_samples,
        )
        engine = SimilarityEngine(["", "exatron soniq", "!!!"])
        incremental = IncrementalDBSCAN(engine, eps=eps, min_samples=min_samples)
        assert incremental.neighbors_of(0) == []
        assert incremental.neighbors_of(2) == []
        assert incremental.assignments()[0] == NOISE

    @pytest.mark.parametrize("eps", [0.35, 0.6])
    @pytest.mark.parametrize("min_samples", [1, 3])
    def test_append_spanning_several_blocks(self, eps, min_samples):
        # New rows link to each other across block boundaries as well as
        # to the bootstrap rows.
        _assert_lifecycle_matches_batch(
            _titles(10, seed=21),
            _titles(2 * _LINK_BLOCK + 5, seed=22),
            eps=eps,
            min_samples=min_samples,
        )

    def test_append_to_an_empty_engine(self):
        engine = SimilarityEngine([])
        incremental = IncrementalDBSCAN(engine, eps=0.35, min_samples=1)
        assert len(incremental) == 0
        incremental.append(engine.append(_titles(_LINK_BLOCK + 1, seed=31)))
        assert incremental.sha() == _batch_partition(
            engine, eps=0.35, min_samples=1
        )


@pytest.fixture(scope="module")
def serve_halves():
    """The serve workloads' shards: the cleansed small corpus (seed 42)
    split in half."""
    corpus = CleansingPipeline().run(
        CorpusGenerator(CorpusConfig.small(seed=42)).generate().corpus
    )
    offers = list(corpus.offers)
    half = len(offers) // 2
    return offers[:half], offers[half:]


class TestServeScalePartitions:
    """Partitions of the ~1,660-row serve shards, pinned."""

    @pytest.mark.parametrize(
        "shard, expected",
        [
            (0, "1e98522f4918388eaeffa88671c88100790263506c7bad3dbe5704812f1c3a76"),
            (1, "121e39548202967c1508239aa290b6112f29c2a73b8c99b5ec9a6a79f25a24bc"),
        ],
    )
    def test_matches_batch_and_pin(self, serve_halves, shard, expected):
        offers = serve_halves[shard]
        live = LiveShard(
            SimilarityEngine([offer.title for offer in offers]), offers, shard=shard
        )
        assert live.clusterer.sha() == _batch_partition(
            live.engine, eps=0.35, min_samples=1
        )
        assert live.clusters_sha() == expected


class TestSurfaces:
    def _clustered(self, seed: int = 77):
        engine = SimilarityEngine(_titles(20, seed))
        return engine, IncrementalDBSCAN(engine, eps=0.35, min_samples=1)

    def test_assignments_are_canonical(self):
        _, incremental = self._clustered()
        assignments = incremental.assignments()
        labels = sorted(
            {label for label in assignments.values() if label != NOISE}
        )
        assert labels == list(range(len(labels)))

    def test_clusters_and_noise_partition_the_rows(self):
        engine, incremental = self._clustered()
        members = [row for cluster in incremental.clusters() for row in cluster]
        assert sorted(members + incremental.noise_rows()) == [
            int(row) for row in engine.live_rows()
        ]

    def test_append_rejects_duplicate_rows(self):
        _, incremental = self._clustered()
        with pytest.raises(ValueError, match="already clustered"):
            incremental.append([0])

    def test_retire_rejects_unknown_rows(self):
        _, incremental = self._clustered()
        with pytest.raises(KeyError):
            incremental.retire([999])

    def test_neighbors_include_self(self):
        _, incremental = self._clustered()
        assert 0 in incremental.neighbors_of(0)

    def test_min_samples_flags_sparse_rows_as_noise(self):
        engine = SimilarityEngine(
            ["exatron soniq", "exatron soniq", "wireless headphones pro max"]
        )
        incremental = IncrementalDBSCAN(engine, eps=0.1, min_samples=2)
        assert incremental.assignments()[2] == NOISE
        assert incremental.assignments()[0] == incremental.assignments()[1]
