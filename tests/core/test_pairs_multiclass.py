"""Tests for pair generation (§3.6), multi-class datasets and containers."""

import numpy as np
import pytest

from repro.core.datasets import LabeledPair, MulticlassDataset, PairDataset
from repro.core.dimensions import CornerCaseRatio, DevSetSize, UnseenRatio
from repro.core.pairs import generate_pairs
from repro.corpus.schema import ProductOffer


def _offer(offer_id, cluster, title):
    return ProductOffer(offer_id=offer_id, cluster_id=cluster, title=title)


@pytest.fixture()
def entries():
    """Three clusters x 2-3 offers with family-like title structure."""
    rows = [
        ("a", "exatron vortex 2tb drive"),
        ("a", "vortex 2 tb internal drive exatron"),
        ("a", "exatron vortex drive 2tb sata"),
        ("b", "exatron vortex 4tb drive"),
        ("b", "vortex 4tb internal drive"),
        ("c", "soniq tranquil headphones black"),
        ("c", "tranquil bluetooth headphones soniq"),
    ]
    return [
        (cluster, _offer(f"o{i}", cluster, title))
        for i, (cluster, title) in enumerate(rows)
    ]


class TestGeneratePairs:
    def test_positive_count_is_all_within_cluster_pairs(self, entries):
        dataset = generate_pairs(
            entries, name="t", corner_negatives_per_offer=0,
            random_negatives_per_offer=0, rng=np.random.default_rng(0),
        )
        # C(3,2) + C(2,2) + C(2,2) = 3 + 1 + 1
        assert len(dataset.positives()) == 5
        assert len(dataset.negatives()) == 0

    def test_negative_quota_met_exactly(self, entries):
        dataset = generate_pairs(
            entries, name="t", corner_negatives_per_offer=1,
            random_negatives_per_offer=1, rng=np.random.default_rng(1),
        )
        assert len(dataset.negatives()) == len(entries) * 2

    def test_no_duplicate_pairs(self, entries):
        dataset = generate_pairs(
            entries, name="t", corner_negatives_per_offer=2,
            rng=np.random.default_rng(2),
        )
        keys = [pair.key() for pair in dataset]
        assert len(keys) == len(set(keys))

    def test_labels_match_cluster_identity(self, entries):
        dataset = generate_pairs(
            entries, name="t", corner_negatives_per_offer=2,
            rng=np.random.default_rng(3),
        )
        for pair in dataset:
            expected = int(pair.offer_a.cluster_id == pair.offer_b.cluster_id)
            assert pair.label == expected

    def test_corner_negatives_are_similar_siblings(self, entries):
        dataset = generate_pairs(
            entries, name="t", corner_negatives_per_offer=1,
            random_negatives_per_offer=0, rng=np.random.default_rng(4),
        )
        corner = [p for p in dataset.negatives() if p.provenance == "corner_negative"]
        # The drive clusters (a, b) are each other's most similar negatives.
        drive_pairs = [
            p for p in corner
            if {p.offer_a.cluster_id, p.offer_b.cluster_id} == {"a", "b"}
        ]
        assert len(drive_pairs) >= 3

    def test_invalid_negative_counts_raise(self, entries):
        with pytest.raises(ValueError):
            generate_pairs(
                entries, name="t", corner_negatives_per_offer=-1,
                rng=np.random.default_rng(0),
            )


class TestCornerNegativeExhaustion:
    """Regression: a consumed over-fetch must widen the search, not go random."""

    @pytest.fixture()
    def crowded_entries(self):
        """Nine decoys whose top corner negative is the late ``target`` offer.

        Every offer sits in its own cluster.  The decoys (positions 0-8)
        share three tokens with the target and one unique junk token, so the
        target is each decoy's most similar cross-cluster offer under every
        metric; the two ``next`` offers (positions 10-11) overlap the target
        on only two tokens.  By the time the target's own turn comes, all
        nine pairs of its ``k + 8 = 9`` over-fetched candidates are already
        used (mirrored), which used to trigger the random fallback.
        """
        junk = [
            "zebra", "quartz", "willow", "ember", "falcon",
            "nimbus", "orchid", "pylon", "raven",
        ]
        rows = [(f"d{i}", f"alpha beta gamma {junk[i]}") for i in range(9)]
        rows.append(("target", "alpha beta gamma"))
        rows.append(("next-one", "alpha beta omega"))
        rows.append(("next-two", "alpha beta sigma"))
        return [
            (cluster, _offer(f"o{i}", cluster, title))
            for i, (cluster, title) in enumerate(rows)
        ]

    def test_exhausted_overfetch_widens_to_next_most_similar(self, crowded_entries):
        dataset = generate_pairs(
            crowded_entries, name="t", corner_negatives_per_offer=1,
            random_negatives_per_offer=0, rng=np.random.default_rng(7),
        )
        target = crowded_entries[9][1]
        by_provenance = {}
        for pair in dataset.negatives():
            ids = {pair.offer_a.offer_id, pair.offer_b.offer_id}
            by_provenance.setdefault(pair.provenance, []).append(ids)
        # Every negative honours "take the next most similar pair": nothing
        # fell back to random.
        assert set(by_provenance) == {"corner_negative"}
        assert len(by_provenance["corner_negative"]) == len(crowded_entries)
        # The nine decoys all paired with the target first ...
        decoy_pairs = [
            ids for ids in by_provenance["corner_negative"]
            if target.offer_id in ids and ids & {f"o{i}" for i in range(9)}
        ]
        assert len(decoy_pairs) == 9
        # ... so the target's own quota came from the widened re-query:
        # its next most similar unused offer, o10, with corner provenance.
        assert {"o9", "o10"} in by_provenance["corner_negative"]

    def test_exhausted_overfetch_keeps_quota_exact(self, crowded_entries):
        dataset = generate_pairs(
            crowded_entries, name="t", corner_negatives_per_offer=1,
            random_negatives_per_offer=0, rng=np.random.default_rng(8),
        )
        assert len(dataset.negatives()) == len(crowded_entries)


class TestTopUpEarlyExit:
    """Regression: exhausted cross-cluster splits must not burn RNG draws."""

    def test_single_cluster_split_consumes_no_rng(self):
        entries = [
            ("only", _offer("a", "only", "exatron vortex 2tb")),
            ("only", _offer("b", "only", "exatron vortex 4tb")),
        ]
        rng = np.random.default_rng(123)
        untouched = np.random.default_rng(123)
        dataset = generate_pairs(
            entries, name="t", corner_negatives_per_offer=0,
            random_negatives_per_offer=1, rng=rng,
        )
        assert len(dataset.positives()) == 1
        assert len(dataset.negatives()) == 0
        # No cross-cluster pair exists, so neither the per-offer loop nor
        # the top-up loop may draw from the stream at all.
        assert rng.bit_generator.state == untouched.bit_generator.state

    def test_single_cluster_split_with_corner_negatives_terminates(self):
        entries = [
            ("only", _offer("a", "only", "exatron vortex 2tb")),
            ("only", _offer("b", "only", "exatron vortex 4tb")),
        ]
        dataset = generate_pairs(
            entries, name="t", corner_negatives_per_offer=2,
            random_negatives_per_offer=1, rng=np.random.default_rng(5),
        )
        assert len(dataset.negatives()) == 0

    def test_exhaustion_mid_topup_stops_at_cross_pair_capacity(self):
        # Two tiny clusters: 2 x 2 offers -> 4 cross pairs in total, but the
        # requested quota is far larger; the loops must stop at capacity.
        entries = [
            ("a", _offer("a0", "a", "exatron vortex 2tb")),
            ("a", _offer("a1", "a", "exatron vortex 4tb")),
            ("b", _offer("b0", "b", "soniq tranquil headphones")),
            ("b", _offer("b1", "b", "soniq tranquil earbuds")),
        ]
        dataset = generate_pairs(
            entries, name="t", corner_negatives_per_offer=3,
            random_negatives_per_offer=3, rng=np.random.default_rng(9),
        )
        assert len(dataset.negatives()) == 4


class TestDuplicateOfferIds:
    """Regression: the exhaustion bound counts offer *keys*, not positions.

    ``add_pair`` dedups on interned offer ids, so a split carrying the
    same offer id twice has fewer reachable cross pairs than its position
    count suggests.  An overcounted bound kept the random/top-up loops
    spinning through their full attempt budgets on draws that could never
    produce a new pair.
    """

    def test_bound_over_distinct_keys_stops_rng_exactly(self):
        entries = [
            ("a", _offer("x", "a", "exatron vortex 2tb")),
            ("a", _offer("x", "a", "exatron vortex 2tb")),
            ("b", _offer("y", "b", "soniq tranquil headphones")),
        ]
        rng = np.random.default_rng(31)
        dataset = generate_pairs(
            entries, name="t", corner_negatives_per_offer=0,
            random_negatives_per_offer=1, rng=rng,
        )
        # One distinct cross pair (x, y) exists — and was found.
        assert len(dataset.negatives()) == 1
        # Replay the only RNG consumer: position 0 drew candidates until it
        # hit position 2 (the sole cross-cluster offer).  Afterwards the
        # split is at capacity, so neither the remaining per-offer loops
        # nor the top-up loop may draw again — the overcounted bound
        # (3 positions -> capacity 2) burned up to 50 + 150 dead draws.
        control = np.random.default_rng(31)
        while int(control.integers(3)) != 2:
            pass
        assert rng.bit_generator.state == control.bit_generator.state

    def test_duplicate_candidate_keys_dedupe_within_batch(self):
        entries = [
            ("a", _offer("x", "a", "alpha beta gamma")),
            ("b", _offer("y", "b", "alpha beta delta")),
            ("b", _offer("y", "b", "alpha beta delta")),
            ("c", _offer("z", "c", "alpha epsilon zeta")),
        ]
        dataset = generate_pairs(
            entries, name="t", corner_negatives_per_offer=2,
            random_negatives_per_offer=0, rng=np.random.default_rng(32),
        )
        keys = [pair.key() for pair in dataset]
        assert len(keys) == len(set(keys))
        # All three distinct cross pairs appear, each exactly once, even
        # though offer y occupies two candidate positions.
        negatives = dataset.negatives()
        assert {pair.key() for pair in negatives} == {
            ("x", "y"), ("x", "z"), ("y", "z"),
        }
        assert all(pair.provenance == "corner_negative" for pair in negatives)


class TestWideningInvariant:
    """Regression: a short *initial* batch must widen, not end the search.

    The widening loop used to treat ``len(candidates) < fetch`` as proof
    of cross-cluster exhaustion.  That invariant belongs to the search
    result, not the loop: when the first batch is short for any other
    reason, wider candidates exist and must still be fetched.
    """

    def test_short_initial_batch_still_widens(self, entries, monkeypatch):
        from repro.similarity.engine import SimilarityEngine

        original = SimilarityEngine.top_k_scores_batch
        base_fetch = 1 + 8  # corner_negatives_per_offer + over-fetch

        def truncated(self, queries, metric, *, k, **kwargs):
            results = original(self, queries, metric, k=k, **kwargs)
            if k == base_fetch:  # only the initial batched search
                return [(rows[:1], scores[:1]) for rows, scores in results]
            return results

        monkeypatch.setattr(SimilarityEngine, "top_k_scores_batch", truncated)
        dataset = generate_pairs(
            entries, name="t", corner_negatives_per_offer=1,
            random_negatives_per_offer=0, rng=np.random.default_rng(11),
        )
        negatives = dataset.negatives()
        # Every offer met its corner quota through the widened re-query;
        # nothing fell through to the random top-up.
        assert len(negatives) == len(entries)
        assert {pair.provenance for pair in negatives} == {"corner_negative"}


class TestConsumptionVectorization:
    """The NumPy candidate consumption equals the scalar add_pair loop."""

    def test_scalar_fallback_produces_identical_pairs(self, entries, monkeypatch):
        def fingerprint(dataset):
            return [
                (p.offer_a.offer_id, p.offer_b.offer_id, p.label, p.provenance)
                for p in dataset
            ]

        vectorized = generate_pairs(
            entries, name="t", corner_negatives_per_offer=2,
            random_negatives_per_offer=1, rng=np.random.default_rng(21),
        )
        monkeypatch.setattr("repro.core.pairs._DENSE_DEDUP_CELLS", 0)
        scalar = generate_pairs(
            entries, name="t", corner_negatives_per_offer=2,
            random_negatives_per_offer=1, rng=np.random.default_rng(21),
        )
        assert fingerprint(vectorized) == fingerprint(scalar)


class TestDatasetContainers:
    def test_pair_key_is_unordered(self):
        a, b = _offer("x", "c", "t"), _offer("y", "c", "t")
        pair_one = LabeledPair("p1", a, b, 1)
        pair_two = LabeledPair("p2", b, a, 1)
        assert pair_one.key() == pair_two.key()

    def test_dataset_offers_unique(self, entries):
        dataset = generate_pairs(
            entries, name="t", corner_negatives_per_offer=1,
            rng=np.random.default_rng(5),
        )
        offers = dataset.offers()
        assert len({o.offer_id for o in offers}) == len(offers)

    def test_summary(self, entries):
        dataset = generate_pairs(
            entries, name="t", corner_negatives_per_offer=0,
            random_negatives_per_offer=1, rng=np.random.default_rng(6),
        )
        summary = dataset.summary()
        assert summary["all"] == summary["pos"] + summary["neg"]

    def test_multiclass_alignment_enforced(self):
        with pytest.raises(ValueError):
            MulticlassDataset(name="bad", offers=[_offer("a", "c", "t")], labels=[])

    def test_multiclass_label_space_sorted(self):
        dataset = MulticlassDataset(
            name="m",
            offers=[_offer("a", "c2", "t"), _offer("b", "c1", "t")],
            labels=["c2", "c1"],
        )
        assert dataset.label_space() == ["c1", "c2"]


class TestBenchmarkTable1Shape:
    """The built small benchmark must mirror Table 1 proportionally."""

    def test_small_training_set_shape(self, benchmark_small, artifacts_small):
        n = artifacts_small.config.n_products
        for cc in CornerCaseRatio:
            summary = benchmark_small.train_sets[(cc, DevSetSize.SMALL)].summary()
            assert summary["pos"] == n  # one positive pair per product
            assert summary["neg"] == 4 * n  # 2 offers x (1 corner + 1 random)

    def test_medium_training_set_shape(self, benchmark_small, artifacts_small):
        n = artifacts_small.config.n_products
        for cc in CornerCaseRatio:
            summary = benchmark_small.train_sets[(cc, DevSetSize.MEDIUM)].summary()
            assert summary["pos"] == 3 * n  # C(3,2) per product
            assert summary["neg"] == 9 * n  # 3 offers x (2 corner + 1 random)

    def test_test_sets_exactly_nine_pairs_per_product(
        self, benchmark_small, artifacts_small
    ):
        n = artifacts_small.config.n_products
        for cc in CornerCaseRatio:
            for unseen in UnseenRatio:
                summary = benchmark_small.test_sets[(cc, unseen)].summary()
                assert summary["pos"] == n
                assert summary["neg"] == 8 * n

    def test_validation_sizes_by_dev_size(self, benchmark_small, artifacts_small):
        n = artifacts_small.config.n_products
        expected_negatives = {
            DevSetSize.SMALL: 4 * n,
            DevSetSize.MEDIUM: 6 * n,
            DevSetSize.LARGE: 8 * n,
        }
        for cc in CornerCaseRatio:
            for dev, negatives in expected_negatives.items():
                summary = benchmark_small.valid_sets[(cc, dev)].summary()
                assert summary["pos"] == n
                assert summary["neg"] == negatives

    def test_multiclass_sizes(self, benchmark_small, artifacts_small):
        n = artifacts_small.config.n_products
        for cc in CornerCaseRatio:
            assert len(benchmark_small.multiclass_train[(cc, DevSetSize.SMALL)]) == 2 * n
            assert len(benchmark_small.multiclass_train[(cc, DevSetSize.MEDIUM)]) == 3 * n
            assert len(benchmark_small.multiclass_valid[cc]) == 2 * n
            assert len(benchmark_small.multiclass_test[cc]) == 2 * n

    def test_multiclass_test_has_one_class_per_product(
        self, benchmark_small, artifacts_small
    ):
        n = artifacts_small.config.n_products
        for cc in CornerCaseRatio:
            assert len(set(benchmark_small.multiclass_test[cc].labels)) == n

    def test_pairwise_and_multiclass_share_offers(self, benchmark_small):
        """The comparability property: identical offers in both setups."""
        cc, dev = CornerCaseRatio.CC50, DevSetSize.MEDIUM
        pair_train_ids = {
            o.offer_id for o in benchmark_small.train_sets[(cc, dev)].offers()
        }
        mc_train_ids = {
            o.offer_id for o in benchmark_small.multiclass_train[(cc, dev)].offers
        }
        # Every multi-class training offer appears in the pair-wise set.
        assert mc_train_ids <= pair_train_ids
