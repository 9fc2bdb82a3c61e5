"""Shard planning, config validation and global namespacing."""

import pytest

from repro.core import BuildConfig, LabeledPair, MulticlassDataset, PairDataset
from repro.corpus import CorpusConfig
from repro.corpus.schema import ProductOffer
from repro.shard import (
    ShardPlan,
    namespace_id,
    namespace_multiclass_dataset,
    namespace_offer,
    namespace_pair_dataset,
    partition_corpus_config,
    shard_tag,
)


class TestShardPlan:
    def test_spawned_seeds_are_distinct(self):
        plan = ShardPlan.create(4, base_config=BuildConfig.small(), seed=42)
        seeds = [config.seed for config in plan.shard_configs]
        corpus_seeds = [config.corpus.seed for config in plan.shard_configs]
        assert len(set(seeds)) == 4
        assert len(set(corpus_seeds)) == 4

    def test_shard_identity_independent_of_shard_count(self):
        """Shard i's config only depends on (session seed, i), not on N."""
        base = BuildConfig.small()
        small_plan = ShardPlan.create(
            2, base_config=base, seed=7, partition_scale=False
        )
        large_plan = ShardPlan.create(
            5, base_config=base, seed=7, partition_scale=False
        )
        assert small_plan.shard_configs == large_plan.shard_configs[:2]

    def test_different_session_seeds_differ(self):
        base = BuildConfig.small()
        a = ShardPlan.create(2, base_config=base, seed=1)
        b = ShardPlan.create(2, base_config=base, seed=2)
        assert a.shard_configs[0].seed != b.shard_configs[0].seed

    def test_partitioned_scale_covers_the_base(self):
        """Families ceil-divide (combined ≥ base); products split exactly."""
        base = BuildConfig()  # 15/20 families per category, 500 products
        plan = ShardPlan.create(4, base_config=base, seed=42)
        assert (
            sum(c.corpus.families_per_category_seen for c in plan.shard_configs)
            >= base.corpus.families_per_category_seen
        )
        assert (
            sum(c.corpus.families_per_category_unseen for c in plan.shard_configs)
            >= base.corpus.families_per_category_unseen
        )
        assert (
            sum(c.n_products for c in plan.shard_configs) == base.n_products
        )
        # every shard keeps the same per-category family floor: an exact
        # split would starve a remainder shard's corner-case pool
        seen = {c.corpus.families_per_category_seen for c in plan.shard_configs}
        assert len(seen) == 1

    def test_partition_corpus_config_rejects_bad_counts(self):
        with pytest.raises(ValueError, match="n_shards"):
            partition_corpus_config(CorpusConfig(), 0)

    def test_empty_plan_rejected(self):
        with pytest.raises(ValueError, match="at least one shard"):
            ShardPlan(shard_configs=())

    def test_non_partitioned_plan_keeps_base_scale(self):
        base = BuildConfig.small()
        plan = ShardPlan.create(
            3, base_config=base, seed=42, partition_scale=False
        )
        for config in plan.shard_configs:
            assert config.n_products == base.n_products
            assert (
                config.corpus.families_per_category_seen
                == base.corpus.families_per_category_seen
            )


class TestBuildConfigValidation:
    """Satellite: metric names fail at config construction, not mid-build."""

    def test_unknown_blocking_metric_raises_with_names(self):
        with pytest.raises(ValueError) as excinfo:
            BuildConfig(blocking_metrics=("cosine", "euclidean"))
        message = str(excinfo.value)
        assert "euclidean" in message
        assert "cosine" in message  # the available list names the metrics
        assert "generalized_jaccard" in message

    def test_empty_blocking_metrics_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            BuildConfig(blocking_metrics=())

    def test_known_metrics_accepted(self):
        config = BuildConfig(
            blocking_metrics=("cosine", "dice", "generalized_jaccard", "lsa_embedding")
        )
        assert len(config.blocking_metrics) == 4


class TestSmallConfigOverrides:
    """Satellite: explicit ``small(**overrides)`` always beats the defaults."""

    def test_corpus_override_wins_verbatim(self):
        custom = CorpusConfig(seed=99, n_categories=2, n_vendors=8)
        config = BuildConfig.small(corpus=custom)
        assert config.corpus is custom  # no silent CorpusConfig.small() swap

    def test_small_defaults_apply_without_overrides(self):
        config = BuildConfig.small()
        assert config.corpus == CorpusConfig.small()
        assert config.n_products == 60
        assert config.seed == 42

    def test_seed_and_corpus_overrides_compose(self):
        custom = CorpusConfig(seed=5)
        config = BuildConfig.small(seed=11, corpus=custom)
        assert config.seed == 11
        assert config.corpus is custom
        assert config.n_products == 60  # untouched small default

    def test_other_overrides_still_pass_through(self):
        config = BuildConfig.small(n_products=10, blocking_top_k=5)
        assert config.n_products == 10
        assert config.blocking_top_k == 5


def _offer(offer_id="off-1", cluster="seen-c1", true_cluster=None):
    return ProductOffer(
        offer_id=offer_id,
        cluster_id=cluster,
        title="usb cable",
        true_cluster_id=true_cluster,
    )


class TestNamespacing:
    def test_shard_tag_and_id(self):
        assert shard_tag(3) == "s3"
        assert namespace_id(0, "off-1") == "s0:off-1"

    def test_namespace_offer_prefixes_all_ids(self):
        offer = _offer(true_cluster="seen-c2")
        spaced = namespace_offer(offer, 1)
        assert spaced.offer_id == "s1:off-1"
        assert spaced.cluster_id == "s1:seen-c1"
        assert spaced.true_cluster_id == "s1:seen-c2"
        assert spaced.title == offer.title

    def test_namespace_offer_keeps_none_true_cluster(self):
        spaced = namespace_offer(_offer(), 0)
        assert spaced.true_cluster_id is None

    def test_namespace_pair_dataset(self):
        dataset = PairDataset(name="train")
        dataset.pairs = [
            LabeledPair(
                pair_id="p-0",
                offer_a=_offer("off-1"),
                offer_b=_offer("off-2", cluster="seen-c9"),
                label=0,
                provenance="corner_negative",
            )
        ]
        spaced = namespace_pair_dataset(dataset, 2)
        pair = spaced.pairs[0]
        assert pair.pair_id == "s2:p-0"
        assert pair.offer_a.offer_id == "s2:off-1"
        assert pair.offer_b.cluster_id == "s2:seen-c9"
        assert pair.label == 0 and pair.provenance == "corner_negative"

    def test_namespace_multiclass_labels(self):
        dataset = MulticlassDataset(
            name="mc", offers=[_offer()], labels=["seen-c1"]
        )
        spaced = namespace_multiclass_dataset(dataset, 4)
        assert spaced.labels == ["s4:seen-c1"]
        assert spaced.offers[0].offer_id == "s4:off-1"

    def test_uniform_prefix_preserves_order(self):
        raw = sorted(["off-1", "off-2", "off-10"])
        spaced = sorted(namespace_id(3, offer_id) for offer_id in raw)
        assert spaced == [namespace_id(3, offer_id) for offer_id in raw]


class TestPartitionExclusion:
    """The cross-partition join rejects contradictory completion requests."""

    def _blocker(self):
        from repro.blocking import CandidateBlocker
        from repro.similarity.engine import SimilarityEngine

        offers = [
            _offer("s0:off-1", cluster="s0:c1"),
            _offer("s0:off-2", cluster="s0:c1"),
            _offer("s1:off-1", cluster="s1:c1"),
            _offer("s1:off-2", cluster="s1:c1"),
        ]
        engine = SimilarityEngine([offer.title for offer in offers])
        return CandidateBlocker(
            engine,
            offers=offers,
            group_labels=[offer.cluster_id for offer in offers],
        )

    def test_partition_with_group_positives_rejected(self):
        blocker = self._blocker()
        with pytest.raises(ValueError, match="include_group_positives"):
            blocker.candidates(
                k=2,
                exclude_same_partition=[0, 0, 1, 1],
                include_group_positives=True,
            )

    def test_partition_with_same_group_exclusion_rejected(self):
        blocker = self._blocker()
        with pytest.raises(ValueError, match="exclude_same_group"):
            blocker.candidates(
                k=2,
                exclude_same_partition=[0, 0, 1, 1],
                exclude_same_group=True,
            )

    def test_partition_restricts_to_cross_partition_pairs(self):
        blocker = self._blocker()
        blocked = blocker.candidates(
            k=3, exclude_same_partition=[0, 0, 1, 1]
        )
        assert blocked.pairs
        for pair in blocked.pairs:
            shard_a = blocker.offers[pair.row_a].offer_id.split(":")[0]
            shard_b = blocker.offers[pair.row_b].offer_id.split(":")[0]
            assert shard_a != shard_b
