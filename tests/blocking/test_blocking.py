"""Blocking subsystem: candidate join, recall vs materialized pair sets."""

import numpy as np
import pytest

from repro.blocking import (
    BlockedPair,
    CandidateBlocker,
    blocking_recall,
)
from repro.core import BenchmarkBuilder, BuildConfig
from repro.core.dimensions import CornerCaseRatio, DevSetSize
from repro.corpus.schema import ProductOffer
from repro.similarity.engine import SimilarityEngine


def _offer(offer_id, cluster, title):
    return ProductOffer(offer_id=offer_id, cluster_id=cluster, title=title)


@pytest.fixture()
def tiny_blocker():
    """Three clusters of near-duplicate titles plus one outlier."""
    rows = [
        ("a", "exatron vortex 2tb drive"),
        ("a", "exatron vortex drive 2tb sata"),
        ("b", "exatron vortex 4tb drive"),
        ("b", "vortex 4tb internal drive"),
        ("c", "soniq tranquil headphones black"),
        ("c", "completely unrelated gardening trowel"),
    ]
    offers = [_offer(f"o{i}", cluster, title) for i, (cluster, title) in enumerate(rows)]
    engine = SimilarityEngine([offer.title for offer in offers])
    return CandidateBlocker(
        engine, offers=offers, group_labels=[offer.cluster_id for offer in offers]
    )


class TestCandidateBlocker:
    def test_pairs_are_unique_and_ordered(self, tiny_blocker):
        blocked = tiny_blocker.candidates(k=3)
        keys = [(pair.row_a, pair.row_b) for pair in blocked]
        assert len(keys) == len(set(keys))
        assert all(pair.row_a < pair.row_b for pair in blocked)

    def test_mirrored_queries_dedupe(self, tiny_blocker):
        # With k = n-1 every query sees every other row; without dedup the
        # sweep would emit each pair twice.
        blocked = tiny_blocker.candidates(k=5)
        assert len(blocked) == 6 * 5 // 2

    def test_scores_match_engine(self, tiny_blocker):
        blocked = tiny_blocker.candidates(k=2)
        engine = tiny_blocker.engine
        for pair in blocked:
            expected = engine.scores_batch([pair.query_row], pair.metric)[0][
                pair.row_a if pair.query_row == pair.row_b else pair.row_b
            ]
            assert pair.score == pytest.approx(float(expected))

    def test_exclude_same_group_masks_cluster(self, tiny_blocker):
        labels = tiny_blocker.group_labels
        blocked = tiny_blocker.candidates(k=3, exclude_same_group=True)
        assert len(blocked) > 0
        for pair in blocked:
            assert labels[pair.row_a] != labels[pair.row_b]

    def test_include_group_positives_completes_clusters(self, tiny_blocker):
        # k=1 under cosine alone misses the dissimilar pair inside cluster
        # "c"; group completion must append it with "group" provenance.
        blocked = tiny_blocker.candidates(k=1, include_group_positives=True)
        by_rows = {(pair.row_a, pair.row_b): pair for pair in blocked}
        assert (4, 5) in by_rows
        assert by_rows[(4, 5)].metric == "group"
        assert by_rows[(4, 5)].rank == -1

    def test_group_options_are_exclusive(self, tiny_blocker):
        with pytest.raises(ValueError):
            tiny_blocker.candidates(
                k=1, exclude_same_group=True, include_group_positives=True
            )

    def test_to_dataset_labels_from_cluster_identity(self, tiny_blocker):
        dataset = tiny_blocker.candidates(k=3).to_dataset("blocked")
        assert len(dataset) > 0
        labels = tiny_blocker.group_labels
        ids = tiny_blocker.offer_ids
        position = {offer_id: row for row, offer_id in enumerate(ids)}
        for pair in dataset:
            expected = int(
                labels[position[pair.offer_a.offer_id]]
                == labels[position[pair.offer_b.offer_id]]
            )
            assert pair.label == expected
            assert pair.provenance.startswith("blocking:")

    def test_group_features_require_labels(self):
        engine = SimilarityEngine(["alpha beta", "alpha gamma"])
        blocker = CandidateBlocker(engine)
        with pytest.raises(ValueError):
            blocker.candidates(k=1, exclude_same_group=True)
        with pytest.raises(ValueError):
            blocker.candidates(k=1).to_dataset("x")

    def test_duplicate_offer_ids_never_self_pair(self):
        """A split carrying the same offer id twice must not emit
        self-pairs (offer vs its duplicate row, trivially label 1) nor the
        same offer pair under two row combinations."""
        offers = [
            _offer("x", "a", "alpha beta gamma"),
            _offer("x", "a", "alpha beta gamma"),
            _offer("y", "b", "alpha beta delta"),
            _offer("z", "c", "alpha epsilon zeta"),
        ]
        engine = SimilarityEngine([offer.title for offer in offers])
        blocker = CandidateBlocker(
            engine, offers=offers, group_labels=[o.cluster_id for o in offers]
        )
        blocked = blocker.candidates(k=3, include_group_positives=True)
        dataset = blocked.to_dataset("dup")
        assert all(p.offer_a.offer_id != p.offer_b.offer_id for p in dataset)
        keys = [p.key() for p in dataset]
        assert len(keys) == len(set(keys))
        assert set(keys) == {("x", "y"), ("x", "z"), ("y", "z")}

    def test_misaligned_inputs_raise(self):
        engine = SimilarityEngine(["alpha beta", "alpha gamma"])
        with pytest.raises(ValueError):
            CandidateBlocker(engine, offers=[_offer("o0", "a", "alpha beta")])
        with pytest.raises(ValueError):
            CandidateBlocker(engine, group_labels=["a"])
        for k in (0, 2.5):
            with pytest.raises(ValueError, match="k must be an int"):
                CandidateBlocker(engine).candidates(k=k)


def _missing_group_pairs(blocker, pairs):
    """The group completion's pair enumeration as a per-pair loop over
    ``_pair_key`` — the reference the vectorized helper must match."""
    seen = {
        key
        for a, b in pairs
        if (key := blocker._pair_key(a, b)) is not None
    }
    members_by_group = {}
    for row, group in enumerate(blocker._group_ids):
        members_by_group.setdefault(int(group), []).append(row)
    missing = []
    for group in sorted(members_by_group):
        members = members_by_group[group]
        for i, a in enumerate(members):
            for b in members[i + 1 :]:
                key = blocker._pair_key(a, b)
                if key is not None and key not in seen:
                    seen.add(key)
                    missing.append((a, b))
    return missing


class TestGroupPositives:
    @pytest.fixture()
    def shared_id_blocker(self):
        """Groups whose offers repeat ids across rows (a split may list
        one offer twice), with labels out of lexical row order."""
        rows = [
            ("x", "m", "orbit gan charger 65w"),
            ("y", "m", "orbit 65 w usb c charger"),
            ("x", "m", "orbit gan charger 65w"),
            ("p", "a", "acme cable usb c 2m"),
            ("z", "m", "charger by orbit"),
            ("q", "a", "acme braided cable"),
            ("p", "a", "acme cable usb c 2m"),
            ("r", "k", "kettle steel 1.7l"),
        ]
        offers = [_offer(offer_id, cluster, title) for offer_id, cluster, title in rows]
        engine = SimilarityEngine([offer.title for offer in offers])
        return CandidateBlocker(
            engine, offers=offers, group_labels=[o.cluster_id for o in offers]
        )

    def test_helper_gives_the_with_group_positives_tail(self, shared_id_blocker):
        blocker = shared_id_blocker
        join = blocker.candidates(k=1)
        row_pairs = [(pair.row_a, pair.row_b) for pair in join.pairs]
        tail = join.with_group_positives().pairs[len(join) :]
        expected = _missing_group_pairs(blocker, row_pairs)
        assert expected, "the fixture must leave group pairs to complete"
        assert [(pair.row_a, pair.row_b) for pair in tail] == expected
        assert blocker.group_positives(row_pairs) == tail
        assert blocker.group_positives(np.array(row_pairs)) == tail
        scores = blocker.engine.pair_features_batch(
            expected, metrics=("cosine",)
        )[:, 0]
        assert [pair.score for pair in tail] == [float(s) for s in scores]
        assert {(p.metric, p.rank) for p in tail} == {("group", -1)}
        assert all(pair.query_row == pair.row_a for pair in tail)

    def test_no_join_rows_completes_every_group(self, shared_id_blocker):
        blocker = shared_id_blocker
        completed = blocker.group_positives(np.empty((0, 2), dtype=np.intp))
        assert [(p.row_a, p.row_b) for p in completed] == (
            _missing_group_pairs(blocker, [])
        )
        ids = blocker.offer_ids
        keys = [tuple(sorted((ids[p.row_a], ids[p.row_b]))) for p in completed]
        assert len(keys) == len(set(keys))
        assert all(a != b for a, b in keys)

    def test_needs_group_labels(self):
        blocker = CandidateBlocker(SimilarityEngine(["alpha", "beta"]))
        with pytest.raises(ValueError, match="group labels"):
            blocker.group_positives([(0, 1)])


class TestEngineGroupExclusion:
    def test_exclude_groups_matches_dense_mask(self):
        titles = [f"alpha beta {token}" for token in "abcdefgh"]
        clusters = np.array(["x", "x", "y", "y", "z", "z", "w", "w"])
        engine = SimilarityEngine(titles)
        queries = list(range(len(titles)))
        dense = clusters[queries][:, None] == clusters[None, :]
        group_ids = np.unique(clusters, return_inverse=True)[1]
        dense_results = engine.top_k_scores_batch(
            queries, "cosine", k=4, exclude=dense
        )
        group_results = engine.top_k_scores_batch(
            queries, "cosine", k=4, exclude_groups=(group_ids, group_ids)
        )
        for (dense_rows, dense_scores), (group_rows, group_scores) in zip(
            dense_results, group_results, strict=True
        ):
            assert dense_rows == group_rows
            np.testing.assert_array_equal(dense_scores, group_scores)

    def test_exclude_groups_shape_validation(self):
        engine = SimilarityEngine(["alpha beta", "alpha gamma"])
        with pytest.raises(ValueError):
            engine.top_k_scores_batch(
                [0], "cosine", k=1, exclude_groups=(np.array([0, 1]), np.array([0, 1]))
            )
        with pytest.raises(ValueError):
            engine.top_k_scores_batch(
                [0], "cosine", k=1, exclude_groups=(np.array([0]), np.array([0]))
            )


class TestBlockingRecall:
    """Acceptance: the join recovers the materialized benchmark pairs."""

    @pytest.fixture(scope="class")
    def split_blocker(self, artifacts_small):
        offer_rows = {
            offer.offer_id: row
            for row, offer in enumerate(artifacts_small.cleansed.offers)
        }
        entries = artifacts_small.splits[CornerCaseRatio.CC50].train_offers(
            DevSetSize.MEDIUM
        )
        return CandidateBlocker.over_entries(
            artifacts_small.engine, entries, offer_rows
        )

    @pytest.fixture(scope="class")
    def reference(self, artifacts_small):
        return artifacts_small.benchmark.train_sets[
            (CornerCaseRatio.CC50, DevSetSize.MEDIUM)
        ]

    def test_recall_at_25(self, split_blocker, reference):
        blocked = split_blocker.candidates(
            k=25,
            metrics=split_blocker.engine.metric_names,
            include_group_positives=True,
        )
        report = blocking_recall(blocked, reference)
        assert report.positive_recall == 1.0
        assert report.corner_negative_recall >= 0.95

    def test_pure_join_recall_at_25(self, split_blocker, reference):
        """Even without group completion the join recovers ≥95% of both."""
        blocked = split_blocker.candidates(
            k=25, metrics=split_blocker.engine.metric_names
        )
        report = blocking_recall(blocked, reference)
        assert report.positive_recall >= 0.95
        assert report.corner_negative_recall >= 0.95

    def test_report_as_dict_is_json_shaped(self, split_blocker, reference):
        blocked = split_blocker.candidates(k=5)
        report = blocking_recall(blocked, reference)
        payload = report.as_dict()
        assert payload["k"] == 5
        assert set(payload["per_provenance"]) <= {
            "positive",
            "corner_negative",
            "random_negative",
            "unknown",
        }
        assert 0.0 <= payload["overall_recall"] <= 1.0


class TestBuilderBlockingStage:
    def test_blocking_stage_is_timed_and_stored(self):
        config = BuildConfig.small(
            blocking_top_k=5,
            corner_case_ratios=(CornerCaseRatio.CC50,),
        )
        artifacts = BenchmarkBuilder(config).build()
        assert "blocking" in artifacts.stage_timings
        assert artifacts.blocker is not None
        assert len(artifacts.blocker) == len(artifacts.cleansed.offers)
        blocked = artifacts.blocked_candidates
        assert blocked is not None and len(blocked) > 0
        assert blocked.k == 5
        summary = blocked.summary()
        assert summary["pos"] + summary["neg"] == summary["all"]

    def test_blocking_disabled_by_default(self, artifacts_small):
        assert artifacts_small.blocker is None
        assert artifacts_small.blocked_candidates is None
        assert "blocking" not in artifacts_small.stage_timings
