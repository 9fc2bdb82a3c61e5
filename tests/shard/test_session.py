"""The sharded session: determinism, merged views, recall, runner wiring.

A seeded session must produce byte-identical merged candidate sets and
benchmark views regardless of worker count, process-vs-serial execution
and shard completion order: shard seeds are spawned per shard index,
worker results are collected in plan order and the sweep visits shard
pairs lexicographically.  The fingerprint is sha256-pinned across PRs in
the style of ``TestCrossRevisionIdentity``.

The serial session with ``store_dir`` and the process-executor session
without one are shared with the other shard test modules (see
``tests/shard/conftest.py``): they are built over this module's plan.
"""

import hashlib
import shutil

import pytest

from repro.blocking import blocking_recall
from repro.core import BuildConfig
from repro.core.dimensions import CornerCaseRatio, DevSetSize, UnseenRatio
from repro.errors import ShardCrashError, ShardRetriesExhaustedError
from repro.eval.runner import EvalSettings, ExperimentRunner
from repro.shard import (
    FaultPlan,
    FaultSpec,
    ShardPlan,
    ShardedBenchmarkSession,
)

N_SHARDS = 3
SWEEP_K = 10
RECALL_K = 25


def _plan():
    # 30 products over 3 shards: each shard selects 10 products from its
    # third of the small corpus, keeping every session build fast while
    # still exercising selection, splitting and pair generation per shard.
    return ShardPlan.create(
        N_SHARDS, base_config=BuildConfig.small(n_products=30), seed=42
    )


def _session(executor, max_workers=None):
    return ShardedBenchmarkSession(
        _plan(), sweep_k=SWEEP_K, executor=executor, max_workers=max_workers
    ).build()


@pytest.fixture(scope="module")
def serial_session(store_session):
    """The shared serial session: this module's plan and ``sweep_k``."""
    return store_session


def _candidates_fingerprint(merged) -> str:
    digest = hashlib.sha256()
    for pair in merged.pairs:
        digest.update(
            f"{pair.offer_a.offer_id}|{pair.offer_b.offer_id}|{pair.label}|"
            f"{pair.metric}|{pair.provenance}|{pair.score:.9f}\n".encode()
        )
    return digest.hexdigest()


def _benchmark_fingerprint(benchmark) -> str:
    digest = hashlib.sha256()
    for attribute in ("train_sets", "valid_sets", "test_sets"):
        for dataset in getattr(benchmark, attribute).values():
            digest.update(dataset.name.encode())
            for pair in dataset.pairs:
                digest.update(
                    f"{pair.pair_id}|{pair.offer_a.offer_id}|"
                    f"{pair.offer_b.offer_id}|{pair.label}|"
                    f"{pair.provenance}\n".encode()
                )
    return digest.hexdigest()


class TestSessionDeterminism:
    """Satellite: merge-order determinism, sha256-pinned."""

    # Recorded from the seeded serial session of this revision; any change
    # means a seeded sharded session no longer reproduces this revision's
    # merged candidate set and must be called out explicitly.  Last
    # re-pinned when the sweep defaults changed to CROSS_SHARD_METRICS
    # (generalized_jaccard joined the cross-shard set) and signature
    # pruning became the default sweep mode.
    EXPECTED_MERGED_SHA256 = (
        "b0c44624ccefda206ee7d7e2a74bb838a1a071f441b4cbd8a6ea4380738186f6"
    )
    EXPECTED_BENCHMARK_SHA256 = (
        "113d9e1f2a3759440167dbce87d5c2b298693af433dffcea02009b84ff926b1f"
    )

    def test_merged_candidates_fingerprint_pinned(self, serial_session):
        fingerprint = _candidates_fingerprint(
            serial_session.merged_candidates
        )
        assert fingerprint == self.EXPECTED_MERGED_SHA256

    def test_merged_benchmark_fingerprint_pinned(self, serial_session):
        fingerprint = _benchmark_fingerprint(serial_session.merged_benchmark)
        assert fingerprint == self.EXPECTED_BENCHMARK_SHA256

    def test_process_pool_matches_serial(
        self, serial_session, process_session
    ):
        """Worker processes (different hash seeds!) change nothing."""
        assert _candidates_fingerprint(
            process_session.merged_candidates
        ) == _candidates_fingerprint(serial_session.merged_candidates)
        assert _candidates_fingerprint(
            process_session.merged_join_candidates
        ) == _candidates_fingerprint(serial_session.merged_join_candidates)
        assert _benchmark_fingerprint(
            process_session.merged_benchmark
        ) == _benchmark_fingerprint(serial_session.merged_benchmark)

    def test_single_worker_matches_full_pool(self, process_session):
        """Worker count (hence shard completion order) never leaks.

        With one worker the shards complete strictly in plan order; with a
        full pool they complete in arbitrary order — results are collected
        in plan order either way.
        """
        single = _session("process", max_workers=1)
        assert _candidates_fingerprint(
            single.merged_candidates
        ) == _candidates_fingerprint(process_session.merged_candidates)

    def test_shard_builds_match_standalone_builder(self, serial_session):
        """Each shard is exactly a single-corpus build of its config."""
        from repro.core import BenchmarkBuilder

        shard = serial_session.shards[1]
        standalone = BenchmarkBuilder(
            serial_session.plan.shard_configs[1]
        ).build()
        assert _benchmark_fingerprint(
            shard.benchmark
        ) == _benchmark_fingerprint(standalone.benchmark)


class TestMergedCandidates:
    def test_dedup_on_global_keys(self, serial_session):
        merged = serial_session.merged_candidates
        assert len(merged.pair_keys()) == len(merged)

    def test_cross_shard_pairs_are_negatives_with_direction(
        self, serial_session
    ):
        seen_directions = set()
        for pair in serial_session.merged_candidates:
            kind, direction, metric = pair.provenance.split(":")
            assert kind == "shard"
            source, target = direction.split("→")
            if source != target:
                assert pair.label == 0  # disjoint product pools
                seen_directions.add((source, target))
                shard_a = pair.offer_a.offer_id.split(":", 1)[0]
                shard_b = pair.offer_b.offer_id.split(":", 1)[0]
                assert {f"s{source}", f"s{target}"} == {shard_a, shard_b}
        # both directions of at least one pair should have surfaced
        assert any(
            (target, source) in seen_directions
            for source, target in seen_directions
        )

    def test_within_shard_pairs_keep_shard_namespace(self, serial_session):
        for pair in serial_session.merged_candidates:
            _, direction, _ = pair.provenance.split(":")
            source, target = direction.split("→")
            if source == target:
                assert pair.offer_a.offer_id.startswith(f"s{source}:")
                assert pair.offer_b.offer_id.startswith(f"s{source}:")

    def test_join_candidates_are_subset_of_completed(self, serial_session):
        join_keys = serial_session.merged_join_candidates.pair_keys()
        completed_keys = serial_session.merged_candidates.pair_keys()
        assert join_keys <= completed_keys

    def test_summary_counts(self, serial_session):
        merged = serial_session.merged_candidates
        summary = merged.summary()
        assert summary["all"] == len(merged)
        assert summary["pos"] + summary["neg"] == summary["all"]
        assert 0 < summary["cross_shard"] < summary["all"]

    def test_metrics_record_every_join_recipe(self, serial_session):
        """The merged set documents per-shard AND cross-sweep metrics."""
        metrics = serial_session.merged_candidates.metrics
        # per-shard joins run the shard engines' full metric set ...
        assert "lsa_embedding" in metrics
        assert "generalized_jaccard" in metrics
        # ... and the cross sweeps contribute the token sweep metrics
        for name in serial_session.sweep_metrics:
            assert name in metrics

    def test_to_dataset_round_trip(self, serial_session):
        dataset = serial_session.merged_candidates.to_dataset("merged-train")
        assert len(dataset) == len(serial_session.merged_candidates)
        assert dataset.pairs[0].provenance.startswith("shard:")


class TestMergedViews:
    def test_benchmark_concatenates_all_shards(self, serial_session):
        merged = serial_session.merged_benchmark
        key = (CornerCaseRatio.CC50, DevSetSize.MEDIUM)
        expected = sum(
            len(shard.benchmark.train_sets[key])
            for shard in serial_session.shards
        )
        assert len(merged.train_sets[key]) == expected
        assert merged.train_sets[key].name.startswith("merged-")

    def test_benchmark_offers_are_namespaced_and_disjoint(
        self, serial_session
    ):
        key = (CornerCaseRatio.CC50, DevSetSize.SMALL)
        dataset = serial_session.merged_benchmark.train_sets[key]
        shards_seen = set()
        for offer in dataset.offers():
            tag, _, _ = offer.offer_id.partition(":")
            shards_seen.add(tag)
        assert shards_seen == {f"s{i}" for i in range(N_SHARDS)}

    def test_multiclass_labels_namespaced(self, serial_session):
        merged = serial_session.merged_benchmark
        dataset = merged.multiclass_valid[CornerCaseRatio.CC50]
        assert all(":" in label for label in dataset.labels)
        expected = sum(
            len(shard.benchmark.multiclass_valid[CornerCaseRatio.CC50])
            for shard in serial_session.shards
        )
        assert len(dataset) == expected

    def test_merged_corpus_and_engine_align(self, serial_session):
        corpus = serial_session.merged_corpus
        engine = serial_session.merged_engine
        assert len(corpus.offers) == serial_session.total_offers()
        assert len(engine) == len(corpus.offers)
        # concatenated engines serve the token metrics only
        assert "lsa_embedding" not in engine.metric_names

    def test_merged_corpus_cluster_meta_carries_over(self, serial_session):
        clusters = serial_session.merged_corpus.clusters(min_size=2)
        assert clusters
        assert all(":" in cluster.cluster_id for cluster in clusters)
        assert any(cluster.family_id for cluster in clusters)

    def test_stage_timings_cover_shards_and_sweep(self, serial_session):
        timings = serial_session.stage_timings
        assert "shards" in timings and "sweep" in timings
        for shard in range(N_SHARDS):
            assert f"shard:{shard}:corpus" in timings
            assert f"shard:{shard}:ratios" in timings
            assert f"sweep:{shard}→{shard}" in timings
        assert "sweep:0→1" in timings and "sweep:1→2" in timings
        assert "sweep:signatures" in timings
        assert "sweep:prune" in timings
        assert "sweep:rescore" in timings

    def test_session_exposes_signature_sweep_stats(self, serial_session):
        assert serial_session.sweep_mode == "signature"
        stats = serial_session.sweep_stats
        assert stats is not None
        assert stats.mode == "signature"
        assert stats.pairs_total == N_SHARDS * (N_SHARDS - 1) // 2
        assert stats.rows_rescored > 0
        assert stats.rows_universe >= stats.rows_rescored


class TestMergedRecallFloors:
    """The CI floors, measured on the merged split-scoped candidate set."""

    def test_merged_blocking_recall_meets_floors(self, serial_session):
        completed, join_only = serial_session.split_candidates(
            CornerCaseRatio.CC50, DevSetSize.MEDIUM, k=RECALL_K
        )
        reference = serial_session.merged_benchmark.train_sets[
            (CornerCaseRatio.CC50, DevSetSize.MEDIUM)
        ]
        completed_recall = blocking_recall(completed, reference)
        join_recall = blocking_recall(join_only, reference)
        assert completed_recall.positive_recall >= 0.999
        assert join_recall.positive_recall >= 0.95
        assert join_recall.corner_negative_recall >= 0.95
        # cross-shard candidates ride along with within-shard provenance
        assert completed.summary()["cross_shard"] > 0


class TestRunnerFromSession:
    def test_featurization_backend_covers_merged_corpus(self, serial_session):
        runner = ExperimentRunner.from_session(
            serial_session, settings=EvalSettings.smoke()
        )
        engine, offer_rows = runner.featurization_backend()
        assert len(engine) == serial_session.total_offers()
        assert len(offer_rows) == serial_session.total_offers()

    def test_pairwise_matcher_trains_on_merged_benchmark(self, serial_session):
        runner = ExperimentRunner.from_session(
            serial_session, settings=EvalSettings.smoke()
        )
        task = runner.artifacts.benchmark.pairwise(
            CornerCaseRatio.CC50, DevSetSize.SMALL, UnseenRatio.SEEN
        )
        matcher = runner.make_pairwise("word_cooc", seed=0)
        matcher.fit(task.train, task.valid)
        score = matcher.evaluate(task.test)
        assert 0.0 <= score.f1 <= 1.0

    def test_pretraining_clusters_are_namespaced(self, serial_session):
        runner = ExperimentRunner.from_session(serial_session)
        clusters = runner.artifacts.pretraining_clusters()
        assert clusters
        assert all(":" in cluster_id for cluster_id, _, _ in clusters)


def _crash_forever(shard, attempts=(1, 2, 3)):
    return FaultPlan(
        tuple(
            FaultSpec(shard=shard, attempt=attempt, kind="crash")
            for attempt in attempts
        )
    )


def _faulty_session(executor="serial", **overrides):
    kwargs = dict(sweep_k=SWEEP_K, executor=executor, retry_backoff=0.0)
    kwargs.update(overrides)
    return ShardedBenchmarkSession(_plan(), **kwargs)


@pytest.fixture(scope="module")
def interrupted_checkpoints(tmp_path_factory):
    """A session 'killed' with 2 of 3 shards done, their stores on disk.

    Shard 2 crashes on every attempt under ``failure_policy="degrade"``,
    so the session completes having stored exactly shards 0 and 1 — the
    on-disk state a genuinely interrupted session would leave behind.
    """
    root = tmp_path_factory.mktemp("interrupted") / "store"
    session = _faulty_session(
        fault_plan=_crash_forever(shard=2),
        failure_policy="degrade",
        store_dir=root,
    ).build()
    assert session.health.failed_shards == (2,)
    assert session.shard_ids == (0, 1)
    return root


class TestFaultTolerantSessions:
    """Acceptance: retries, degraded sweeps and checkpoint resume keep
    (or knowingly shrink) the pinned byte-identical merged results."""

    def test_crash_retry_reproduces_the_no_fault_session(self):
        """A crashed shard retries with the same config: the recovered
        session is byte-identical to one that never crashed."""
        session = _faulty_session(
            fault_plan=FaultPlan(
                (FaultSpec(shard=1, attempt=1, kind="crash"),)
            )
        ).build()
        health = session.health
        assert health.retries == 1
        records = health.attempts[1]
        assert [record.ok for record in records] == [False, True]
        assert records[0].error == "ShardCrashError"
        assert not records[1].reseeded
        assert not session.degraded
        assert session.stage_timings["shard:retries"] == 1.0
        assert (
            _candidates_fingerprint(session.merged_candidates)
            == TestSessionDeterminism.EXPECTED_MERGED_SHA256
        )
        assert (
            _benchmark_fingerprint(session.merged_benchmark)
            == TestSessionDeterminism.EXPECTED_BENCHMARK_SHA256
        )

    def test_exhausted_budget_raises_by_default(self):
        with pytest.raises(ShardRetriesExhaustedError) as excinfo:
            _faulty_session(
                fault_plan=_crash_forever(shard=1, attempts=(1, 2)),
                max_attempts=2,
            ).build()
        assert excinfo.value.shard == 1
        assert isinstance(excinfo.value.__cause__, ShardCrashError)

    def test_degraded_sweep_covers_exactly_the_surviving_pairs(self):
        session = _faulty_session(
            fault_plan=_crash_forever(shard=1),
            failure_policy="degrade",
        ).build()
        assert session.degraded
        health = session.health
        assert health.failed_shards == (1,)
        assert health.surviving_shards == (0, 2)
        assert health.missing_pairs == ((0, 1), (1, 2))
        assert len(health.attempts[1]) == 3
        assert session.shard_ids == (0, 2)
        assert session.n_shards == 2
        assert session.planned_shards == N_SHARDS
        timings = session.stage_timings
        assert "sweep:0→2" in timings
        assert "sweep:0→1" not in timings and "sweep:1→2" not in timings
        # Merged views keep the plan's shard numbering for survivors ...
        tags = {
            offer.offer_id.split(":", 1)[0]
            for offer in session.merged_corpus.offers
        }
        assert tags == {"s0", "s2"}
        # ... and no candidate can mention the failed shard.
        for pair in session.merged_candidates:
            _, direction, _ = pair.provenance.split(":")
            assert "1" not in direction.split("→")

    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_resume_rebuilds_only_the_missing_shard(
        self, interrupted_checkpoints, tmp_path, executor
    ):
        """Kill-then-resume: verified checkpoints short-circuit shards 0
        and 1, shard 2 rebuilds, and the merged results land byte-for-
        byte on the session-determinism pins — in both execution modes."""
        store_dir = tmp_path / "resume"
        shutil.copytree(interrupted_checkpoints, store_dir)
        session = _faulty_session(
            executor=executor, store_dir=store_dir
        ).build()
        health = session.health
        assert health.statuses == {
            0: "checkpoint", 1: "checkpoint", 2: "built",
        }
        assert health.checkpoints_loaded == 2
        assert health.retries == 0
        timings = session.stage_timings
        assert "checkpoint:load" in timings and "checkpoint:save" in timings
        assert "shard:2:corpus" in timings
        assert "shard:0:corpus" not in timings  # loaded, not rebuilt
        assert (
            _candidates_fingerprint(session.merged_candidates)
            == TestSessionDeterminism.EXPECTED_MERGED_SHA256
        )
        assert (
            _benchmark_fingerprint(session.merged_benchmark)
            == TestSessionDeterminism.EXPECTED_BENCHMARK_SHA256
        )

    def test_corner_selection_fault_reseeds_deterministically(self):
        """Data-exhaustion retries respawn the shard's seeds — the result
        deliberately differs from the no-fault pin but is reproducible."""
        fault = FaultPlan(
            (FaultSpec(shard=0, attempt=1, kind="corner_selection"),)
        )
        first = _faulty_session(fault_plan=fault).build()
        second = _faulty_session(fault_plan=fault).build()
        records = first.health.attempts[0]
        assert records[0].error == "CornerSelectionError"
        assert records[1].ok and records[1].reseeded
        first_print = _candidates_fingerprint(first.merged_candidates)
        assert first_print == _candidates_fingerprint(
            second.merged_candidates
        )
        assert first_print != TestSessionDeterminism.EXPECTED_MERGED_SHA256


class TestSessionValidation:
    @pytest.mark.parametrize("executor", ["fleet", "thread"])
    def test_unknown_executor_rejected(self, executor):
        with pytest.raises(ValueError, match="executor") as excinfo:
            ShardedBenchmarkSession(_plan(), executor=executor)
        assert "('process', 'serial')" in str(excinfo.value)

    @pytest.mark.parametrize("max_workers", [0, -1, 2.5, True])
    def test_bad_max_workers_rejected(self, max_workers):
        with pytest.raises(ValueError, match="max_workers"):
            ShardedBenchmarkSession(_plan(), max_workers=max_workers)

    def test_embedding_metric_rejected_for_cross_sweep(self):
        with pytest.raises(ValueError) as excinfo:
            ShardedBenchmarkSession(
                _plan(), sweep_metrics=("cosine", "lsa_embedding")
            )
        message = str(excinfo.value)
        assert "lsa_embedding" in message
        assert "token metrics" in message

    def test_unknown_shard_metric_rejected(self):
        with pytest.raises(ValueError, match="hamming"):
            ShardedBenchmarkSession(_plan(), shard_metrics=("hamming",))

    @pytest.mark.parametrize("sweep_k", [0, -1, 2.5, True])
    def test_nonpositive_sweep_k_rejected(self, sweep_k):
        with pytest.raises(ValueError, match="sweep_k"):
            ShardedBenchmarkSession(_plan(), sweep_k=sweep_k)

    def test_unknown_failure_policy_rejected(self):
        with pytest.raises(ValueError, match="failure_policy"):
            ShardedBenchmarkSession(_plan(), failure_policy="panic")

    def test_zero_attempt_budget_rejected(self):
        with pytest.raises(ValueError, match="max_attempts"):
            ShardedBenchmarkSession(_plan(), max_attempts=0)
