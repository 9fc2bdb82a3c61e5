"""Sharded session: build N corpora in worker processes, sweep shard pairs.

The single-corpus ``BenchmarkBuilder`` is the 1-shard special case of the
session API shown here.  A ``ShardPlan`` spawns independent per-shard
configs from one session seed (``SeedSequence.spawn`` — shard identity is
stable under shard count and ordering), a ``ShardedBenchmarkSession``
builds every shard in a worker *process* and then runs the cross-shard
blocking sweep: for each shard pair, both shards' offers query the other
shard's sub-universe through the engine-backed ``CandidateBlocker``, and
the per-shard + cross-shard candidate sets merge into one deduplicated,
provenance-tagged set (``shard:<i>→<j>:<metric>``).  The merged benchmark
view trains an ``ExperimentRunner`` matcher exactly like a single-corpus
build.  Every shard is written to an artifact store in a private
temporary directory (pass ``store_dir=`` to keep it as a crash-resume
checkpoint); ``close()`` releases the stores and removes that directory.

Run:  python examples/sharded_session.py
"""

from repro.blocking import blocking_recall
from repro.core import BuildConfig, CornerCaseRatio, DevSetSize, UnseenRatio
from repro.eval.runner import EvalSettings, ExperimentRunner
from repro.shard import ShardPlan, ShardedBenchmarkSession


def main() -> None:
    n_shards = 2
    plan = ShardPlan.create(
        n_shards, base_config=BuildConfig.small(), seed=42
    )
    print(f"Plan: {plan.n_shards} shards spawned from session seed {plan.seed}")
    for shard, config in enumerate(plan.shard_configs):
        print(
            f"  shard {shard}: build seed {config.seed}, corpus seed "
            f"{config.corpus.seed}, {config.n_products} products/set"
        )

    print("\nBuilding shards in worker processes + cross-shard sweep ...")
    session = ShardedBenchmarkSession(plan, executor="process").build()
    timings = session.stage_timings
    print(
        f"  shard builds: {timings['shards']:.2f}s, "
        f"sweep: {timings['sweep']:.2f}s, "
        f"total offers: {session.total_offers():,}"
    )

    summary = session.merged_candidates.summary()
    print("\nMerged candidate set (per-shard joins + cross-shard sweeps):")
    print(
        f"  {summary['all']:,} pairs ({summary['pos']:,} positive, "
        f"{summary['cross_shard']:,} cross-shard hard negatives)"
    )
    for provenance, count in sorted(
        session.merged_candidates.per_provenance_counts().items()
    )[:6]:
        print(f"    {provenance:<24} {count:>7,}")

    corner_cases, dev_size = CornerCaseRatio.CC50, DevSetSize.MEDIUM
    completed, join_only = session.split_candidates(corner_cases, dev_size)
    reference = session.merged_benchmark.train_sets[(corner_cases, dev_size)]
    report = blocking_recall(join_only, reference)
    print(
        f"\nMerged blocking recall vs {reference.name}: "
        f"positives={report.positive_recall:.3f}, "
        f"corner negatives={report.corner_negative_recall:.3f}"
    )

    print("\nTraining Word-Cooc on the merged benchmark view ...")
    runner = ExperimentRunner.from_session(
        session, settings=EvalSettings.smoke()
    )
    task = runner.artifacts.benchmark.pairwise(
        corner_cases, dev_size, UnseenRatio.SEEN
    )
    matcher = runner.make_pairwise("word_cooc", seed=0)
    matcher.fit(task.train, task.valid)
    result = matcher.evaluate(task.test).as_percentages()
    print(
        f"  merged {task.variant.name}: P={result.precision:5.1f} "
        f"R={result.recall:5.1f} F1={result.f1:5.1f}"
    )
    print("\nEvery shard is also a complete single-corpus artifact set:")
    for shard, artifacts in enumerate(session.shards):
        print(
            f"  shard {shard}: {len(artifacts.cleansed.offers):,} offers, "
            f"{len(artifacts.benchmark.train_sets)} train sets"
        )
    session.close()


if __name__ == "__main__":
    main()
