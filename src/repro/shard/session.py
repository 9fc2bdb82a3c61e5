"""The shard-native build/eval session.

``ShardedBenchmarkSession`` turns the corpus into the parallel unit: a
:class:`~repro.shard.plan.ShardPlan` fixes N independent per-shard build
configs, :meth:`ShardedBenchmarkSession.build` runs
:func:`~repro.core.builder.build_one_corpus` for each of them in worker
**processes** (every build stage is serial Python, so process
isolation is what parallelizes them), and a cross-shard blocking sweep
joins every shard pair's universes into one deduplicated,
provenance-tagged candidate set.  Each shard's own top-k join is part of
its build: the session sets every shard config's ``blocking`` stage to
the sweep's ``k`` and shard metrics (see
:attr:`ShardedBenchmarkSession.shard_configs`), so the workers compute
the within-shard joins in parallel and a shard store persists its join.
Every shard build writes an artifact store (:mod:`repro.io.store`) into
the session directory — ``store_dir``, or a private temporary directory
— and the parent only checks those joins and runs the cross-shard pairs.
The result is a :class:`ShardedArtifacts`: per-shard
:class:`~repro.io.store.StoredShard` stores plus merged session-level
views (candidates, benchmark, corpus, engine) that existing consumers —
:func:`~repro.blocking.recall.blocking_recall`,
:class:`~repro.eval.runner.ExperimentRunner` — use unchanged.

Determinism: shard seeds come from ``SeedSequence.spawn`` (independent of
shard count and ordering), worker results are collected in plan order,
and the sweep visits shard pairs lexicographically — a seeded session is
byte-identical across worker counts, process-vs-serial execution and
shard completion order (pinned in ``tests/shard/test_session.py``).

Fault tolerance: shard builds run under a
:class:`~repro.shard.supervisor.ShardSupervisor` — wall-clock timeouts,
a per-shard retry budget with exponential backoff, process-pool recovery
and (with ``store_dir``) crash-resume from the per-shard stores.
Transient failures retry the same config (deterministic builds make the
retry reproduce the lost attempt byte-for-byte), corner-selection
exhaustion retries with seeds respawned from ``(session_seed, shard,
attempt)``, and ``failure_policy="degrade"`` lets the session complete
over the surviving shards with a :class:`SessionHealth` report naming
every failed shard and every shard pair the sweep consequently skipped.
"""

from __future__ import annotations

import tempfile
import time
from dataclasses import dataclass, field, replace
from functools import cached_property
from pathlib import Path

from repro.blocking.candidates import BlockedPairSet, check_top_k
from repro.core.benchmark import WDCProductsBenchmark
from repro.core.builder import BuildConfig
from repro.corpus.schema import SyntheticCorpus
from repro.io.store import StoredShard
from repro.shard.checkpoint import ShardCheckpointStore, shard_store_dir
from repro.shard.faults import FaultPlan
from repro.shard.merge import (
    MergedCandidates,
    MergedCandidateStore,
    StoredMergedCandidates,
    StoredShardJoin,
    merge_benchmarks,
    merge_candidate_sets,
    merge_corpora,
)
from repro.shard.plan import ShardPlan
from repro.shard.namespace import namespace_id
from repro.shard.signature_index import SignatureIndex, SweepPruneStats
from repro.shard.supervisor import (
    FAILURE_POLICIES,
    RetryPolicy,
    SessionHealth,
    ShardSupervisor,
    check_executor,
)
from repro.shard.sweep import (
    CROSS_SHARD_METRICS,
    cross_shard_candidates,
    shard_universe,
    split_universe,
)
from repro.similarity.engine import SimilarityEngine
from repro.similarity.registry import validate_metric_names
from repro.similarity.signatures import RowSignatures, overlap_lower_bound
from repro.utils.timer import Timer

__all__ = [
    "ShardedBenchmarkSession",
    "ShardedArtifacts",
    "MergedArtifacts",
    "DEFAULT_SIGNATURE_THRESHOLD",
    "SWEEP_MODES",
    "FAILURE_POLICIES",
]

SWEEP_MODES = ("signature", "exhaustive")

# The default top-k admission threshold of the signature sweep: a
# cross-shard candidate whose exact-token similarity cannot reach this
# value is prunable without scoring.  At 0.97 the per-row prefix
# collapses to (rarest token, near-equal set size) — the regime where
# the index prunes most of the bilinear sweep while still guaranteeing
# every near-duplicate cross-shard pair survives.  Cross-shard
# candidates are hard negatives by construction (disjoint product
# pools), so the threshold trades only the most marginal negatives for
# sweep time — the merged recall floors are measured on within-shard
# ground truth and cannot move.
DEFAULT_SIGNATURE_THRESHOLD = 0.97


def _sweep_universes(
    universes,
    joins,
    *,
    k: int,
    cross_metrics: tuple[str, ...],
    n_shards: int,
    timings: dict[str, float] | None = None,
    sweep_mode: str = "signature",
    signature_threshold: float = DEFAULT_SIGNATURE_THRESHOLD,
    summaries: list[RowSignatures | None] | None = None,
    sink: MergedCandidateStore | None = None,
) -> tuple[MergedCandidates, MergedCandidates, SweepPruneStats]:
    """Merge every universe's own join with every universe pair's join.

    The one sweep implementation behind the session's corpus-level sweep
    and the split-scoped recall recipe.  ``joins`` yields universe
    ``i``'s own top-``k`` join, in universe order.  Universe pairs are
    joined here under the token-only ``cross_metrics``, and the merged
    sets record the union of every metric joined.

    In ``"signature"`` mode (the default) the universe pairs are pruned
    through a :class:`SignatureIndex` first: pairs with no possible
    prefix collision are skipped without ever concatenating an engine,
    and surviving pairs are rescored only over their signature-colliding
    row blocks.  ``summaries`` optionally supplies worker-built
    :class:`RowSignatures` (one per universe, ``None`` entries filled in
    here); ``"exhaustive"`` mode is the historical full bipartite sweep.

    Returns ``(completed, join_only, prune_stats)``; ``timings`` (when
    given) receives one ``sweep:<i>→<i>`` row per universe join (its
    read or computation plus the group-positive completion), one
    ``sweep:<i>→<j>`` row per executed pair join, plus the aggregate
    ``sweep:signatures`` / ``sweep:prune`` / ``sweep:rescore`` rows.

    The session's sweep passes a ``sink`` (a
    :class:`~repro.shard.merge.MergedCandidateStore`), and ``joins``
    yields :class:`~repro.shard.merge.StoredShardJoin` values
    (:meth:`ShardUniverse.adopt_stored`): each join stays in its shard
    store, the sink merges it there in SQL, and the returned pair of
    :class:`~repro.shard.merge.StoredMergedCandidates` iterates windowed
    query results lazily.  Without a sink (the split recipe, whose
    universes have no store behind them) ``joins`` yields
    ``BlockedPairSet`` values bound to their namespaced blockers, and
    the merged sets are in-memory :class:`MergedCandidates`.
    """
    completed_sets: list[tuple[int, BlockedPairSet]] = []
    join_sets: list[tuple[int, BlockedPairSet | StoredShardJoin]] = []
    used_metrics: dict[str, None] = {}
    # ``joins`` may be lazy (computing or reading each join on demand),
    # so each ``sweep:<i>→<i>`` row times that work as well.
    joins = iter(joins)
    for universe in universes:
        with Timer() as timer:
            join = next(joins)
            used_metrics.update(dict.fromkeys(join.metrics))
            join_sets.append((universe.shard, join))
            if sink is None:
                completed_sets.append(
                    (universe.shard, join.with_group_positives())
                )
        if timings is not None:
            timings[f"sweep:{universe.shard}→{universe.shard}"] = (
                timer.elapsed
            )
    used_metrics.update(dict.fromkeys(cross_metrics))

    n_universes = len(universes)
    stats = SweepPruneStats(
        mode=sweep_mode,
        threshold=(
            signature_threshold if sweep_mode == "signature" else None
        ),
        pairs_total=n_universes * (n_universes - 1) // 2,
    )
    index = None
    if sweep_mode == "signature" and n_universes > 1:
        with Timer() as timer:
            filled = list(summaries) if summaries is not None else (
                [None] * n_universes
            )
            for position, universe in enumerate(universes):
                if filled[position] is None:
                    filled[position] = RowSignatures.from_engine(
                        universe.engine
                    )
            index = SignatureIndex(filled, threshold=signature_threshold)
        if timings is not None:
            timings["sweep:signatures"] = timer.elapsed

    prune_seconds = 0.0
    rescore_seconds = 0.0
    cross_sets = []
    for i in range(n_universes):
        for j in range(i + 1, n_universes):
            universe_i, universe_j = universes[i], universes[j]
            label = f"{universe_i.shard}→{universe_j.shard}"
            stats.rows_universe += len(universe_i) + len(universe_j)
            stats.cells_universe += len(universe_i) * len(universe_j)
            if index is not None:
                with Timer() as timer:
                    block = index.candidate_block(i, j)
                prune_seconds += timer.elapsed
                if block is None:
                    stats.pairs_skipped += 1
                    stats.per_pair[label] = "skipped"
                    continue
                rows_i, rows_j = block
                stats.rows_rescored += rows_i.size + rows_j.size
                stats.cells_rescored += rows_i.size * rows_j.size
                stats.per_pair[label] = {
                    "rows": int(rows_i.size + rows_j.size),
                    "universe": len(universe_i) + len(universe_j),
                    "rescored_fraction": (
                        (rows_i.size + rows_j.size)
                        / (len(universe_i) + len(universe_j))
                    ),
                }
                if rows_i.size < len(universe_i):
                    universe_i = universe_i.restrict(rows_i)
                if rows_j.size < len(universe_j):
                    universe_j = universe_j.restrict(rows_j)
            else:
                stats.rows_rescored += len(universe_i) + len(universe_j)
                stats.cells_rescored += len(universe_i) * len(universe_j)
            with Timer() as timer:
                blocked, partition = cross_shard_candidates(
                    universe_i, universe_j, k=k, metrics=cross_metrics
                )
            rescore_seconds += timer.elapsed
            cross_sets.append(
                ((universe_i.shard, universe_j.shard), blocked, partition)
            )
            if timings is not None:
                timings[f"sweep:{label}"] = timer.elapsed
    if timings is not None:
        timings["sweep:prune"] = prune_seconds
        timings["sweep:rescore"] = rescore_seconds
    kwargs = dict(k=k, metrics=tuple(used_metrics), n_shards=n_shards)
    if sink is not None:
        completed, join_only = sink.write(
            [join for _, join in join_sets], cross_sets, **kwargs
        )
        return completed, join_only, stats
    return (
        merge_candidate_sets(completed_sets, cross_sets, **kwargs),
        merge_candidate_sets(join_sets, cross_sets, **kwargs),
        stats,
    )


@dataclass
class MergedArtifacts:
    """The merged single-corpus view of a sharded session.

    Structurally compatible with the slice of
    :class:`~repro.core.builder.BuildArtifacts` that
    :class:`~repro.eval.runner.ExperimentRunner` reads: ``benchmark``,
    ``cleansed``, ``engine`` and ``pretraining_clusters``.  ``splits`` is
    empty — offer splits are per-shard artifacts (each shard split its own
    corpus); blocked-split workflows run on the shards, the merged view
    serves whole-benchmark training/evaluation.
    """

    session: "ShardedArtifacts"
    benchmark: WDCProductsBenchmark
    cleansed: SyntheticCorpus
    engine: SimilarityEngine | None
    splits: dict = field(default_factory=dict)

    def pretraining_clusters(self, serializer=None):
        """Namespaced union of every shard's pre-training clusters."""
        clusters = []
        for shard, artifacts in zip(
            self.session.shard_ids, self.session.shards
        ):
            clusters.extend(
                (
                    namespace_id(shard, cluster_id),
                    namespace_id(shard, family_id),
                    texts,
                )
                for cluster_id, family_id, texts in (
                    artifacts.pretraining_clusters(serializer)
                )
            )
        return clusters


class ShardedArtifacts:
    """Everything a sharded session built.

    ``shards[i]`` is the :class:`~repro.io.store.StoredShard` of shard
    ``shard_ids[i]``, a complete single-corpus artifact set opened lazily
    from its store — for a healthy session the identity mapping, for a
    degraded one the surviving subset of the plan (``health`` then
    records who failed, with the full attempt ledger, and which shard
    pairs the sweep consequently skipped).  ``merged_candidates`` is the
    deduplicated per-shard + cross-shard candidate set in its training
    shape (ground-truth group positives completed) and
    ``merged_join_candidates`` the raw top-k join (the shape
    blocking-recall floors gate), both
    :class:`~repro.shard.merge.StoredMergedCandidates` views over the
    session directory's ``merged.db``.  The merged benchmark / corpus /
    engine views build lazily and are cached.

    :meth:`close` releases the stores; a session built without
    ``store_dir`` also removes its private directory there (or when the
    artifacts are garbage-collected).
    """

    def __init__(
        self,
        plan: ShardPlan,
        shards: tuple[StoredShard, ...],
        *,
        merged_candidates: StoredMergedCandidates,
        merged_join_candidates: StoredMergedCandidates,
        sweep_k: int,
        sweep_metrics: tuple[str, ...],
        stage_timings: dict[str, float],
        sweep_mode: str = "signature",
        signature_threshold: float | None = DEFAULT_SIGNATURE_THRESHOLD,
        sweep_stats: SweepPruneStats | None = None,
        shard_ids: tuple[int, ...] | None = None,
        health: SessionHealth | None = None,
    ) -> None:
        self.plan = plan
        self.shards = shards
        self.shard_ids = (
            tuple(shard_ids)
            if shard_ids is not None
            else tuple(range(len(shards)))
        )
        if len(self.shard_ids) != len(shards):
            raise ValueError(
                f"shard_ids names {len(self.shard_ids)} shards but "
                f"{len(shards)} artifact sets were given"
            )
        self.health = health
        self.merged_candidates = merged_candidates
        self.merged_join_candidates = merged_join_candidates
        self.sweep_k = sweep_k
        self.sweep_metrics = sweep_metrics
        self.stage_timings = stage_timings
        self.sweep_mode = sweep_mode
        self.signature_threshold = signature_threshold
        self.sweep_stats = sweep_stats
        # The private session directory of a build without ``store_dir``;
        # its finalizer removes the directory if close() never runs.
        self._directory: tempfile.TemporaryDirectory | None = None

    def close(self) -> None:
        """Close the stored shards and merged views, and remove the
        private directory of a session built without ``store_dir``.

        A ``store_dir`` is never removed: it is the crash-resume
        checkpoint.  Views and shards must not be used after this.
        """
        for stored in (
            *self.shards,
            self.merged_candidates,
            self.merged_join_candidates,
        ):
            stored.close()
        if self._directory is not None:
            self._directory.cleanup()

    @property
    def n_shards(self) -> int:
        """Surviving shards (equals ``planned_shards`` unless degraded)."""
        return len(self.shards)

    @property
    def planned_shards(self) -> int:
        return len(self.plan.shard_configs)

    @property
    def degraded(self) -> bool:
        return self.health.degraded if self.health is not None else False

    def total_offers(self) -> int:
        """Cleansed offers across all shards (the merged universe size)."""
        return sum(len(shard.cleansed.offers) for shard in self.shards)

    @cached_property
    def merged_benchmark(self) -> WDCProductsBenchmark:
        return merge_benchmarks(
            [shard.benchmark for shard in self.shards],
            shard_ids=self.shard_ids,
        )

    @cached_property
    def merged_corpus(self) -> SyntheticCorpus:
        return merge_corpora(
            [shard.cleansed for shard in self.shards],
            shard_ids=self.shard_ids,
        )

    @cached_property
    def merged_engine(self) -> SimilarityEngine:
        """One engine over all shards' rows (token metrics only)."""
        return SimilarityEngine.concat(
            [shard.engine for shard in self.shards],
            strict_embeddings=False,
        )

    def merged_artifacts(self) -> MergedArtifacts:
        """The runner-facing merged view (see :class:`MergedArtifacts`)."""
        return MergedArtifacts(
            session=self,
            benchmark=self.merged_benchmark,
            cleansed=self.merged_corpus,
            engine=self.merged_engine,
        )

    def serve(self, **kwargs) -> "MatchService":
        """An online :class:`~repro.serve.service.MatchService` over the
        session's shards — one live shard per surviving build, ready for
        ``async with artifacts.serve() as service``.  Keyword arguments
        pass through to :meth:`MatchService.from_session`.
        """
        from repro.serve import MatchService

        return MatchService.from_session(self, **kwargs)

    def split_candidates(
        self,
        corner_cases,
        dev_size,
        *,
        k: int = 25,
        cross_metrics: tuple[str, ...] | None = None,
    ) -> tuple[MergedCandidates, MergedCandidates]:
        """Merged split-scoped candidates of one (cc, dev) training cell.

        Every shard's train split becomes a view-scoped universe (the
        single-corpus ``CandidateBlocker.over_entries`` recipe the CI
        recall floors were recorded with), joined within each shard under
        the shard engine's full metric set and across shard pairs under
        ``cross_metrics`` (default: the metrics the session's sweep ran
        with, validated here so a bad name fails before any join runs).
        The shard-pair sweep reuses the session's ``sweep_mode`` and
        ``signature_threshold`` — split universes are views, so signature
        summaries are rebuilt per split, scoped to the split's rows.
        Returns ``(completed, join_only)``: the training shape with
        ground-truth group positives completed, and the raw top-k join
        the recall floors gate.  Measure both against the merged
        benchmark's train set of the same cell with
        :func:`~repro.blocking.recall.blocking_recall`.
        """
        if cross_metrics is None:
            cross_metrics = self.sweep_metrics
        else:
            cross_metrics = validate_metric_names(
                cross_metrics,
                available=CROSS_SHARD_METRICS,
                context="split_candidates.cross_metrics (cross-shard joins "
                "support the token metrics only)",
            )
        universes = [
            split_universe(
                artifacts,
                shard,
                artifacts.splits[corner_cases].train_offers(dev_size),
            )
            for shard, artifacts in zip(self.shard_ids, self.shards)
        ]
        completed, join_only, _ = _sweep_universes(
            universes,
            (
                universe.blocker().candidates(
                    k=k, metrics=universe.engine.metric_names
                )
                for universe in universes
            ),
            k=k,
            cross_metrics=cross_metrics,
            n_shards=self.n_shards,
            sweep_mode=self.sweep_mode,
            signature_threshold=(
                self.signature_threshold
                if self.signature_threshold is not None
                else DEFAULT_SIGNATURE_THRESHOLD
            ),
        )
        return completed, join_only


class ShardedBenchmarkSession:
    """Schedules supervised shard builds and shard-pair joins for one plan.

    The fault-tolerance knobs map straight onto the supervisor:
    ``max_attempts`` / ``retry_backoff`` / ``backoff_cap`` /
    ``shard_timeout`` form the :class:`RetryPolicy`, ``failure_policy``
    chooses between surfacing the first exhausted shard (``"raise"``,
    the default) and completing over the survivors (``"degrade"``),
    and ``fault_plan`` / ``sleep`` are test-only injection points.
    ``executor="process"`` builds shards on at most ``max_workers``
    worker processes (``None``: one per shard); ``"serial"`` builds them
    in this process.

    Every shard build runs the session's within-shard sweep join as its
    ``blocking`` stage (:attr:`shard_configs`): the session owns the
    shard configs' ``blocking_top_k`` / ``blocking_metrics``, and a
    shard's ``blocked_candidates`` is its sweep join (top-``sweep_k``
    under ``shard_metrics``).

    Every session builds out-of-core into a session directory: each
    worker writes its shard's artifact store (:mod:`repro.io.store`)
    into ``<directory>/shard-NNNN`` itself and returns only a path
    handle + signature summary across the pool boundary — the parent
    adopts the store, opens shards lazily (mmap engine, SQL-backed
    benchmark/splits) and the sweep merges the candidates in SQL into
    ``<directory>/merged.db``, selecting every within-shard join
    straight out of its shard store.  ``store_dir`` names that directory
    and is the one persistence option: its shard stores are the
    crash-resume checkpoint, so a rerun over the same directory loads
    every verified shard instead of rebuilding it, its within-shard join
    included.  Without ``store_dir`` each :meth:`build` uses a private
    temporary directory that :meth:`ShardedArtifacts.close` removes.
    ``store_backend`` accepts only ``"sqlite"``, the one format left.
    """

    def __init__(
        self,
        plan: ShardPlan,
        *,
        sweep_k: int = 25,
        sweep_metrics: tuple[str, ...] = CROSS_SHARD_METRICS,
        shard_metrics: tuple[str, ...] | None = None,
        sweep_mode: str = "signature",
        signature_threshold: float = DEFAULT_SIGNATURE_THRESHOLD,
        executor: str = "process",
        max_workers: int | None = None,
        max_attempts: int = 3,
        shard_timeout: float | None = None,
        retry_backoff: float = 0.5,
        backoff_cap: float = 8.0,
        failure_policy: str = "raise",
        store_dir: Path | str | None = None,
        store_backend: str = "sqlite",
        fault_plan: FaultPlan | None = None,
        sleep=time.sleep,
    ) -> None:
        check_executor(executor, max_workers)
        if sweep_mode not in SWEEP_MODES:
            raise ValueError(
                f"sweep_mode must be one of {SWEEP_MODES}, got {sweep_mode!r}"
            )
        if failure_policy not in FAILURE_POLICIES:
            raise ValueError(
                f"failure_policy must be one of {FAILURE_POLICIES}, got "
                f"{failure_policy!r}"
            )
        # Fail fast on a bad budget/timeout/backoff combination.
        self.retry_policy = RetryPolicy(
            max_attempts=max_attempts,
            backoff_base=retry_backoff,
            backoff_cap=backoff_cap,
            timeout=shard_timeout,
        )
        self.failure_policy = failure_policy
        if store_backend != "sqlite":
            raise ValueError(
                f"store_backend must be 'sqlite', got {store_backend!r}: "
                "the pickle backend was removed"
            )
        self.store_dir = Path(store_dir) if store_dir is not None else None
        self.fault_plan = fault_plan
        self.sleep = sleep
        # Validates the threshold range once, at construction time.
        overlap_lower_bound(signature_threshold)
        # Cross-shard universes have no common embedding space, so the
        # sweep validates against the token metrics only — and does so
        # here, at construction time, not deep inside the sweep.  The
        # default is the full CROSS_SHARD_METRICS set: with the signature
        # sweep pruning pairs and row blocks, Generalized Jaccard's exact
        # rescoring no longer dominates the pair sweeps.
        self.sweep_metrics = validate_metric_names(
            sweep_metrics,
            available=CROSS_SHARD_METRICS,
            context="ShardedBenchmarkSession.sweep_metrics "
            "(cross-shard joins support the token metrics only: per-shard "
            "LSA embeddings are not comparable across corpora)",
        )
        # Within a shard all of the shard engine's metrics apply (its own
        # embedding space included); None = each shard's full metric set,
        # the recipe the single-corpus recall floors were recorded with.
        self.shard_metrics = (
            None
            if shard_metrics is None
            else validate_metric_names(
                shard_metrics,
                context="ShardedBenchmarkSession.shard_metrics",
            )
        )
        check_top_k(sweep_k, name="sweep_k")
        self.plan = plan
        self.sweep_k = sweep_k
        self.sweep_mode = sweep_mode
        self.signature_threshold = signature_threshold
        self.executor = executor
        self.max_workers = max_workers

    @property
    def _shard_join_metrics(self) -> tuple[str, ...]:
        return self.shard_metrics or SimilarityEngine.METRICS

    @property
    def shard_configs(self) -> tuple[BuildConfig, ...]:
        """The configs the session's workers build into ``store_dir``,
        in shard order.

        The plan's configs with the within-shard sweep join as their
        ``blocking`` stage (top-``sweep_k`` under the shard metrics) and
        each shard's own store directory.  They are the resume keys of
        the shard stores: ``ShardCheckpointStore(store_dir)
        .completed_shards(session.shard_configs)`` lists the shards a
        rerun would load.  Needs ``store_dir``: without it every build
        picks a new private directory.
        """
        return self._shard_configs(self.store_dir)

    def _shard_configs(self, root: Path) -> tuple[BuildConfig, ...]:
        return tuple(
            replace(
                config,
                blocking_top_k=self.sweep_k,
                blocking_metrics=self._shard_join_metrics,
                store_dir=str(shard_store_dir(root, shard)),
            )
            for shard, config in enumerate(self.plan.shard_configs)
        )

    # ------------------------------------------------------------------ #
    def _build_shards(
        self, root: Path
    ) -> tuple[
        list[int],
        list[StoredShard],
        list[RowSignatures | None],
        SessionHealth,
        dict[str, float],
    ]:
        """Run every shard's stage pipeline under supervision.

        Every shard builds into its store under the session directory
        ``root``.  Worker scheduling never reaches the results: outcomes
        come back in plan order whatever the completion order, and each
        shard's streams derive from its own spawned seed.  In signature
        mode every worker also summarizes its freshly built engine into
        :class:`RowSignatures` — the parent receives ready-made summaries
        and only merges them.  Returns the surviving shard ids, their
        stores and summaries, the session health report and the
        supervisor's timing rows (``shard:retries``, ``checkpoint:*``).
        """
        # Retries and checkpoints see the session's configs: store-backed
        # (fingerprints leave store_dir out, so a moved store still
        # resumes) and carrying the within-shard join.
        configs = self._shard_configs(root)
        supervisor = ShardSupervisor(
            configs,
            session_seed=self.plan.seed,
            executor=self.executor,
            max_workers=self.max_workers,
            policy=self.retry_policy,
            failure_policy=self.failure_policy,
            fault_plan=self.fault_plan,
            checkpoint_store=ShardCheckpointStore(root),
            with_signatures=self.sweep_mode == "signature",
            sleep=self.sleep,
        )
        outcomes = supervisor.run()
        survivors = [outcome for outcome in outcomes if outcome.ok]
        shard_ids = [outcome.shard for outcome in survivors]
        surviving = set(shard_ids)
        missing_pairs = tuple(
            (i, j)
            for i in range(len(configs))
            for j in range(i + 1, len(configs))
            if i not in surviving or j not in surviving
        )
        health = supervisor.health(outcomes, missing_pairs=missing_pairs)
        return (
            shard_ids,
            [outcome.artifacts for outcome in survivors],
            [outcome.summary for outcome in survivors],
            health,
            dict(supervisor.stage_timings),
        )

    def _sweep(
        self,
        root: Path,
        shard_ids: list[int],
        shards: list[StoredShard],
        timings: dict[str, float],
        summaries: list[RowSignatures | None] | None = None,
    ) -> tuple[
        StoredMergedCandidates, StoredMergedCandidates, SweepPruneStats
    ]:
        """Stored per-shard joins + cross-shard pair sweeps, merged.

        Every shard's within-shard join comes from its build; only the
        cross-shard pairs are joined here.  Each join is checked against
        its store's manifest, only its ``(row_a, row_b)`` columns are
        read (for the group completion), and it is merged in SQL into
        ``<root>/merged.db`` (see
        :class:`~repro.shard.merge.MergedCandidateStore`); the merged
        sets come back as lazy
        :class:`~repro.shard.merge.StoredMergedCandidates` query views.
        """
        universes = [
            shard_universe(stored, shard)
            for shard, stored in zip(shard_ids, shards)
        ]
        sink = MergedCandidateStore(root / "merged.db")
        joins = (
            universe.adopt_stored(
                stored, k=self.sweep_k, metrics=self._shard_join_metrics
            )
            for universe, stored in zip(universes, shards)
        )
        try:
            return _sweep_universes(
                universes,
                joins,
                k=self.sweep_k,
                cross_metrics=self.sweep_metrics,
                n_shards=len(shards),
                timings=timings,
                sweep_mode=self.sweep_mode,
                signature_threshold=self.signature_threshold,
                summaries=summaries,
                sink=sink,
            )
        finally:
            sink.close()

    # ------------------------------------------------------------------ #
    def build(self) -> ShardedArtifacts:
        """Build all shards, sweep all shard pairs, merge the results.

        Under ``failure_policy="degrade"`` the sweep runs over the
        surviving shards only; the returned artifacts' ``health`` names
        every failed shard and every skipped shard pair.  Without
        ``store_dir`` the session builds into a new private temporary
        directory, which the returned artifacts own (see
        :meth:`ShardedArtifacts.close`).
        """
        root = self.store_dir
        private = None
        if root is None:
            private = tempfile.TemporaryDirectory(prefix="repro-session-")
            root = Path(private.name)
        try:
            artifacts = self._build(root)
        except BaseException:
            if private is not None:
                private.cleanup()
            raise
        artifacts._directory = private
        return artifacts

    def _build(self, root: Path) -> ShardedArtifacts:
        timings: dict[str, float] = {}
        with Timer() as timer:
            shard_ids, shards, summaries, health, supervisor_timings = (
                self._build_shards(root)
            )
        timings["shards"] = timer.elapsed
        timings.update(supervisor_timings)
        for shard, artifacts in zip(shard_ids, shards):
            # Checkpoint-loaded shards spent no build time this session;
            # their historical stage rows would only distort budgets.
            if health.statuses.get(shard) == "checkpoint":
                continue
            for stage, seconds in artifacts.stage_timings.items():
                timings[f"shard:{shard}:{stage}"] = seconds

        with Timer() as timer:
            merged, merged_join, stats = self._sweep(
                root, shard_ids, shards, timings, summaries
            )
        timings["sweep"] = timer.elapsed

        return ShardedArtifacts(
            self.plan,
            tuple(shards),
            merged_candidates=merged,
            merged_join_candidates=merged_join,
            sweep_k=self.sweep_k,
            sweep_metrics=self.sweep_metrics,
            stage_timings=timings,
            sweep_mode=self.sweep_mode,
            signature_threshold=(
                self.signature_threshold
                if self.sweep_mode == "signature"
                else None
            ),
            sweep_stats=stats,
            shard_ids=tuple(shard_ids),
            health=health,
        )
