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
— with its join's group completion.  The cross-shard pair joins run in
the same worker pool (:func:`join_shard_pair`), each writing its rows
to a pair store, so the parent only coordinates: it checks the joins'
manifests, prunes the shard pairs and merges every store in SQL.
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

import shutil
import tempfile
import time
from dataclasses import dataclass, field, replace
from functools import cached_property
from pathlib import Path

import numpy as np

from repro.blocking.candidates import check_top_k
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
    StoredPairJoin,
    merge_benchmarks,
    merge_candidate_sets,
    merge_corpora,
    write_pair_store,
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
    adopt_stored,
    cross_shard_candidates,
    split_universe,
    stored_universe,
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


def _plan_pairs(
    shard_ids: list[int],
    sizes: list[int],
    summaries,
    *,
    sweep_mode: str,
    signature_threshold: float,
    timings: dict[str, float] | None = None,
) -> tuple[
    list[tuple[int, int, np.ndarray | None, np.ndarray | None]],
    SweepPruneStats,
]:
    """The shard-pair joins a sweep runs, and what it pruned.

    ``sizes`` are the universes' row counts and ``summaries()`` returns
    their :class:`RowSignatures` (called only in ``"signature"`` mode).
    Universe pairs with no possible prefix collision are skipped; a
    surviving pair comes back as ``(i, j, rows_i, rows_j)`` (universe
    positions), its rows narrowed to the signature-colliding blocks
    (``None``: every row).  ``"exhaustive"`` mode joins every pair
    whole.  ``timings`` (when given) receives the ``sweep:signatures``
    and ``sweep:prune`` rows.
    """
    n_universes = len(sizes)
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
            index = SignatureIndex(summaries(), threshold=signature_threshold)
        if timings is not None:
            timings["sweep:signatures"] = timer.elapsed

    prune_seconds = 0.0
    blocks = []
    for i in range(n_universes):
        for j in range(i + 1, n_universes):
            size_i, size_j = sizes[i], sizes[j]
            label = f"{shard_ids[i]}→{shard_ids[j]}"
            stats.rows_universe += size_i + size_j
            stats.cells_universe += size_i * size_j
            if index is None:
                stats.rows_rescored += size_i + size_j
                stats.cells_rescored += size_i * size_j
                blocks.append((i, j, None, None))
                continue
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
                "universe": size_i + size_j,
                "rescored_fraction": (
                    (rows_i.size + rows_j.size) / (size_i + size_j)
                ),
            }
            blocks.append((
                i,
                j,
                rows_i if rows_i.size < size_i else None,
                rows_j if rows_j.size < size_j else None,
            ))
    if timings is not None:
        timings["sweep:prune"] = prune_seconds
    return blocks, stats


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
) -> tuple[MergedCandidates, MergedCandidates, SweepPruneStats]:
    """Merge every universe's own join with every universe pair's join,
    in memory.

    The sweep of the split-scoped recall recipe, whose universes are
    views no store holds.  ``joins`` yields universe ``i``'s own
    top-``k`` join (a ``BlockedPairSet`` bound to its namespaced
    blocker), in universe order.  Universe pairs are pruned by
    :func:`_plan_pairs` (``summaries`` optionally supplies prebuilt
    :class:`RowSignatures`, ``None`` entries built here) and joined in
    this process under the token-only ``cross_metrics``; the merged
    sets record the union of every metric joined.  Returns
    ``(completed, join_only, prune_stats)``; ``timings`` (when given)
    receives the ``sweep:signatures`` / ``sweep:prune`` /
    ``sweep:rescore`` rows and one ``sweep:<i>→<j>`` row per pair join.
    """
    completed_sets = []
    join_sets = []
    used_metrics: dict[str, None] = {}
    for universe, join in zip(universes, joins):
        used_metrics.update(dict.fromkeys(join.metrics))
        join_sets.append((universe.shard, join))
        completed_sets.append((universe.shard, join.with_group_positives()))
    used_metrics.update(dict.fromkeys(cross_metrics))
    given = summaries or [None] * len(universes)
    blocks, stats = _plan_pairs(
        [universe.shard for universe in universes],
        [len(universe) for universe in universes],
        lambda: [
            summary
            if summary is not None
            else RowSignatures.from_engine(universe.engine)
            for summary, universe in zip(given, universes)
        ],
        sweep_mode=sweep_mode,
        signature_threshold=signature_threshold,
        timings=timings,
    )
    rescore_seconds = 0.0
    cross_sets = []
    for i, j, rows_i, rows_j in blocks:
        universe_i, universe_j = universes[i], universes[j]
        if rows_i is not None:
            universe_i = universe_i.restrict(rows_i)
        if rows_j is not None:
            universe_j = universe_j.restrict(rows_j)
        with Timer() as timer:
            blocked, partition = cross_shard_candidates(
                universe_i, universe_j, k=k, metrics=cross_metrics
            )
        rescore_seconds += timer.elapsed
        cross_sets.append(
            ((universe_i.shard, universe_j.shard), blocked, partition)
        )
        if timings is not None:
            timings[f"sweep:{universe_i.shard}→{universe_j.shard}"] = (
                timer.elapsed
            )
    if timings is not None:
        timings["sweep:rescore"] = rescore_seconds
    kwargs = dict(k=k, metrics=tuple(used_metrics), n_shards=n_shards)
    return (
        merge_candidate_sets(completed_sets, cross_sets, **kwargs),
        merge_candidate_sets(join_sets, cross_sets, **kwargs),
        stats,
    )


def join_shard_pair(
    sides: tuple[tuple[int, str, dict, np.ndarray | None], ...],
    *,
    k: int,
    metrics: tuple[str, ...],
    database: str,
    attempt: int,
    fault_plan: FaultPlan | None = None,
) -> tuple[StoredPairJoin, float]:
    """One cross-shard pair join attempt, written to a pair store.

    The session's pair task: module-level so process pools can pickle
    it, and run inline by the serial executor.  ``sides`` holds, for
    shard ``i`` and then shard ``j``, ``(shard, store directory,
    verified manifest, rows)``, ``rows`` being the signature block of
    the shard (``None``: every row).  Each side's universe is read off
    its store (:func:`~repro.shard.sweep.stored_universe`: the mmap
    engine and only those rows' offers), the two are joined by
    :func:`~repro.shard.sweep.cross_shard_candidates` on a fresh
    concatenated engine, and the rows go to the pair store ``database``
    (:func:`~repro.shard.merge.write_pair_store`), namespaced and tagged
    for the SQL merge.  Returns the store's
    :class:`~repro.shard.merge.StoredPairJoin` and the attempt's
    elapsed seconds.  The fault hook fires first, keyed on the pair.
    """
    start = time.perf_counter()
    pair = (int(sides[0][0]), int(sides[1][0]))
    plan = fault_plan if fault_plan is not None else FaultPlan.from_env()
    if plan is not None:
        plan.inject(pair, attempt)
    stores = [
        StoredShard(directory, manifest) for _, directory, manifest, _ in sides
    ]
    try:
        universe_i, universe_j = (
            stored_universe(stored, shard, rows)
            for stored, (shard, _, _, rows) in zip(stores, sides)
        )
        blocked, partition = cross_shard_candidates(
            universe_i, universe_j, k=k, metrics=metrics
        )
        joined = write_pair_store(database, pair, blocked, partition)
    finally:
        for stored in stores:
            stored.close()
    return joined, time.perf_counter() - start


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
    pairs the sweep skipped, for a failed shard or a failed pair join).  ``merged_candidates`` is the
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
    benchmark/splits), prunes the shard pairs, runs every surviving
    pair's join as a task on the same pool (:func:`join_shard_pair`,
    into a pair store under ``<directory>/pairs``) and merges the
    candidates in SQL into ``<directory>/merged.db``, selecting every
    within-shard join, group completion and pair join straight out of
    its store.  ``store_dir`` names that directory
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
    def _supervisor(self, root: Path) -> ShardSupervisor:
        # Retries and checkpoints see the session's configs: store-backed
        # (fingerprints leave store_dir out, so a moved store still
        # resumes) and carrying the within-shard join.
        return ShardSupervisor(
            self._shard_configs(root),
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

    def _build_shards(
        self, root: Path, supervisor: ShardSupervisor | None = None
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
        ``supervisor`` (default: a new one, closed on return) keeps its
        pool open for the pair wave when the caller holds it open.
        """
        if supervisor is None:
            with self._supervisor(root) as supervisor:
                return self._build_shards(root, supervisor)
        outcomes = supervisor.run()
        survivors = [outcome for outcome in outcomes if outcome.ok]
        shard_ids = [outcome.shard for outcome in survivors]
        surviving = set(shard_ids)
        n_planned = len(supervisor.configs)
        missing_pairs = tuple(
            (i, j)
            for i in range(n_planned)
            for j in range(i + 1, n_planned)
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
        health: SessionHealth,
        timings: dict[str, float],
        summaries: list[RowSignatures | None] | None = None,
        supervisor: ShardSupervisor | None = None,
    ) -> tuple[
        StoredMergedCandidates, StoredMergedCandidates, SweepPruneStats
    ]:
        """Stored per-shard joins + cross-shard pair joins, merged in SQL.

        Every shard's within-shard join and its group completion come
        from its build; each is checked against its store's manifest
        only.  The signature index prunes the shard pairs here, and every
        surviving pair's join runs as a task on the supervisor's pool
        (:func:`join_shard_pair`), which writes the pair's rows to a pair
        store under ``<root>/pairs``.  All of it is merged in SQL into
        ``<root>/merged.db`` (see
        :class:`~repro.shard.merge.MergedCandidateStore`), pair stores in
        ``(i, j)`` order, and the pair stores are removed once the merge
        commits.  The merged sets come back as lazy
        :class:`~repro.shard.merge.StoredMergedCandidates` query views.
        ``supervisor`` (default: a new one, closed on return) runs the
        pair wave.  ``health`` receives the pair ledger
        (``pair_attempts``) and every pair a ``"degrade"`` session left
        out (``missing_pairs``).
        """
        if supervisor is None:
            with self._supervisor(root) as supervisor:
                return self._sweep(
                    root, shard_ids, shards, health, timings, summaries,
                    supervisor,
                )
        joins = []
        for shard, stored in zip(shard_ids, shards):
            with Timer() as timer:
                joins.append(
                    adopt_stored(
                        stored,
                        shard,
                        k=self.sweep_k,
                        metrics=self._shard_join_metrics,
                    )
                )
            timings[f"sweep:{shard}→{shard}"] = timer.elapsed
        used_metrics = dict.fromkeys(
            metric for join in joins for metric in join.metrics
        )
        used_metrics.update(dict.fromkeys(self.sweep_metrics))

        def filled_summaries() -> list[RowSignatures]:
            # Checkpoint-loaded shards come without a worker summary.
            given = summaries or [None] * len(shards)
            return [
                summary if summary is not None else stored.signatures()
                for summary, stored in zip(given, shards)
            ]

        blocks, stats = _plan_pairs(
            shard_ids,
            [stored.manifest["engine"]["rows"] for stored in shards],
            filled_summaries,
            sweep_mode=self.sweep_mode,
            signature_threshold=self.signature_threshold,
            timings=timings,
        )
        pair_dir = root / "pairs"
        # Pair stores of an interrupted run are derived data: discard.
        shutil.rmtree(pair_dir, ignore_errors=True)
        pair_dir.mkdir(parents=True)
        tasks = {}
        for i, j, rows_i, rows_j in blocks:
            pair = (shard_ids[i], shard_ids[j])
            tasks[pair] = dict(
                sides=tuple(
                    (shard_ids[position], str(shards[position].directory),
                     shards[position].manifest, rows)
                    for position, rows in ((i, rows_i), (j, rows_j))
                ),
                k=self.sweep_k,
                metrics=self.sweep_metrics,
                database=str(pair_dir / f"pair-{pair[0]:04d}-{pair[1]:04d}.db"),
            )
        with Timer() as timer:
            outcomes = supervisor.run_pairs(join_shard_pair, tasks)
        timings["sweep:rescore"] = timer.elapsed
        health.pair_attempts = {
            pair: outcome.attempts for pair, outcome in outcomes.items()
        }
        health.missing_pairs = tuple(
            sorted(
                {
                    *health.missing_pairs,
                    *(pair for pair, outcome in outcomes.items()
                      if outcome.failure),
                }
            )
        )
        pairs = []
        for pair in sorted(outcomes):
            if outcomes[pair].failure is None:
                joined, elapsed = outcomes[pair].result
                timings[f"sweep:{pair[0]}→{pair[1]}"] = elapsed
                pairs.append(joined)
        sink = MergedCandidateStore(root / "merged.db")
        try:
            completed, join_only = sink.write(
                joins,
                pairs,
                k=self.sweep_k,
                metrics=tuple(used_metrics),
                n_shards=len(shards),
            )
        finally:
            sink.close()
        shutil.rmtree(pair_dir, ignore_errors=True)
        return completed, join_only, stats

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
        # One pool from the first build wave through the pair wave.
        with self._supervisor(root) as supervisor:
            with Timer() as timer:
                shard_ids, shards, summaries, health, supervisor_timings = (
                    self._build_shards(root, supervisor)
                )
            timings["shards"] = timer.elapsed
            timings.update(supervisor_timings)
            for shard, artifacts in zip(shard_ids, shards):
                # Checkpoint-loaded shards spent no build time this
                # session; their historical stage rows would only
                # distort budgets.
                if health.statuses.get(shard) == "checkpoint":
                    continue
                for stage, seconds in artifacts.stage_timings.items():
                    timings[f"shard:{shard}:{stage}"] = seconds

            with Timer() as timer:
                merged, merged_join, stats = self._sweep(
                    root, shard_ids, shards, health, timings, summaries,
                    supervisor,
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
