"""Record build-stage, sharding and matcher timings into a JSON baseline.

Runs the Figure-2 pipeline at smoke scale (``BuildConfig.small``) with the
blocking stage enabled, records every named build stage (including the
``cleansing:*`` sub-stages and the corpus-level ``blocking`` join), the
blocking recall of one split against its materialized pair sets, then
times the symbolic matchers' fit/predict — with featurization broken out —
on one benchmark cell.  With ``--shards N`` a sharded recording rides
along (the ``sharding`` section): an N-shard
:class:`ShardedBenchmarkSession` over the same small base config builds
its shards in worker processes, runs the signature-pruned cross-shard
sweep, and records the ``shard:*`` / ``sweep:*`` stage rows (schema 5
adds ``sweep:signatures`` / ``sweep:prune`` / ``sweep:rescore``), the
session's :class:`~repro.shard.SweepPruneStats` with per-pair pruning
ratios, the sharded-vs-single build wall-clock, and the *merged* blocking
recall that ``check_regression.py`` gates with the same floors as the
single-corpus join.

Schema 5 also reorders the phases: every process-pool section runs
*before* the parent materializes the small single build, the runner and
the matcher featurizations.  The old order forked pool workers from a
parent already holding the full artifact graph — copy-on-write storms
(every child GC touches inherited refcount pages) billed the pool for
tens of seconds of memory traffic the shards never use.  The recorded
``pool_start_method`` says which fork regime the numbers come from.

``--sweep-scaling N`` runs the default-scale sweep-scaling probe (the
``sweep_scaling`` section, gated by ``check_regression.py``): one
N-shard signature-mode session over the partitioned default scale, and
one *exhaustive* cross-shard sweep over the same shards paired into N/2
universes — same merged corpus, half the shard count, no extra builds.
The probe asserts the tentpole economics: the signature sweep at N
shards must beat the exhaustive sweep at N/2 shards on wall-clock, and
must prune at least half of the shard pairs or rescored rows.

``--chaos N`` runs the chaos smoke (the ``chaos`` section, gated by
``check_regression.py``): an N-shard (N ≥ 3) small-scale session with an
injected worker crash (shard 1, attempt 1) and an injected hang pushing
shard 2 past its wall-clock budget, run serially so the attempt ledger
is deterministic.  The session must self-heal — complete via exactly one
retry per fault, undegraded, with the merged recall floors intact and
every shard's store adopted as a verifiable checkpoint in its
``store_dir``, so the recovered session could be resumed — which CI
asserts on every push, not only when a fault happens to occur in the
wild.

``--store-rss N`` runs the out-of-core memory probe (the ``store``
section, gated by ``check_regression.py``): the same N-shard
default-scale session twice — once in-memory (workers return whole
``BuildArtifacts``), once store-backed (``store_dir=``:
workers persist into the artifact store and return path handles, the
parent opens shards lazily over mmap and streams merged candidates into
SQLite).  Each run happens in its own spawned subprocess so
``resource.getrusage`` peak-RSS readings are clean per mode, with
per-phase deltas around build / sweep / merged access.  The gate:
store-backed peak RSS strictly below in-memory at the same scale, with
identical candidate counts.

``--serve N`` runs the online-serving probe (the ``serve`` section,
schema 8, gated by ``check_regression.py``): two live shards over a
cleansed small corpus serve N mixed operations — matches, appends,
retires — from 32 concurrent clients through one async
:class:`~repro.serve.MatchService`, recording sustained QPS, per-query
p50/p99 latency and the shed rate, then asserting the serving layer's
two structural claims in the same run: *delta determinism* (every
mutated shard's clusters and scores equal a cold rebuild of its
surviving offers) and *typed backpressure* (a deliberate overload burst
against a tiny admission queue must shed with
:class:`~repro.errors.ServiceOverloadError`).

``--shard-scaling N`` additionally runs the default-scale scaling probe
and stores it under ``shard_scaling`` (informational: CI smoke runs never
record it, so it is compared by humans, not gated).  The probe records
two equal-total-offers comparisons: the *partitioned* one (N shards over
the default scale vs the default single build — on a multi-core machine
the process pool wins this outright; on one core the linear per-offer
work just moves between processes, and the recorded ``cpu_count`` says
which regime the numbers come from) and the *scale-out* one (N shards at
2× the default scale vs the equal-size single-corpus build, which
**cannot complete at all**: single-corpus corner-case selection exhausts
its pool just past the default scale, while every shard selects locally
and never does — the recorded ``single_build_error`` is the monolith's
actual failure).

    PYTHONPATH=src python benchmarks/record_timings.py --shards 2 \
        --sweep-scaling 8 --output BENCH_baseline.json
"""

from __future__ import annotations

import argparse
import gc
import json
import multiprocessing
import os
import platform
import time
from pathlib import Path

from repro.blocking import CandidateBlocker, blocking_recall
from repro.core.builder import BenchmarkBuilder, BuildConfig
from repro.core.dimensions import CornerCaseRatio, DevSetSize, UnseenRatio
from repro.core.profiling import build_profile
from repro.eval.runner import EvalSettings, ExperimentRunner
from repro.shard import (
    FaultPlan,
    FaultSpec,
    ShardCheckpointStore,
    ShardPlan,
    ShardedBenchmarkSession,
)

BLOCKING_K = 25

# Chaos smoke fault geometry: the injected hang must overshoot the shard
# timeout, and the timeout must leave honest small-scale shard builds
# (~2-3s here) a generous margin on slow CI runners.
CHAOS_TIMEOUT = 15.0
CHAOS_SLEEP = 18.0


def _timed(fn) -> tuple[float, object]:
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def _memoize_features(matcher) -> None:
    """Cache ``matcher._features`` per dataset object.

    The featurization stages are timed explicitly below; without the memo,
    ``fit`` would silently featurize the same datasets again, double-doing
    the work and folding it into the ``fit`` timing — the recorded stages
    are only additive when each dataset is featurized exactly once.
    """
    base = matcher._features
    cache: dict[int, object] = {}

    def cached(dataset):
        key = id(dataset)
        if key not in cache:
            cache[key] = base(dataset)
        return cache[key]

    matcher._features = cached


def _blocking_recall(runner: ExperimentRunner) -> dict:
    """Split-level blocking recall vs the materialized CC50/medium train set.

    Two recordings: the raw top-k join union over all engine metrics, and
    the training-shaped variant with ground-truth group positives
    completed (the acceptance gate: 100% positives, ≥95% corner
    negatives).
    """
    artifacts = runner.artifacts
    engine, offer_rows = runner.featurization_backend()
    entries = artifacts.splits[CornerCaseRatio.CC50].train_offers(DevSetSize.MEDIUM)
    reference = artifacts.benchmark.train_sets[
        (CornerCaseRatio.CC50, DevSetSize.MEDIUM)
    ]
    blocker = CandidateBlocker.over_entries(engine, entries, offer_rows)
    metrics = blocker.engine.metric_names

    def _both_shapes():
        # One raw join serves both recordings (with_group_positives
        # completes it without re-running the top-k sweep).
        join = blocker.candidates(k=BLOCKING_K, metrics=metrics)
        return (
            blocking_recall(join.with_group_positives(), reference),
            blocking_recall(join, reference),
        )

    seconds, reports = _timed(_both_shapes)
    completed, join_only = reports
    return {
        "k": BLOCKING_K,
        "seconds": seconds,
        "recall": completed.as_dict(),
        "join_recall": join_only.as_dict(),
    }


def _merged_recall(session) -> tuple[dict, dict]:
    """Merged split-scoped recall of the CC50/medium cell (both shapes)."""
    completed, join_only = session.split_candidates(
        CornerCaseRatio.CC50, DevSetSize.MEDIUM, k=BLOCKING_K
    )
    reference = session.merged_benchmark.train_sets[
        (CornerCaseRatio.CC50, DevSetSize.MEDIUM)
    ]
    return (
        blocking_recall(completed, reference).as_dict(),
        blocking_recall(join_only, reference).as_dict(),
    )


def _record_sharding(
    n_shards: int, seed: int, base: BuildConfig, scale: str
) -> dict:
    """One sharded session vs one single-corpus build of the same base.

    The plan partitions the base scale across shards (exact balanced
    shares), so the session covers the single build's total offers; the
    single build runs without a blocking stage so ``single_build_seconds``
    vs ``sharded_build_seconds`` compares pure corpus-pipeline work (the
    sweep is reported separately — it has no single-corpus counterpart).
    The session runs *first*: its workers fork from a parent that has not
    yet materialized the single build's multi-GB object graph — forking
    after it would trigger copy-on-write storms (every child GC touches
    inherited refcount pages) that bill the pool for memory the shards
    never use.
    """
    plan = ShardPlan.create(n_shards, base_config=base, seed=seed)
    session_seconds, session = _timed(
        lambda: ShardedBenchmarkSession(plan, executor="process").build()
    )
    single_seconds, single = _timed(lambda: BenchmarkBuilder(base).build())
    recall, join_recall = _merged_recall(session)
    timings = session.stage_timings
    return {
        "n_shards": n_shards,
        "scale": scale,
        "k": BLOCKING_K,
        "cpu_count": os.cpu_count(),
        "pool_start_method": multiprocessing.get_start_method(),
        "single_build_seconds": single_seconds,
        "single_total_offers": len(single.cleansed.offers),
        "sharded_build_seconds": timings["shards"],
        "sweep_seconds": timings["sweep"],
        "session_wall_seconds": session_seconds,
        "build_speedup": single_seconds / timings["shards"],
        "sharded_total_offers": session.total_offers(),
        "sweep_mode": session.sweep_mode,
        "sweep_stats": session.sweep_stats.as_dict(),
        "build_stages": dict(timings),
        "merged_candidates": session.merged_candidates.summary(),
        "recall": recall,
        "join_recall": join_recall,
    }


def _record_sweep_scaling(n_shards: int, seed: int) -> dict:
    """The sweep-scaling probe: signature at N shards vs exhaustive at N/2.

    One signature-mode session builds the partitioned default scale N
    ways and sweeps it; the *same* shard universes are then paired into
    N/2 combined universes (byte-identical corpus, half the shard count,
    zero extra builds) and swept exhaustively.  Comparing the two
    cross-shard sweep wall-clocks isolates exactly the quadratic
    component the signature index targets: per-shard self joins are
    identical per row in both modes and excluded from both numbers.
    ``check_regression.py`` asserts ``signature_sweep_seconds <
    exhaustive_paired_sweep_seconds`` and the ≥50% pruning floor —
    within one recording, so the gate is machine-independent.
    """
    if n_shards < 4 or n_shards % 2:
        raise ValueError(
            f"--sweep-scaling needs an even shard count >= 4, got {n_shards}"
        )
    from repro.shard import cross_shard_candidates, shard_universe
    from repro.shard.sweep import ShardUniverse
    from repro.similarity import SimilarityEngine

    plan = ShardPlan.create(n_shards, base_config=BuildConfig(seed=seed), seed=seed)
    session = ShardedBenchmarkSession(plan, executor="process").build()
    timings = session.stage_timings
    signature_sweep = (
        timings.get("sweep:signatures", 0.0)
        + timings["sweep:prune"]
        + timings["sweep:rescore"]
    )

    universes = [
        shard_universe(artifacts, shard)
        for shard, artifacts in enumerate(session.shards)
    ]
    paired = [
        ShardUniverse(
            shard=first.shard,
            engine=SimilarityEngine.concat(
                [first.engine, second.engine], strict_embeddings=False
            ),
            offers=first.offers + second.offers,
            labels=first.labels + second.labels,
        )
        for first, second in zip(universes[0::2], universes[1::2])
    ]
    exhaustive_sweep = 0.0
    for i in range(len(paired)):
        for j in range(i + 1, len(paired)):
            seconds, _ = _timed(
                lambda a=paired[i], b=paired[j]: cross_shard_candidates(
                    a, b, k=BLOCKING_K, metrics=session.sweep_metrics
                )
            )
            exhaustive_sweep += seconds
    return {
        "n_shards": n_shards,
        "paired_shards": n_shards // 2,
        "scale": "default",
        "k": BLOCKING_K,
        "cpu_count": os.cpu_count(),
        "pool_start_method": multiprocessing.get_start_method(),
        "sharded_build_seconds": timings["shards"],
        "signature_sweep_seconds": signature_sweep,
        "signature_session_sweep_seconds": timings["sweep"],
        "exhaustive_paired_sweep_seconds": exhaustive_sweep,
        "sweep_speedup": (
            exhaustive_sweep / signature_sweep if signature_sweep else None
        ),
        "sweep_stats": session.sweep_stats.as_dict(),
    }


def _record_chaos(n_shards: int, seed: int) -> dict:
    """The chaos smoke: a fault-injected session must self-heal.

    Injects a worker crash (shard 1, attempt 1) and a hang that drives
    shard 2 past the ``CHAOS_TIMEOUT`` wall-clock budget, then requires
    the session to complete through the supervisor's retries: exactly
    one retry per fault (serial execution keeps the ledger
    deterministic), no degradation, merged recall at the same floors the
    healthy sharding section is held to, and every shard's store in
    ``store_dir`` verifying as a checkpoint (``resumable_shards``), so a
    rerun over that directory would resume instead of rebuilding.
    ``check_regression.py`` gates all of that from the recorded section.
    """
    if n_shards < 3:
        raise ValueError(
            f"--chaos needs at least 3 shards (faults target shards 1 "
            f"and 2), got {n_shards}"
        )
    import tempfile

    # 30 products over 3 shards (the geometry the session determinism
    # tests pin): the small corpus partitioned 3 ways can sustain 10
    # selected products per shard, where the full small quota cannot.
    plan = ShardPlan.create(
        n_shards,
        base_config=BuildConfig.small(seed=seed, n_products=30),
        seed=seed,
    )
    faults = FaultPlan(
        (
            FaultSpec(shard=1, attempt=1, kind="crash"),
            FaultSpec(shard=2, attempt=1, kind="sleep", seconds=CHAOS_SLEEP),
        )
    )
    section: dict = {
        "n_shards": n_shards,
        "scale": "small",
        "k": BLOCKING_K,
        "injected_faults": len(faults.faults),
        "shard_timeout": CHAOS_TIMEOUT,
        "fault_plan": json.loads(faults.to_json()),
    }
    try:
        with tempfile.TemporaryDirectory() as scratch:
            store = Path(scratch) / "store"
            chaos = ShardedBenchmarkSession(
                plan,
                executor="serial",
                fault_plan=faults,
                shard_timeout=CHAOS_TIMEOUT,
                max_attempts=3,
                retry_backoff=0.1,
                store_dir=store,
            )
            seconds, session = _timed(chaos.build)
            recall, join_recall = _merged_recall(session)
            # The session's configs (with its within-shard join) are the
            # stores' resume keys, not the plan's.
            resumable = ShardCheckpointStore(store).completed_shards(
                chaos.shard_configs
            )
    except Exception as error:
        section["completed"] = False
        section["error"] = f"{type(error).__name__}: {error}"
        return section
    health = session.health
    timings = session.stage_timings
    section.update(
        {
            "completed": True,
            "degraded": health.degraded,
            "retries": health.retries,
            "session_wall_seconds": seconds,
            "health": health.as_dict(),
            "build_stages": {
                "shard:retries": timings["shard:retries"],
                "checkpoint:load": timings["checkpoint:load"],
                "checkpoint:save": timings["checkpoint:save"],
            },
            "recall": recall,
            "join_recall": join_recall,
            "resumable_shards": resumable,
        }
    )
    return section


def _store_rss_probe(
    mode: str, n_shards: int, seed: int, store_dir: str | None, queue
) -> None:
    """Child-process body of the out-of-core memory probe.

    Runs one session end to end (build, sweep, merged access) and
    reports this process's ``ru_maxrss`` after each phase.  ``ru_maxrss``
    is a high-water mark, so the phase deltas say how much *new* peak
    each phase added; the pool workers' RSS is theirs alone — exactly
    the accounting the store is supposed to win: in-memory mode ships
    every shard's artifact graph back into this process, store-backed
    mode ships path handles and mmaps.
    """
    import resource

    def peak_kb() -> int:
        # Prefer VmHWM from /proc/self/status: some sandbox kernels keep
        # struct-rusage maxrss as a separate counter that neither exec
        # nor clear_refs resets, so getrusage would report the *parent's*
        # watermark forever.  VmHWM honors the clear_refs reset below.
        # Fall back to ru_maxrss where /proc is absent (non-Linux; Linux
        # reports KB, macOS bytes — both modes record on one machine, so
        # the comparison holds either way).
        try:
            with open("/proc/self/status") as status:
                for line in status:
                    if line.startswith("VmHWM:"):
                        return int(line.split()[1])
        except OSError:
            pass
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    # Not every kernel resets the peak-RSS watermark across exec — some
    # sandbox kernels hand the spawned child the parent's watermark,
    # which would mask every measurement below it.  Writing "5" to
    # clear_refs resets VmHWM to the current RSS; where the file is
    # absent (non-Linux) the fresh spawn watermark is already correct.
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
    except OSError:
        pass

    plan = ShardPlan.create(
        n_shards, base_config=BuildConfig(seed=seed), seed=seed
    )
    kwargs: dict = {}
    if mode == "sqlite":
        kwargs = {"store_dir": store_dir}
    session = ShardedBenchmarkSession(plan, executor="process", **kwargs)
    phases: dict[str, int] = {}
    baseline = peak_kb()
    timings: dict[str, float] = {}
    shard_ids, shards, summaries, health, _ = session._build_shards()
    after_build = peak_kb()
    phases["build"] = after_build - baseline
    merged, merged_join, _ = session._sweep(
        shard_ids, shards, timings, summaries
    )
    after_sweep = peak_kb()
    phases["sweep"] = after_sweep - after_build
    # Merged access: counting + summarizing walks every candidate — the
    # in-memory path over Python lists, the store path over windowed
    # SQL queries.
    candidates = len(merged)
    join_candidates = len(merged_join)
    summary = merged.summary()
    after_merge = peak_kb()
    phases["merge"] = after_merge - after_sweep
    queue.put(
        {
            "mode": mode,
            "degraded": health.degraded,
            "peak_rss_kb": after_merge,
            "baseline_rss_kb": baseline,
            "phases": phases,
            "candidates": candidates,
            "join_candidates": join_candidates,
            "positives": summary["pos"],
        }
    )


def _record_store_rss(n_shards: int, seed: int) -> dict:
    """The out-of-core probe: in-memory vs store-backed peak RSS.

    Each mode runs in its own *spawned* subprocess: spawn (not fork)
    keeps the child's baseline RSS independent of whatever the parent
    has already materialized, and per-process ``ru_maxrss`` high-water
    marks never bleed between modes.  ``check_regression.py`` gates the
    comparison: store-backed peak strictly below in-memory, identical
    candidate counts.
    """
    import tempfile

    context = multiprocessing.get_context("spawn")
    section: dict = {
        "n_shards": n_shards,
        "scale": "default",
        "cpu_count": os.cpu_count(),
    }
    for mode in ("in_memory", "sqlite"):
        with tempfile.TemporaryDirectory() as scratch:
            store_dir = (
                str(Path(scratch) / "store") if mode == "sqlite" else None
            )
            queue = context.SimpleQueue()
            child = context.Process(
                target=_store_rss_probe,
                args=(mode, n_shards, seed, store_dir, queue),
            )
            child.start()
            # Join before get: the payload is a tiny dict (no pipe-full
            # deadlock), and a crashed child must raise here instead of
            # leaving the parent blocked on an empty queue forever.
            child.join()
            if child.exitcode:
                raise RuntimeError(
                    f"store-rss probe ({mode}) exited with "
                    f"{child.exitcode}"
                )
            payload = queue.get()
        section[payload.pop("mode")] = payload
    return section


def _serve_cold_parity(shards) -> dict:
    """Live-vs-cold parity of each mutated shard, pinned exactly.

    After the workload, every shard's live state (incremental clusters +
    external cosine scores over probe queries) must equal a cold rebuild
    over its surviving offers — the delta-determinism claim, asserted in
    the benchmark itself so CI re-proves it at workload scale on every
    push.
    """
    from repro.serve import LiveShard
    from repro.similarity.engine import SimilarityEngine
    from repro.text.tokenize import tokenize

    clusters_equal = True
    scores_equal = True
    for shard in shards:
        offers = shard.live_offers()
        cold = LiveShard(
            SimilarityEngine([offer.title for offer in offers]), offers
        )
        if shard.clusters_sha() != cold.clusters_sha():
            clusters_equal = False
        probe = [set(tokenize(offer.title)) for offer in offers[:8]]
        alive = [int(row) for row in shard.engine.live_rows()]
        live_scores = shard.engine.external_scores_batch(probe, "cosine")
        cold_scores = cold.engine.external_scores_batch(probe, "cosine")
        if not (live_scores[:, alive] == cold_scores).all():
            scores_equal = False
    return {"clusters_equal": clusters_equal, "scores_equal": scores_equal}


def _record_serve(n_ops: int, seed: int) -> dict:
    """The online-serving probe: sustained mixed match/append/retire load.

    Two live shards over a cleansed small corpus serve ``n_ops``
    operations from 32 concurrent clients — mostly ``match`` queries,
    with an append every 8th operation and a retire (of an earlier
    append) every 16th — through one :class:`MatchService`.  Recorded:
    sustained QPS, per-query p50/p99 latency, shed/deadline counters,
    micro-batch count, then the delta-determinism parity booleans (live
    mutated shards vs cold rebuilds) and a deliberate overload burst
    against a ``max_pending=2`` service proving typed backpressure
    sheds.  ``check_regression.py`` gates p99 and QPS against the
    baseline and requires parity + shedding outright.
    """
    import asyncio
    import random

    from repro.cleansing import CleansingPipeline
    from repro.corpus import CorpusConfig, CorpusGenerator
    from repro.errors import ServiceOverloadError
    from repro.serve import LiveShard, MatchService
    from repro.similarity.engine import SimilarityEngine

    corpus = CleansingPipeline().run(
        CorpusGenerator(CorpusConfig.small(seed=seed)).generate().corpus
    )
    offers = list(corpus.offers)
    half = len(offers) // 2
    shards = [
        LiveShard(
            SimilarityEngine([offer.title for offer in offers[:half]]),
            offers[:half],
            shard=0,
        ),
        LiveShard(
            SimilarityEngine([offer.title for offer in offers[half:]]),
            offers[half:],
            shard=1,
        ),
    ]
    rng = random.Random(seed)
    titles = [offer.title for offer in offers]
    concurrency = 32

    async def workload() -> dict:
        from repro.corpus.schema import ProductOffer

        service = MatchService(
            shards, max_batch=64, max_pending=4 * concurrency
        )
        latencies: list[float] = []
        appended: list[str] = []
        counters = {"queries": 0, "appends": 0, "retires": 0, "shed": 0}
        next_op = iter(range(n_ops))

        async def client() -> None:
            loop = asyncio.get_running_loop()
            for op in next_op:
                try:
                    if op % 16 == 15 and appended:
                        await service.retire([appended.pop(0)])
                        counters["retires"] += 1
                    elif op % 8 == 7:
                        fresh = ProductOffer(
                            offer_id=f"srv-{op}",
                            cluster_id=f"srvc-{op}",
                            title=rng.choice(titles),
                        )
                        await service.append([fresh])
                        appended.append(fresh.offer_id)
                        counters["appends"] += 1
                    else:
                        started = loop.time()
                        await service.match(
                            [rng.choice(titles)], k=10
                        )
                        latencies.append(loop.time() - started)
                        counters["queries"] += 1
                except ServiceOverloadError:
                    counters["shed"] += 1

        async with service:
            started = time.perf_counter()
            await asyncio.gather(*[client() for _ in range(concurrency)])
            wall = time.perf_counter() - started
            stats = service.stats()

        # The overload burst: a deliberately tiny admission queue must
        # shed with the typed error rather than queueing without bound.
        burst_service = MatchService(shards, max_pending=2, max_batch=1)
        async with burst_service:
            burst = await asyncio.gather(
                *[
                    burst_service.match([titles[0]], k=1)
                    for _ in range(64)
                ],
                return_exceptions=True,
            )
        burst_shed = sum(
            isinstance(result, ServiceOverloadError) for result in burst
        )

        ordered = sorted(latencies)
        def quantile(q: float) -> float:
            return ordered[min(len(ordered) - 1, int(q * len(ordered)))]

        return {
            "n_ops": n_ops,
            "n_shards": len(shards),
            "concurrency": concurrency,
            "corpus_offers": len(offers),
            "wall_seconds": wall,
            "completed_queries": counters["queries"],
            "appends": counters["appends"],
            "retires": counters["retires"],
            "shed": counters["shed"],
            "shed_rate": counters["shed"] / n_ops,
            "deadline_expired": stats.deadline_expired,
            "batches": stats.batches,
            "qps": counters["queries"] / wall if wall else 0.0,
            "p50_ms": quantile(0.50) * 1000.0,
            "p99_ms": quantile(0.99) * 1000.0,
            "overload_burst": {"attempted": 64, "shed": burst_shed},
        }

    section = asyncio.run(workload())
    section["parity"] = _serve_cold_parity(shards)
    return section


def _scaled_config(base: BuildConfig, factor: int) -> BuildConfig:
    from dataclasses import replace

    return replace(
        base,
        corpus=replace(
            base.corpus,
            families_per_category_seen=(
                base.corpus.families_per_category_seen * factor
            ),
            families_per_category_unseen=(
                base.corpus.families_per_category_unseen * factor
            ),
        ),
        n_products=base.n_products * factor,
    )


def _record_shard_scaling(n_shards: int, seed: int) -> dict:
    """The default-scale probe: partitioned parity + scale-out feasibility.

    ``partitioned`` shards the default scale N ways (equal total offers to
    the default build); ``scale_out`` doubles the scale and shows the
    structural result: the equal-size *single-corpus* build fails corner
    selection (its selectable corner-case pool grows sublinearly and is
    exhausted just past the default scale), while the N-shard session —
    each shard selecting locally at a proven per-corpus ratio — completes
    build and cross-shard sweep with the merged recall floors intact.
    """
    result: dict = {
        "n_shards": n_shards,
        "cpu_count": os.cpu_count(),
        "partitioned": _record_sharding(
            n_shards, seed, BuildConfig(seed=seed), "default"
        ),
    }
    factor = 2
    scaled = _scaled_config(BuildConfig(seed=seed), factor)
    plan = ShardPlan.create(n_shards, base_config=scaled, seed=seed)
    session_seconds, session = _timed(
        lambda: ShardedBenchmarkSession(plan, executor="process").build()
    )
    recall, join_recall = _merged_recall(session)
    scale_out: dict = {
        "scale_factor": factor,
        "sharded_build_seconds": session.stage_timings["shards"],
        "sweep_seconds": session.stage_timings["sweep"],
        "session_wall_seconds": session_seconds,
        "sharded_total_offers": session.total_offers(),
        "merged_candidates": session.merged_candidates.summary(),
        "recall": recall,
        "join_recall": join_recall,
    }
    try:
        single_seconds, single = _timed(
            lambda: BenchmarkBuilder(scaled).build()
        )
        scale_out["single_build_seconds"] = single_seconds
        scale_out["single_total_offers"] = len(single.cleansed.offers)
    except ValueError as error:
        scale_out["single_build_seconds"] = None
        scale_out["single_build_error"] = str(error)
    result["scale_out"] = scale_out
    return result


def record(
    seed: int = 42,
    shards: int = 0,
    shard_scaling: int = 0,
    sweep_scaling: int = 0,
    chaos: int = 0,
    store_rss: int = 0,
    serve: int = 0,
) -> dict:
    record: dict = {
        # 8: online serving — the serve section (sustained mixed
        #    match/append/retire workload over live shards: QPS,
        #    p50/p99, shed rate, delta-determinism parity, gated)
        # 7: out-of-core — the store section (in-memory vs sqlite-backed
        #    session peak RSS with per-phase deltas, gated)
        # 6: fault tolerance — the chaos smoke section (fault-injected
        #    session that must self-heal via supervised retries, gated),
        #    and sessions record shard:retries (+ checkpoint:load/save
        #    when checkpointing) stage rows
        # 5: pool phases run before the parent builds anything big (fork
        #    CoW bias fix), sweep:signatures/prune/rescore stage rows,
        #    sweep_stats pruning ratios, the sweep_scaling probe and
        #    pool_start_method
        # 4: --shards rides a sharded session along (shard:*/sweep:* rows,
        #    merged recall, sharded-vs-single build wall-clock)
        # 3: build runs the blocking stage; blocking recall is recorded
        # 2: featurize/fit stages are additive (no double work)
        "schema": 8,
        "scale": "small",
        "seed": seed,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "pool_start_method": multiprocessing.get_start_method(),
    }

    # Every process-pool phase runs first, while the parent is still
    # small: forking from a parent that already holds the single build's
    # artifact graph, the runner and two featurized matchers made the
    # workers inherit (and CoW-copy, refcount write by refcount write)
    # hundreds of MB they never read — the measured pool penalty was
    # nearly half the sharded build wall-clock.
    if shards > 0:
        record["sharding"] = _record_sharding(
            shards, seed, BuildConfig.small(seed=seed), "small"
        )
    if sweep_scaling > 0:
        record["sweep_scaling"] = _record_sweep_scaling(sweep_scaling, seed)
    if shard_scaling > 0:
        record["shard_scaling"] = _record_shard_scaling(shard_scaling, seed)
    if chaos > 0:
        record["chaos"] = _record_chaos(chaos, seed)
    if store_rss > 0:
        record["store"] = _record_store_rss(store_rss, seed)
    if serve > 0:
        record["serve"] = _record_serve(serve, seed)
    # Drop the pool sections' object graphs before the serial phases so
    # their allocations don't skew the single-build measurement either.
    gc.collect()

    build_seconds, artifacts = _timed(
        lambda: BenchmarkBuilder(
            BuildConfig.small(seed=seed, blocking_top_k=BLOCKING_K)
        ).build()
    )
    record["build_wall_seconds"] = build_seconds
    record["build_stages"] = {
        row.stage: row.seconds for row in build_profile(artifacts)
    }

    runner = ExperimentRunner(artifacts, settings=EvalSettings.smoke())
    record["blocking"] = _blocking_recall(runner)
    task = artifacts.benchmark.pairwise(
        CornerCaseRatio.CC50, DevSetSize.MEDIUM, UnseenRatio.SEEN
    )
    matchers: dict[str, dict[str, float]] = {}
    for system in ("word_cooc", "magellan"):
        matcher = runner.make_pairwise(system, seed=0)
        _memoize_features(matcher)
        timings: dict[str, float] = {}
        timings["featurize_train"], _ = _timed(lambda: matcher._features(task.train))
        timings["featurize_valid"], _ = _timed(lambda: matcher._features(task.valid))
        # Featurization is memoized above, so this times model fitting only.
        timings["fit"], _ = _timed(lambda: matcher.fit(task.train, task.valid))
        timings["predict_test"], _ = _timed(lambda: matcher.predict(task.test))
        timings["n_train_pairs"] = len(task.train)
        timings["n_test_pairs"] = len(task.test)
        matchers[system] = timings
    record["matchers"] = matchers
    return record


def _print_sharding(label: str, section: dict) -> None:
    print(
        f"  {label}: {section['n_shards']} shards ({section['scale']} scale) "
        f"build {section['sharded_build_seconds']:.2f}s vs single "
        f"{section['single_build_seconds']:.2f}s "
        f"({section['build_speedup']:.2f}x), sweep "
        f"{section['sweep_seconds']:.2f}s, offers "
        f"{section['sharded_total_offers']} vs "
        f"{section['single_total_offers']}"
    )
    print(
        f"    merged recall @k={section['k']}: "
        f"positives={section['recall']['positive_recall']:.4f} "
        f"corner={section['recall']['corner_negative_recall']:.4f} "
        f"(join only: {section['join_recall']['positive_recall']:.4f}/"
        f"{section['join_recall']['corner_negative_recall']:.4f})"
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--output",
        type=Path,
        default=Path("BENCH_baseline.json"),
        help="where to write the timing baseline (default: BENCH_baseline.json)",
    )
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--shards",
        type=int,
        default=0,
        help="record an N-shard small-scale session alongside the single "
        "build (schema 4 'sharding' section, gated by check_regression)",
    )
    parser.add_argument(
        "--shard-scaling",
        type=int,
        default=0,
        help="also run the default-scale scaling probe with N shards "
        "('shard_scaling' section, informational — takes minutes)",
    )
    parser.add_argument(
        "--sweep-scaling",
        type=int,
        default=0,
        help="run the sweep-scaling probe: an N-shard signature-mode "
        "session at the partitioned default scale vs an exhaustive sweep "
        "over the same shards paired N/2 ways ('sweep_scaling' section, "
        "gated by check_regression)",
    )
    parser.add_argument(
        "--chaos",
        type=int,
        default=0,
        help="run the chaos smoke: an N-shard (N >= 3) small session with "
        "an injected worker crash and an injected over-budget hang that "
        "must self-heal via supervised retries ('chaos' section, gated by "
        "check_regression)",
    )
    parser.add_argument(
        "--store-rss",
        type=int,
        default=0,
        help="run the out-of-core memory probe: the same N-shard "
        "default-scale session in-memory and store-backed, each in its "
        "own spawned subprocess, recording peak RSS with per-phase "
        "deltas ('store' section, gated by check_regression)",
    )
    parser.add_argument(
        "--serve",
        type=int,
        default=0,
        help="run the online-serving probe: N mixed match/append/retire "
        "operations from 32 concurrent clients against two live shards, "
        "recording QPS, p50/p99 latency, shed rate and the "
        "delta-determinism parity booleans ('serve' section, gated by "
        "check_regression)",
    )
    args = parser.parse_args()

    result = record(
        seed=args.seed,
        shards=args.shards,
        shard_scaling=args.shard_scaling,
        sweep_scaling=args.sweep_scaling,
        chaos=args.chaos,
        store_rss=args.store_rss,
        serve=args.serve,
    )
    args.output.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.output}")
    for stage, seconds in sorted(
        result["build_stages"].items(), key=lambda item: -item[1]
    ):
        print(f"  {stage:24s} {seconds:8.3f}s")
    blocking = result["blocking"]
    print(
        f"  blocking recall @k={blocking['k']}: "
        f"positives={blocking['recall']['positive_recall']:.4f} "
        f"corner={blocking['recall']['corner_negative_recall']:.4f} "
        f"(join only: {blocking['join_recall']['positive_recall']:.4f}/"
        f"{blocking['join_recall']['corner_negative_recall']:.4f})"
    )
    for system, timings in result["matchers"].items():
        print(
            f"  {system:24s} featurize={timings['featurize_train']:.3f}s"
            f"+{timings['featurize_valid']:.3f}s "
            f"fit={timings['fit']:.3f}s predict={timings['predict_test']:.3f}s"
        )
    if "sharding" in result:
        _print_sharding("sharding", result["sharding"])
        stats = result["sharding"]["sweep_stats"]
        print(
            f"    sweep mode {stats['mode']}"
            + (
                f" @tau={stats['threshold']}: pairs skipped "
                f"{stats['pairs_skipped']}/{stats['pairs_total']}, rows "
                f"pruned {stats['row_prune_ratio']:.1%}, cells pruned "
                f"{stats['cell_prune_ratio']:.1%}"
                if stats["mode"] == "signature"
                else ""
            )
        )
    if "sweep_scaling" in result:
        probe = result["sweep_scaling"]
        stats = probe["sweep_stats"]
        print(
            f"  sweep_scaling: signature@{probe['n_shards']} "
            f"{probe['signature_sweep_seconds']:.2f}s vs exhaustive@"
            f"{probe['paired_shards']} "
            f"{probe['exhaustive_paired_sweep_seconds']:.2f}s "
            f"({probe['sweep_speedup']:.2f}x); rows pruned "
            f"{stats['row_prune_ratio']:.1%}, cells pruned "
            f"{stats['cell_prune_ratio']:.1%}"
        )
    if "chaos" in result:
        chaos = result["chaos"]
        if chaos.get("completed"):
            print(
                f"  chaos: {chaos['n_shards']} shards, "
                f"{chaos['injected_faults']} faults injected, "
                f"{chaos['retries']} retries, degraded={chaos['degraded']}, "
                f"wall {chaos['session_wall_seconds']:.2f}s"
            )
            print(
                f"    merged recall @k={chaos['k']}: "
                f"positives={chaos['recall']['positive_recall']:.4f} "
                f"corner={chaos['recall']['corner_negative_recall']:.4f} "
                f"(join only: {chaos['join_recall']['positive_recall']:.4f}/"
                f"{chaos['join_recall']['corner_negative_recall']:.4f})"
            )
        else:
            print(f"  chaos: session FAILED — {chaos.get('error')}")
    if "store" in result:
        store = result["store"]
        memory, sqlite = store["in_memory"], store["sqlite"]
        ratio = sqlite["peak_rss_kb"] / memory["peak_rss_kb"]
        print(
            f"  store: {store['n_shards']} shards ({store['scale']} scale) "
            f"peak RSS sqlite {sqlite['peak_rss_kb'] / 1024:.0f}MB vs "
            f"in-memory {memory['peak_rss_kb'] / 1024:.0f}MB "
            f"({ratio:.2f}x), candidates {sqlite['candidates']} vs "
            f"{memory['candidates']}"
        )
        for mode, section in (("in_memory", memory), ("sqlite", sqlite)):
            phases = section["phases"]
            print(
                f"    {mode:9s} phase deltas: build "
                f"{phases['build'] / 1024:.0f}MB sweep "
                f"{phases['sweep'] / 1024:.0f}MB merge "
                f"{phases['merge'] / 1024:.0f}MB"
            )
    if "serve" in result:
        serve = result["serve"]
        parity = serve["parity"]
        print(
            f"  serve: {serve['completed_queries']} queries over "
            f"{serve['n_shards']} shards in {serve['wall_seconds']:.2f}s "
            f"({serve['qps']:.0f} QPS, p50 {serve['p50_ms']:.1f}ms, "
            f"p99 {serve['p99_ms']:.1f}ms), {serve['appends']} appends, "
            f"{serve['retires']} retires, shed rate "
            f"{serve['shed_rate']:.1%}"
        )
        print(
            f"    delta parity: clusters={parity['clusters_equal']} "
            f"scores={parity['scores_equal']}; overload burst shed "
            f"{serve['overload_burst']['shed']}/"
            f"{serve['overload_burst']['attempted']}"
        )
    if "shard_scaling" in result:
        scaling = result["shard_scaling"]
        _print_sharding("shard_scaling (partitioned)", scaling["partitioned"])
        scale_out = scaling["scale_out"]
        if scale_out.get("single_build_seconds") is None:
            single = f"single FAILED: {scale_out.get('single_build_error')}"
        else:
            single = f"single {scale_out['single_build_seconds']:.2f}s"
        print(
            f"  shard_scaling (scale-out {scale_out['scale_factor']}x): "
            f"build {scale_out['sharded_build_seconds']:.2f}s, sweep "
            f"{scale_out['sweep_seconds']:.2f}s, offers "
            f"{scale_out['sharded_total_offers']} — {single}"
        )


if __name__ == "__main__":
    main()
