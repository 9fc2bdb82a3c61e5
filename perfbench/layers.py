"""Where the benchmark hooks into each layer, and the metrics it derives.

Every hook wraps a public function (or method) of a ``repro`` module in
the namespace its caller looks it up in: the builder imports
``select_products``/``split_offers``/``generate_pairs``/``group_products``
by name, ``engine.py`` imports ``generalized_jaccard_batch`` by name and
``session.py`` imports ``cross_shard_candidates`` by name, so those are
patched in the calling module.  Span names are ``<layer>.<call>``.
"""

from __future__ import annotations

import importlib
import time
from pathlib import Path

from loadgen import quantile, tail
from spans import Span, Tracer, partition


def _size(position: int):
    return lambda args, kwargs, result: len(args[position])


def _dir_bytes(args, kwargs, result) -> int:
    return sum(
        path.stat().st_size for path in Path(args[0]).rglob("*") if path.is_file()
    )


def _blocker_queries(args, kwargs, result) -> int:
    blocker = args[0]
    rows = args[1] if len(args) > 1 else kwargs.get("query_rows")
    queries = len(blocker.engine) if rows is None else len(rows)
    return queries * len(kwargs.get("metrics", ("cosine",)))


def _external_name(args, kwargs) -> str:
    metric = args[2] if len(args) > 2 else kwargs["metric"]
    return f"engine.external_top_k.{metric}"


# (module, attribute path, span name, wrap options)
HOOKS = [
    ("repro.corpus.generator", "CorpusGenerator.generate", "corpus.generate", {}),
    ("repro.cleansing.pipeline", "CleansingPipeline.run", "cleansing.run", {}),
    ("repro.similarity.features", "jaro_winkler_similarity_batch", "features.jw",
     {"work": {"pairs": _size(0)}}),
    # Pairs the engine requests from the GJ kernel ...
    ("repro.similarity.engine", "generalized_jaccard_batch", "features.gj",
     {"work": {"pairs": _size(0)}}),
    # ... and the distinct pairs it scores after dedup and the pair cache.
    ("repro.similarity.features", "_generalized_jaccard_unique", "features.gj_scored",
     {"work": {"pairs": _size(0)}}),
    ("repro.similarity.engine", "SimilarityEngine.scores_batch", "engine.scores_batch",
     {"work": {"queries": _size(1)}}),
    ("repro.similarity.engine", "SimilarityEngine.top_k_scores_batch",
     "engine.top_k_scores_batch", {}),
    ("repro.similarity.engine", "SimilarityEngine.external_top_k_batch", _external_name,
     {"work": {"queries": _size(1)}}),
    ("repro.similarity.engine", "SimilarityEngine.append", "engine.append", {}),
    ("repro.similarity.engine", "SimilarityEngine.retire", "engine.retire", {}),
    ("repro.core.builder", "select_products", "core.select_products", {}),
    ("repro.core.builder", "split_offers", "core.split_offers", {}),
    ("repro.core.builder", "generate_pairs", "core.generate_pairs",
     {"work": {"pairs": lambda args, kwargs, result: len(result.pairs)}}),
    ("repro.core.builder", "group_products", "grouping.group_products", {}),
    ("repro.blocking.candidates", "CandidateBlocker.candidates", "blocking.candidates",
     {"work": {"pairs": lambda args, kwargs, result: len(result),
               "queries": _blocker_queries}}),
    ("repro.grouping.incremental", "IncrementalDBSCAN.__init__",
     "grouping.incremental_init", {}),
    ("repro.grouping.incremental", "IncrementalDBSCAN.append",
     "grouping.incremental_append", {}),
    ("repro.grouping.incremental", "IncrementalDBSCAN.retire",
     "grouping.incremental_retire", {}),
    ("repro.shard.session", "ShardedBenchmarkSession.build", "shard.session",
     {"container": True}),
    ("repro.shard.supervisor", "ShardSupervisor.run", "shard.supervise",
     {"container": True}),
    ("repro.shard.supervisor", "build_one_corpus", "shard.worker_build",
     {"container": True}),
    ("repro.similarity.signatures", "RowSignatures.from_engine", "shard.signatures", {}),
    ("repro.shard.signature_index", "SignatureIndex.__init__", "shard.signature_index", {}),
    ("repro.shard.signature_index", "SignatureIndex.candidate_block", "shard.prune", {}),
    ("repro.shard.session", "cross_shard_candidates", "shard.rescore", {}),
    ("repro.shard.merge", "MergedCandidateStore.write", "shard.merge_write", {}),
    ("repro.shard.merge", "StoredMergedCandidates.__len__", "shard.merge_access", {}),
    ("repro.shard.merge", "StoredMergedCandidates.summary", "shard.merge_access", {}),
    ("repro.io.store", "write_store", "store.write", {"work": {"bytes": _dir_bytes}}),
    ("repro.io.store", "verify_store", "store.verify", {}),
    ("repro.shard.checkpoint", "verify_store", "store.verify", {}),
    ("repro.io.store", "open_store", "store.open", {}),
    ("repro.serve.live", "LiveShard.top_k", "serve.score", {}),
    ("repro.serve.live", "LiveShard.append", "serve.mutate", {}),
    ("repro.serve.live", "LiveShard.retire", "serve.mutate", {}),
]

LAYERS = (
    "corpus", "cleansing", "features", "engine", "core", "blocking",
    "grouping", "shard", "store", "serve",
)


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *parents, attribute = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, attribute


def install(tracer: Tracer) -> None:
    """Wrap every hook; forked pool workers inherit the wrappers."""
    for module_name, path, name, options in HOOKS:
        owner, attribute = _resolve(module_name, path)
        tracer.patch(owner, attribute, name, **options)


def inject_delay(target: str, fraction: float) -> None:
    """Slow ``module:attribute`` down by ``fraction`` of its own CPU time.

    The delay spins instead of sleeping so the slowed call keeps holding
    the interpreter lock, as real extra work in the kernel would.  It is
    measured in the calling thread's CPU time, so time spent waiting for
    the interpreter lock or a core is not inflated along with it.
    """
    module_name, path = target.split(":")
    owner, attribute = _resolve(module_name, path)
    original = getattr(owner, attribute)

    def slowed(*args, **kwargs):
        start = time.thread_time()
        result = original(*args, **kwargs)
        until = time.thread_time() + fraction * (time.thread_time() - start)
        while time.thread_time() < until:
            pass
        return result

    setattr(owner, attribute, slowed)


# ---------------------------------------------------------------------- #
# Per-layer metrics
# ---------------------------------------------------------------------- #
_UNITS = [
    ("corpus.generate_s", "s"), ("cleansing.run_s", "s"),
    ("features.jw_s", "s"), ("features.jw_token_pairs", "count"),
    ("features.gj_s", "s"), ("features.gj_pairs", "count"),
    ("engine.gj_pairs_requested", "count"), ("engine.gj_reuse_ratio", "ratio"),
    ("engine.scores_batch_s", "s"), ("engine.top_k_scores_batch_s", "s"),
    ("engine.batch_queries", "count"),
    ("engine.external_top_k_s.cosine", "s"),
    ("engine.external_top_k_s.generalized_jaccard", "s"),
    ("engine.external_queries", "count"),
    ("engine.append_s", "s"), ("engine.retire_s", "s"),
    ("core.select_products_s", "s"), ("core.split_offers_s", "s"),
    ("core.generate_pairs_s", "s"), ("core.pairs_generated", "count"),
    ("blocking.candidates_s", "s"), ("blocking.queries", "count"),
    ("blocking.candidate_pairs", "count"),
    ("session.build_s", "s"), ("session.sweep_s", "s"), ("session.merge_s", "s"),
    ("supervisor.attempts", "count"), ("supervisor.failed_attempts", "count"),
    ("supervisor.worker_build_s", "s"), ("supervisor.pool_idle_share", "ratio"),
    ("supervisor.worker_peak_rss_mb", "MB"),
    ("sweep.self_join_s", "s"), ("sweep.signatures_s", "s"), ("sweep.prune_s", "s"),
    ("sweep.rescore_s", "s"), ("sweep.rows_rescored", "count"),
    ("sweep.cell_prune_ratio", "ratio"),
    ("merge.write_s", "s"), ("merge.rows_written", "count"), ("merge.access_s", "s"),
    ("store.write_s", "s"), ("store.bytes_written", "bytes"),
    ("store.verify_s", "s"), ("store.open_s", "s"),
    ("grouping.group_products_s", "s"), ("grouping.incremental_init_s", "s"),
    ("grouping.incremental_append_s", "s"), ("grouping.incremental_retire_s", "s"),
    ("service.batches", "count"), ("service.batch_size_mean", "count"),
    ("service.score_s", "s"), ("service.score_share", "ratio"),
    ("service.mutate_s", "s"),
    ("loadgen.sent", "count"), ("loadgen.lag_p99_ms", "ms"),
    ("loadgen.mutation_p99_ms", "ms"),
    *[(f"self.{layer}_s", "s") for layer in LAYERS],
    ("self.unattributed_s", "s"), ("trace.wall_s", "s"),
    ("trace.coverage", "ratio"), ("trace.overhead_ratio", "ratio"),
]
HIGHER_IS_BETTER = {
    "engine.gj_reuse_ratio", "sweep.cell_prune_ratio", "service.batch_size_mean",
    "service.score_share", "loadgen.sent", "trace.coverage",
}
# (name, unit, better), in report order
PER_LAYER = [
    (name, unit, "higher" if name in HIGHER_IS_BETTER else "lower")
    for name, unit in _UNITS
]


def layer_metrics(
    tracer: Tracer, windows: list[tuple[int, int]], extra: dict
) -> dict:
    """Every per-layer metric of one traced trial.

    Inclusive sums run over every process and thread, so they are busy
    time and may exceed the wall.  ``self.*`` partitions the trial's own
    process over its timed ``windows``: those values plus
    ``self.unattributed_s`` add up to ``trace.wall_s``.  ``extra`` is the
    workload's own account (attempt ledger, sweep statistics, service
    counters, load generator figures).
    """
    spans = tracer.spans
    own = [span for span in spans if span.pid == tracer.root_pid]

    def total(name: str, among: list[Span] = spans) -> float:
        return sum(span.seconds for span in among if span.name == name)

    def work(name: str, counter: str) -> int:
        return sum(span.work.get(counter, 0) for span in spans if span.name == name)

    values = dict.fromkeys((name for name, _, _ in PER_LAYER), 0.0)
    requested = work("features.gj", "pairs")
    scored = work("features.gj_scored", "pairs")
    values.update({
        "corpus.generate_s": total("corpus.generate"),
        "cleansing.run_s": total("cleansing.run"),
        "features.jw_s": total("features.jw"),
        "features.jw_token_pairs": work("features.jw", "pairs"),
        "features.gj_s": total("features.gj"),
        "features.gj_pairs": scored,
        "engine.gj_pairs_requested": requested,
        "engine.gj_reuse_ratio": 1.0 - scored / requested if requested else 0.0,
        "engine.scores_batch_s": total("engine.scores_batch"),
        "engine.top_k_scores_batch_s": total("engine.top_k_scores_batch"),
        "engine.batch_queries": work("engine.scores_batch", "queries"),
        "engine.external_top_k_s.cosine": total("engine.external_top_k.cosine"),
        "engine.external_top_k_s.generalized_jaccard": total(
            "engine.external_top_k.generalized_jaccard"
        ),
        "engine.external_queries": work("engine.external_top_k.cosine", "queries")
        + work("engine.external_top_k.generalized_jaccard", "queries"),
        "engine.append_s": total("engine.append"),
        "engine.retire_s": total("engine.retire"),
        "core.select_products_s": total("core.select_products"),
        "core.split_offers_s": total("core.split_offers"),
        "core.generate_pairs_s": total("core.generate_pairs"),
        "core.pairs_generated": work("core.generate_pairs", "pairs"),
        "blocking.candidates_s": total("blocking.candidates"),
        "blocking.queries": work("blocking.candidates", "queries"),
        "blocking.candidate_pairs": work("blocking.candidates", "pairs"),
        "store.write_s": total("store.write"),
        "store.bytes_written": work("store.write", "bytes"),
        "store.verify_s": total("store.verify"),
        "store.open_s": total("store.open"),
        "grouping.group_products_s": total("grouping.group_products"),
        "grouping.incremental_init_s": total("grouping.incremental_init"),
        "grouping.incremental_append_s": total("grouping.incremental_append"),
        "grouping.incremental_retire_s": total("grouping.incremental_retire"),
        "service.score_s": total("serve.score"),
        "service.mutate_s": total("serve.mutate"),
    })

    sessions = [span for span in own if span.name == "shard.session"]
    if sessions:
        # build + sweep + merge add up to the session wall:
        # ShardedBenchmarkSession.build plus the merged access after it.
        session_ids = {span.id for span in sessions}
        build = total("shard.supervise", own)
        write = total("shard.merge_write", own)
        access = total("shard.merge_access", own)
        wall = sum(span.seconds for span in sessions) + access
        worker_busy = sum(
            span.seconds for span in spans if span.pid != tracer.root_pid
            and span.parent is None
        )
        sweeps = extra["sweeps"]
        values.update({
            "session.build_s": build,
            "session.sweep_s": wall - build - write - access,
            "session.merge_s": write + access,
            "supervisor.attempts": extra["attempts"],
            "supervisor.failed_attempts": extra["failed_attempts"],
            "supervisor.worker_build_s": total("shard.worker_build"),
            "supervisor.pool_idle_share": (
                1.0 - worker_busy / (extra["pool_workers"] * build)
            ),
            "supervisor.worker_peak_rss_mb": max(tracer.worker_peaks.values()),
            "sweep.self_join_s": sum(
                span.seconds for span in own
                if span.name == "blocking.candidates" and span.parent in session_ids
            ),
            "sweep.signatures_s": total("shard.signatures", own)
            + total("shard.signature_index", own),
            "sweep.prune_s": total("shard.prune", own),
            "sweep.rescore_s": total("shard.rescore", own),
            "sweep.rows_rescored": sum(sweep["rows_rescored"] for sweep in sweeps),
            "sweep.cell_prune_ratio": sweeps[-1]["cell_prune_ratio"],
            "merge.write_s": write,
            "merge.rows_written": sum(sweep["rows_written"] for sweep in sweeps),
            "merge.access_s": access,
        })

    if "batches" in extra:
        values.update({
            "service.batches": extra["batches"],
            "service.batch_size_mean": extra["batch_size_mean"],
            "service.score_share": values["service.score_s"] / extra["load_wall_s"],
            "loadgen.sent": len(extra["lag_ms"]),
            "loadgen.lag_p99_ms": quantile(extra["lag_ms"], 0.99),
            "loadgen.mutation_p99_ms": (
                tail(extra["mutation_ms"]) if extra["mutation_ms"] else 0.0
            ),
        })

    selfs: dict[str, float] = {}
    unattributed = 0.0
    for window in windows:
        window_selfs, window_rest = partition(own, window)
        for layer, seconds in window_selfs.items():
            selfs[layer] = selfs.get(layer, 0.0) + seconds
        unattributed += window_rest
    wall = sum(end - start for start, end in windows) / 1e9
    for layer in LAYERS:
        values[f"self.{layer}_s"] = selfs.get(layer, 0.0)
    values["self.unattributed_s"] = unattributed
    values["trace.wall_s"] = wall
    values["trace.coverage"] = 1.0 - unattributed / wall
    return values
