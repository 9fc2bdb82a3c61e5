"""The four workloads: set-up, the measured operations, the output checks.

Each workload runs inside one trial process (see ``trial.py``).  It calls
``probe.ready()`` right before its first timed operation, so the parent
times set-up from process start, brackets each timed operation (or the
whole served load) in ``probe.timed()``, and calls ``probe.measured()``
after the last one, before output checks that must not count towards
peak memory.  It returns the trial's samples:

* ``op_ms``      latency of every measured operation, in ms: a build, a
  session with its merged access, a serve-steady match, a serve-burst burst
* ``attempted`` / ``failed``  operations tried and failed (a failed output
  check counts as a failed operation)
* ``correct``    every output check passed
* ``extra``      workload figures for the report and the traced run
"""

from __future__ import annotations

import asyncio
import gc
import hashlib
import inspect
import json
import random
import shutil
import statistics
import time
from pathlib import Path

from loadgen import open_loop

PINS = json.loads((Path(__file__).parent / "pins.json").read_text())

SERVE_CORPUS_SEED = 42  # the cleansed small corpus: 3,321 offers
STEADY_RATE = 300.0  # ops/s offered to serve-steady, ~25% of capacity
BURST_RATE = 3000.0  # q/s offered within a serve-burst burst, far above capacity
BURST_SIZE = 512  # queries per burst
BURST_PERIOD = 1.0  # seconds from one burst to the next
SAMPLED_ANSWERS = 64  # serve-burst answers re-derived without the service
SESSION_WORKERS = 2  # worker processes of the session, one per core here


def pool_seed(workload: str, seed: int) -> int:
    """The input seed that ``--seed`` selects for ``workload``.

    Many seeds make the small build or the 4-shard plan fail or retry, so
    these workloads draw from pools of seeds that build cleanly and whose
    outputs are pinned in ``pins.json``.
    """
    pool = [int(key) for key in PINS[workload]]
    return seed if seed in pool else pool[seed % len(pool)]


def pairs_fingerprint(benchmark) -> str:
    """sha256 over every train/valid/test pair set (the tier-1 pin recipe)."""
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


def candidates_fingerprint(merged) -> str:
    """sha256 over merged session candidates (the tier-1 pin recipe).

    Iterates the stored query view window by window instead of
    materializing every candidate.
    """
    digest = hashlib.sha256()
    for pair in merged:
        digest.update(
            f"{pair.offer_a.offer_id}|{pair.offer_b.offer_id}|{pair.label}|"
            f"{pair.metric}|{pair.provenance}|{pair.score:.9f}\n".encode()
        )
    return digest.hexdigest()


def _repeat(budget_s: float, once) -> list[float]:
    """Call ``once`` (at least once) while the next call fits in the budget.

    Collecting after each call keeps one operation's garbage cycles out
    of the next one's peak memory.
    """
    walls: list[float] = []
    started = time.perf_counter()
    while not walls or (
        time.perf_counter() - started + statistics.mean(walls) <= budget_s
    ):
        walls.append(once())
        gc.collect()
    return walls


def session_plan(plan_seed: int):
    from repro.core.builder import BuildConfig
    from repro.shard import ShardPlan

    return ShardPlan.create(
        4, base_config=BuildConfig.small(seed=plan_seed, n_products=40), seed=plan_seed
    )


# ---------------------------------------------------------------------- #
def build_small(seed: int, budget_s: float, workdir: Path, probe) -> dict:
    from repro.core.builder import BenchmarkBuilder, BuildConfig

    build_seed = pool_seed("build-small", seed)
    pin = PINS["build-small"][str(build_seed)]
    failed = 0

    def once() -> float:
        nonlocal failed
        config = BuildConfig.small(seed=build_seed, blocking_top_k=25)
        with probe.timed():
            artifacts = BenchmarkBuilder(config).build()
        if (
            len(artifacts.blocked_candidates) != pin["blocked_candidates"]
            or pairs_fingerprint(artifacts.benchmark) != pin["pairs_sha256"]
        ):
            failed += 1
        return probe.seconds()

    probe.ready()
    walls = _repeat(budget_s, once)
    probe.measured()
    return {
        "op_ms": [wall * 1000.0 for wall in walls],
        "attempted": len(walls),
        "failed": failed,
        "correct": failed == 0,
        "extra": {"input_seed": build_seed},
    }


# ---------------------------------------------------------------------- #
def session_store(seed: int, budget_s: float, workdir: Path, probe) -> dict:
    from repro.shard import ShardedBenchmarkSession

    plan_seed = pool_seed("session-store", seed)
    pin = PINS["session-store"][str(plan_seed)]
    totals = {"attempts": 0, "failed_attempts": 0, "bad": 0}
    facts: list[dict] = []

    def once() -> float:
        store = workdir / f"store-{len(facts)}"
        session = ShardedBenchmarkSession(
            session_plan(plan_seed),
            executor="process",
            max_workers=SESSION_WORKERS,
            store_dir=store,
            store_backend="sqlite",
        )
        with probe.timed():
            artifacts = session.build()
            merged = artifacts.merged_candidates
            count = len(merged)
            merged.summary()

        records = [
            record for ledger in artifacts.health.attempts.values() for record in ledger
        ]
        totals["attempts"] += len(records)
        totals["failed_attempts"] += sum(not record.ok for record in records)
        if (
            count != pin["merged_candidates"]
            or candidates_fingerprint(merged) != pin["merged_sha256"]
        ):
            totals["bad"] += 1
        stats = artifacts.sweep_stats
        join = artifacts.merged_join_candidates
        facts.append({
            "rows_rescored": stats.rows_rescored,
            "cell_prune_ratio": 1.0 - stats.cells_rescored / stats.cells_universe,
            # Unwrapped, so a traced run does not count it as merged access.
            "rows_written": count + inspect.unwrap(type(join).__len__)(join),
        })
        for stored in (*artifacts.shards, merged, join):
            stored.close()
        shutil.rmtree(store)
        return probe.seconds()

    probe.ready()
    walls = _repeat(budget_s, once)
    probe.measured()
    return {
        "op_ms": [wall * 1000.0 for wall in walls],
        "attempted": totals["attempts"],
        "failed": totals["failed_attempts"] + totals["bad"],
        "correct": totals["bad"] == 0,
        "extra": {
            "input_seed": plan_seed,
            "pool_workers": SESSION_WORKERS,
            "attempts": totals["attempts"],
            "failed_attempts": totals["failed_attempts"],
            "sweeps": facts,
        },
    }


# ---------------------------------------------------------------------- #
def live_shards():
    """Two live shards over the cleansed small corpus, split in half."""
    from repro.cleansing import CleansingPipeline
    from repro.corpus import CorpusConfig, CorpusGenerator
    from repro.serve import LiveShard
    from repro.similarity.engine import SimilarityEngine

    corpus = CleansingPipeline().run(
        CorpusGenerator(CorpusConfig.small(seed=SERVE_CORPUS_SEED)).generate().corpus
    )
    offers = list(corpus.offers)
    half = len(offers) // 2
    shards = [
        LiveShard(SimilarityEngine([offer.title for offer in part]), part, shard=index)
        for index, part in enumerate((offers[:half], offers[half:]))
    ]
    return shards, [offer.title for offer in offers]


def cold_parity(shards) -> bool:
    """Each live shard's clusters and cosine scores equal a cold rebuild."""
    from repro.serve import LiveShard
    from repro.similarity.engine import SimilarityEngine
    from repro.text.tokenize import tokenize

    for shard in shards:
        offers = shard.live_offers()
        cold = LiveShard(SimilarityEngine([offer.title for offer in offers]), offers)
        if shard.clusters_sha() != cold.clusters_sha():
            return False
        probe = [set(tokenize(offer.title)) for offer in offers[:8]]
        alive = [int(row) for row in shard.engine.live_rows()]
        live_scores = shard.engine.external_scores_batch(probe, "cosine")
        cold_scores = cold.engine.external_scores_batch(probe, "cosine")
        if not (live_scores[:, alive] == cold_scores).all():
            return False
    return True


def direct_answer(shards, title: str, metric: str, k: int) -> list[tuple]:
    """One query answered without the service: each shard's top-k, merged
    on ``(-score, shard, row)``."""
    from repro.text.tokenize import tokenize

    merged = []
    for position, shard in enumerate(shards):
        [(rows, scores)] = shard.engine.external_top_k_batch(
            [set(tokenize(title))], metric, k=k
        )
        merged.extend(
            (-float(score), position, int(row)) for row, score in zip(rows, scores)
        )
    merged.sort()
    return [
        (shards[pos].offer_at(row).offer_id, shards[pos].shard, row, -negated)
        for negated, pos, row in merged[:k]
    ]


def _serve(seed: int, budget_s: float, probe, *, steady: bool) -> dict:
    from repro.corpus.schema import ProductOffer
    from repro.serve import MatchService

    shards, titles = live_shards()
    rng = random.Random(seed)
    budget_s = budget_s or 0.0  # a set-up-only trial stops at ready()
    if steady:
        n_ops = int(budget_s * STEADY_RATE)
        schedule = [op / STEADY_RATE for op in range(n_ops)]
        kinds = [
            {7: "append", 15: "retire"}.get(op % 16, "match") for op in range(n_ops)
        ]
        metrics = ["cosine"] * n_ops
        burst_of = [0] * n_ops
    else:
        n_ops = max(1, int(budget_s / BURST_PERIOD)) * BURST_SIZE
        schedule = [
            (op // BURST_SIZE) * BURST_PERIOD + (op % BURST_SIZE) / BURST_RATE
            for op in range(n_ops)
        ]
        kinds = ["match"] * n_ops
        # Every burst holds the same number of GJ queries.
        metrics = [
            "generalized_jaccard" if op % 8 == 7 else "cosine" for op in range(n_ops)
        ]
        burst_of = [op // BURST_SIZE for op in range(n_ops)]
    queries = [rng.choice(titles) for _ in range(n_ops)]
    # serve-steady mutates as it serves, so its check is cold parity.
    sampled = set() if steady else set(rng.sample(range(n_ops), SAMPLED_ANSWERS))

    latencies: dict[str, list[float]] = {"match": [], "mutation": []}
    answers: dict[int, list[tuple]] = {}
    appended: list[str] = []
    failures = 0

    async def workload():
        nonlocal failures
        # Admission never sheds: every request is queued and served.
        service = MatchService(shards, max_batch=64, max_pending=n_ops + 1)
        await service.start()
        loop = asyncio.get_running_loop()

        async def fire(op: int, due: float) -> float | None:
            nonlocal failures
            try:
                if kinds[op] == "append":
                    offer_id = f"bench-{seed}-{op}"
                    appended.append(offer_id)
                    offer = ProductOffer(
                        offer_id=offer_id, cluster_id=f"c-{offer_id}", title=queries[op]
                    )
                    await service.append([offer])
                elif kinds[op] == "retire":
                    await service.retire([appended.pop(0)])
                else:
                    [result] = await service.match(
                        [queries[op]], k=10, metric=metrics[op]
                    )
                    if op in sampled:
                        answers[op] = [(m.offer_id, m.shard, m.row, m.score) for m in result]
            except Exception:  # shed, expired and errored requests all fail
                failures += 1
                return None
            done = loop.time()
            bucket = "match" if kinds[op] == "match" else "mutation"
            latencies[bucket].append((done - due) * 1000.0)
            return done

        probe.ready()
        with probe.timed():
            sent = await open_loop(schedule, fire)
        probe.measured()
        await service.stop()
        return sent, service.stats()

    sent, stats = asyncio.run(workload())

    # Each burst from its first send to its last completion (serve-steady
    # is one long burst); busy time merges overlapping bursts.
    bursts: dict[int, tuple[float, float]] = {}
    for op, done in enumerate(sent["done"]):
        if done is not None:
            first = sent["start"] + schedule[op]
            begin, end = bursts.get(burst_of[op], (first, done))
            bursts[burst_of[op]] = (min(begin, first), max(end, done))
    busy, reach = 0.0, float("-inf")
    for begin, end in sorted(bursts.values()):
        busy += max(0.0, end - max(begin, reach))
        reach = max(reach, end)
    burst_ms = [(end - begin) * 1000.0 for begin, end in bursts.values()]

    if steady:
        correct = cold_parity(shards)
    else:
        correct = all(
            answers[op] == direct_answer(shards, queries[op], metrics[op], 10)
            for op in answers
        )
    items = stats.completed + stats.appends + stats.retires
    return {
        # serve-steady's operation is a request, serve-burst's a burst.
        "op_ms": latencies["match"] if steady else burst_ms,
        # Requests served per busy second is serve-burst's capacity.
        "busy_s": busy,
        "completed": len(latencies["match"]) + len(latencies["mutation"]),
        "attempted": n_ops,
        "failed": failures + (0 if correct else 1),
        "correct": correct,
        "extra": {
            "input_seed": seed,
            "match_ms": latencies["match"],
            "mutation_ms": latencies["mutation"],
            "lag_ms": sent["lag_ms"],
            "load_wall_s": sent["wall_s"],
            "batches": stats.batches,
            "batch_size_mean": items / stats.batches if stats.batches else 0.0,
            "answers_checked": len(answers),
        },
    }


def serve_steady(seed: int, budget_s: float, workdir: Path, probe) -> dict:
    return _serve(seed, budget_s, probe, steady=True)


def serve_burst(seed: int, budget_s: float, workdir: Path, probe) -> dict:
    return _serve(seed, budget_s, probe, steady=False)


WORKLOADS = {
    "build-small": build_small,
    "session-store": session_store,
    "serve-steady": serve_steady,
    "serve-burst": serve_burst,
}
