"""Fail CI when a recorded build stage regresses past the committed baseline.

``record_timings.py`` writes the per-stage build timings of a smoke-scale
run; this script compares such a fresh recording against the baseline
committed in-tree (``BENCH_baseline.json``) and exits non-zero when any
build stage exceeds ``tolerance`` times its baseline.  The tolerance is
deliberately generous (default 2.5x) because CI runners are noisy and
slower than the machines baselines are recorded on — the gate is meant to
catch order-of-magnitude regressions (an accidentally de-vectorized hot
loop), not single-digit-percent drift.  Stages below ``--floor`` seconds
in the baseline are held to the floor instead of their own tiny timing,
so sub-millisecond stages cannot trip the gate on scheduler jitter.

Schema-4 baselines with a ``sharding`` section additionally gate the
sharded session: its ``shard:*`` / ``sweep:*`` stage rows get the same
per-stage budgets (schema 5 adds the signature sweep's
``sweep:signatures`` / ``sweep:prune`` / ``sweep:rescore`` rows, so a
de-vectorized index build or a silently disabled prune trips the gate
like any other stage), and the *merged* blocking recall (per-shard split
joins + cross-shard sweeps against the merged benchmark) is held to the
same floors as the single-corpus join.

Schema-6 baselines with a ``chaos`` section gate the fault-injected
chaos smoke *within the current recording*: the session with an injected
worker crash and an injected over-budget hang must have completed
through supervised retries (at least one retry per injected fault),
undegraded, with the merged recall floors intact.

Schema-7 baselines with a ``store`` section gate the out-of-core
session against the baseline's store-backed run (no tolerance): the
session's parent peak RSS must not exceed the baseline's
``store.sqlite.peak_rss_kb``, and its candidate counts must equal the
baseline's — lazy worker opens and SQL-windowed merges must keep the
parent's memory bounded without dropping candidates.

Schema-8 baselines with a ``serve`` section gate the online serving
layer: delta-determinism parity (the mutated live shards must equal a
cold rebuild — an exactness claim checked *within* the current
recording) and bounded admission (the overload burst must shed with the
typed error) are strict; the sustained p99 latency and QPS compare
against the baseline under the same generous ``tolerance`` as the stage
budgets, with sub-floor baseline p99s held to a 50ms floor so scheduler
noise on loaded runners cannot trip the gate.

Baselines with a ``sweep_scaling`` section gate the sweep-scaling
economics *within the current recording* (machine-independent, so no
tolerance is involved): the N-shard signature sweep must beat the
exhaustive sweep of the same corpus paired into N/2 shards on
wall-clock, and must prune at least ``--min-prune-ratio`` of the shard
pairs or of the rescored rows.  The default-scale ``shard_scaling``
section is informational only (CI smoke runs never record it) and is
ignored here.

    PYTHONPATH=src python benchmarks/record_timings.py --shards 2 \
        --output BENCH_current.json
    python benchmarks/check_regression.py \
        --baseline BENCH_baseline.json --current BENCH_current.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

# Oldest recording schema this gate understands.  Schema 8 added the
# serve section (online match-serving QPS/p99 with delta-determinism
# parity); older recordings are missing the fields the gates below
# read, so they fail up front with a regenerate message instead of a
# KeyError mid-compare.
MIN_SCHEMA = 8

# Baselines below this p99 are held to the floor instead: sub-floor
# latencies are scheduler noise, and gating 2.5x of a 3ms baseline
# would fail healthy runs on any loaded CI machine.
SERVE_P99_FLOOR_MS = 50.0


def _load_recording(path: Path, role: str) -> dict | str:
    """The parsed recording, or a one-line refusal naming what is wrong.

    Every refusal is actionable on its own: which file (baseline vs
    current), what is broken (missing, truncated, pre-schema, stale
    schema) and what to run to fix it.
    """
    regenerate = (
        "regenerate it with: PYTHONPATH=src python "
        "benchmarks/record_timings.py --shards 2 --sweep-scaling 8 "
        f"--chaos 3 --store-rss 8 --serve 400 --output {path}"
    )
    if not path.exists():
        return f"{role} recording {path} does not exist — {regenerate}"
    try:
        payload = json.loads(path.read_text())
    except OSError as error:
        return f"{role} recording {path} is unreadable ({error}) — {regenerate}"
    except json.JSONDecodeError as error:
        return (
            f"{role} recording {path} is not valid JSON (truncated "
            f"write? {error.msg} at line {error.lineno}) — {regenerate}"
        )
    if not isinstance(payload, dict):
        return (
            f"{role} recording {path} is a JSON "
            f"{type(payload).__name__}, not an object — {regenerate}"
        )
    schema = payload.get("schema")
    if not isinstance(schema, int):
        return (
            f"{role} recording {path} carries no schema marker (predates "
            f"schema versioning) — {regenerate}"
        )
    if schema < MIN_SCHEMA:
        return (
            f"{role} recording {path} uses schema {schema}, older than "
            f"the oldest supported schema {MIN_SCHEMA} — {regenerate}"
        )
    return payload


def _stage_failures(
    baseline_stages: dict,
    current_stages: dict,
    *,
    tolerance: float,
    floor: float,
    label: str = "",
) -> list[str]:
    failures: list[str] = []
    prefix = f"{label}:" if label else ""
    for stage, base_seconds in sorted(baseline_stages.items()):
        seconds = current_stages.get(stage)
        if seconds is None:
            failures.append(
                f"{prefix}{stage}: missing from the current recording"
            )
            continue
        budget = tolerance * max(base_seconds, floor)
        if seconds > budget:
            failures.append(
                f"{prefix}{stage}: {seconds:.3f}s exceeds {budget:.3f}s "
                f"({tolerance}x baseline {base_seconds:.3f}s)"
            )
    return failures


def _recall_failures(
    section: dict,
    *,
    label: str,
    min_positive_recall: float,
    min_corner_recall: float,
    min_join_positive_recall: float,
) -> list[str]:
    """Floor checks for one {recall, join_recall} recording.

    Two recordings are gated: the training-shaped ``recall`` (group
    positives completed — its positive recall is 1.0 by construction, so
    its gate only catches a broken completion) and the raw ``join_recall``
    (no completion), which is where a degraded top-k join would actually
    show up.  Recall is deterministic for a fixed seed, so these floors
    are tight, not noise-padded.
    """
    recall = section.get("recall")
    join = section.get("join_recall")
    if recall is None or join is None:
        return [f"{label}: recall missing from the current recording"]
    failures: list[str] = []
    positives = recall.get("positive_recall", 0.0)
    if positives < min_positive_recall:
        failures.append(
            f"{label}: completed positive recall {positives:.4f} "
            f"below {min_positive_recall} (group completion broken)"
        )
    join_positives = join.get("positive_recall", 0.0)
    if join_positives < min_join_positive_recall:
        failures.append(
            f"{label}: join positive recall {join_positives:.4f} "
            f"below {min_join_positive_recall}"
        )
    corners = join.get("corner_negative_recall", 0.0)
    if corners < min_corner_recall:
        failures.append(
            f"{label}: join corner-negative recall {corners:.4f} "
            f"below {min_corner_recall}"
        )
    return failures


def _sweep_scaling_failures(
    section: dict | None, *, min_prune_ratio: float
) -> list[str]:
    """The sweep-scaling assertions, evaluated on the current recording.

    Both are intra-recording comparisons (signature vs exhaustive on the
    same machine in the same run), so they are strict — a slower CI
    runner slows both sides alike and cannot flip them.
    """
    if section is None:
        return [
            "sweep_scaling: missing from the current recording "
            "(run record_timings.py --sweep-scaling N)"
        ]
    failures: list[str] = []
    signature = section.get("signature_sweep_seconds")
    exhaustive = section.get("exhaustive_paired_sweep_seconds")
    if signature is None or exhaustive is None:
        return ["sweep_scaling: sweep seconds missing from the recording"]
    if signature >= exhaustive:
        failures.append(
            f"sweep_scaling: signature sweep at {section.get('n_shards')} "
            f"shards took {signature:.2f}s, not below the exhaustive "
            f"{section.get('paired_shards')}-shard sweep's "
            f"{exhaustive:.2f}s — the signature index no longer pays for "
            "itself"
        )
    stats = section.get("sweep_stats", {})
    pruned = max(
        stats.get("pair_prune_ratio", 0.0), stats.get("row_prune_ratio", 0.0)
    )
    if pruned < min_prune_ratio:
        failures.append(
            f"sweep_scaling: pruned {pruned:.1%} of shard pairs / rescored "
            f"rows, below the {min_prune_ratio:.0%} floor"
        )
    return failures


def _chaos_failures(section: dict | None, *, recall_floors: dict) -> list[str]:
    """The chaos-smoke assertions, evaluated on the current recording.

    All intra-recording (no baseline timing involved): the fault-injected
    session must have completed, recovered every injected fault through a
    retry (so ``retries >= injected_faults``) without degrading, left
    every one of its ``n_shards`` stores verifiable as a checkpoint (so
    the recovered session can be resumed), and its merged recall must
    clear the same floors as the healthy session.
    """
    if section is None:
        return [
            "chaos: missing from the current recording "
            "(run record_timings.py --chaos N)"
        ]
    if not section.get("completed"):
        return [
            "chaos: the fault-injected session did not complete — "
            f"{section.get('error', 'no error recorded')}"
        ]
    failures: list[str] = []
    expected = section.get("injected_faults", 1)
    retries = section.get("retries", 0)
    if retries < expected:
        failures.append(
            f"chaos: {retries} retries recorded for {expected} injected "
            "faults — the supervisor did not retry every fault"
        )
    if section.get("degraded"):
        failures.append(
            "chaos: session completed degraded — a fault exhausted its "
            "retry budget instead of recovering"
        )
    n_shards = section.get("n_shards")
    resumable = section.get("resumable_shards")
    if not n_shards or resumable != list(range(n_shards)):
        failures.append(
            f"chaos: shards {resumable} of {n_shards} verify as "
            "checkpoints — the recovered session cannot be resumed"
        )
    failures.extend(_recall_failures(section, label="chaos", **recall_floors))
    return failures


def _store_failures(section: dict | None, baseline_section: dict) -> list[str]:
    """The out-of-core assertions, against the baseline's store-backed run.

    The bound is the store-backed peak recorded in the baseline (at a
    revision that also had the in-memory session path, whose peak it
    was gated strictly below), with no tolerance; and the candidate
    counts must equal the baseline's exactly — a memory win bought by
    dropping candidates is a correctness bug, not an optimization.
    """
    if section is None:
        return [
            "store: missing from the current recording "
            "(run record_timings.py --store-rss N)"
        ]
    sqlite = section.get("sqlite")
    baseline = baseline_section.get("sqlite")
    if sqlite is None or baseline is None:
        return ["store: the store-backed probe is missing from the recording"]
    failures: list[str] = []
    if sqlite.get("degraded"):
        failures.append("store: the probe session completed degraded")
    peak = sqlite.get("peak_rss_kb", 0)
    bound = baseline.get("peak_rss_kb", 0)
    if peak > bound:
        failures.append(
            f"store: store-backed peak RSS {peak} KB is above the "
            f"baseline's {bound} KB at {section.get('n_shards')} shards "
            f"({section.get('scale')} scale) — the out-of-core session "
            "no longer bounds parent memory"
        )
    for count in ("candidates", "join_candidates", "positives"):
        if sqlite.get(count) != baseline.get(count):
            failures.append(
                f"store: {count} differ from the baseline "
                f"(baseline={baseline.get(count)}, "
                f"current={sqlite.get(count)}) — the merged candidate set "
                "changed"
            )
    return failures


def _serve_failures(
    section: dict | None,
    baseline_section: dict,
    *,
    tolerance: float,
) -> list[str]:
    """The online-serving gates: parity outright, QPS/p99 vs baseline.

    The structural claims are intra-recording and strict — the mutated
    shards must equal their cold rebuilds (delta determinism) and the
    overload burst must shed with the typed error (bounded admission
    works).  The performance claims compare against the baseline with
    the same generous ``tolerance`` as the stage budgets: p99 no worse
    than ``tolerance``× the (floored) baseline p99, sustained QPS no
    lower than baseline/``tolerance``.
    """
    if section is None:
        return [
            "serve: missing from the current recording "
            "(run record_timings.py --serve N)"
        ]
    failures: list[str] = []
    parity = section.get("parity", {})
    for claim in ("clusters_equal", "scores_equal"):
        if parity.get(claim) is not True:
            failures.append(
                f"serve: delta-determinism parity broken — {claim} is "
                f"{parity.get(claim)!r}; live mutated shards no longer "
                "equal a cold rebuild"
            )
    if not section.get("completed_queries"):
        failures.append("serve: no queries completed during the workload")
    if section.get("shed"):
        failures.append(
            f"serve: {section['shed']} operations shed during the "
            "sustained workload — with concurrency below max_pending the "
            "admission queue must never fill"
        )
    burst = section.get("overload_burst", {})
    if not burst.get("shed"):
        failures.append(
            "serve: the overload burst shed nothing — bounded admission "
            "is not applying backpressure"
        )
    baseline_p99 = max(
        float(baseline_section.get("p99_ms", 0.0)), SERVE_P99_FLOOR_MS
    )
    current_p99 = float(section.get("p99_ms", 0.0))
    if current_p99 > tolerance * baseline_p99:
        failures.append(
            f"serve: p99 latency {current_p99:.1f}ms exceeds "
            f"{tolerance}x the baseline's {baseline_p99:.1f}ms "
            "(floored) — the query path regressed"
        )
    baseline_qps = float(baseline_section.get("qps", 0.0))
    current_qps = float(section.get("qps", 0.0))
    if current_qps * tolerance < baseline_qps:
        failures.append(
            f"serve: sustained throughput {current_qps:.0f} QPS fell "
            f"below baseline {baseline_qps:.0f} QPS / {tolerance} — "
            "the micro-batching path regressed"
        )
    return failures


def compare(
    baseline: dict,
    current: dict,
    *,
    tolerance: float,
    floor: float,
    min_positive_recall: float = 0.999,
    min_corner_recall: float = 0.95,
    min_join_positive_recall: float = 0.95,
    min_prune_ratio: float = 0.5,
) -> list[str]:
    """Human-readable failure lines, empty when every stage is in budget.

    Besides the per-stage timing budgets, a baseline that records a
    ``blocking`` section gates the blocking *recall* (candidate blocking
    is only a valid pair-set replacement while it keeps recovering the
    materialized positives and ≥95% of the corner negatives), and a
    baseline with a ``sharding`` section gates the sharded session's
    stage rows and merged recall with the same budgets and floors.
    """
    failures = _stage_failures(
        baseline.get("build_stages", {}),
        current.get("build_stages", {}),
        tolerance=tolerance,
        floor=floor,
    )
    recall_floors = dict(
        min_positive_recall=min_positive_recall,
        min_corner_recall=min_corner_recall,
        min_join_positive_recall=min_join_positive_recall,
    )
    if "blocking" in baseline:
        failures.extend(
            _recall_failures(
                current.get("blocking", {}), label="blocking", **recall_floors
            )
        )
    if "sharding" in baseline:
        sharding = current.get("sharding")
        if sharding is None:
            failures.append(
                "sharding: missing from the current recording "
                "(run record_timings.py --shards N)"
            )
        else:
            base_sharding = baseline["sharding"]
            if sharding.get("n_shards") != base_sharding.get("n_shards"):
                failures.append(
                    f"sharding: recorded {sharding.get('n_shards')} shards, "
                    f"baseline has {base_sharding.get('n_shards')} — stage "
                    "rows are not comparable"
                )
            else:
                failures.extend(
                    _stage_failures(
                        base_sharding.get("build_stages", {}),
                        sharding.get("build_stages", {}),
                        tolerance=tolerance,
                        floor=floor,
                        label="sharding",
                    )
                )
                failures.extend(
                    _recall_failures(
                        sharding, label="sharding", **recall_floors
                    )
                )
    if "sweep_scaling" in baseline:
        failures.extend(
            _sweep_scaling_failures(
                current.get("sweep_scaling"),
                min_prune_ratio=min_prune_ratio,
            )
        )
    if "chaos" in baseline:
        failures.extend(
            _chaos_failures(
                current.get("chaos"), recall_floors=recall_floors
            )
        )
    if "store" in baseline:
        failures.extend(
            _store_failures(current.get("store"), baseline["store"])
        )
    if "serve" in baseline:
        failures.extend(
            _serve_failures(
                current.get("serve"),
                baseline["serve"],
                tolerance=tolerance,
            )
        )
    return failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", type=Path, default=Path("BENCH_baseline.json"))
    parser.add_argument("--current", type=Path, required=True)
    parser.add_argument(
        "--tolerance",
        type=float,
        default=2.5,
        help="maximum allowed current/baseline ratio per stage (default 2.5)",
    )
    parser.add_argument(
        "--floor",
        type=float,
        default=0.05,
        help="baseline seconds floor per stage, absorbs timing jitter on "
        "near-instant stages (default 0.05)",
    )
    parser.add_argument(
        "--min-positive-recall",
        type=float,
        default=0.999,
        help="minimum blocking positive recall (default 0.999; the group "
        "completion makes 1.0 the deterministic expectation)",
    )
    parser.add_argument(
        "--min-corner-recall",
        type=float,
        default=0.95,
        help="minimum blocking corner-negative recall of the raw join "
        "(default 0.95)",
    )
    parser.add_argument(
        "--min-join-positive-recall",
        type=float,
        default=0.95,
        help="minimum positive recall of the raw top-k join, before "
        "group-positive completion (default 0.95)",
    )
    parser.add_argument(
        "--min-prune-ratio",
        type=float,
        default=0.5,
        help="minimum fraction of shard pairs or rescored rows the "
        "signature sweep must prune in the sweep_scaling probe "
        "(default 0.5)",
    )
    args = parser.parse_args()

    baseline = _load_recording(args.baseline, "baseline")
    current = _load_recording(args.current, "current")
    load_errors = [
        recording
        for recording in (baseline, current)
        if isinstance(recording, str)
    ]
    if load_errors:
        for line in load_errors:
            print(line)
        return 1
    failures = compare(
        baseline,
        current,
        tolerance=args.tolerance,
        floor=args.floor,
        min_positive_recall=args.min_positive_recall,
        min_corner_recall=args.min_corner_recall,
        min_join_positive_recall=args.min_join_positive_recall,
        min_prune_ratio=args.min_prune_ratio,
    )
    stages = len(baseline.get("build_stages", {})) + len(
        baseline.get("sharding", {}).get("build_stages", {})
    )
    if failures:
        print(f"perf regression: {len(failures)} checks failed over {stages} stages")
        for line in failures:
            print(f"  {line}")
        return 1
    recall_summary = (
        f"pos>={args.min_positive_recall}, "
        f"join-pos>={args.min_join_positive_recall}, "
        f"corner>={args.min_corner_recall}"
    )
    print(
        f"checked {stages} stage budgets at {args.tolerance}x baseline "
        f"(floor {args.floor}s)"
    )
    if "blocking" in baseline:
        print(f"checked blocking recall floors ({recall_summary})")
    if "sharding" in baseline:
        print(
            "checked sharded session stages + merged recall "
            f"(same budgets, {recall_summary})"
        )
    if "sweep_scaling" in baseline:
        print(
            "checked sweep scaling (signature beats exhaustive, "
            f"prune>={args.min_prune_ratio:.0%})"
        )
    if "chaos" in baseline:
        chaos = current.get("chaos", {})
        print(
            "checked chaos smoke (completed via "
            f"{chaos.get('retries', '?')} retries for "
            f"{chaos.get('injected_faults', '?')} injected faults, "
            f"undegraded, {recall_summary})"
        )
    if "store" in baseline:
        peak = current.get("store", {}).get("sqlite", {}).get("peak_rss_kb", 0)
        bound = baseline["store"]["sqlite"]["peak_rss_kb"]
        print(
            f"checked out-of-core store (peak RSS {peak} KB, bound "
            f"{bound} KB, baseline candidate counts)"
        )
    if "serve" in baseline:
        serve = current.get("serve", {})
        print(
            "checked online serving "
            f"({serve.get('qps', 0):.0f} QPS, "
            f"p99 {serve.get('p99_ms', 0):.1f}ms, "
            "delta-determinism parity, overload sheds)"
        )
    print("all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
