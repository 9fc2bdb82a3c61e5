"""Run one workload of the repository benchmark and print its metrics.

From the root of a checkout::

    python3 perfbench/run.py --workload build-small --seed 42 --seconds 20 --trace 0

A run starts fresh trial processes one after another (see ``trial.py``):
with ``--trace 0`` four that only set up and a fifth that sets up and
then measures for ``--seconds``; set-up is timed from process start.
The report names every metric with its unit and sample count; the last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` — the end-to-end metrics with ``--trace 0``,
the per-layer metrics of a traced trial with ``--trace 1`` (which also
writes a Chrome trace-event file to ``.perfbench/``).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from layers import PER_LAYER  # noqa: E402
from loadgen import quantile, tail  # noqa: E402

WORKLOADS = ("build-small", "session-store", "serve-steady", "serve-burst")
SETUPS = 5  # set-ups per run; setup_s is their median
TIME_LIMIT_S = 170.0

# Every workload reports the same end-to-end metrics; the report also
# prints them, the throughput and the tail latencies, under each
# workload's own names.
END_TO_END = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("op_p50_ms", "ms"),
]


class TrialError(RuntimeError):
    pass


def run_trial(spec: dict, deadline: float) -> tuple[float, dict | None]:
    """Run one trial process; returns (set-up seconds, its result or None)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(Path("src").resolve()), str(HERE)])
    env["TMPDIR"] = spec["workdir"]
    Path(spec["workdir"]).mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    process = subprocess.Popen(
        [sys.executable, str(HERE / "trial.py"), json.dumps(spec)],
        stdout=subprocess.PIPE,
        text=True,
        env=env,
        start_new_session=True,  # its pool workers share its process group
    )
    timed_out = threading.Event()

    def kill() -> None:
        timed_out.set()
        os.killpg(process.pid, signal.SIGKILL)

    watchdog = threading.Timer(max(0.0, deadline - started), kill)
    watchdog.start()
    ready_at = None
    lines = []
    try:
        for line in process.stdout:
            if line.strip() == "ready" and ready_at is None:
                ready_at = time.perf_counter()
            else:
                lines.append(line)
    finally:
        watchdog.cancel()
        process.stdout.close()
        process.wait()
    if timed_out.is_set():
        raise TrialError(f"{spec['workload']} trial exceeded the time limit")
    measuring = spec["budget_s"] is not None
    if process.returncode or ready_at is None or (measuring and not lines):
        raise TrialError(
            f"{spec['workload']} trial exited with code {process.returncode}"
        )
    return ready_at - started, json.loads(lines[-1]) if measuring else None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--inject", action="append", default=[], metavar="MODULE:ATTR=FRACTION",
        help="slow a function down by a fraction of its own time (self-test)",
    )
    args = parser.parse_args()

    if not Path("src/repro/__init__.py").is_file():
        print("perfbench: run from the root of a repository checkout "
              "(src/repro is missing)", file=sys.stderr)
        return 2
    inject = [
        (target, float(fraction))
        for target, fraction in (item.rsplit("=", 1) for item in args.inject)
    ]
    deadline = time.perf_counter() + TIME_LIMIT_S
    scratch = Path(".perfbench").resolve() / f"run-{os.getpid()}"
    chrome = scratch.parent / f"trace-{args.workload}-seed{args.seed}.json"

    # (traced, measuring budget in seconds, or None to only set up).  With
    # --trace 1 an untraced trial is the baseline for the tracing overhead,
    # and a traced build or session trial runs a single operation.
    if args.trace:
        single = args.workload in ("build-small", "session-store")
        plan = [(False, args.seconds / 2), (True, 0.0 if single else args.seconds / 2)]
    else:
        plan = [(False, None)] * (SETUPS - 1) + [(False, args.seconds)]
    runs = []
    try:
        for index, (traced, budget) in enumerate(plan):
            spec = {
                "workload": args.workload,
                "seed": args.seed,
                "budget_s": budget,
                "traced": traced,
                "inject": inject,
                "workdir": str(scratch / f"trial-{index}"),
                "chrome_trace": str(chrome),
            }
            runs.append(run_trial(spec, deadline))
    except TrialError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    setups = [setup for setup, _ in runs]
    results = [result for _, result in runs if result is not None]
    measured = results[0]
    op_ms = measured["op_ms"]
    end_to_end = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": measured["peak_rss_mb"],
        "op_p50_ms": statistics.median(op_ms),
    }
    attempted = sum(result["attempted"] for result in results)
    failed = sum(result["failed"] for result in results)
    # No operation may fail, so failed_ratio is no metric: a failure fails the run.
    correct = failed == 0 and all(result["correct"] for result in results)
    report(args.workload, measured, len(setups), end_to_end, attempted, failed, correct)

    if args.trace:
        traced = results[1]
        values = traced["layers"]
        values["trace.overhead_ratio"] = (
            statistics.median(traced["op_ms"]) / end_to_end["op_p50_ms"] - 1.0
        )
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}
        print(f"\nper-layer metrics (traced trial; Chrome trace: {chrome})")
        for name, unit, _ in PER_LAYER:
            print(f"  {name:44s} {values[name]:14.6g} {unit}")
    else:
        metrics = {name: {"value": end_to_end[name], "unit": unit} for name, unit in END_TO_END}
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics,
    }))
    return 0


def report(workload, measured, setups, end_to_end, attempted, failed, correct) -> None:
    """Print the metrics under the names users know them by."""
    op_ms = measured["op_ms"]
    extra = measured["extra"]
    rows = [
        ("setup_s", end_to_end["setup_s"], "s", f"median of {setups} set-ups"),
        ("peak_rss_mb", end_to_end["peak_rss_mb"], "MB", "measuring process"),
    ]
    if workload == "build-small":
        rows.append(("build_wall_s", end_to_end["op_p50_ms"] / 1000, "s",
                     f"median of {len(op_ms)} builds"))
    elif workload == "session-store":
        rows.append(("session_wall_s", end_to_end["op_p50_ms"] / 1000, "s",
                     f"median of {len(op_ms)} sessions"))
    else:
        rows.append(("loadgen.lag_p99_ms", quantile(extra["lag_ms"], 0.99), "ms",
                     f"{len(extra['lag_ms'])} sends"))
    if workload == "serve-steady":
        mutations = extra["mutation_ms"]
        rows += [
            ("match_p50_ms", end_to_end["op_p50_ms"], "ms", f"{len(op_ms)} matches"),
            ("match_p99_ms", tail(op_ms), "ms", f"{len(op_ms)} matches"),
            ("mutation_p99_ms", tail(mutations), "ms", f"{len(mutations)} mutations"),
        ]
    elif workload == "serve-burst":
        queries = extra["match_ms"]
        rows += [
            ("burst_p50_ms", end_to_end["op_p50_ms"], "ms", f"{len(op_ms)} bursts"),
            ("capacity_qps", measured["completed"] / measured["busy_s"], "1/s",
             f"{len(queries)} queries"),
            ("query_p50_ms", statistics.median(queries), "ms", f"{len(queries)} queries"),
            ("query_p99_ms", tail(queries), "ms", f"{len(queries)} queries"),
        ]
    rows.append(("failed_ratio", failed / attempted, "", f"{failed} of {attempted} attempted"))
    print(f"{workload}: input seed {extra['input_seed']}, outputs "
          f"{'correct' if correct else 'WRONG'}")
    for name, value, unit, samples in rows:
        print(f"  {name:20s} {value:12.4f} {unit:4s} ({samples})")


if __name__ == "__main__":
    sys.exit(main())
