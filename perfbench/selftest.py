"""Benchmark self-test: a slower layer shows up where it should, and only there.

From the root of a checkout::

    python3 perfbench/selftest.py

Slows one public function by 30% of its own CPU time — ``generate_pairs``
as the builder looks it up, the ``core`` layer's pair generation — and
checks the layout's predictions against the bounds in ``BENCHMARK.json``,
comparing medians of 20-second runs over seeds 1, 2 and 3, with the
unslowed and slowed runs interleaved:

* build-small: the traced ``self.core_s`` gets worse by more than the
  ``op_p50_ms`` bound;
* serve-steady (no pair generation): no end-to-end metric gets worse by
  more than its bound.

It also prints how far build-small's ``op_p50_ms`` (the build wall)
moves, without checking it: the two ratio-build threads overlap, so the
wall moved by +12.8%, +21.5% and +31.2% in three runs on a 2-core
host, not reliably past the ``op_p50_ms`` bound of 0.25, which has to
cover the serve workloads' spread.  A 30% slowdown of the GJ kernel
moved it by +23% in one run on the same host.

It first checks that ``BENCHMARK.json`` declares exactly the metrics the
benchmark reports.  Exits 1 when any check fails.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from layers import PER_LAYER  # noqa: E402
from run import END_TO_END  # noqa: E402

TARGET = "repro.core.builder:generate_pairs"
FRACTION = 0.3
SEEDS = (1, 2, 3)
SECONDS = 20


def measure(workload: str, seed: int, trace: int, inject: list) -> dict:
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(SECONDS), "--trace", str(trace),
        *[f"--inject={item}" for item in inject],
    ]
    output = subprocess.run(command, check=True, capture_output=True, text=True).stdout
    result = json.loads(output.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"selftest: {workload} seed {seed} failed its output checks")
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def compare(workload: str, trace: int, inject: list):
    """Medians of unslowed and slowed runs, interleaved seed by seed."""
    base, slow = [], []
    for seed in SEEDS:
        base.append(measure(workload, seed, trace, []))
        slow.append(measure(workload, seed, trace, inject))

    def medians(runs):
        return {name: statistics.median(run[name] for run in runs) for name in runs[0]}

    return medians(base), medians(slow)


def worse_by(better: str, base: float, slow: float) -> float:
    change = slow / base - 1.0
    return change if better == "lower" else -change


def main() -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    declared = (
        [metric["name"] for metric in spec["end_to_end"]],
        [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
    )
    if declared != ([name for name, _ in END_TO_END], PER_LAYER):
        print("FAIL  BENCHMARK.json does not declare the metrics the benchmark reports")
        return 1
    bounds = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    inject = [f"{TARGET}={FRACTION}"]
    checks = []

    bound = bounds["op_p50_ms"][1]
    base, slow = compare("build-small", 0, inject)
    moved = worse_by("lower", base["op_p50_ms"], slow["op_p50_ms"])
    checks.append(("build-small op_p50_ms moves", moved, None, bound))
    base, slow = compare("build-small", 1, inject)
    moved = worse_by("lower", base["self.core_s"], slow["self.core_s"])
    checks.append(("build-small self.core_s moves", moved, moved > bound, bound))

    base, slow = compare("serve-steady", 0, inject)
    for name, (better, bound) in bounds.items():
        moved = worse_by(better, base[name], slow[name])
        checks.append((f"serve-steady {name} holds", moved, moved <= bound, bound))

    print(f"slowed {TARGET} by {FRACTION:.0%}; medians over seeds {list(SEEDS)}")
    for label, moved, passed, bound in checks:
        status = {None: "info", True: "ok  ", False: "FAIL"}[passed]
        print(f"{status}  {label:40s} worse by {moved:+.3f} (bound {bound})")
    return 0 if all(passed is not False for _, _, passed, _ in checks) else 1


if __name__ == "__main__":
    sys.exit(main())
