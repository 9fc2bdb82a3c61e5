"""One trial: a fresh process that sets up one workload and measures it.

Usage (``run.py`` starts it; the spec is one JSON argument)::

    PYTHONPATH=src:perfbench python3 perfbench/trial.py '{"workload": ...}'

Prints ``ready`` right before the first timed operation, then one JSON
line with the trial's samples.  Set-up is timed by the parent, from
process start to ``ready``.  A spec whose ``budget_s`` is null only sets
up: the process exits at ``ready``.
"""

from __future__ import annotations

import json
import os
import sys
import time
from contextlib import contextmanager
from pathlib import Path

from spans import Tracer, chrome_trace, peak_rss_mb, reset_peak_rss


class Probe:
    """What a workload tells the trial about its measured phase.

    ``ready()`` ends set-up; ``timed()`` brackets one timed operation
    (``windows`` collects them, in ``perf_counter_ns``); ``measured()``
    follows the last one and reads peak memory before any output check.
    """

    def __init__(self, setup_only: bool, tracer: Tracer | None) -> None:
        self.setup_only = setup_only
        self.tracer = tracer
        self.windows: list[tuple[int, int]] = []

    def ready(self) -> None:
        print("ready", flush=True)
        if self.setup_only:
            os._exit(0)  # nothing was measured, so nothing needs cleaning up

    @contextmanager
    def timed(self):
        start = time.perf_counter_ns()
        yield
        self.windows.append((start, time.perf_counter_ns()))

    def seconds(self) -> float:
        """Length of the last timed window."""
        start, end = self.windows[-1]
        return (end - start) / 1e9

    def measured(self) -> None:
        self.peak_rss_mb = peak_rss_mb()
        if self.tracer is not None:
            self.tracer.recording = False


def main() -> None:
    spec = json.loads(sys.argv[1])
    reset_peak_rss()

    import layers
    import workloads

    workdir = Path(spec["workdir"])
    workdir.mkdir(parents=True, exist_ok=True)
    # Delays go in first, so a traced span includes the delay it wraps.
    for target, fraction in spec["inject"]:
        layers.inject_delay(target, fraction)
    tracer = None
    if spec["traced"]:
        tracer = Tracer(workdir / "spool")
        layers.install(tracer)

    probe = Probe(setup_only=spec["budget_s"] is None, tracer=tracer)
    result = workloads.WORKLOADS[spec["workload"]](
        spec["seed"], spec["budget_s"], workdir, probe
    )
    result["peak_rss_mb"] = probe.peak_rss_mb
    if tracer is not None:
        tracer.merge_spool()
        result["layers"] = layers.layer_metrics(tracer, probe.windows, result["extra"])
        chrome_trace(tracer.spans, Path(spec["chrome_trace"]))
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
