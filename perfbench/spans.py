"""Span tracing from outside the program.

The benchmark never edits ``src/``: it wraps the public functions of the
``repro`` modules where their callers look them up, records one span per
call (name, parent, pid, thread, start, end, optional work count) and
derives every per-layer metric from those spans after the run.

Pool workers forked from a traced process inherit the wrappers.  On its
first span a forked worker drops the spans it inherited, resets its
peak-RSS watermark and from then on appends each finished root span tree
to ``spans-<pid>.jsonl`` in the spool directory, which the traced parent
merges (:meth:`Tracer.merge_spool`).
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import os
import threading
import time
from dataclasses import dataclass
from pathlib import Path


def peak_rss_mb() -> float:
    """This process's peak resident set (``VmHWM``) in MB."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def reset_peak_rss() -> None:
    """Reset ``VmHWM`` to the current RSS.

    Some kernels hand a new process its parent's watermark; writing "5"
    to ``clear_refs`` restarts the high-water mark from here.
    """
    with open("/proc/self/clear_refs", "w") as handle:
        handle.write("5")


@dataclass(frozen=True)
class Span:
    id: str
    parent: str | None
    name: str
    pid: int
    tid: int
    start: int  # perf_counter_ns: CLOCK_MONOTONIC, comparable across processes
    end: int
    work: dict  # counter name -> units of work done by the call
    container: bool

    @property
    def seconds(self) -> float:
        return (self.end - self.start) / 1e9

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    """Collects spans in memory; forked workers spool theirs to files."""

    def __init__(self, spool_dir: Path) -> None:
        self.spool_dir = Path(spool_dir)
        self.spool_dir.mkdir(parents=True, exist_ok=True)
        self.root_pid = os.getpid()
        self._pid = self.root_pid
        self._local = threading.local()
        self._ids = itertools.count(1)
        self.spans: list[Span] = []
        self.worker_peaks: dict[int, float] = {}
        self.recording = True  # off once the workload's output checks begin

    # ------------------------------------------------------------------ #
    def _stack(self) -> list[str]:
        if os.getpid() != self._pid:
            # First span in a forked worker: nothing inherited is ours.
            self._pid = os.getpid()
            self._local = threading.local()
            self.spans = []
            reset_peak_rss()
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, *, work=None, container: bool = False):
        """``fn`` recording a span per call.

        ``name`` is a string or ``name(args, kwargs)``; ``work`` maps
        counter names to ``counter(args, kwargs, result)`` functions.  A
        ``container`` span only orchestrates: it is charged wall time only
        while no non-container span runs (see :func:`partition`).
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            stack = self._stack()
            span_id = f"{self._pid}:{next(self._ids)}"
            parent = stack[-1] if stack else None
            stack.append(span_id)
            result = None
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                self.spans.append(
                    Span(
                        span_id,
                        parent,
                        name if isinstance(name, str) else name(args, kwargs),
                        self._pid,
                        threading.get_native_id(),
                        start,
                        end,
                        {
                            key: int(count(args, kwargs, result))
                            for key, count in work.items()
                        }
                        if work and result is not None
                        else {},
                        container,
                    )
                )
                if not stack and self._pid != self.root_pid:
                    self._spool()

        return traced

    def patch(self, owner, attribute: str, name, **options) -> None:
        """Replace ``owner.attribute`` by its traced wrapper.

        ``owner`` is a module (patch the name where callers look it up)
        or a class (classmethods and staticmethods keep their kind).
        """
        raw = inspect.getattr_static(owner, attribute)
        if isinstance(raw, classmethod):
            wrapped = classmethod(self.wrap(name, raw.__func__, **options))
        elif isinstance(raw, staticmethod):
            wrapped = staticmethod(self.wrap(name, raw.__func__, **options))
        else:
            wrapped = self.wrap(name, raw, **options)
        setattr(owner, attribute, wrapped)

    # ------------------------------------------------------------------ #
    def _spool(self) -> None:
        path = self.spool_dir / f"spans-{self._pid}.jsonl"
        record = {
            "peak_rss_mb": peak_rss_mb(),
            "spans": [list(vars(span).values()) for span in self.spans],
        }
        with open(path, "a") as handle:
            handle.write(json.dumps(record) + "\n")
        self.spans = []

    def merge_spool(self) -> None:
        """Adopt every span the forked workers spooled so far."""
        for path in sorted(self.spool_dir.glob("spans-*.jsonl")):
            pid = int(path.stem.split("-", 1)[1])
            for line in path.read_text().splitlines():
                record = json.loads(line)
                self.worker_peaks[pid] = max(
                    self.worker_peaks.get(pid, 0.0), record["peak_rss_mb"]
                )
                self.spans.extend(Span(*fields) for fields in record["spans"])
            path.unlink()


# ---------------------------------------------------------------------- #
# Self time
# ---------------------------------------------------------------------- #
def _leaf_segments(spans: list[Span]) -> list[tuple[int, int, Span]]:
    """Per thread, the intervals during which each span is innermost."""
    segments: list[tuple[int, int, Span]] = []
    by_thread: dict[tuple[int, int], list[Span]] = {}
    for span in spans:
        by_thread.setdefault((span.pid, span.tid), []).append(span)
    for thread_spans in by_thread.values():
        # Spans of one thread nest; a parent sorts before its children.
        events = sorted(
            [(span.start, 1, -span.end, span) for span in thread_spans]
            + [(span.end, 0, 0, span) for span in thread_spans],
            key=lambda event: event[:3],
        )
        stack: list[Span] = []
        last = None
        for at, opening, _, span in events:
            if stack and last is not None and at > last:
                segments.append((last, at, stack[-1]))
            if opening:
                stack.append(span)
            else:
                stack.remove(span)
            last = at
    return segments


def partition(
    spans: list[Span], window: tuple[int, int]
) -> tuple[dict[str, float], float]:
    """Split ``window`` exactly into per-layer self seconds + unattributed.

    At each instant the innermost spans of all threads share it equally,
    except that container spans only count while no other span runs.
    The returned self times plus the unattributed remainder add up to the
    window.  Thread-parallel spans overlap, so inclusive sums are busy
    time, not a partition; this is the partition.
    """
    low, high = window
    events: list[tuple[int, int, int]] = []
    segments = _leaf_segments(spans)
    for index, (start, end, _) in enumerate(segments):
        start, end = max(start, low), min(end, high)
        if end > start:
            events.append((start, 1, index))
            events.append((end, -1, index))
    events.sort()
    selfs: dict[str, float] = {}
    active: set[int] = set()
    covered = 0
    last = low
    for at, delta, index in events:
        if active and at > last:
            working = [i for i in active if not segments[i][2].container]
            owners = working or list(active)
            share = (at - last) / len(owners) / 1e9
            for owner in owners:
                layer = segments[owner][2].layer
                selfs[layer] = selfs.get(layer, 0.0) + share
            covered += at - last
        if delta > 0:
            active.add(index)
        else:
            active.discard(index)
        last = at
    unattributed = (high - low - covered) / 1e9
    return selfs, unattributed


def chrome_trace(spans: list[Span], path: Path) -> None:
    """Write Chrome trace-event JSON (opens in Perfetto / chrome://tracing)."""
    events = [
        {
            "name": span.name,
            "cat": span.layer,
            "ph": "X",
            "ts": span.start / 1e3,
            "dur": (span.end - span.start) / 1e3,
            "pid": span.pid,
            "tid": span.tid,
            "args": {"id": span.id, "parent": span.parent, "work": span.work},
        }
        for span in spans
    ]
    path.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}))
