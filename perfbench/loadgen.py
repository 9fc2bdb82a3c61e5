"""Open-loop load generation on one event loop, and latency quantiles."""

from __future__ import annotations

import asyncio
import math
import statistics


async def open_loop(schedule: list[float], fire) -> dict:
    """Start ``fire(op, due)`` at each scheduled offset, whatever is pending.

    The generator never waits for replies, so a slow system builds a
    queue instead of receiving less load.  ``fire`` returns the loop time
    its request completed (or ``None`` when it failed) and should time the
    request from ``due``, so a stall also charges the requests queued
    behind it.  Returns how late each send ran (``lag_ms``), each
    completion time and the load's wall time.  No threads are started.
    """
    loop = asyncio.get_running_loop()
    start = loop.time()
    tasks = []
    lags = []
    for op, offset in enumerate(schedule):
        due = start + offset
        delay = due - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        lags.append((loop.time() - due) * 1000.0)
        tasks.append(loop.create_task(fire(op, due)))
    done = await asyncio.gather(*tasks)
    return {
        "start": start,
        "lag_ms": lags,
        "done": done,
        "wall_s": loop.time() - start,
    }


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def tail(values: list[float]) -> float:
    """The highest percentile, at most p99, with ten samples beyond it.

    p99 from 1,000 samples on; below that the value with exactly ten
    samples above it; with ten samples or fewer no such percentile
    exists and the median is returned.
    """
    n = len(values)
    if n >= 1000:
        return quantile(values, 0.99)
    if n > 10:
        return sorted(values)[n - 11]
    return statistics.median(values)
