"""Re-derive the output pins of the build and session seed pools.

    PYTHONPATH=src:perfbench python3 perfbench/record_pins.py

Rebuilds every seed pooled in ``perfbench/pins.json`` and rewrites its
pins, which every benchmark run re-checks.  To change a pool, edit its
seeds in ``pins.json`` first.  A session seed whose session retries a
shard is refused; a build seed whose build fails raises.
"""

from __future__ import annotations

import json
import shutil
import tempfile
import time
from pathlib import Path

from repro.core.builder import BenchmarkBuilder, BuildConfig
from repro.shard import ShardedBenchmarkSession
from workloads import PINS, candidates_fingerprint, pairs_fingerprint, session_plan


def main() -> None:
    pins: dict = {"build-small": {}, "session-store": {}}
    for seed in map(int, PINS["build-small"]):
        artifacts = BenchmarkBuilder(BuildConfig.small(seed=seed, blocking_top_k=25)).build()
        pins["build-small"][str(seed)] = {
            "pairs_sha256": pairs_fingerprint(artifacts.benchmark),
            "blocked_candidates": len(artifacts.blocked_candidates),
        }
        print("build", seed, pins["build-small"][str(seed)], flush=True)
    for seed in map(int, PINS["session-store"]):
        scratch = tempfile.mkdtemp(dir=".")
        started = time.perf_counter()
        try:
            artifacts = ShardedBenchmarkSession(
                session_plan(seed),
                executor="process",
                max_workers=2,
                store_dir=Path(scratch) / "store",
                store_backend="sqlite",
            ).build()
            if artifacts.health.retries:
                raise SystemExit(f"session seed {seed} retried a shard")
            merged = artifacts.merged_candidates
            pins["session-store"][str(seed)] = {
                "merged_sha256": candidates_fingerprint(merged),
                "merged_candidates": len(merged),
            }
            merged.close()
        finally:
            shutil.rmtree(scratch)
        wall = time.perf_counter() - started
        print("session", seed, f"{wall:.2f}s", pins["session-store"][str(seed)], flush=True)
    path = Path(__file__).parent / "pins.json"
    path.write_text(json.dumps(pins, indent=2) + "\n")


if __name__ == "__main__":
    main()
