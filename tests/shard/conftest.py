"""Fixtures shared by the shard test modules.

The 3-shard sessions are the most expensive fixtures of the shard tests,
so each is built once per test run: the serial session with
``store_dir`` (``tests/shard/test_session.py`` and
``tests/shard/test_session_store.py`` pin its merged results, and
``tests/shard/test_merged_store.py`` compares its ``merged.db`` with the
python-stream oracle) and the process-executor session without one.
"""

import pytest

from repro.core import BuildConfig
from repro.shard import ShardPlan, ShardedBenchmarkSession

STORE_SHARDS = 3
STORE_SWEEP_K = 10


def store_plan():
    """30 products over 3 shards, seed 42: the store tests' plan."""
    return ShardPlan.create(
        STORE_SHARDS, base_config=BuildConfig.small(n_products=30), seed=42
    )


@pytest.fixture(scope="session")
def store_root(tmp_path_factory):
    return tmp_path_factory.mktemp("store")


@pytest.fixture(scope="session")
def store_session(store_root):
    """The serial store session over ``store_plan()`` in
    ``store_root / "serial"``."""
    artifacts = ShardedBenchmarkSession(
        store_plan(),
        sweep_k=STORE_SWEEP_K,
        executor="serial",
        store_dir=store_root / "serial",
    ).build()
    yield artifacts
    artifacts.close()


@pytest.fixture(scope="session")
def process_session():
    """The session over ``store_plan()`` on one worker process per shard,
    without ``store_dir``: it builds into a private directory."""
    artifacts = ShardedBenchmarkSession(
        store_plan(),
        sweep_k=STORE_SWEEP_K,
        executor="process",
        max_workers=STORE_SHARDS,
    ).build()
    yield artifacts
    artifacts.close()
