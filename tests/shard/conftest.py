"""Fixtures shared by the shard test modules.

The serial 3-shard store-backed session is the most expensive fixture
of the store tests, so it is built once per test run:
``tests/shard/test_session_store.py`` pins its merged results and
``tests/shard/test_merged_store.py`` compares its ``merged.db`` with the
python-stream oracle.
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
    return ShardedBenchmarkSession(
        store_plan(),
        sweep_k=STORE_SWEEP_K,
        executor="serial",
        store_dir=store_root / "serial",
    ).build()
