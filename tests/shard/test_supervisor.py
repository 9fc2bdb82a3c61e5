"""The shard supervisor: retry classification, backoff, timeouts, pools.

These tests exercise supervision mechanics with a lightweight fake build
function (module-level, so process pools can pickle it); checkpoint
round trips write one small real build as each shard's store, since a
checkpoint is the artifact store a worker wrote.  Real-session fault
tolerance, with actual corpus builds and the pinned determinism hashes,
lives in ``test_session.py``.
"""

import ctypes
import functools
import os
import time
from dataclasses import dataclass, replace
from pathlib import Path

import pytest

from repro.core import BenchmarkBuilder, BuildConfig
from repro.errors import (
    ShardBuildError,
    ShardCrashError,
    ShardRetriesExhaustedError,
    ShardTimeoutError,
)
from repro.io.store import StoredShard, StoredShardHandle, write_store
from repro.shard import (
    FaultPlan,
    FaultSpec,
    RetryPolicy,
    ShardCheckpointStore,
    ShardSupervisor,
    respawn_config,
)
import repro.shard.supervisor as supervisor_module
from repro.shard.supervisor import cap_blas_threads

SESSION_SEED = 42


def _configs(n=3):
    return [BuildConfig.small(n_products=30) for _ in range(n)]


def _fake_build(config, *, shard, attempt, with_signatures, fault_plan=None):
    """The supervisor-facing contract without a real corpus build."""
    if fault_plan is not None:
        fault_plan.inject(shard, attempt)
    artifacts = {"shard": shard, "attempt": attempt, "seed": config.seed}
    return artifacts, None, 0.01


def _slow_then_fast_build(
    config, *, shard, attempt, with_signatures, fault_plan=None
):
    """Reports a first attempt far over budget, then an honest one."""
    elapsed = 99.0 if attempt == 1 else 0.01
    return {"shard": shard, "attempt": attempt}, None, elapsed


def _buggy_build(config, *, shard, attempt, with_signatures, fault_plan=None):
    raise ValueError("boom: a genuine code bug")


@functools.lru_cache(maxsize=1)
def _small_artifacts():
    return BenchmarkBuilder(BuildConfig.small(n_products=30)).build()


def _store_build(config, *, shard, attempt, with_signatures, fault_plan=None):
    """A worker's store: real artifacts (built once per process) written
    into ``config.store_dir``, handed back by path."""
    write_store(config.store_dir, _small_artifacts())
    return StoredShardHandle(str(config.store_dir), shard), None, 0.01


def _never_build(config, *, shard, attempt, with_signatures, fault_plan=None):
    raise AssertionError("a checkpointed shard must not rebuild")


def _hang_second_shard(
    config, *, shard, attempt, with_signatures, fault_plan=None
):
    if shard == 1 and attempt == 1:
        time.sleep(30.0)
    return {"shard": shard, "attempt": attempt}, None, 0.01


@dataclass(frozen=True)
class _PairResult:
    pair: tuple
    pid: int


def _fake_pair(*, pair, attempt, fault_plan=None):
    """The pair-task contract without a real join: ``(result, elapsed)``."""
    start = time.perf_counter()
    if fault_plan is not None:
        fault_plan.inject(pair, attempt)
    return _PairResult(pair, os.getpid()), time.perf_counter() - start


_BUILD_CALLS = []


def _counting_build(config, *, shard, attempt, with_signatures, fault_plan=None):
    _BUILD_CALLS.append(shard)
    return _fake_build(
        config, shard=shard, attempt=attempt, with_signatures=with_signatures
    )


def _numpy_blas_threads():
    """numpy's OpenBLAS thread count in this process (None: no symbol)."""
    import numpy

    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas64_*.so")):
        getter = getattr(
            ctypes.CDLL(str(path)), "scipy_openblas_get_num_threads64_", None
        )
        if getter is not None:
            getter.argtypes = []
            getter.restype = ctypes.c_int
            return getter()
    return None


def _supervisor(configs=None, **overrides):
    kwargs = dict(
        session_seed=SESSION_SEED,
        executor="serial",
        build_fn=_fake_build,
        sleep=lambda seconds: None,
        policy=RetryPolicy(max_attempts=3, backoff_base=0.0),
    )
    kwargs.update(overrides)
    return ShardSupervisor(configs if configs is not None else _configs(), **kwargs)


class TestRetryPolicy:
    def test_backoff_doubles_up_to_the_cap(self):
        policy = RetryPolicy(backoff_base=0.5, backoff_cap=8.0)
        assert [policy.backoff(a) for a in range(1, 7)] == [
            0.5, 1.0, 2.0, 4.0, 8.0, 8.0,
        ]

    def test_invalid_budgets_rejected(self):
        with pytest.raises(ValueError, match="max_attempts"):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError, match="timeout"):
            RetryPolicy(timeout=0)
        with pytest.raises(ValueError, match="backoff"):
            RetryPolicy(backoff_base=-1.0)


class TestRespawnConfig:
    def test_pure_function_of_seed_shard_attempt(self):
        base = BuildConfig.small(n_products=30)
        first = respawn_config(
            base, session_seed=SESSION_SEED, shard=1, attempt=2
        )
        again = respawn_config(
            base, session_seed=SESSION_SEED, shard=1, attempt=2
        )
        assert first == again

    def test_each_attempt_and_shard_gets_its_own_stream(self):
        base = BuildConfig.small(n_products=30)
        seeds = {
            (
                respawn_config(
                    base, session_seed=SESSION_SEED, shard=shard, attempt=attempt
                ).seed
            )
            for shard in (0, 1)
            for attempt in (2, 3)
        }
        assert len(seeds) == 4
        assert base.seed not in seeds

    def test_attempt_one_is_the_plans_own_config(self):
        with pytest.raises(ValueError, match="attempt 2"):
            respawn_config(
                BuildConfig.small(), session_seed=SESSION_SEED, shard=0, attempt=1
            )


class TestSupervisorHappyPath:
    def test_outcomes_in_shard_order_without_retries(self):
        supervisor = _supervisor()
        outcomes = supervisor.run()
        assert [outcome.shard for outcome in outcomes] == [0, 1, 2]
        assert all(outcome.ok for outcome in outcomes)
        assert all(outcome.source == "built" for outcome in outcomes)
        assert supervisor.retries == 0
        assert supervisor.stage_timings["shard:retries"] == 0.0
        health = supervisor.health(outcomes)
        assert not health.degraded
        assert health.surviving_shards == (0, 1, 2)
        assert health.statuses == {0: "built", 1: "built", 2: "built"}

    def test_validation(self):
        with pytest.raises(ValueError, match="executor"):
            _supervisor(executor="fleet")
        with pytest.raises(ValueError, match="failure_policy"):
            _supervisor(failure_policy="shrug")


class TestTransientRetries:
    def test_crash_retries_same_config_with_backoff(self):
        sleeps = []
        plan = FaultPlan((FaultSpec(shard=1, attempt=1, kind="crash"),))
        configs = _configs()
        supervisor = _supervisor(
            configs,
            fault_plan=plan,
            sleep=sleeps.append,
            policy=RetryPolicy(max_attempts=3, backoff_base=0.25),
        )
        outcomes = supervisor.run()
        assert all(outcome.ok for outcome in outcomes)
        shard1 = outcomes[1]
        assert [record.ok for record in shard1.attempts] == [False, True]
        assert shard1.attempts[0].error == "ShardCrashError"
        # Transient classification: the retry reuses the planned config.
        assert not shard1.attempts[1].reseeded
        assert shard1.artifacts == {
            "shard": 1, "attempt": 2, "seed": configs[1].seed,
        }
        assert sleeps == [0.25]
        assert supervisor.retries == 1
        assert supervisor.stage_timings["shard:retries"] == 1.0

    def test_posthoc_timeout_retries_serial_builds(self):
        supervisor = _supervisor(
            build_fn=_slow_then_fast_build,
            policy=RetryPolicy(max_attempts=2, backoff_base=0.0, timeout=1.0),
        )
        outcomes = supervisor.run()
        for outcome in outcomes:
            assert [record.ok for record in outcome.attempts] == [False, True]
            assert outcome.attempts[0].error == "ShardTimeoutError"
            assert outcome.attempts[0].elapsed == pytest.approx(99.0)

    def test_corner_selection_retries_with_respawned_seeds(self):
        plan = FaultPlan(
            (FaultSpec(shard=0, attempt=1, kind="corner_selection"),)
        )
        configs = _configs()
        supervisor = _supervisor(configs, fault_plan=plan)
        outcomes = supervisor.run()
        shard0 = outcomes[0]
        assert shard0.attempts[0].error == "CornerSelectionError"
        assert shard0.attempts[1].ok and shard0.attempts[1].reseeded
        expected = respawn_config(
            configs[0], session_seed=SESSION_SEED, shard=0, attempt=2
        )
        assert shard0.config == expected
        assert shard0.artifacts["seed"] == expected.seed


class TestBudgetsAndPolicies:
    def _always_crash(self, shard=1, attempts=(1, 2, 3)):
        return FaultPlan(
            tuple(
                FaultSpec(shard=shard, attempt=attempt, kind="crash")
                for attempt in attempts
            )
        )

    def test_exhausted_budget_raises_with_ledger(self):
        supervisor = _supervisor(
            fault_plan=self._always_crash(attempts=(1, 2)),
            policy=RetryPolicy(max_attempts=2, backoff_base=0.0),
        )
        with pytest.raises(ShardRetriesExhaustedError) as excinfo:
            supervisor.run()
        assert excinfo.value.shard == 1
        assert excinfo.value.attempt == 2
        assert isinstance(excinfo.value.__cause__, ShardCrashError)

    def test_degrade_keeps_survivors_and_records_failure(self):
        supervisor = _supervisor(
            fault_plan=self._always_crash(),
            failure_policy="degrade",
        )
        outcomes = supervisor.run()
        assert [outcome.ok for outcome in outcomes] == [True, False, True]
        failed = outcomes[1]
        assert failed.source == "failed"
        assert isinstance(failed.failure, ShardRetriesExhaustedError)
        assert len(failed.attempts) == 3
        health = supervisor.health(
            outcomes, missing_pairs=((0, 1), (1, 2))
        )
        assert health.degraded
        assert health.failed_shards == (1,)
        assert health.surviving_shards == (0, 2)
        assert health.missing_pairs == ((0, 1), (1, 2))
        report = health.as_dict()
        assert report["degraded"] is True
        assert report["failed_shards"] == [1]
        assert len(report["attempts"]["1"]) == 3

    def test_code_bugs_are_never_retried(self):
        supervisor = _supervisor(build_fn=_buggy_build)
        with pytest.raises(ShardBuildError) as excinfo:
            supervisor.run()
        assert not isinstance(excinfo.value, ShardRetriesExhaustedError)
        assert isinstance(excinfo.value.__cause__, ValueError)
        assert excinfo.value.shard == 0
        assert supervisor.retries == 0

    def test_zero_survivors_raises_even_under_degrade(self):
        supervisor = _supervisor(
            _configs(1),
            fault_plan=self._always_crash(shard=0),
            failure_policy="degrade",
        )
        with pytest.raises(ShardBuildError, match="no surviving"):
            supervisor.run()


class TestPairTasks:
    """Pair joins run through the same retry loop as shard builds."""

    TASKS = {(0, 1): dict(pair=(0, 1)), (1, 2): dict(pair=(1, 2))}

    def test_serial_sleep_fault_over_the_timeout_is_retried(self):
        plan = FaultPlan(
            (FaultSpec(shard=(0, 1), attempt=1, kind="sleep", seconds=0.3),)
        )
        supervisor = _supervisor(
            fault_plan=plan,
            policy=RetryPolicy(max_attempts=2, backoff_base=0.0, timeout=0.2),
        )
        outcomes = supervisor.run_pairs(_fake_pair, self.TASKS)
        records = outcomes[(0, 1)].attempts
        assert [record.ok for record in records] == [False, True]
        assert records[0].error == "ShardTimeoutError"
        assert records[0].elapsed >= 0.3
        assert records[1].pid == os.getpid()
        assert outcomes[(0, 1)].result[0] == _PairResult((0, 1), os.getpid())
        assert [r.ok for r in outcomes[(1, 2)].attempts] == [True]
        # Pair retries stay out of the shard-build retry count.
        assert supervisor.retries == 0

    def test_exhausted_pair_raises_retries_exhausted(self):
        plan = FaultPlan(
            tuple(
                FaultSpec(shard=(1, 2), attempt=attempt, kind="crash")
                for attempt in (1, 2)
            )
        )
        supervisor = _supervisor(
            fault_plan=plan,
            policy=RetryPolicy(max_attempts=2, backoff_base=0.0),
        )
        with pytest.raises(ShardRetriesExhaustedError) as excinfo:
            supervisor.run_pairs(_fake_pair, self.TASKS)
        assert "shard pair 1→2 failed all 2 attempts" in str(excinfo.value)
        assert (excinfo.value.shard, excinfo.value.stage) == (1, "pair")
        assert isinstance(excinfo.value.__cause__, ShardCrashError)

    def test_exhausted_timeouts_are_a_missing_pair_under_degrade(self):
        plan = FaultPlan(
            (FaultSpec(shard=(0, 1), attempt=1, kind="sleep", seconds=0.3),)
        )
        supervisor = _supervisor(
            fault_plan=plan,
            failure_policy="degrade",
            policy=RetryPolicy(max_attempts=1, timeout=0.2),
        )
        outcomes = supervisor.run_pairs(_fake_pair, self.TASKS)
        failed = outcomes[(0, 1)]
        assert failed.result is None
        assert isinstance(failed.failure, ShardRetriesExhaustedError)
        assert isinstance(failed.failure.__cause__, ShardTimeoutError)
        assert outcomes[(1, 2)].failure is None

    def test_pair_corner_selection_is_not_reseeded(self):
        plan = FaultPlan(
            (FaultSpec(shard=(0, 1), attempt=1, kind="corner_selection"),)
        )
        supervisor = _supervisor(fault_plan=plan, failure_policy="degrade")
        failed = supervisor.run_pairs(_fake_pair, self.TASKS)[(0, 1)]
        assert [record.ok for record in failed.attempts] == [False]
        assert not isinstance(failed.failure, ShardRetriesExhaustedError)
        assert failed.failure.stage == "pair"
        assert "failed in its join" in str(failed.failure)


class TestSupervisorValidation:
    def test_thread_executor_rejected(self):
        with pytest.raises(ValueError, match="executor") as excinfo:
            _supervisor(executor="thread")
        assert "('process', 'serial')" in str(excinfo.value)

    @pytest.mark.parametrize("executor", ["process", "serial"])
    @pytest.mark.parametrize("max_workers", [0, -1, 2.5, False])
    def test_bad_max_workers_rejected_at_construction(
        self, executor, max_workers
    ):
        with pytest.raises(ValueError, match="max_workers"):
            _supervisor(executor=executor, max_workers=max_workers)


class TestCheckpointStoreDirs:
    """A config that builds anywhere but its checkpoint store's shard
    directory is rejected at construction, before any build runs."""

    @pytest.mark.parametrize("where", ["memory", "elsewhere"])
    def test_foreign_store_dir_rejected_before_building(
        self, tmp_path, where
    ):
        _BUILD_CALLS.clear()
        store = ShardCheckpointStore(tmp_path / "session")
        configs = [
            replace(config, store_dir=str(store.shard_dir(shard)))
            for shard, config in enumerate(_configs())
        ]
        configs[1] = replace(
            configs[1],
            store_dir=(
                None if where == "memory" else str(tmp_path / "shard-0001")
            ),
        )
        with pytest.raises(ValueError, match="shard 1 builds into"):
            _supervisor(
                configs, checkpoint_store=store, build_fn=_counting_build
            )
        assert _BUILD_CALLS == []


class TestBlasThreadCap:
    def test_pool_workers_run_one_blas_thread(self):
        if _numpy_blas_threads() is None:
            pytest.skip(
                "numpy's bundled OpenBLAS exports no "
                "scipy_openblas_get_num_threads64_"
            )
        supervisor = _supervisor(executor="process", max_workers=2)
        pool = supervisor._ensure_pool()
        try:
            threads = pool.submit(_numpy_blas_threads).result()
        finally:
            supervisor._kill_pool()
        assert threads == 1

    def test_no_matching_library_is_a_no_op(self, tmp_path, monkeypatch):
        # A package installed under tmp_path, whose ``.libs`` directory
        # holds first nothing, then a matching file that is no library.
        (tmp_path / "blasless").mkdir()
        (tmp_path / "blasless" / "__init__.py").write_text("")
        monkeypatch.syspath_prepend(str(tmp_path))
        monkeypatch.setattr(
            supervisor_module,
            "_BLAS_THREAD_SETTERS",
            (
                (
                    "blasless",
                    "libscipy_openblas64_*.so",
                    "scipy_openblas_set_num_threads64_",
                ),
                # numpy's real library, asked for a symbol it lacks.
                ("numpy", "libscipy_openblas64_*.so", "no_such_setter"),
            ),
        )
        assert cap_blas_threads() == ()
        libs = tmp_path / "blasless.libs"
        libs.mkdir()
        (libs / "libscipy_openblas64_-fake.so").write_bytes(b"not an ELF")
        assert cap_blas_threads() == ()


class TestCheckpointsThroughSupervisor:
    def test_second_run_loads_instead_of_building(self, tmp_path):
        store = ShardCheckpointStore(tmp_path)
        configs = [
            replace(config, store_dir=str(store.shard_dir(shard)))
            for shard, config in enumerate(_configs())
        ]
        first = _supervisor(
            configs,
            checkpoint_store=store,
            build_fn=_store_build,
        )
        first_outcomes = first.run()
        assert all(o.source == "built" for o in first_outcomes)
        assert ShardCheckpointStore(tmp_path).completed_shards(configs) == [
            0, 1, 2,
        ]
        assert "checkpoint:save" in first.stage_timings

        second = _supervisor(
            configs,
            checkpoint_store=ShardCheckpointStore(tmp_path),
            build_fn=_never_build,
        )
        outcomes = second.run()
        assert all(o.source == "checkpoint" for o in outcomes)
        resumed = outcomes[2].artifacts
        assert isinstance(resumed, StoredShard)
        assert [offer.offer_id for offer in resumed.cleansed.offers] == [
            offer.offer_id
            for offer in first_outcomes[2].artifacts.cleansed.offers
        ]
        assert "checkpoint:load" in second.stage_timings
        health = second.health(outcomes)
        assert health.checkpoints_loaded == 3
        assert health.statuses == {
            0: "checkpoint", 1: "checkpoint", 2: "checkpoint",
        }


class TestProcessExecutor:
    def test_worker_crash_breaks_pool_and_recovers(self):
        plan = FaultPlan((FaultSpec(shard=0, attempt=1, kind="crash"),))
        with _supervisor(
            executor="process",
            max_workers=2,
            fault_plan=plan,
        ) as supervisor:
            outcomes = supervisor.run()
            # run() leaves the (rebuilt) pool open for a later wave.
            assert supervisor._pool is not None
        assert supervisor._pool is None
        assert all(outcome.ok for outcome in outcomes)
        assert supervisor.retries >= 1
        # The injected crash kills a real worker with os._exit: the pool
        # breaks, so the failed attempt surfaces as a crash either via
        # the fault (serial path) or the broken pool (process path).
        first = outcomes[0].attempts[0]
        assert not first.ok
        assert first.error in ("ShardCrashError", "BrokenProcessPool")
        assert not outcomes[0].attempts[-1].reseeded

    def test_hung_worker_is_terminated_at_the_deadline(self):
        start = time.monotonic()
        with _supervisor(
            executor="process",
            max_workers=2,
            build_fn=_hang_second_shard,
            policy=RetryPolicy(max_attempts=2, backoff_base=0.0, timeout=2.0),
        ) as supervisor:
            outcomes = supervisor.run()
        wall = time.monotonic() - start
        assert all(outcome.ok for outcome in outcomes)
        failed = [r for r in outcomes[1].attempts if not r.ok]
        assert failed and failed[0].error == "ShardTimeoutError"
        # Preemption, not patience: nowhere near the 30s injected hang.
        assert wall < 20.0
