"""The fault-injection harness: specs, plans, env transport, injection."""

import pytest

from repro.errors import CornerSelectionError, ShardCrashError
from repro.shard import FAULT_PLAN_ENV, FaultPlan, FaultSpec


class TestFaultSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            FaultSpec(shard=0, attempt=1, kind="meteor")

    def test_attempts_are_one_based(self):
        with pytest.raises(ValueError, match="1-based"):
            FaultSpec(shard=0, attempt=0, kind="crash")


class TestFaultPlan:
    def test_spec_for_matches_shard_and_attempt(self):
        crash = FaultSpec(shard=1, attempt=2, kind="crash")
        plan = FaultPlan((crash,))
        assert plan.spec_for(1, 2) is crash
        assert plan.spec_for(1, 1) is None
        assert plan.spec_for(0, 2) is None

    def test_sleep_fault_uses_injected_clock(self):
        plan = FaultPlan(
            (FaultSpec(shard=0, attempt=1, kind="sleep", seconds=26.0),)
        )
        slept = []
        plan.inject(0, 1, sleep=slept.append)
        assert slept == [26.0]
        plan.inject(0, 2, sleep=slept.append)  # retried attempt: no fault
        assert slept == [26.0]

    def test_crash_fault_raises_in_parent_process(self):
        plan = FaultPlan((FaultSpec(shard=2, attempt=1, kind="crash"),))
        with pytest.raises(ShardCrashError) as excinfo:
            plan.inject(2, 1)
        assert excinfo.value.shard == 2
        assert excinfo.value.attempt == 1

    def test_corner_selection_fault_carries_counts(self):
        plan = FaultPlan(
            (FaultSpec(shard=0, attempt=1, kind="corner_selection"),)
        )
        with pytest.raises(CornerSelectionError) as excinfo:
            plan.inject(0, 1)
        assert excinfo.value.needed == 800
        assert excinfo.value.found == 795

    def test_json_round_trip(self):
        plan = FaultPlan(
            (
                FaultSpec(shard=1, attempt=1, kind="crash"),
                FaultSpec(shard=2, attempt=1, kind="sleep", seconds=26.0),
                FaultSpec(shard=(0, 2), attempt=1, kind="crash"),
            )
        )
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_pair_key_fires_only_for_its_pair(self):
        plan = FaultPlan.from_json(
            '[{"shard": [0, 1], "attempt": 1, "kind": "crash"}]'
        )
        assert plan.spec_for((0, 1), 1) is plan.faults[0]
        assert plan.spec_for(0, 1) is None
        assert plan.spec_for((0, 2), 1) is None
        plan.inject(0, 1)  # the shard build of shard 0: no fault
        with pytest.raises(ShardCrashError, match="shard pair 0→1") as caught:
            plan.inject((0, 1), 1)
        assert caught.value.stage == "pair"

    def test_from_json_rejects_non_lists(self):
        with pytest.raises(ValueError, match="list"):
            FaultPlan.from_json('{"shard": 0}')

    def test_from_env(self):
        assert FaultPlan.from_env(environ={}) is None
        plan = FaultPlan((FaultSpec(shard=0, attempt=1, kind="crash"),))
        assert (
            FaultPlan.from_env(environ={FAULT_PLAN_ENV: plan.to_json()})
            == plan
        )


class TestFromEnvLazyBinding:
    """`environ` must bind at call time, not import time (regression).

    The old signature `from_env(cls, environ=os.environ)` captured the
    mapping object that existed when faults.py was imported — a test
    replacing os.environ wholesale (monkeypatch.setattr) was silently
    ignored.  setenv-style in-place mutation happened to work, which is
    why the bug survived; both paths are pinned here.
    """

    def test_wholesale_environ_replacement_is_honored(self, monkeypatch):
        import os

        plan = FaultPlan((FaultSpec(shard=3, attempt=2, kind="sleep", seconds=1.0),))
        monkeypatch.setattr(os, "environ", {FAULT_PLAN_ENV: plan.to_json()})
        assert FaultPlan.from_env() == plan

    def test_wholesale_replacement_with_empty_mapping(self, monkeypatch):
        import os

        monkeypatch.setattr(os, "environ", {})
        assert FaultPlan.from_env() is None

    def test_in_place_setenv_still_honored(self, monkeypatch):
        plan = FaultPlan((FaultSpec(shard=0, attempt=1, kind="crash"),))
        monkeypatch.setenv(FAULT_PLAN_ENV, plan.to_json())
        assert FaultPlan.from_env() == plan

    def test_explicit_mapping_still_wins_over_ambient(self, monkeypatch):
        ambient = FaultPlan((FaultSpec(shard=0, attempt=1, kind="crash"),))
        explicit = FaultPlan((FaultSpec(shard=1, attempt=1, kind="sleep", seconds=2.0),))
        monkeypatch.setenv(FAULT_PLAN_ENV, ambient.to_json())
        assert (
            FaultPlan.from_env(environ={FAULT_PLAN_ENV: explicit.to_json()})
            == explicit
        )
