"""Deterministic fault injection for the shard supervisor's test paths.

A :class:`FaultPlan` is a declarative list of faults keyed on
``(shard, attempt)`` — *crash the worker of shard 1 on attempt 1*,
*sleep shard 2 past its timeout on attempt 1*, *raise a corner-selection
failure* — threaded through
:func:`~repro.shard.supervisor._build_one_shard` so every recovery path
of the supervisor (pool rebuild, same-config retry, reseeded retry,
degraded continuation) is reachable deterministically in CI instead of
waiting for a real OOM.  A ``(i, j)`` pair in place of the shard id keys
the cross-shard join task of shard pair ``(i, j)`` instead
(:func:`~repro.shard.session.join_shard_pair`).

Plans travel two ways: passed explicitly (picklable, so they reach
worker processes through the pool), or ambient through the
``REPRO_FAULT_PLAN`` environment variable as JSON — worker processes
inherit the environment, which lets an external harness (the CI chaos
smoke step) inject faults without touching any call site:

    REPRO_FAULT_PLAN='[{"shard": 1, "attempt": 1, "kind": "crash"}]'
    REPRO_FAULT_PLAN='[{"shard": [0, 1], "attempt": 1, "kind": "crash"}]'

Faults fire *at most once* per (shard, attempt) key by construction —
the supervisor passes the current attempt number, so a retried shard
simply no longer matches the spec and builds honestly.  Injection is
test-only machinery: no production path constructs a plan.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import time
from dataclasses import asdict, dataclass

from repro.errors import CornerSelectionError, ShardCrashError, describe_task

__all__ = ["FAULT_KINDS", "FaultSpec", "FaultPlan", "FAULT_PLAN_ENV"]

FAULT_KINDS = ("crash", "sleep", "corner_selection")

FAULT_PLAN_ENV = "REPRO_FAULT_PLAN"

# Exit code of an injected worker crash; distinctive on purpose so a CI
# log showing a worker dying with it is immediately attributable.
_CRASH_EXIT_CODE = 13


@dataclass(frozen=True)
class FaultSpec:
    """One injected fault: what happens to ``shard`` on ``attempt``.

    ``shard`` is a shard id (its build attempt) or a ``(i, j)`` shard
    pair (its cross-shard join attempt; a JSON list is read as the pair).
    ``kind`` is one of :data:`FAULT_KINDS`:

    * ``"crash"`` — kill the worker process outright (``os._exit``), so
      the parent sees a genuine ``BrokenProcessPool``.  Under the serial
      executor (where dying would take the session down) a
      :class:`~repro.errors.ShardCrashError` is raised instead — the
      same transient classification through the same supervisor path.
    * ``"sleep"`` — sleep ``seconds`` before building, driving the
      attempt past a supervisor timeout.
    * ``"corner_selection"`` — raise a
      :class:`~repro.errors.CornerSelectionError`, the deterministic
      data-exhaustion failure whose retry must respawn the shard seeds.
    """

    shard: int | tuple[int, int]
    attempt: int
    kind: str
    seconds: float = 0.0

    def __post_init__(self) -> None:
        if isinstance(self.shard, list):
            object.__setattr__(self, "shard", tuple(self.shard))
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"fault kind must be one of {FAULT_KINDS}, got {self.kind!r}"
            )
        if self.attempt < 1:
            raise ValueError(
                f"fault attempts are 1-based, got {self.attempt}"
            )


@dataclass(frozen=True)
class FaultPlan:
    """An immutable, picklable schedule of injected faults."""

    faults: tuple[FaultSpec, ...] = ()

    def spec_for(
        self, shard: int | tuple[int, int], attempt: int
    ) -> FaultSpec | None:
        """The first fault registered for ``(shard, attempt)``, if any."""
        for spec in self.faults:
            if spec.shard == shard and spec.attempt == attempt:
                return spec
        return None

    def inject(
        self, shard: int | tuple[int, int], attempt: int, *, sleep=time.sleep
    ) -> None:
        """Fire the fault registered for ``(shard, attempt)``, if any.

        Called at the top of a shard build attempt (``shard`` a shard id)
        or a shard-pair join attempt (``shard`` the ``(i, j)`` pair),
        before any work runs.  ``sleep`` is injectable so unit tests can
        assert sleep faults without waiting.
        """
        spec = self.spec_for(shard, attempt)
        if spec is None:
            return
        subject, first, stage = describe_task(shard)
        if spec.kind == "sleep":
            sleep(spec.seconds)
        elif spec.kind == "crash":
            if multiprocessing.parent_process() is not None:
                os._exit(_CRASH_EXIT_CODE)
            raise ShardCrashError(
                f"injected crash of {subject} on attempt {attempt}",
                shard=first,
                attempt=attempt,
                stage=stage,
            )
        elif spec.kind == "corner_selection":
            raise CornerSelectionError(
                f"injected corner-selection failure of {subject} on "
                f"attempt {attempt}: needed 800, found 795",
                needed=800,
                found=795,
                part="seen",
                corner_case_ratio=0.5,
                kind="corner",
            )

    # ------------------------------------------------------------------ #
    def to_json(self) -> str:
        return json.dumps([asdict(spec) for spec in self.faults])

    @classmethod
    def from_json(cls, payload: str) -> "FaultPlan":
        entries = json.loads(payload)
        if not isinstance(entries, list):
            raise ValueError(
                "a JSON fault plan must be a list of fault objects, got "
                f"{type(entries).__name__}"
            )
        return cls(faults=tuple(FaultSpec(**entry) for entry in entries))

    @classmethod
    def from_env(cls, environ=None) -> "FaultPlan | None":
        """The ambient :data:`FAULT_PLAN_ENV` plan, or ``None``.

        ``environ`` binds *at call time*, not import time: a default of
        ``environ=os.environ`` in the signature would capture the mapping
        object that existed when this module was imported, so a test
        replacing ``os.environ`` wholesale (``monkeypatch.setattr``)
        would be silently ignored.
        """
        if environ is None:
            environ = os.environ  # repro-lint: disable=RNG004 -- from_env is the documented ambient entry point for the CI chaos harness
        payload = environ.get(FAULT_PLAN_ENV)
        if not payload:
            return None
        return cls.from_json(payload)
