"""Supervised shard builds: timeouts, retry budgets, pool recovery.

The supervisor replaces the bare ``pool.map`` loop of early sharded
sessions with a failure-aware scheduler.  Every shard build attempt is
classified through the typed hierarchy in :mod:`repro.errors`, and the
response follows the classification:

* **transient** (:class:`~repro.errors.ShardCrashError` — a worker died
  and broke the pool — or :class:`~repro.errors.ShardTimeoutError`) —
  retry the *same* config.  Seeded builds are deterministic, so the
  retry reproduces byte-for-byte the build the fault interrupted; a
  session that recovers from a crash is indistinguishable from one that
  never crashed.
* **data exhaustion** (:class:`~repro.errors.CornerSelectionError` —
  the shard's corpus cannot sustain its corner-selection quota) — retry
  with *respawned seeds*: :func:`respawn_config` derives attempt ``n``'s
  build/corpus seeds from ``(session_seed, shard, n)`` and nothing else,
  so a reseeded retry is just as deterministic as the original plan
  (same session, same shard, same fault history ⇒ same corpus).
* **anything else** — presumed a code bug: never retried, surfaced
  immediately under ``failure_policy="raise"`` or recorded under
  ``"degrade"``.

Builds run in waves: all pending shards are submitted, results are
collected in shard order, failures schedule the next wave after one
exponential-backoff sleep (``backoff_base * 2**(attempt-1)``, capped).
The process executor enforces the wall-clock ``timeout`` preemptively —
a wave that times out or breaks its pool has the pool's workers
terminated and a fresh pool built for the next wave; the serial executor
cannot preempt a running build and classifies post-hoc on the
attempt's measured elapsed time (the worker-side build clock, so queue
wait is never billed as build time).

After the build waves, :meth:`ShardSupervisor.run_pairs` runs a
session's cross-shard pair joins on the same pool and through the same
retry loop, so pairs get the same timeout, retry budget, backoff and
error types as builds (a pair has no seeds to respawn); a pair that
fails for good raises under ``failure_policy="raise"`` or is reported
missing under ``"degrade"``.  The pool lives from the first wave until
:meth:`ShardSupervisor.close` (or the end of ``with supervisor:``), so
a session shuts it down once.

With a :class:`~repro.shard.checkpoint.ShardCheckpointStore` attached,
verified checkpoints are loaded up front (those shards never enter the
build waves) and every freshly built shard's store, which its worker
wrote, is adopted on completion — a killed session resumes by
rebuilding only what is missing.

Every pool worker runs :func:`cap_blas_threads` as its initializer, so
a pool rebuilt after a crash is capped too.  Each worker is one build on
one core; bundled OpenBLAS would otherwise start a thread per core in
every worker, and two workers on two cores would oversubscribe the CPU
in every dense kernel of the build (the LSA embedding fit, the
``lsa_embedding`` join).  The serial executor and the parent process
keep their thread pools.
"""

from __future__ import annotations

import ctypes
import importlib
import time

from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from repro.core.builder import BuildConfig, build_one_corpus
from repro.errors import (
    CornerSelectionError,
    ShardBuildError,
    ShardCrashError,
    ShardRetriesExhaustedError,
    ShardTimeoutError,
    describe_task,
)
from repro.io.store import StoredShard, StoredShardHandle, clear_stale_lock
from repro.shard.checkpoint import ShardCheckpointStore
from repro.shard.faults import FaultPlan
from repro.similarity.signatures import RowSignatures
from repro.utils.timer import Timer

__all__ = [
    "RetryPolicy",
    "AttemptRecord",
    "ShardOutcome",
    "TaskOutcome",
    "SessionHealth",
    "ShardSupervisor",
    "respawn_config",
    "check_executor",
    "cap_blas_threads",
    "EXECUTORS",
    "FAILURE_POLICIES",
]

EXECUTORS = ("process", "serial")

FAILURE_POLICIES = ("raise", "degrade")

_SEED_MODULUS = 2**32

# (package, library glob in ``<site-packages>/<package>.libs``, the
# library's thread-count setter): the OpenBLAS builds numpy and scipy
# wheels bundle, each with its own thread pool.
_BLAS_THREAD_SETTERS = (
    ("numpy", "libscipy_openblas64_*.so", "scipy_openblas_set_num_threads64_"),
    ("scipy", "libscipy_openblas*.so", "scipy_openblas_set_num_threads"),
)


def cap_blas_threads() -> tuple[str, ...]:
    """Set every bundled OpenBLAS of numpy and scipy to one thread.

    The process-pool initializer.  Libraries are looked up in the
    ``<package>.libs`` directory beside each installed package and
    called through :mod:`ctypes`; a library or setter symbol that is
    missing — a wheel with other names, a system BLAS — is skipped.
    Returns the file names of the libraries capped.
    """
    capped = []
    for package, pattern, setter in _BLAS_THREAD_SETTERS:
        root = Path(importlib.import_module(package).__file__).parent.parent
        for path in sorted((root / f"{package}.libs").glob(pattern)):
            try:
                set_threads = getattr(ctypes.CDLL(str(path)), setter)
            except (OSError, AttributeError):
                continue
            set_threads.argtypes = [ctypes.c_int]
            set_threads.restype = None
            set_threads(1)
            capped.append(path.name)
    return tuple(capped)


def check_executor(executor: str, max_workers: int | None) -> None:
    """Reject an unknown executor or a worker count that is not ``None``
    or an ``int`` of at least 1 (``None`` means one worker per shard)."""
    if executor not in EXECUTORS:
        raise ValueError(
            f"executor must be one of {EXECUTORS}, got {executor!r}"
        )
    if max_workers is not None and (
        isinstance(max_workers, bool)
        or not isinstance(max_workers, int)
        or max_workers < 1
    ):
        raise ValueError(
            f"max_workers must be None or an int >= 1, got {max_workers!r}"
        )


def respawn_config(
    base: BuildConfig, *, session_seed: int, shard: int, attempt: int
) -> BuildConfig:
    """``base`` with seeds respawned for retry ``attempt`` of ``shard``.

    The seeds are a pure function of ``(session_seed, shard, attempt)``
    — independent of what failed, when, or on which worker — so reseeded
    retries keep the session's determinism guarantee: two runs of the
    same plan hitting the same deterministic failure rebuild identical
    shards.  ``attempt`` is 1-based and must be ≥ 2 (attempt 1 is the
    plan's own spawned config).
    """
    if attempt < 2:
        raise ValueError(
            f"respawned configs start at attempt 2, got {attempt}"
        )
    entropy = np.random.SeedSequence([int(session_seed), int(shard), int(attempt)])
    build_seed, corpus_seed = (
        int(word) % _SEED_MODULUS
        for word in entropy.generate_state(2, dtype=np.uint64)
    )
    return replace(
        base, seed=build_seed, corpus=replace(base.corpus, seed=corpus_seed)
    )


@dataclass(frozen=True)
class RetryPolicy:
    """Per-shard retry budget, backoff curve and wall-clock timeout."""

    max_attempts: int = 3
    backoff_base: float = 0.5
    backoff_cap: float = 8.0
    timeout: float | None = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.backoff_base < 0 or self.backoff_cap < 0:
            raise ValueError("backoff seconds must be non-negative")
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError(f"timeout must be positive, got {self.timeout}")

    def backoff(self, failed_attempt: int) -> float:
        """Sleep before the retry following ``failed_attempt`` (1-based)."""
        return min(
            self.backoff_base * (2 ** (failed_attempt - 1)), self.backoff_cap
        )


@dataclass(frozen=True)
class AttemptRecord:
    """One build attempt of one shard (or join attempt of one shard
    pair), as the health report records it.

    ``pid`` is the process that ran a successful attempt, where the task
    reports it (pair joins do).
    """

    attempt: int
    ok: bool
    error: str | None = None
    message: str | None = None
    elapsed: float = 0.0
    reseeded: bool = False
    pid: int | None = None

    def as_dict(self) -> dict:
        return {
            "attempt": self.attempt,
            "ok": self.ok,
            "error": self.error,
            "message": self.message,
            "elapsed_seconds": self.elapsed,
            "reseeded": self.reseeded,
            "pid": self.pid,
        }


@dataclass
class ShardOutcome:
    """Everything the supervisor concluded about one planned shard."""

    shard: int
    artifacts: StoredShard | None
    summary: RowSignatures | None
    attempts: tuple[AttemptRecord, ...]
    source: str  # "built" | "checkpoint" | "failed"
    config: BuildConfig
    failure: ShardBuildError | None = None

    @property
    def ok(self) -> bool:
        return self.artifacts is not None


@dataclass
class SessionHealth:
    """Per-shard status of a (possibly degraded) sharded session.

    The contract behind ``failure_policy="degrade"``: partial results are
    never silently presented as complete.  ``missing_pairs`` lists every
    shard pair absent from the cross-shard sweep because one side failed
    or its join failed for good, and ``statuses`` / ``attempts`` record
    how each shard got here (``"built"``, ``"checkpoint"``, or
    ``"failed"`` with its full attempt ledger).  ``pair_attempts`` is the
    separate ledger of the cross-shard join attempts, keyed by ``(i, j)``.
    """

    failure_policy: str
    planned_shards: int
    statuses: dict[int, str] = field(default_factory=dict)
    attempts: dict[int, tuple[AttemptRecord, ...]] = field(default_factory=dict)
    retries: int = 0
    checkpoints_loaded: int = 0
    failed_shards: tuple[int, ...] = ()
    surviving_shards: tuple[int, ...] = ()
    missing_pairs: tuple[tuple[int, int], ...] = ()
    pair_attempts: dict[tuple[int, int], tuple[AttemptRecord, ...]] = field(
        default_factory=dict
    )

    @property
    def degraded(self) -> bool:
        """A shard or a shard pair is missing from the session."""
        return bool(self.failed_shards or self.missing_pairs)

    def as_dict(self) -> dict:
        return {
            "failure_policy": self.failure_policy,
            "planned_shards": self.planned_shards,
            "degraded": self.degraded,
            "statuses": {
                str(shard): status for shard, status in self.statuses.items()
            },
            "attempts": {
                str(shard): [record.as_dict() for record in records]
                for shard, records in self.attempts.items()
            },
            "retries": self.retries,
            "checkpoints_loaded": self.checkpoints_loaded,
            "failed_shards": list(self.failed_shards),
            "surviving_shards": list(self.surviving_shards),
            "missing_pairs": [list(pair) for pair in self.missing_pairs],
            "pair_attempts": {
                f"{i}→{j}": [record.as_dict() for record in records]
                for (i, j), records in self.pair_attempts.items()
            },
        }


def _build_one_shard(
    config: BuildConfig,
    *,
    shard: int,
    attempt: int,
    with_signatures: bool,
    fault_plan: FaultPlan | None = None,
) -> tuple[StoredShardHandle, RowSignatures | None, float]:
    """One shard build attempt into ``config.store_dir``, plus
    (optionally) its signature summary.

    Module-level so process pools can pickle it.  The build writes the
    shard's artifact store, and only a two-field
    :class:`~repro.io.store.StoredShardHandle` and the summary cross the
    pool boundary back to the parent — never the built artifact graph.
    Building the summary *here* means worker processes summarize the
    engines they just built; the parent only merges summaries.  Returns
    the worker-measured elapsed seconds as the third element — the clock
    supervisors judge post-hoc timeouts on, so queue wait never counts
    against the build.  A config without ``store_dir`` raises
    :class:`ValueError`.

    The fault hook fires before any pipeline stage: ``fault_plan`` is
    the explicit (picklable) plan, and when none is given the ambient
    ``REPRO_FAULT_PLAN`` environment plan applies — both test-only.
    """
    if not config.store_dir:
        raise ValueError(
            f"shard {shard}: a shard build writes its store into "
            "config.store_dir, and this config names none"
        )
    start = time.perf_counter()
    plan = fault_plan if fault_plan is not None else FaultPlan.from_env()
    if plan is not None:
        plan.inject(shard, attempt)
    clear_stale_lock(config.store_dir)
    artifacts = build_one_corpus(config)
    summary = None
    if with_signatures and artifacts.engine is not None:
        summary = RowSignatures.from_engine(artifacts.engine)
    return (
        StoredShardHandle(str(config.store_dir), shard),
        summary,
        time.perf_counter() - start,
    )


@dataclass
class _Pending:
    """The next attempt of one task key (``config``: a shard build's)."""

    attempt: int = 1
    config: BuildConfig | None = None
    reseeded: bool = False


@dataclass(frozen=True)
class TaskOutcome:
    """How one supervised task (a shard build or a pair join) ended.

    ``result`` is what its successful attempt returned (after the
    caller's ``accept`` hook), ``None`` when it failed for good;
    ``attempts`` is its ledger, ``state`` its last attempt and
    ``failure`` its final error.
    """

    result: object
    attempts: tuple[AttemptRecord, ...]
    state: _Pending
    failure: ShardBuildError | None = None


class ShardSupervisor:
    """Schedules, supervises and (when needed) retries shard builds.

    Worker processes are the only parallel unit: ``executor="process"``
    runs each wave on a pool of ``max_workers`` processes (``None``: one
    per shard), and ``"serial"`` runs it in this process.

    With a ``checkpoint_store``, every config must build into that
    store's directory for its shard (``store_dir ==
    checkpoint_store.shard_dir(shard)``) — the only store the supervisor
    can adopt — or the constructor raises :class:`ValueError` before
    anything is built.

    ``build_fn`` defaults to :func:`_build_one_shard`; tests inject a
    lightweight module-level callable with the same signature to
    exercise supervision without paying for real corpus builds.
    """

    def __init__(
        self,
        configs,
        *,
        session_seed: int,
        executor: str = "process",
        max_workers: int | None = None,
        policy: RetryPolicy | None = None,
        failure_policy: str = "raise",
        fault_plan: FaultPlan | None = None,
        checkpoint_store: ShardCheckpointStore | None = None,
        with_signatures: bool = True,
        sleep=time.sleep,
        build_fn=None,
    ) -> None:
        check_executor(executor, max_workers)
        if failure_policy not in FAILURE_POLICIES:
            raise ValueError(
                f"failure_policy must be one of {FAILURE_POLICIES}, got "
                f"{failure_policy!r}"
            )
        self.configs = list(configs)
        if checkpoint_store is not None:
            for shard, config in enumerate(self.configs):
                expected = checkpoint_store.shard_dir(shard)
                if not config.store_dir or (
                    Path(config.store_dir).resolve() != expected.resolve()
                ):
                    raise ValueError(
                        f"shard {shard} builds into store_dir="
                        f"{config.store_dir!r}, but its checkpoint store "
                        f"adopts only {expected}"
                    )
        self.session_seed = session_seed
        self.executor = executor
        self.max_workers = max_workers
        self.policy = policy if policy is not None else RetryPolicy()
        self.failure_policy = failure_policy
        self.fault_plan = fault_plan
        self.checkpoint_store = checkpoint_store
        self.with_signatures = with_signatures
        self.sleep = sleep
        self.build_fn = build_fn if build_fn is not None else _build_one_shard
        self.retries = 0
        self.stage_timings: dict[str, float] = {}
        self._pool: ProcessPoolExecutor | None = None

    def __enter__(self) -> "ShardSupervisor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Shut the pool down (a no-op without one).  The only place the
        pool ends, apart from a wave that breaks it."""
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None

    # ------------------------------------------------------------------ #
    # Pool lifecycle
    # ------------------------------------------------------------------ #
    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            workers = self.max_workers or len(self.configs)
            self._pool = ProcessPoolExecutor(
                max_workers=workers, initializer=cap_blas_threads
            )
        return self._pool

    def _kill_pool(self) -> None:
        """Terminate the pool's workers (hung or dead) and forget it."""
        if self._pool is None:
            return
        pool, self._pool = self._pool, None
        for process in list(getattr(pool, "_processes", {}).values()):
            process.terminate()
        try:
            pool.shutdown(wait=True, cancel_futures=True)
        except Exception:
            # A pool broken mid-shutdown has nothing left worth keeping.
            pass

    # ------------------------------------------------------------------ #
    # Attempt classification
    # ------------------------------------------------------------------ #
    def _classify(
        self,
        error: BaseException,
        *,
        shard: int | tuple[int, int],
        attempt: int,
        elapsed: float,
    ) -> tuple[ShardBuildError, bool, bool]:
        """``(classified, retryable, reseed)`` for one failed attempt of
        a shard build (``shard`` an id) or a pair join (an ``(i, j)``).

        Only a build has seeds to respawn: a pair join's
        corner-selection error is a code bug like any other."""
        subject, first, stage = describe_task(shard)
        if isinstance(error, (ShardCrashError, ShardTimeoutError)):
            return error, True, False
        if isinstance(error, CornerSelectionError) and stage == "build":
            wrapped = ShardBuildError(
                f"{subject} attempt {attempt} exhausted its corner-case "
                f"pool: {error}",
                shard=first,
                attempt=attempt,
                stage="selection",
                elapsed=elapsed,
            )
            wrapped.__cause__ = error
            return wrapped, True, True
        if isinstance(error, BrokenProcessPool):
            crash = ShardCrashError(
                f"{subject} attempt {attempt}: worker process pool "
                "broke (a worker died — crash or OOM)",
                shard=first,
                attempt=attempt,
                stage=stage,
                elapsed=elapsed,
            )
            crash.__cause__ = error
            return crash, True, False
        where = "the build pipeline" if stage == "build" else "its join"
        wrapped = ShardBuildError(
            f"{subject} attempt {attempt} failed in {where}: "
            f"{type(error).__name__}: {error}",
            shard=first,
            attempt=attempt,
            stage=stage,
            elapsed=elapsed,
        )
        wrapped.__cause__ = error if isinstance(error, Exception) else None
        return wrapped, False, False

    # ------------------------------------------------------------------ #
    # Wave execution
    # ------------------------------------------------------------------ #
    # A wave maps each task key (a shard id or an ``(i, j)`` shard pair)
    # to ``(attempt, kwargs)`` of one call of ``fn``, whose result ends in
    # its worker-measured elapsed seconds; it returns ``(ok, payload,
    # elapsed)`` per key.
    def _serial_wave(self, fn, calls: dict) -> dict:
        results = {}
        for key, (_, kwargs) in calls.items():
            with Timer() as timer:
                try:
                    payload = fn(**kwargs)
                except Exception as error:
                    results[key] = (False, error, timer.elapsed)
                    continue
            results[key] = (True, payload, payload[-1])
        return results

    def _process_wave(self, fn, calls: dict) -> dict:
        results = {}
        pool = self._ensure_pool()
        futures = {
            key: pool.submit(fn, **kwargs) for key, (_, kwargs) in calls.items()
        }
        start = time.monotonic()
        pool_tainted = False
        for key, (attempt, _) in calls.items():
            try:
                if self.policy.timeout is None:
                    payload = futures[key].result()
                else:
                    remaining = max(
                        0.0, start + self.policy.timeout - time.monotonic()
                    )
                    payload = futures[key].result(timeout=remaining)
                results[key] = (True, payload, payload[-1])
            except FuturesTimeoutError:
                pool_tainted = True
                subject, first, stage = describe_task(key)
                results[key] = (
                    False,
                    ShardTimeoutError(
                        f"{subject} attempt {attempt} exceeded the "
                        f"{self.policy.timeout}s wall-clock budget",
                        shard=first,
                        attempt=attempt,
                        stage=stage,
                        elapsed=self.policy.timeout,
                    ),
                    self.policy.timeout or 0.0,
                )
            except BrokenProcessPool as error:
                pool_tainted = True
                results[key] = (False, error, time.monotonic() - start)
            except Exception as error:
                results[key] = (False, error, time.monotonic() - start)
        if pool_tainted:
            # Hung workers occupy slots and dead pools reject submits —
            # either way the next wave needs a fresh pool.
            self._kill_pool()
        return results

    def _run_wave(self, fn, calls: dict) -> dict:
        if self.executor == "process" and len(self.configs) > 1:
            return self._process_wave(fn, calls)
        return self._serial_wave(fn, calls)

    def _supervise(
        self, fn, pending: dict, make_kwargs, *, accept=None, on_retry=None
    ) -> dict:
        """Drive every ``pending`` task key to a :class:`TaskOutcome`.

        Tasks run in waves: each wave calls ``fn(**make_kwargs(key,
        state))`` for every pending key, whose result ends in its
        worker-measured elapsed seconds.  A successful attempt that took
        longer than the policy's timeout counts as a
        :class:`~repro.errors.ShardTimeoutError` (the serial executor
        cannot preempt, and a late process result is no better).
        ``accept(key, state, payload)`` turns a successful payload into
        the outcome's result (default: the payload itself).  A retryable
        failure with budget left is retried with ``on_retry(key, state,
        reseed)`` as its next state (default: the same task, one attempt
        later), after one backoff per wave; a key out of budget ends in
        :class:`~repro.errors.ShardRetriesExhaustedError`, and any other
        failure ends at once.  A final failure raises under
        ``failure_policy="raise"``.
        """
        ledgers: dict = {key: [] for key in pending}
        settled: dict = {}
        while pending:
            wave = sorted(pending)
            results = self._run_wave(
                fn,
                {
                    key: (pending[key].attempt, make_kwargs(key, pending[key]))
                    for key in wave
                },
            )
            retry_sleep = 0.0
            for key in wave:
                ok, payload, elapsed = results[key]
                state = pending.pop(key)
                subject, first, stage = describe_task(key)
                if ok:
                    elapsed = payload[-1]
                    timeout = self.policy.timeout
                    if timeout is None or elapsed <= timeout:
                        ledgers[key].append(
                            AttemptRecord(
                                attempt=state.attempt,
                                ok=True,
                                elapsed=elapsed,
                                reseeded=state.reseeded,
                                pid=getattr(payload[0], "pid", None),
                            )
                        )
                        settled[key] = TaskOutcome(
                            accept(key, state, payload) if accept else payload,
                            tuple(ledgers[key]),
                            state,
                        )
                        continue
                    error: BaseException = ShardTimeoutError(
                        f"{subject} attempt {state.attempt} took "
                        f"{elapsed:.2f}s, over the {timeout}s budget",
                        shard=first,
                        attempt=state.attempt,
                        stage=stage,
                        elapsed=elapsed,
                    )
                else:
                    error = payload
                classified, retryable, reseed = self._classify(
                    error, shard=key, attempt=state.attempt, elapsed=elapsed
                )
                ledgers[key].append(
                    AttemptRecord(
                        attempt=state.attempt,
                        ok=False,
                        error=type(classified.__cause__ or classified).__name__,
                        message=str(classified),
                        elapsed=elapsed,
                        reseeded=state.reseeded,
                    )
                )
                if retryable and state.attempt < self.policy.max_attempts:
                    pending[key] = (
                        on_retry(key, state, reseed)
                        if on_retry
                        else replace(state, attempt=state.attempt + 1)
                    )
                    retry_sleep = max(
                        retry_sleep, self.policy.backoff(state.attempt)
                    )
                    continue
                # Out of budget (or not retryable): final failure.
                if retryable:
                    final: ShardBuildError = ShardRetriesExhaustedError(
                        f"{subject} failed all {self.policy.max_attempts} "
                        f"attempts; last error: {classified}",
                        shard=first,
                        attempt=state.attempt,
                        stage=classified.stage,
                        elapsed=elapsed,
                    )
                    final.__cause__ = classified
                else:
                    final = classified
                settled[key] = TaskOutcome(
                    None, tuple(ledgers[key]), state, final
                )
                if self.failure_policy == "raise":
                    raise final
            if pending and retry_sleep > 0:
                # One backoff per wave: concurrent tasks share the
                # longest scheduled backoff instead of stacking them.
                self.sleep(retry_sleep)
        return settled

    # ------------------------------------------------------------------ #
    def run(self) -> list[ShardOutcome]:
        """Supervise every planned shard to an outcome, in shard order.

        Raises the final :class:`~repro.errors.ShardBuildError` of the
        first (lowest-index) failed shard under ``failure_policy="raise"``;
        under ``"degrade"`` failed shards come back as ``failed``
        outcomes — unless *every* shard failed, which always raises (a
        session with zero surviving shards has no degraded mode to offer).
        The pool stays open for the caller: :meth:`close` (or leaving
        ``with supervisor:``) shuts it down.
        """
        outcomes: dict[int, ShardOutcome] = {}
        load_seconds = 0.0
        save_seconds = 0.0
        pending: dict[int, _Pending] = {}
        for shard, config in enumerate(self.configs):
            if self.checkpoint_store is not None:
                with Timer() as timer:
                    loaded = self.checkpoint_store.load(
                        shard, base_config=config
                    )
                load_seconds += timer.elapsed
                if loaded is not None:
                    # The sweep rebuilds signature summaries on demand
                    # from the stored shard's mmap engine.
                    outcomes[shard] = ShardOutcome(
                        shard=shard,
                        artifacts=loaded[0],
                        summary=None,
                        attempts=(),
                        source="checkpoint",
                        config=config,
                    )
                    continue
            pending[shard] = _Pending(config=config)

        def build_kwargs(shard: int, state: _Pending) -> dict:
            return dict(
                config=state.config,
                shard=shard,
                attempt=state.attempt,
                with_signatures=self.with_signatures,
                fault_plan=self.fault_plan,
            )

        def adopt(shard: int, state: _Pending, payload) -> tuple:
            nonlocal save_seconds
            artifacts, summary, build_elapsed = payload
            if isinstance(artifacts, StoredShardHandle):
                # Adopt the worker's store by path: the open verifies the
                # manifest + streamed sha256s, and a failure here is a
                # code bug (the worker just reported success), so strict.
                artifacts = artifacts.open(strict=True)
            if self.checkpoint_store is not None:
                with Timer() as timer:
                    self.checkpoint_store.save(
                        shard,
                        artifacts,
                        base_config=self.configs[shard],
                        attempt=state.attempt,
                        elapsed=build_elapsed,
                    )
                save_seconds += timer.elapsed
            return artifacts, summary

        def retry(shard: int, state: _Pending, reseed: bool) -> _Pending:
            self.retries += 1
            attempt = state.attempt + 1
            if not reseed:
                return replace(state, attempt=attempt)
            return _Pending(
                attempt=attempt,
                config=respawn_config(
                    self.configs[shard],
                    session_seed=self.session_seed,
                    shard=shard,
                    attempt=attempt,
                ),
                reseeded=True,
            )

        try:
            settled = self._supervise(
                self.build_fn, pending, build_kwargs, accept=adopt,
                on_retry=retry,
            )
        finally:
            self.stage_timings["shard:retries"] = float(self.retries)
            if self.checkpoint_store is not None:
                self.stage_timings["checkpoint:load"] = load_seconds
                self.stage_timings["checkpoint:save"] = save_seconds
        for shard, done in settled.items():
            artifacts, summary = done.result or (None, None)
            outcomes[shard] = ShardOutcome(
                shard=shard,
                artifacts=artifacts,
                summary=summary,
                attempts=done.attempts,
                source="failed" if done.failure else "built",
                config=done.state.config,
                failure=done.failure,
            )

        ordered = [outcomes[shard] for shard in sorted(outcomes)]
        if not any(outcome.ok for outcome in ordered):
            failures = [
                outcome.failure for outcome in ordered if outcome.failure
            ]
            error = ShardBuildError(
                f"all {len(self.configs)} shards failed — no surviving "
                "shards to degrade to"
            )
            error.__cause__ = failures[0] if failures else None
            raise error
        return ordered

    # ------------------------------------------------------------------ #
    def run_pairs(
        self, fn, tasks: dict[tuple[int, int], dict]
    ) -> dict[tuple[int, int], TaskOutcome]:
        """Run every shard-pair join task to an outcome on the pool.

        ``tasks`` maps each ``(i, j)`` pair to the keyword arguments of
        one ``fn`` call; ``fn`` also receives ``attempt`` and
        ``fault_plan`` and returns ``(result, elapsed_seconds)``, where
        ``result`` carries the ``pid`` that computed it.  The pairs run
        under the same loop as the shard builds (:meth:`_supervise`):
        the same timeout, retry budget, backoff and error types, with no
        seeds to respawn.  Returns each pair's :class:`TaskOutcome`:
        ``result`` is ``fn``'s return, ``attempts`` the pair's own
        ledger, apart from the shard builds'.  A pair that fails for good
        raises under ``failure_policy="raise"``; under ``"degrade"`` its
        outcome carries the ``failure``.
        """
        return self._supervise(
            fn,
            {pair: _Pending() for pair in tasks},
            lambda pair, state: dict(
                tasks[pair], attempt=state.attempt, fault_plan=self.fault_plan
            ),
        )

    # ------------------------------------------------------------------ #
    def health(
        self,
        outcomes: list[ShardOutcome],
        *,
        missing_pairs: tuple[tuple[int, int], ...] = (),
    ) -> SessionHealth:
        """The :class:`SessionHealth` report of one completed run."""
        return SessionHealth(
            failure_policy=self.failure_policy,
            planned_shards=len(self.configs),
            statuses={
                outcome.shard: outcome.source for outcome in outcomes
            },
            attempts={
                outcome.shard: outcome.attempts for outcome in outcomes
            },
            retries=self.retries,
            checkpoints_loaded=sum(
                1 for outcome in outcomes if outcome.source == "checkpoint"
            ),
            failed_shards=tuple(
                outcome.shard for outcome in outcomes if not outcome.ok
            ),
            surviving_shards=tuple(
                outcome.shard for outcome in outcomes if outcome.ok
            ),
            missing_pairs=missing_pairs,
        )
