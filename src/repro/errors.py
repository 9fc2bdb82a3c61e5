"""Typed errors for the build pipeline and the shard fault-tolerance layer.

Failure *classification* is what lets a supervisor act sensibly: a worker
crash or a hung build is transient (retry the same config — a seeded
build is deterministic, so the retry reproduces exactly what the lost
attempt would have produced), corner-case exhaustion is a deterministic
property of the data (retrying the same seed fails the same way, so the
retry must respawn the shard's seeds), and anything else is presumed a
code bug (retrying cannot help and only hides the traceback).  The
hierarchy encodes those three classes:

* :class:`CornerSelectionError` — data exhaustion inside product
  selection.  Subclasses :class:`ValueError` so every pre-existing
  ``except ValueError`` caller keeps working, but carries the
  needed/found counts and the corner-case ratio being built so a
  supervisor (or a user reading the message) can tell "the corpus cannot
  sustain this quota" apart from a genuine bug.
* :class:`ShardBuildError` — the supervisor-facing wrapper: shard index,
  attempt number, pipeline stage and elapsed seconds travel with the
  error.  :class:`ShardCrashError` (worker process died / pool broke),
  :class:`ShardTimeoutError` (wall-clock budget exceeded) and
  :class:`ShardRetriesExhaustedError` (budget spent, final state) refine
  it.
* :class:`StoreError` — an on-disk artifact store that refuses to open:
  truncated sidecar, schema-version mismatch, manifest/sha mismatch, or
  a concurrent second writer holding the store's write lock.
* :class:`SweepJoinError` — a shard's persisted within-shard join does
  not fit the universe the sweep adopts it into (row count, ``k`` or
  metrics differ).  The sweep never recomputes such a join silently.
* :class:`ServiceError` — the serving layer's family:
  :class:`ServiceOverloadError` (admission queue full — the typed shed
  signal callers are expected to catch and back off on),
  :class:`ServiceDeadlineError` (the request aged past its deadline
  while queued) and :class:`ServiceClosedError` (submitted to a service
  that is not running).

All shard errors cross process boundaries: worker exceptions are
pickled back to the parent by ``concurrent.futures``, so every class
with keyword state defines ``__reduce__``.  The service errors carry
their context in the message only, so default pickling suffices.

:class:`EmbeddingsDroppedWarning` rides along here as the typed signal
for :meth:`SimilarityEngine.concat`'s embedding-dropping behaviour —
the LSA spaces of the input engines are not comparable, so the combined
engine cannot serve ``lsa_embedding``; serving-layer callers either
acknowledge the drop (``strict_embeddings=False``) or turn it into an
error (``strict_embeddings=True``).
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "CornerSelectionError",
    "ShardBuildError",
    "ShardCrashError",
    "ShardTimeoutError",
    "ShardRetriesExhaustedError",
    "describe_task",
    "StoreError",
    "SweepJoinError",
    "ServiceError",
    "ServiceOverloadError",
    "ServiceDeadlineError",
    "ServiceClosedError",
    "EmbeddingsDroppedWarning",
]


class ReproError(Exception):
    """Base class of every typed error raised by this package."""


class CornerSelectionError(ReproError, ValueError):
    """Product selection ran out of usable corner-case (or filler) data.

    Raised by :func:`repro.core.selection.select_products` when the
    grouped corpus cannot sustain the requested quota — the "needed 800,
    found 795" failure mode of scaled-up single-corpus builds.  This is
    *data exhaustion*, not a code bug: the same seed deterministically
    fails again, which is why shard supervisors respond by respawning
    the shard's seeds instead of retrying verbatim.

    Subclasses :class:`ValueError` for backward compatibility with every
    caller written against the untyped raise.
    """

    def __init__(
        self,
        message: str,
        *,
        needed: int | None = None,
        found: int | None = None,
        part: str | None = None,
        corner_case_ratio: float | None = None,
        kind: str = "corner",
    ) -> None:
        super().__init__(message)
        self.needed = needed
        self.found = found
        self.part = part
        self.corner_case_ratio = corner_case_ratio
        self.kind = kind

    def __reduce__(self):
        return (
            _rebuild_corner_selection_error,
            (
                self.args[0] if self.args else "",
                self.needed,
                self.found,
                self.part,
                self.corner_case_ratio,
                self.kind,
            ),
        )


def _rebuild_corner_selection_error(
    message, needed, found, part, corner_case_ratio, kind
):
    return CornerSelectionError(
        message,
        needed=needed,
        found=found,
        part=part,
        corner_case_ratio=corner_case_ratio,
        kind=kind,
    )


class ShardBuildError(ReproError):
    """A shard build attempt failed.

    Carries everything a supervisor's ledger needs: which shard, which
    attempt (1-based), the pipeline stage the failure is attributed to,
    and the attempt's elapsed wall-clock seconds.  The underlying
    exception, when one exists, rides along as ``__cause__``.
    """

    def __init__(
        self,
        message: str = "",
        *,
        shard: int | None = None,
        attempt: int | None = None,
        stage: str | None = None,
        elapsed: float | None = None,
    ) -> None:
        super().__init__(message)
        self.shard = shard
        self.attempt = attempt
        self.stage = stage
        self.elapsed = elapsed

    def __reduce__(self):
        return (
            _rebuild_shard_build_error,
            (
                type(self),
                self.args[0] if self.args else "",
                self.shard,
                self.attempt,
                self.stage,
                self.elapsed,
            ),
        )


def _rebuild_shard_build_error(cls, message, shard, attempt, stage, elapsed):
    return cls(
        message, shard=shard, attempt=attempt, stage=stage, elapsed=elapsed
    )


def describe_task(key: int | tuple[int, int]) -> tuple[str, int, str]:
    """``(subject, shard, stage)`` of a supervised task key.

    A shard id ``i`` keys its build: ``("shard i", i, "build")``.  A
    ``(i, j)`` shard pair keys its cross-shard join: ``("shard pair
    i→j", i, "pair")``.  ``shard`` and ``stage`` fill the fields of the
    :class:`ShardBuildError` raised for the task.
    """
    if isinstance(key, tuple):
        return f"shard pair {key[0]}→{key[1]}", key[0], "pair"
    return f"shard {key}", key, "build"


class ShardCrashError(ShardBuildError):
    """The shard's worker died (broken process pool or simulated crash).

    Transient by classification: the attempt never reported a result, so
    retrying the *same* config reproduces exactly the build the crash
    interrupted.  Note that one crashed worker breaks the whole pool —
    sibling shards in flight surface as :class:`ShardCrashError` too and
    are retried the same way.
    """


class ShardTimeoutError(ShardBuildError):
    """The shard build exceeded its wall-clock budget.

    Transient by classification (a hung worker, an overloaded machine):
    the retry reuses the same config.  Process executors enforce the
    budget preemptively (the hung worker is terminated with the pool);
    the serial executor cannot preempt a running build and classifies
    post-hoc on the attempt's measured elapsed time.
    """


class ShardRetriesExhaustedError(ShardBuildError):
    """A shard failed every attempt its retry budget allowed.

    The final classification of a failed shard; ``__cause__`` is the
    last attempt's error.  Under ``failure_policy="raise"`` the session
    surfaces this, under ``"degrade"`` it is recorded in the
    :class:`~repro.shard.supervisor.SessionHealth` report instead.
    """


class StoreError(ReproError):
    """An on-disk artifact store cannot be opened (or written) safely.

    Raised by :mod:`repro.io.store` when a store is truncated, carries a
    different schema version, fails its streamed sha256 verification, or
    is locked by a concurrent writer, and by
    :meth:`~repro.shard.merge.StoredMergedCandidates.open` for a file
    that is no merged store or lacks the requested table.  Session-level callers treat an
    unverifiable store like a missing checkpoint (rebuild the shard);
    strict callers surface this error instead.
    """


class SweepJoinError(ReproError):
    """A shard's within-shard join cannot be adopted by the sweep.

    Raised by :func:`~repro.shard.sweep.adopt_stored` when the join a
    shard build persisted does not cover every row, was computed with a
    different ``k`` or under different metrics than the session's sweep
    asks for — or when the shard carries no join at all.
    """


class ServiceError(ReproError):
    """Base class of the online match-serving layer's typed errors."""


class ServiceOverloadError(ServiceError):
    """The service's bounded admission queue is full.

    The typed shed signal of :class:`~repro.serve.MatchService`: rather
    than queueing unboundedly (and letting every request's latency grow
    without limit), the service rejects new work at admission once the
    queue is at capacity.  Callers back off and retry; the benchmark's
    shed-rate counter counts exactly these.
    """


class ServiceDeadlineError(ServiceError):
    """The request exceeded its deadline while waiting to be served.

    Raised into the caller's future when the worker dequeues a request
    whose per-query deadline has already passed — stale work is dropped
    instead of scored, so a backlog burns down instead of serving
    answers nobody is waiting for anymore.
    """


class ServiceClosedError(ServiceError):
    """The service is not running (never started, stopping, or stopped)."""


class EmbeddingsDroppedWarning(UserWarning):
    """``SimilarityEngine.concat`` dropped the input engines' embeddings.

    Each input engine's LSA model is fitted on its own corpus, so their
    vectors are not comparable and the combined engine serves the token
    metrics only.  Warned by default; callers silence it by passing
    ``strict_embeddings=False`` (an acknowledged drop) or escalate it to
    a :class:`ValueError` with ``strict_embeddings=True``.
    """
