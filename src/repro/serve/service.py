"""Async match serving: micro-batched queries over live shards.

``await service.match(offers, k=10)`` is the query path the batch
pipeline never had.  The design is a single-writer queue-and-worker
loop:

* **Bounded admission.** ``match``/``append``/``retire`` enqueue onto a
  bounded :class:`asyncio.Queue`; a full queue sheds the request with a
  typed :class:`~repro.errors.ServiceOverloadError` instead of letting
  latency grow without limit.  Shedding is the *caller's* backpressure
  signal — the benchmark records its rate.
* **Micro-batching.** One worker task drains up to ``max_batch`` queued
  items at a time and coalesces adjacent queries into a single
  ``external_top_k_batch`` call per shard, so N concurrent awaiters
  cost one batched postings-index count, not N.  Items are processed in
  arrival order, so a query enqueued after an append observes it.
* **Deadlines.** Each query carries an optional deadline; the worker
  drops requests that expired while queued
  (:class:`~repro.errors.ServiceDeadlineError`) — a backlog burns down
  instead of computing answers nobody is waiting for.
* **One scoring thread.** NumPy/SciPy kernels release the GIL, but the
  engines' Python-side mutation state is single-writer; all scoring and
  every mutation run serialized on one executor thread, off the event
  loop (keeping ``async def`` bodies free of blocking calls — enforced
  tree-wide by repro-lint's ``ASY001``).

Cross-shard merging is deterministic: per query, shard results merge by
``(-score, shard position, row)`` and truncate to ``k``.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from collections.abc import Sequence

import numpy as np

from repro.corpus.schema import ProductOffer
from repro.errors import (
    ServiceClosedError,
    ServiceDeadlineError,
    ServiceOverloadError,
)
from repro.serve.live import LiveShard
from repro.text.tokenize import tokenize

__all__ = ["Match", "MatchService", "ServiceStats"]


@dataclass(frozen=True)
class Match:
    """One ranked result: which live offer, where, how similar."""

    offer_id: str
    shard: int
    row: int
    score: float


@dataclass(frozen=True)
class ServiceStats:
    """Monotonic counters snapshot (single event loop, so coherent)."""

    queries: int
    completed: int
    shed: int
    deadline_expired: int
    appends: int
    retires: int
    batches: int
    errors: int


class _Query:
    __slots__ = ("token_sets", "k", "metric", "deadline", "future")

    def __init__(self, token_sets, k, metric, deadline, future):
        self.token_sets = token_sets
        self.k = k
        self.metric = metric
        self.deadline = deadline
        self.future = future


class _Mutation:
    __slots__ = ("kind", "shard", "payload", "future")

    def __init__(self, kind, shard, payload, future):
        self.kind = kind
        self.shard = shard
        self.payload = payload
        self.future = future


class MatchService:
    """Async, micro-batching match API over one or more live shards."""

    def __init__(
        self,
        shards: Sequence[LiveShard],
        *,
        metric: str = "cosine",
        max_batch: int = 64,
        max_pending: int = 256,
        default_timeout: float | None = None,
    ) -> None:
        if not shards:
            raise ValueError("MatchService needs at least one shard")
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        self.shards = list(shards)
        self.metric = metric
        self._max_batch = int(max_batch)
        self._max_pending = int(max_pending)
        self._default_timeout = default_timeout
        self._queue: asyncio.Queue | None = None
        self._worker: asyncio.Task | None = None
        self._executor: ThreadPoolExecutor | None = None
        self._running = False
        self._queries = 0
        self._completed = 0
        self._shed = 0
        self._deadline_expired = 0
        self._appends = 0
        self._retires = 0
        self._batches = 0
        self._errors = 0

    @classmethod
    def from_session(cls, artifacts, *, grouping: bool = True,
                     eps: float = 0.35, min_samples: int = 1,
                     **kwargs) -> "MatchService":
        """A service over a session's per-shard artifacts.

        ``artifacts`` is a :class:`~repro.shard.session.ShardedArtifacts`
        (or anything with ``shards`` + ``shard_ids``).  A session's
        shards are :class:`~repro.io.store.StoredShard` stores, which
        expose the ``.engine`` / ``.cleansed`` surface of a
        ``BuildArtifacts``.
        """
        live = [
            LiveShard.from_artifacts(
                shard_artifacts,
                shard=shard_id,
                grouping=grouping,
                eps=eps,
                min_samples=min_samples,
            )
            for shard_id, shard_artifacts in zip(
                artifacts.shard_ids, artifacts.shards
            )
        ]
        return cls(live, **kwargs)

    @classmethod
    def from_handles(cls, handles: Sequence, *, grouping: bool = True,
                     eps: float = 0.35, min_samples: int = 1,
                     **kwargs) -> "MatchService":
        """A service over stored shards, opened lazily at ``start()``."""
        live = [
            LiveShard.from_handle(
                handle, grouping=grouping, eps=eps, min_samples=min_samples
            )
            for handle in handles
        ]
        return cls(live, **kwargs)

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    async def start(self) -> "MatchService":
        if self._running:
            raise ValueError("service already running")
        loop = asyncio.get_running_loop()
        self._queue = asyncio.Queue(maxsize=self._max_pending)
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="match-serve"
        )
        # Store-backed shards open here, off the event loop (sqlite +
        # mmap setup are blocking).
        await loop.run_in_executor(self._executor, self._open_shards)
        self._running = True
        self._worker = loop.create_task(self._run())
        return self

    def _open_shards(self) -> None:
        for shard in self.shards:
            shard.ensure_open()

    async def stop(self) -> None:
        """Drain queued work, then stop the worker and executor."""
        if not self._running:
            return
        self._running = False  # admission closes first
        assert self._queue is not None and self._worker is not None
        await self._queue.put(None)  # sentinel behind all queued work
        await self._worker
        self._worker = None
        executor = self._executor
        self._executor = None
        if executor is not None:
            executor.shutdown(wait=True)

    async def __aenter__(self) -> "MatchService":
        return await self.start()

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.stop()

    @property
    def running(self) -> bool:
        return self._running

    def stats(self) -> ServiceStats:
        return ServiceStats(
            queries=self._queries,
            completed=self._completed,
            shed=self._shed,
            deadline_expired=self._deadline_expired,
            appends=self._appends,
            retires=self._retires,
            batches=self._batches,
            errors=self._errors,
        )

    # ------------------------------------------------------------------ #
    # Public async API
    # ------------------------------------------------------------------ #
    @staticmethod
    def _token_set(query) -> set[str]:
        title = query.title if isinstance(query, ProductOffer) else str(query)
        return set(tokenize(title))

    def _admit(self, item) -> None:
        if not self._running or self._queue is None:
            raise ServiceClosedError("match service is not running")
        try:
            self._queue.put_nowait(item)
        except asyncio.QueueFull:
            self._shed += 1
            raise ServiceOverloadError(
                f"admission queue full ({self._max_pending} pending); "
                "back off and retry"
            ) from None

    async def match(
        self,
        queries: Sequence,
        *,
        k: int = 10,
        metric: str | None = None,
        timeout: float | None = None,
    ) -> list[list[Match]]:
        """Top-``k`` live offers per query, merged across shards.

        ``queries`` are titles or :class:`ProductOffer`\\ s — they need
        not (and normally do not) exist in any shard's universe.
        Raises :class:`ServiceOverloadError` when shed at admission and
        :class:`ServiceDeadlineError` when the request expired queued.
        """
        token_sets = [self._token_set(query) for query in queries]
        if not token_sets:
            return []
        loop = asyncio.get_running_loop()
        if timeout is None:
            timeout = self._default_timeout
        deadline = None if timeout is None else loop.time() + timeout
        future: asyncio.Future = loop.create_future()
        self._queries += 1
        self._admit(
            _Query(token_sets, int(k), metric or self.metric, deadline, future)
        )
        return await future

    async def append(
        self, offers: Sequence[ProductOffer], *, shard: int | None = None
    ) -> tuple[int, list[int]]:
        """Append offers to one shard; returns ``(shard_id, rows)``.

        ``shard=None`` routes to the shard with the fewest live rows
        (ties to the earlier shard) — deterministic load balancing.
        Mutations serialize with query batches in arrival order and are
        never deadline-dropped.
        """
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        self._admit(_Mutation("append", shard, list(offers), future))
        return await future

    async def retire(self, offer_ids: Sequence[str]) -> dict[int, list[int]]:
        """Retire offers by id; returns ``{shard_id: rows}``.

        Owning shards are resolved at apply time (consistent with the
        mutations queued ahead); an unknown id raises ``KeyError``.
        """
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        self._admit(_Mutation("retire", None, list(offer_ids), future))
        return await future

    # ------------------------------------------------------------------ #
    # Worker loop
    # ------------------------------------------------------------------ #
    async def _run(self) -> None:
        assert self._queue is not None
        stopping = False
        while not stopping:
            item = await self._queue.get()
            if item is None:
                break
            batch = [item]
            while len(batch) < self._max_batch:
                try:
                    extra = self._queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
                if extra is None:
                    stopping = True
                    break
                batch.append(extra)
            self._batches += 1
            await self._process(batch)

    async def _process(self, batch: list) -> None:
        """Process one drained batch in arrival order.

        Adjacent queries coalesce into one scoring run; mutations are
        barriers between runs, so every query sees exactly the corpus
        state its arrival position implies.
        """
        loop = asyncio.get_running_loop()
        position = 0
        while position < len(batch):
            item = batch[position]
            if isinstance(item, _Query):
                run = [item]
                position += 1
                while position < len(batch) and isinstance(batch[position], _Query):
                    run.append(batch[position])
                    position += 1
                await self._serve_queries(loop, run)
            else:
                position += 1
                await self._apply_mutation(loop, item)

    async def _serve_queries(self, loop, run: list[_Query]) -> None:
        now = loop.time()
        live: list[_Query] = []
        for query in run:
            if query.deadline is not None and now > query.deadline:
                self._deadline_expired += 1
                if not query.future.done():
                    query.future.set_exception(
                        ServiceDeadlineError(
                            "request expired in queue "
                            f"({now - query.deadline:.3f}s past deadline)"
                        )
                    )
                continue
            live.append(query)
        if not live:
            return
        try:
            results = await loop.run_in_executor(
                self._executor, self._score_run, live
            )
        except Exception as error:  # noqa: BLE001 — forwarded to awaiters
            self._errors += len(live)
            for query in live:
                if not query.future.done():
                    query.future.set_exception(error)
            return
        for query, result in zip(live, results):
            self._completed += 1
            if not query.future.done():
                query.future.set_result(result)

    async def _apply_mutation(self, loop, mutation: _Mutation) -> None:
        try:
            result = await loop.run_in_executor(
                self._executor, self._mutate, mutation
            )
        except Exception as error:  # noqa: BLE001 — forwarded to awaiter
            self._errors += 1
            if not mutation.future.done():
                mutation.future.set_exception(error)
            return
        if mutation.kind == "append":
            self._appends += len(mutation.payload)
        else:
            self._retires += len(mutation.payload)
        if not mutation.future.done():
            mutation.future.set_result(result)

    # ------------------------------------------------------------------ #
    # Executor-thread work (sync, serialized)
    # ------------------------------------------------------------------ #
    def _score_run(self, run: list[_Query]):
        results: list[list[list[Match]] | None] = [None] * len(run)
        by_metric: dict[str, list[int]] = {}
        for index, query in enumerate(run):
            by_metric.setdefault(query.metric, []).append(index)
        for metric in sorted(by_metric):
            indices = by_metric[metric]
            flat_sets: list[set[str]] = []
            spans: list[tuple[int, int]] = []
            for index in indices:
                spans.append((len(flat_sets), len(run[index].token_sets)))
                flat_sets.extend(run[index].token_sets)
            k_max = max(run[index].k for index in indices)
            per_shard = [
                shard.top_k(flat_sets, metric, k=k_max)
                for shard in self.shards
            ]
            for (start, count), index in zip(spans, indices):
                k = run[index].k
                answers: list[list[Match]] = []
                for flat in range(start, start + count):
                    merged: list[tuple[float, int, int]] = []
                    for shard_pos, shard_result in enumerate(per_shard):
                        rows, scores = shard_result[flat]
                        for row, score in zip(rows, scores):
                            merged.append((-float(score), shard_pos, int(row)))
                    merged.sort()
                    answers.append(
                        [
                            Match(
                                offer_id=self.shards[pos].offer_at(row).offer_id,
                                shard=self.shards[pos].shard,
                                row=row,
                                score=-negated,
                            )
                            for negated, pos, row in merged[:k]
                        ]
                    )
                results[index] = answers
        return results

    def _mutate(self, mutation: _Mutation):
        if mutation.kind == "append":
            position = (
                self._least_loaded()
                if mutation.shard is None
                else self._shard_position(mutation.shard)
            )
            shard = self.shards[position]
            rows = shard.append(mutation.payload)
            return shard.shard, [int(row) for row in rows]
        if mutation.kind == "retire":
            grouped: dict[int, list[str]] = {}
            for offer_id in mutation.payload:
                grouped.setdefault(self._owner_of(offer_id), []).append(offer_id)
            retired: dict[int, list[int]] = {}
            for position in sorted(grouped):
                shard = self.shards[position]
                rows = shard.retire(grouped[position])
                retired[shard.shard] = [int(row) for row in rows]
            return retired
        raise ValueError(f"unknown mutation kind {mutation.kind!r}")

    def _least_loaded(self) -> int:
        loads = [len(shard) for shard in self.shards]
        return int(np.argmin(loads))

    def _shard_position(self, shard_id: int) -> int:
        for position, shard in enumerate(self.shards):
            if shard.shard == shard_id:
                return position
        raise KeyError(f"unknown shard id {shard_id}")

    def _owner_of(self, offer_id: str) -> int:
        for position, shard in enumerate(self.shards):
            if shard.has_offer(offer_id):
                return position
        raise KeyError(f"unknown (or retired) offer id {offer_id!r}")
