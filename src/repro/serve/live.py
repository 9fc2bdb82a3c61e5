"""Mutable, queryable shard state behind the match service.

A :class:`LiveShard` owns one shard's live corpus: a root (mutable)
:class:`~repro.similarity.engine.SimilarityEngine`, the offer objects
aligned to its rows, the ``offer_id ↔ row`` maps, and — unless grouping
is disabled — an :class:`~repro.grouping.incremental.IncrementalDBSCAN`
whose assignments stay exactly equal to a cold batch re-clustering of
the live rows.

Shards come from three places:

* :meth:`LiveShard.from_artifacts` — a ``BuildArtifacts`` or any object
  with ``.engine`` and ``.cleansed.offers``, such as the
  :class:`~repro.io.store.StoredShard` shards of a
  :class:`~repro.shard.session.ShardedArtifacts`,
* :meth:`LiveShard.from_handle` — a picklable
  :class:`~repro.io.store.StoredShardHandle`; the store is opened
  *lazily* (first use, or :meth:`MatchService.start`'s off-loop warmup),
  and the engine's memory-mapped CSR arrays are copied into growable
  buffers only if the shard is ever mutated,
* :meth:`LiveShard.empty` — a fresh shard that starts with no rows and
  is populated entirely through :meth:`append`.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence

import numpy as np

from repro.corpus.schema import ProductOffer
from repro.grouping.incremental import IncrementalDBSCAN, partition_sha
from repro.similarity.engine import SimilarityEngine

__all__ = ["LiveShard"]


class LiveShard:
    """One shard's mutable corpus: engine + offers + incremental clusters."""

    def __init__(
        self,
        engine: SimilarityEngine,
        offers: Sequence[ProductOffer],
        *,
        shard: int = 0,
        grouping: bool = True,
        eps: float = 0.35,
        min_samples: int = 1,
    ) -> None:
        self.shard = int(shard)
        self._grouping = bool(grouping)
        self._eps = float(eps)
        self._min_samples = int(min_samples)
        self._loader: Callable[[], tuple[SimilarityEngine, list[ProductOffer]]] | None = None
        self._bind(engine, list(offers))

    @classmethod
    def from_artifacts(
        cls, artifacts, *, shard: int = 0, **kwargs
    ) -> "LiveShard":
        """A live shard over built artifacts (``.engine`` + ``.cleansed``)."""
        engine = artifacts.engine
        if engine is None:
            raise ValueError("artifacts hold no similarity engine")
        return cls(engine, list(artifacts.cleansed.offers), shard=shard, **kwargs)

    @classmethod
    def from_handle(
        cls, handle, *, shard: int | None = None, **kwargs
    ) -> "LiveShard":
        """A live shard over a :class:`StoredShardHandle`, opened lazily.

        Nothing touches the store until the shard is first used; the
        service's ``start()`` triggers the open off the event loop.
        """
        live = cls.__new__(cls)
        live.shard = int(handle.shard if shard is None else shard)
        live._grouping = bool(kwargs.pop("grouping", True))
        live._eps = float(kwargs.pop("eps", 0.35))
        live._min_samples = int(kwargs.pop("min_samples", 1))
        if kwargs:
            raise TypeError(f"unknown arguments: {sorted(kwargs)}")

        def load() -> tuple[SimilarityEngine, list[ProductOffer]]:
            stored = handle.open(strict=True)
            engine = stored.engine
            if engine is None:
                raise ValueError(
                    f"stored shard {handle.shard} holds no engine"
                )
            return engine, list(stored.cleansed.offers)

        live._loader = load
        return live

    @classmethod
    def empty(cls, *, shard: int = 0, **kwargs) -> "LiveShard":
        """A shard that starts empty and grows purely through appends."""
        return cls(SimilarityEngine([]), [], shard=shard, **kwargs)

    # ------------------------------------------------------------------ #
    # Lazy materialization
    # ------------------------------------------------------------------ #
    def _bind(
        self, engine: SimilarityEngine, offers: list[ProductOffer]
    ) -> None:
        if len(offers) != len(engine):
            raise ValueError(
                f"{len(offers)} offers for an engine of {len(engine)} rows"
            )
        self.engine = engine
        self._offers: list[ProductOffer] = offers
        self._row_by_offer: dict[str, int] = {}
        for row in engine.live_rows():
            offer_id = offers[int(row)].offer_id
            if offer_id in self._row_by_offer:
                raise ValueError(f"duplicate offer id {offer_id!r} in shard")
            self._row_by_offer[offer_id] = int(row)
        self.clusterer: IncrementalDBSCAN | None = (
            IncrementalDBSCAN(
                engine, eps=self._eps, min_samples=self._min_samples
            )
            if self._grouping
            else None
        )
        self._loader = None

    def ensure_open(self) -> "LiveShard":
        """Materialize a handle-backed shard (no-op when already open)."""
        if self._loader is not None:
            engine, offers = self._loader()
            self._bind(engine, offers)
        return self

    @property
    def is_open(self) -> bool:
        return self._loader is None

    # ------------------------------------------------------------------ #
    # Deltas
    # ------------------------------------------------------------------ #
    def append(self, offers: Sequence[ProductOffer]) -> np.ndarray:
        """Append offers; returns their engine rows.

        The engine rows extend, the incremental clusterer absorbs the
        new rows, and the offers become immediately matchable.  A
        duplicate (or resurrected) ``offer_id`` raises before any state
        changes.
        """
        self.ensure_open()
        new_offers = list(offers)
        seen: dict[str, int] = {}
        for position, offer in enumerate(new_offers):
            if offer.offer_id in self._row_by_offer or offer.offer_id in seen:
                raise ValueError(f"duplicate offer id {offer.offer_id!r}")
            seen[offer.offer_id] = position
        rows = self.engine.append([offer.title for offer in new_offers])
        self._offers.extend(new_offers)
        for offer, row in zip(new_offers, rows):
            self._row_by_offer[offer.offer_id] = int(row)
        if self.clusterer is not None:
            self.clusterer.append(rows)
        return rows

    def retire(self, offer_ids: Iterable[str]) -> np.ndarray:
        """Retire offers by id; returns the tombstoned engine rows."""
        self.ensure_open()
        ids = list(offer_ids)
        rows = np.array(
            [self._row_for(offer_id) for offer_id in ids], dtype=np.intp
        )
        retired = self.engine.retire(rows)
        for offer_id in ids:
            del self._row_by_offer[offer_id]
        if self.clusterer is not None:
            self.clusterer.retire(rows)
        return retired

    def _row_for(self, offer_id: str) -> int:
        row = self._row_by_offer.get(offer_id)
        if row is None:
            raise KeyError(f"unknown (or retired) offer id {offer_id!r}")
        return row

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        self.ensure_open()
        return self.engine.live_count

    def has_offer(self, offer_id: str) -> bool:
        self.ensure_open()
        return offer_id in self._row_by_offer

    def offer_at(self, row: int) -> ProductOffer:
        self.ensure_open()
        return self._offers[int(row)]

    def live_offers(self) -> list[ProductOffer]:
        self.ensure_open()
        return [self._offers[int(row)] for row in self.engine.live_rows()]

    def top_k(
        self, token_sets: Sequence[set[str]], metric: str, *, k: int
    ) -> list[tuple[list[int], np.ndarray]]:
        """Per-query ``(rows, scores)`` over the live universe."""
        self.ensure_open()
        return self.engine.external_top_k_batch(token_sets, metric, k=k)

    def assignments(self) -> dict[str, int]:
        """Canonical ``offer_id -> cluster`` over the live offers."""
        self.ensure_open()
        if self.clusterer is None:
            raise ValueError("shard built with grouping=False")
        return {
            self._offers[row].offer_id: label
            for row, label in sorted(self.clusterer.assignments().items())
        }

    def clusters_sha(self) -> str:
        """sha256 pin of the canonical offer-id partition."""
        self.ensure_open()
        if self.clusterer is None:
            raise ValueError("shard built with grouping=False")
        return partition_sha(
            {
                self._offers[row].offer_id: label
                for row, label in self.clusterer.assignments().items()
            }
        )

    def __repr__(self) -> str:
        if self._loader is not None:
            return f"LiveShard(shard={self.shard}, unopened)"
        return (
            f"LiveShard(shard={self.shard}, live={self.engine.live_count}, "
            f"rows={len(self.engine)})"
        )
