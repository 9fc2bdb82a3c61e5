"""The cross-shard blocking sweep.

Every shard's engine indexes only its own corpus, so candidate joins
*between* shards need a shared universe.  The sweep works on
:class:`ShardUniverse` values — a shard id plus an engine (the shard's
corpus engine or a cheap split-scoped :meth:`SimilarityEngine.view`) and
globally namespaced offers/labels.  For each shard pair it concatenates
the two universes' engines (:meth:`SimilarityEngine.concat` — token sets
are reused, nothing is re-tokenized) and runs one
:class:`~repro.blocking.candidates.CandidateBlocker` join in which every
row queries the *other* shard's sub-universe
(``exclude_same_partition``): this covers both ordered directions
``i→j`` and ``j→i`` of the pair in a single pass, exactly like mirrored
queries inside one corpus, and the per-query provenance keeps the
direction.  Offers and cluster labels are globally namespaced before they
enter a combined universe — see :mod:`repro.shard.namespace`.

Cross-shard joins run on the token metrics only: each shard's LSA
embedding model is fitted on its own corpus, so embedding vectors are not
comparable across shards (``CROSS_SHARD_METRICS``).

The *within*-shard join needs no shared universe, so it runs where the
data lives: a session shard's build computes it as its ``blocking``
stage over raw ids (see :mod:`repro.core.builder`) and persists it in
the shard's store with its group completion, and the sweep checks it
against the store's manifest and leaves it on disk for the SQL merge
(:func:`adopt_stored`).  Join rows are row-indexed, and namespacing is a
bijection inside one shard, so the stored rows are exactly the join the
namespaced universe would compute itself.  A session's cross-shard
joins run in its worker pool as well: each task reads its two shards'
universes off their stores (:func:`stored_universe`), restricted to the
rows the signature index kept.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.blocking.candidates import BlockedPairSet, CandidateBlocker
from repro.core.builder import BuildArtifacts
from repro.corpus.schema import ProductOffer
from repro.errors import SweepJoinError
from repro.io.store import StoredShard
from repro.shard.merge import StoredShardJoin
from repro.shard.namespace import namespace_id, namespace_offer, namespace_offers
from repro.similarity.engine import SimilarityEngine
from repro.similarity.registry import validate_metric_names

__all__ = [
    "CROSS_SHARD_METRICS",
    "ShardUniverse",
    "adopt_stored",
    "shard_universe",
    "stored_universe",
    "split_universe",
    "cross_shard_blocker",
    "cross_shard_candidates",
]

CROSS_SHARD_METRICS = ("cosine", "dice", "generalized_jaccard")


@dataclass
class ShardUniverse:
    """One shard's contribution to a (possibly multi-shard) join universe.

    ``engine`` is the shard's corpus engine or a view of it; ``offers``
    and ``labels`` are aligned to its rows and globally namespaced, so
    rows from several universes can meet in one blocker without id
    collisions.
    """

    shard: int
    engine: SimilarityEngine
    offers: list[ProductOffer]
    labels: list[str]

    def __post_init__(self) -> None:
        if len(self.offers) != len(self.engine) or len(self.labels) != len(
            self.engine
        ):
            raise ValueError(
                f"universe of shard {self.shard}: engine has "
                f"{len(self.engine)} rows, got {len(self.offers)} offers "
                f"and {len(self.labels)} labels"
            )

    def __len__(self) -> int:
        return len(self.engine)

    def blocker(self) -> CandidateBlocker:
        """A namespaced blocker over this universe alone."""
        return CandidateBlocker(
            self.engine, offers=self.offers, group_labels=self.labels
        )

    def restrict(self, rows: Sequence[int] | np.ndarray) -> "ShardUniverse":
        """This universe narrowed to ``rows`` (a signature-sweep block).

        The engine becomes a cheap :meth:`SimilarityEngine.view` and the
        offers/labels are sliced in the same order, so the restricted
        universe joins exactly like the full one — the signature sweep
        concatenates these instead of whole shards.
        """
        rows = np.asarray(rows, dtype=np.intp)
        return ShardUniverse(
            shard=self.shard,
            engine=self.engine.view(rows),
            offers=[self.offers[int(row)] for row in rows],
            labels=[self.labels[int(row)] for row in rows],
        )


def shard_universe(artifacts: BuildArtifacts, shard: int) -> ShardUniverse:
    """Shard ``shard``'s full cleansed corpus as a join universe."""
    if artifacts.engine is None:
        raise ValueError(f"shard {shard} was built without an engine")
    offers = list(artifacts.cleansed.offers)
    return ShardUniverse(
        shard=shard,
        engine=artifacts.engine,
        offers=namespace_offers(offers, shard),
        labels=[
            namespace_id(shard, offer.cluster_id) for offer in offers
        ],
    )


def stored_universe(
    stored: StoredShard, shard: int, rows: np.ndarray | None = None
) -> ShardUniverse:
    """Shard ``shard``'s universe read off its store, over ``rows``.

    ``rows`` (``None``: every row) narrow it as
    :meth:`ShardUniverse.restrict` narrows :func:`shard_universe`'s
    universe, with the same engine rows, offers and labels, but only
    those rows' offers are read from the store.
    """
    engine = stored.engine
    if engine is None:
        raise ValueError(f"shard {shard} was built without an engine")
    if rows is None:
        offers = stored.offers_at_rows(range(len(engine)))
    else:
        offers = stored.offers_at_rows(rows)
        engine = engine.view(rows)
    return ShardUniverse(
        shard=shard,
        engine=engine,
        offers=namespace_offers(offers, shard),
        labels=[namespace_id(shard, offer.cluster_id) for offer in offers],
    )


def adopt_stored(
    stored: StoredShard,
    shard: int,
    *,
    k: int,
    metrics: tuple[str, ...],
) -> StoredShardJoin:
    """Shard ``shard``'s own top-``k`` join, left in ``stored``'s store.

    ``stored`` is the shard store whose build computed the full-universe
    join over raw ids and stored its group completion.  Only the
    manifest is read: a join that does not cover every engine row, has
    another ``k`` or other metrics (or no join at all) raises
    :class:`~repro.errors.SweepJoinError`.
    :class:`~repro.shard.merge.MergedCandidateStore` selects the join
    and group rows from ``shard.db`` itself.
    """
    info = stored.manifest.get("blocked")
    if info is None:
        raise SweepJoinError(f"shard {shard} carries no within-shard join")
    rows = stored.manifest["engine"]["rows"]
    join_metrics = tuple(info["metrics"])
    if (
        info["n_queries"] != rows
        or info["k"] != k
        or join_metrics != tuple(metrics)
    ):
        raise SweepJoinError(
            f"shard {shard}: the within-shard join covers "
            f"{info['n_queries']} of {rows} rows at k={info['k']} "
            f"under {join_metrics}, but the sweep needs all "
            f"{rows} rows at k={k} under {tuple(metrics)}"
        )
    return StoredShardJoin(
        shard=shard, database=stored.database, metrics=join_metrics
    )


def split_universe(
    artifacts: BuildArtifacts,
    shard: int,
    entries: Sequence[tuple[str, ProductOffer]],
) -> ShardUniverse:
    """One split's ``(cluster_id, offer)`` entries as a join universe.

    The shard-level counterpart of
    :meth:`CandidateBlocker.over_entries`: the split becomes a cheap view
    over the shard's corpus engine, and candidates stay confined to the
    split — blocked training pairs can never leak offers from another
    split, even across shards.
    """
    if artifacts.engine is None:
        raise ValueError(f"shard {shard} was built without an engine")
    offer_rows = {
        offer.offer_id: row
        for row, offer in enumerate(artifacts.cleansed.offers)
    }
    rows = [offer_rows[offer.offer_id] for _, offer in entries]
    return ShardUniverse(
        shard=shard,
        engine=artifacts.engine.view(rows),
        offers=[namespace_offer(offer, shard) for _, offer in entries],
        labels=[
            namespace_id(shard, cluster_id) for cluster_id, _ in entries
        ],
    )


def cross_shard_blocker(
    universe_i: ShardUniverse, universe_j: ShardUniverse
) -> tuple[CandidateBlocker, np.ndarray]:
    """A blocker over the union of two shard universes, plus its partition.

    Returns the blocker and the per-row shard-id array (``partition``):
    rows ``[0, len(i))`` belong to shard ``i``, the rest to shard ``j``.
    Passing the partition as ``exclude_same_partition`` to
    :meth:`CandidateBlocker.candidates` makes every offer query only the
    other shard's rows — the ordered sweeps ``i→j`` and ``j→i`` in one
    join.
    """
    combined = SimilarityEngine.concat(
        [universe_i.engine, universe_j.engine],
        strict_embeddings=False,
    )
    partition = np.concatenate(
        [
            np.full(len(universe_i), universe_i.shard, dtype=np.intp),
            np.full(len(universe_j), universe_j.shard, dtype=np.intp),
        ]
    )
    blocker = CandidateBlocker(
        combined,
        offers=universe_i.offers + universe_j.offers,
        group_labels=universe_i.labels + universe_j.labels,
    )
    return blocker, partition


def cross_shard_candidates(
    universe_i: ShardUniverse,
    universe_j: ShardUniverse,
    *,
    k: int,
    metrics: tuple[str, ...] = CROSS_SHARD_METRICS,
) -> tuple[BlockedPairSet, np.ndarray]:
    """Top-``k`` cross-shard candidates between two universes, both ways.

    Every cross-shard pair is a hard negative by construction: shards
    generate disjoint product pools, so namespaced cluster ids never
    match across the partition — the sweep's value is surfacing the most
    confusable offer pairs *between* autonomous corpora, the candidates a
    merged-corpus matcher must learn to reject.

    ``metrics`` defaults to — and is validated against —
    ``CROSS_SHARD_METRICS``: the combined universe has no common
    embedding space, so asking for ``lsa_embedding`` fails here, by
    name, instead of deep inside the engine.
    """
    metrics = validate_metric_names(
        metrics,
        available=CROSS_SHARD_METRICS,
        context="cross_shard_candidates.metrics (cross-shard joins "
        "support the token metrics only: per-shard LSA embeddings are "
        "not comparable across corpora)",
    )
    blocker, partition = cross_shard_blocker(universe_i, universe_j)
    blocked = blocker.candidates(
        k=k, metrics=metrics, exclude_same_partition=partition
    )
    return blocked, partition
