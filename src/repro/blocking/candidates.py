"""Engine-backed candidate blocking (the materialization-free pair source).

The paper's benchmark hands every matcher pre-materialized pair sets; this
module is the stage that removes that requirement.  A
:class:`CandidateBlocker` runs a batched top-k sparse join over a
:class:`~repro.similarity.engine.SimilarityEngine`'s token-incidence
matrix — chunked sparse row products, so the dense score block stays
bounded no matter how many offers are blocked — and yields a
:class:`BlockedPairSet` of scored candidate pairs with per-metric
provenance.  Same-cluster candidates can be kept (matcher training wants
the positives *and* the hard cross-cluster negatives the join surfaces) or
excluded by integer group id, compared chunk by chunk instead of through
the dense ``(queries, universe)`` boolean mask the pair generator used to
build.

Blocked candidates label themselves from cluster identity, so
``BlockedPairSet.to_dataset`` produces a normal
:class:`~repro.core.datasets.PairDataset` any pair-wise matcher can train
and evaluate on — see
:meth:`repro.eval.runner.ExperimentRunner.run_pairwise_from_blocking`.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from repro.core.datasets import LabeledPair, PairDataset
from repro.corpus.schema import ProductOffer
from repro.similarity.engine import SimilarityEngine

__all__ = ["BlockedPair", "BlockedPairSet", "CandidateBlocker", "check_top_k"]


@dataclass(frozen=True)
class BlockedPair:
    """One candidate pair surfaced by blocking.

    ``query_row``/``rank`` record provenance: the pair first appeared as
    the ``rank``-th candidate (0-based) of ``query_row``'s top-k list
    under ``metric``.  ``row_a < row_b`` always; ``score`` is the
    similarity under the surfacing metric.
    """

    row_a: int
    row_b: int
    score: float
    metric: str
    query_row: int
    rank: int


class BlockedPairSet:
    """The deduplicated candidate pairs of one blocking sweep."""

    def __init__(
        self,
        blocker: "CandidateBlocker",
        pairs: list[BlockedPair],
        *,
        k: int,
        metrics: tuple[str, ...],
        n_queries: int,
    ) -> None:
        self.blocker = blocker
        self.pairs = pairs
        self.k = k
        self.metrics = metrics
        self.n_queries = n_queries

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self) -> Iterator[BlockedPair]:
        return iter(self.pairs)

    def pair_keys(self) -> set[tuple[str, str]]:
        """Unordered offer-id keys, comparable to ``LabeledPair.key()``."""
        ids = self.blocker.offer_ids
        if ids is None:
            raise ValueError("blocker was built without offers")
        keys: set[tuple[str, str]] = set()
        for pair in self.pairs:
            a, b = ids[pair.row_a], ids[pair.row_b]
            keys.add((a, b) if a <= b else (b, a))
        return keys

    def to_dataset(self, name: str) -> PairDataset:
        """Label candidates from cluster identity into a ``PairDataset``.

        Pairs keep their surfacing order; provenance records the metric
        (``"blocking:cosine"`` …) so downstream profiling can distinguish
        blocked pairs from materialized ones.
        """
        offers = self.blocker.offers
        labels = self.blocker.group_labels
        if offers is None or labels is None:
            raise ValueError(
                "to_dataset needs a blocker built with offers and group labels"
            )
        dataset = PairDataset(name=name)
        dataset.pairs = [
            LabeledPair(
                pair_id=f"{name}-{position:06d}",
                offer_a=offers[pair.row_a],
                offer_b=offers[pair.row_b],
                label=int(labels[pair.row_a] == labels[pair.row_b]),
                provenance=f"blocking:{pair.metric}",
            )
            for position, pair in enumerate(self.pairs)
        ]
        return dataset

    def summary(self) -> dict[str, int]:
        labels = self.blocker.group_labels
        positives = 0
        if labels is not None:
            positives = sum(
                1
                for pair in self.pairs
                if labels[pair.row_a] == labels[pair.row_b]
            )
        return {
            "all": len(self.pairs),
            "pos": positives,
            "neg": len(self.pairs) - positives,
        }

    def with_group_positives(self) -> "BlockedPairSet":
        """This set plus every within-group pair the join did not surface.

        The completion that ``candidates(include_group_positives=True)``
        applies, factored out so one raw join can serve both the gated
        join-only recall recording and the training-shaped completed set
        without running the top-k sweep twice.  Returns a new set; pairs
        keep their order with the completed positives appended (metric
        ``"group"``, rank ``-1``, cosine score) by
        :meth:`CandidateBlocker.group_positives`.
        """
        pairs = self.pairs + self.blocker.group_positives(
            [(pair.row_a, pair.row_b) for pair in self.pairs]
        )
        return BlockedPairSet(
            self.blocker,
            pairs,
            k=self.k,
            metrics=self.metrics,
            n_queries=self.n_queries,
        )


def check_top_k(k: int, *, name: str = "k") -> None:
    """Reject a top-``k`` that is not an ``int`` of at least 1 (``bool``
    included: ``True`` would silently mean ``k=1``)."""
    if isinstance(k, bool) or not isinstance(k, int) or k < 1:
        raise ValueError(f"{name} must be an int >= 1, got {k!r}")


class CandidateBlocker:
    """Batched top-k candidate join over one engine's title universe.

    ``offers`` and ``group_labels`` (one cluster/product label per engine
    row) are optional: without them the blocker still yields row-indexed
    pairs, but labeling (``to_dataset``) and offer-id keying
    (``pair_keys``) need them.

    When the engine's universe spans *multiple corpora* (e.g. a
    :meth:`SimilarityEngine.concat` over several shards' engines), offer
    ids and cluster labels must be globally namespaced by the caller
    (``s<shard>:<id>``): raw per-corpus ids collide across shards, which
    would both merge unrelated clusters into one group id and make the
    offer-identity dedup treat distinct offers as duplicates of each
    other.  See :mod:`repro.shard` for the namespacing helpers.
    """

    def __init__(
        self,
        engine: SimilarityEngine,
        *,
        offers: Sequence[ProductOffer] | None = None,
        group_labels: Sequence[str] | None = None,
    ) -> None:
        if offers is not None and len(offers) != len(engine):
            raise ValueError(
                f"{len(offers)} offers for an engine of {len(engine)} rows"
            )
        if group_labels is not None and len(group_labels) != len(engine):
            raise ValueError(
                f"{len(group_labels)} group labels for an engine of "
                f"{len(engine)} rows"
            )
        self.engine = engine
        self.offers = None if offers is None else list(offers)
        self.group_labels = None if group_labels is None else list(group_labels)
        self.offer_ids = (
            None
            if self.offers is None
            else [offer.offer_id for offer in self.offers]
        )
        self._group_ids: np.ndarray | None = (
            None
            if self.group_labels is None
            else np.unique(np.asarray(self.group_labels), return_inverse=True)[1]
        )
        # Candidate pairs dedup on *offer identity* when known: a split
        # carrying the same offer id on two rows must neither pair an
        # offer with itself nor emit the same offer pair twice.  Without
        # offer ids, row identity is the best available key.
        if self.offer_ids is not None:
            interned: dict[str, int] = {}
            self._pair_keys_by_row = np.array(
                [
                    interned.setdefault(offer_id, len(interned))
                    for offer_id in self.offer_ids
                ],
                dtype=np.intp,
            )
            self._key_span = len(interned)
        else:
            self._pair_keys_by_row = np.arange(len(engine), dtype=np.intp)
            self._key_span = len(engine)

    @classmethod
    def over_entries(
        cls,
        engine: SimilarityEngine,
        entries: Sequence[tuple[str, ProductOffer]],
        offer_rows: dict[str, int],
    ) -> "CandidateBlocker":
        """A blocker over one split's ``(cluster_id, offer)`` entries.

        The split becomes a cheap :meth:`SimilarityEngine.view` over the
        corpus-level engine — no re-tokenization — and candidates are
        confined to the split, so blocked training pairs can never leak
        offers from another split.
        """
        rows = [offer_rows[offer.offer_id] for _, offer in entries]
        return cls(
            engine.view(rows),
            offers=[offer for _, offer in entries],
            group_labels=[cluster_id for cluster_id, _ in entries],
        )

    def __len__(self) -> int:
        return len(self.engine)

    def _pair_key(self, a: int, b: int) -> int | None:
        """Unordered offer-identity dedup key of rows ``a``/``b``.

        ``None`` when both rows carry the same offer (never a pair).
        """
        row_keys = self._pair_keys_by_row
        key_a, key_b = int(row_keys[a]), int(row_keys[b])
        if key_a == key_b:  # the same offer on both rows
            return None
        return (
            key_a * self._key_span + key_b
            if key_a < key_b
            else key_b * self._key_span + key_a
        )

    def group_positives(
        self, row_pairs: np.ndarray | Sequence[tuple[int, int]]
    ) -> list[BlockedPair]:
        """Every within-group pair that a join's ``row_pairs`` misses.

        The completion behind :meth:`BlockedPairSet.with_group_positives`,
        over bare ``(row_a, row_b)`` rows, so a join that sits in a store
        completes without a :class:`BlockedPair` per row.  A pair counts
        as surfaced when its offer-identity key is among the keys of
        ``row_pairs``.  Groups are visited in group-id order and members
        in row order, and two rows of one offer never pair.  Each missing
        pair comes back with metric ``"group"``, rank ``-1`` and its
        cosine score.
        """
        group_ids = self._group_ids
        if group_ids is None:
            raise ValueError("group completion needs group labels")
        rows = np.asarray(row_pairs, dtype=np.intp).reshape(-1, 2)
        row_keys = self._pair_keys_by_row
        key_a, key_b = row_keys[rows[:, 0]], row_keys[rows[:, 1]]
        low, high = np.minimum(key_a, key_b), np.maximum(key_a, key_b)
        distinct = low != high
        seen = set(
            (low[distinct] * self._key_span + high[distinct]).tolist()
        )
        members_by_group: dict[int, list[int]] = {}
        for row, group in enumerate(group_ids):
            members_by_group.setdefault(int(group), []).append(row)
        missing: list[tuple[int, int]] = []
        for group in sorted(members_by_group):
            members = members_by_group[group]
            for i, a in enumerate(members):
                for b in members[i + 1 :]:
                    key = self._pair_key(a, b)
                    if key is not None and key not in seen:
                        seen.add(key)
                        missing.append((a, b))
        if not missing:
            return []
        scores = self.engine.pair_features_batch(
            missing, metrics=("cosine",)
        )[:, 0]
        return [
            BlockedPair(
                row_a=a,
                row_b=b,
                score=float(score),
                metric="group",
                query_row=a,
                rank=-1,
            )
            for (a, b), score in zip(missing, scores)
        ]

    def candidates(
        self,
        query_rows: Sequence[int] | None = None,
        *,
        k: int,
        metrics: Sequence[str] = ("cosine",),
        exclude_same_group: bool = False,
        exclude_same_partition: Sequence[int] | np.ndarray | None = None,
        include_group_positives: bool = False,
    ) -> BlockedPairSet:
        """Top-``k`` candidates of every query row under each metric.

        Results merge across metrics and mirrored queries on unordered
        offer-identity pairs (row pairs when the blocker has no offers) —
        a pair surfaced from both sides, under two metrics, or through a
        duplicated offer id appears once, attributed to its first
        surfacing (metrics in the given order, queries in the given
        order, then by rank), and an offer never pairs with its own
        duplicate row.  With ``exclude_same_group`` the query's own
        cluster is masked by group id; the default keeps same-cluster
        candidates, which is what labeled matcher training wants.

        ``exclude_same_partition`` (one integer partition id per universe
        row) restricts every query to candidates from a *different*
        partition: the cross-corpus join, where the universe concatenates
        several shards' rows and only cross-shard pairs are wanted — each
        shard's offers query every other shard's sub-universe, and
        within-shard pairs are left to that shard's own join.  The
        comparison rides the engine's chunked group exclusion, so no
        ``(queries, universe)`` boolean matrix is materialized.

        ``include_group_positives`` appends every within-group pair the
        join did not surface (metric ``"group"``, rank ``-1``, cosine
        score): supervised training data takes its positives from the
        ground-truth clusters and lets the join supply the hard
        negatives, so no positive is ever lost to a low-similarity noise
        offer.
        """
        check_top_k(k)
        queries = (
            np.arange(len(self.engine), dtype=np.intp)
            if query_rows is None
            else np.asarray(list(query_rows), dtype=np.intp)
        )
        group_ids = self._group_ids
        if (exclude_same_group or include_group_positives) and group_ids is None:
            raise ValueError(
                "exclude_same_group/include_group_positives need group labels"
            )
        if exclude_same_group and include_group_positives:
            raise ValueError(
                "exclude_same_group and include_group_positives are exclusive"
            )
        partition = None
        if exclude_same_partition is not None:
            if exclude_same_group:
                raise ValueError(
                    "exclude_same_group and exclude_same_partition are "
                    "exclusive (a partition already masks the query's own "
                    "sub-universe, clusters and all)"
                )
            if include_group_positives:
                raise ValueError(
                    "exclude_same_partition and include_group_positives are "
                    "exclusive (groups never span partitions, so completing "
                    "them would re-admit the same-partition pairs the "
                    "restriction excludes)"
                )
            partition = np.asarray(exclude_same_partition).ravel()
            if partition.size != len(self.engine):
                raise ValueError(
                    f"exclude_same_partition covers {partition.size} rows, "
                    f"engine has {len(self.engine)}"
                )

        seen: set[int] = set()
        pair_key = self._pair_key

        exclude_groups = None
        if exclude_same_group:
            exclude_groups = (group_ids[queries], group_ids)
        elif partition is not None:
            exclude_groups = (partition[queries], partition)

        pairs: list[BlockedPair] = []
        for metric in metrics:
            batches = self.engine.top_k_scores_batch(
                queries,
                metric,
                k=k,
                exclude_groups=exclude_groups,
            )
            for query, (chosen, scores) in zip(queries, batches):
                query = int(query)
                for rank, (candidate, score) in enumerate(zip(chosen, scores)):
                    key = pair_key(query, candidate)
                    if key is None or key in seen:
                        continue
                    seen.add(key)
                    a, b = (
                        (query, candidate)
                        if query < candidate
                        else (candidate, query)
                    )
                    pairs.append(
                        BlockedPair(
                            row_a=a,
                            row_b=b,
                            score=float(score),
                            metric=metric,
                            query_row=query,
                            rank=rank,
                        )
                    )
        blocked = BlockedPairSet(
            self,
            pairs,
            k=k,
            metrics=tuple(metrics),
            n_queries=int(queries.size),
        )
        if include_group_positives:
            blocked = blocked.with_group_positives()
        return blocked
