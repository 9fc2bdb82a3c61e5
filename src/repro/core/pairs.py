"""Pair generation (Section 3.6).

For each split (a list of offers with product labels) the generator emits
all positive pairs inside each product cluster, then for every offer a
number of *corner-case negatives* — the most similar offers from other
clusters under a randomly drawn similarity metric — plus one random
negative.  The number of corner negatives per offer depends on the
development-set size (3 large / 2 medium / 1 small); test sets and large
validation sets use the large setting.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import combinations

import numpy as np

from repro.core.datasets import LabeledPair, PairDataset
from repro.corpus.schema import ProductOffer
from repro.similarity.embedding import LsaEmbeddingModel
from repro.similarity.engine import SimilarityEngine

__all__ = ["generate_pairs"]

# Largest flat dedup mirror (id_span² boolean cells) the generator will
# allocate for vectorized candidate consumption; larger splits keep the
# set-only scalar path.  1 << 26 cells is a 64 MB array at ~8k offers.
_DENSE_DEDUP_CELLS = 1 << 26


def generate_pairs(
    entries: list[tuple[str, ProductOffer]],
    *,
    name: str,
    corner_negatives_per_offer: int,
    random_negatives_per_offer: int = 1,
    rng: np.random.Generator,
    embedding_model: LsaEmbeddingModel | None = None,
    engine: SimilarityEngine | None = None,
    offer_rows: dict[str, int] | None = None,
) -> PairDataset:
    """Generate the labeled pair set for one split.

    ``entries`` are ``(cluster_id, offer)`` tuples; offers of the same
    cluster produce positives, offers of different clusters negatives.
    With ``engine`` and ``offer_rows`` (offer id → engine row) the split's
    similarity engine is a cheap view over the shared corpus-level engine;
    otherwise a standalone engine is built from the split's titles.
    """
    if corner_negatives_per_offer < 0 or random_negatives_per_offer < 0:
        raise ValueError("negative counts must be non-negative")

    offers = [offer for _, offer in entries]
    cluster_ids = [cluster_id for cluster_id, _ in entries]
    if engine is not None and offer_rows is not None:
        split_engine = engine.view(
            [offer_rows[offer.offer_id] for offer in offers]
        )
    else:
        split_engine = SimilarityEngine(
            [offer.title for offer in offers], embedding_model=embedding_model
        )
    metric_names = split_engine.metric_names

    # Dedup runs on sorted integer pair keys (offer ids interned to dense
    # ints) and pair materialization is deferred: the hot loops only touch
    # int tuples, and the LabeledPair objects are built in one final pass.
    # ``used_dense`` mirrors ``used_keys`` as a flat boolean array so the
    # corner-negative consumption can test candidate batches with one NumPy
    # mask instead of per-candidate Python calls; splits too large for the
    # dense mirror fall back to the scalar loop.
    id_index: dict[str, int] = {}
    offer_keys = [
        id_index.setdefault(offer.offer_id, len(id_index)) for offer in offers
    ]
    id_span = len(id_index)
    offer_key_array = np.asarray(offer_keys, dtype=np.intp)
    used_keys: set[int] = set()
    used_dense: np.ndarray | None = (
        np.zeros(id_span * id_span, dtype=bool)
        if id_span * id_span <= _DENSE_DEDUP_CELLS
        else None
    )
    added: list[tuple[int, int, int, str]] = []
    negatives = 0

    def add_pair(a: int, b: int, label: int, provenance: str) -> bool:
        nonlocal negatives
        key_a, key_b = offer_keys[a], offer_keys[b]
        if key_a == key_b:  # the same offer on both sides
            return False
        key = key_a * id_span + key_b if key_a < key_b else key_b * id_span + key_a
        if key in used_keys:
            return False
        used_keys.add(key)
        if used_dense is not None:
            used_dense[key] = True
        added.append((a, b, label, provenance))
        if label == 0:
            negatives += 1
        return True

    def consume_corner_candidates(
        position: int, candidates: list[int], start: int, need: int
    ) -> int:
        """Add up to ``need`` unused candidates from ``candidates[start:]``.

        The vectorized equivalent of calling :func:`add_pair` candidate by
        candidate: pair keys, dedup membership and first-occurrence-within-
        batch handling are all NumPy masks, and only the chosen candidates
        mutate the dedup state — exactly the pairs the scalar loop would
        have added, in the same order.
        """
        nonlocal negatives
        assert used_dense is not None
        if need <= 0 or start >= len(candidates):
            return 0
        cand = np.asarray(candidates[start:], dtype=np.intp)
        keys_c = offer_key_array[cand]
        key_q = offer_keys[position]
        lo = np.minimum(keys_c, key_q)
        pair_keys = lo * id_span + (keys_c + key_q - lo)
        usable = (keys_c != key_q) & ~used_dense[pair_keys]
        order = np.flatnonzero(usable)
        if order.size > 1:
            # A pair key duplicated inside the batch (the same offer id
            # under two candidate positions) is used by its first
            # appearance only, as the scalar dedup would have it.
            first = np.unique(pair_keys[order], return_index=True)[1]
            if first.size != order.size:
                keep = np.zeros(order.size, dtype=bool)
                keep[first] = True
                order = order[keep]
        chosen = order[:need]
        for index_chosen in chosen:
            key = int(pair_keys[index_chosen])
            used_keys.add(key)
            used_dense[key] = True
            added.append((position, int(cand[index_chosen]), 0, "corner_negative"))
        negatives += int(chosen.size)
        return int(chosen.size)

    # ---------------------------------------------------------------- #
    # Positives: all offer pairs inside each product cluster.
    # ---------------------------------------------------------------- #
    by_cluster: dict[str, list[int]] = defaultdict(list)
    for position, cluster_id in enumerate(cluster_ids):
        by_cluster[cluster_id].append(position)
    for cluster_id in sorted(by_cluster):
        members = by_cluster[cluster_id]
        for a, b in combinations(members, 2):
            add_pair(a, b, 1, "positive")

    # ---------------------------------------------------------------- #
    # Negatives: per offer, the most similar offers from other clusters
    # under an alternating metric, then random negatives.  The metric is
    # drawn per offer up front, then the top-k searches run as one batch
    # per metric — one sparse-matrix pass instead of one per offer.
    # ---------------------------------------------------------------- #
    cluster_array = np.array(cluster_ids)
    group_ids = np.unique(cluster_array, return_inverse=True)[1]
    n = len(offers)
    cluster_counts: dict[str, int] = defaultdict(int)
    for cluster_id in cluster_ids:
        cluster_counts[cluster_id] += 1
    # Number of distinct cross-cluster pairs the split can ever produce:
    # once ``negatives`` reaches it, every further search or random draw is
    # guaranteed fruitless (all negative pairs are cross-cluster and
    # deduped), so the loops below use it as their exhaustion bound.  The
    # bound counts distinct *offer keys* — the identity ``add_pair`` dedups
    # on — not split positions: a split carrying the same offer id twice
    # must not inflate the bound, or the quota loops below would chase
    # pairs that can never exist and burn their full attempt budgets.
    keys_by_cluster: dict[str, set[int]] = defaultdict(set)
    for cluster_id, key in zip(cluster_ids, offer_keys):
        keys_by_cluster[cluster_id].add(key)
    within_key_pairs: set[tuple[int, int]] = set()
    for members in keys_by_cluster.values():
        within_key_pairs.update(combinations(sorted(members), 2))
    max_cross_pairs = id_span * (id_span - 1) // 2 - len(within_key_pairs)

    base_fetch = corner_negatives_per_offer + 8
    drawn: list[str] = []
    corner_candidates: dict[int, list[int]] = {}
    if corner_negatives_per_offer > 0:
        drawn = [
            metric_names[int(rng.integers(len(metric_names)))] for _ in range(n)
        ]
        positions_by_metric: dict[str, list[int]] = defaultdict(list)
        for position, metric in enumerate(drawn):
            positions_by_metric[metric].append(position)
        for metric in metric_names:
            positions = positions_by_metric.get(metric)
            if not positions:
                continue
            # Same-cluster rows are excluded by group id, compared chunk by
            # chunk inside the engine — no (positions, n) boolean matrix.
            # Over-fetch: some candidates may already be paired (mirrored
            # pairs); the paper then takes "the next most similar pair".
            batches = split_engine.top_k_scores_batch(
                positions,
                metric,
                k=base_fetch,
                exclude_groups=(group_ids[positions], group_ids),
            )
            corner_candidates.update(
                (position, rows) for position, (rows, _) in zip(positions, batches)
            )

    for position in range(n):
        cluster = cluster_ids[position]
        if corner_negatives_per_offer > 0:
            quota = 0
            candidates = corner_candidates[position]
            consumed = 0
            fetch = base_fetch
            # Every search for this offer draws from the same candidate
            # universe: all rows outside its cluster.  Exhaustion is judged
            # against that count, never against the length of one batch —
            # a batch short for any other reason must not skip widening.
            cross_universe = n - cluster_counts[cluster]
            while quota < corner_negatives_per_offer:
                if used_dense is not None:
                    quota += consume_corner_candidates(
                        position,
                        candidates,
                        consumed,
                        corner_negatives_per_offer - quota,
                    )
                else:
                    for candidate in candidates[consumed:]:
                        if add_pair(position, candidate, 0, "corner_negative"):
                            quota += 1
                            if quota >= corner_negatives_per_offer:
                                break
                consumed = len(candidates)
                if quota >= corner_negatives_per_offer:
                    break
                if consumed >= cross_universe:
                    # Every cross-cluster candidate has been seen: truly
                    # exhausted.  (A batch that is merely *short* — fewer
                    # rows than requested without covering the universe —
                    # falls through to the re-query below instead of
                    # silently ending the search.)
                    break
                # The fixed over-fetch was fully consumed by deduped or
                # mirrored pairs: widen the search and take the next most
                # similar offers (top-k ordering is deterministic, so the
                # wider result extends the previous one as a prefix)
                # rather than falling back to random negatives.
                fetch = min(2 * fetch, n)
                [(candidates, _)] = split_engine.top_k_scores_batch(
                    [position],
                    drawn[position],
                    k=fetch,
                    exclude=cluster_array == cluster_array[position],
                )
                if len(candidates) <= consumed:
                    break  # the cross-cluster universe itself is exhausted

        added_random = 0
        attempts = 0
        while (
            added_random < random_negatives_per_offer
            and negatives < max_cross_pairs
            and attempts < 50
        ):
            attempts += 1
            candidate = int(rng.integers(n))
            if cluster_ids[candidate] == cluster:
                continue
            if add_pair(position, candidate, 0, "random_negative"):
                added_random += 1

    # Top-up: if dedup against mirrored pairs left an offer short of its
    # negative quota, add random negatives so every split reaches its exact
    # target size (the paper's test sets contain exactly 4,500 pairs).
    target_negatives = n * (corner_negatives_per_offer + random_negatives_per_offer)
    attempts = 0
    while (
        negatives < target_negatives
        and negatives < max_cross_pairs
        and attempts < 50 * n
    ):
        attempts += 1
        a = int(rng.integers(n))
        b = int(rng.integers(n))
        if cluster_ids[a] == cluster_ids[b]:
            continue
        add_pair(a, b, 0, "random_negative")

    dataset = PairDataset(name=name)
    dataset.pairs = [
        LabeledPair(
            pair_id=f"{name}-{position:06d}",
            offer_a=offers[a],
            offer_b=offers[b],
            label=label,
            provenance=provenance,
        )
        for position, (a, b, label, provenance) in enumerate(added)
    ]
    return dataset
