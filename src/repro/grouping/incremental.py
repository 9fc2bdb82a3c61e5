"""Exact incremental DBSCAN over a live :class:`SimilarityEngine`.

The serving layer mutates its corpus one delta at a time; re-running
:class:`~repro.grouping.dbscan.DBSCAN` per delta is O(n²) per append.
This module keeps cluster assignments *exactly* equal to a cold batch
run on the final corpus while doing per-delta work proportional to the
affected neighbourhood — the FINEX-style "fast, indexed, exact" shape:

* **Neighbor index.** Every row's eps-neighbourhood (``1 - cosine ≤
  eps``) is materialized once and maintained under append/retire.  New
  rows are linked in blocks of ``_LINK_BLOCK``: one sparse product
  ``M @ M[block].T`` over the engine's token matrix gives every token
  intersection of the block at once, and its non-zeros on clustered
  rows are scored with the engine's own
  :func:`~repro.similarity.features.cosine_dice_scores`, so the
  neighbour predicate is bit-identical to the batch path.  A pair with
  no shared token scores 0, which is a neighbour only for ``eps >= 1``;
  there every clustered row neighbours every other.
* **Component-local relabeling.** DBSCAN clusters never span
  eps-connected components, and within a component the textbook
  algorithm is deterministic given the neighbour sets and the ascending
  row order.  Each delta therefore recomputes labels only for the
  affected components, replaying :class:`~repro.grouping.dbscan.DBSCAN`
  verbatim (same BFS, same border-point claiming) — which is why the
  final partition equals the batch partition even for
  ``min_samples > 1``, where border assignment is order-dependent.

Raw label *numbers* are allocation-order artifacts on both sides, so
parity is pinned on :func:`canonical_assignments` /
:func:`partition_sha` — clusters renumbered by their smallest member.
"""

from __future__ import annotations

import hashlib
import json
from collections import deque
from collections.abc import Iterable, Mapping, Sequence

import numpy as np

from repro.grouping.dbscan import NOISE
from repro.similarity.features import cosine_dice_scores

__all__ = [
    "IncrementalDBSCAN",
    "canonical_assignments",
    "partition_sha",
]

_UNVISITED = -2
# Rows per sparse product in ``_link_rows``: bounds the product's
# transient memory (engine rows x block) without a Python loop per row.
_LINK_BLOCK = 64


def canonical_assignments(assignments: Mapping) -> dict:
    """Assignments with clusters renumbered by ascending smallest member.

    Raw cluster ids are allocation artifacts (batch DBSCAN numbers by
    discovery order, the incremental clusterer by a monotone counter
    that survives relabeling); the canonical form is what two exact
    clusterings of the same rows agree on.  Noise stays ``-1``.
    """
    minima: dict[int, object] = {}
    for row in sorted(assignments):
        label = assignments[row]
        if label != NOISE and label not in minima:
            minima[label] = row
    renumber = {
        label: position
        for position, label in enumerate(
            sorted(minima, key=lambda label: minima[label])
        )
    }
    return {
        row: (NOISE if label == NOISE else renumber[label])
        for row, label in assignments.items()
    }


def partition_sha(assignments: Mapping) -> str:
    """sha256 of the canonical partition (cluster member lists + noise).

    Keys may be engine rows or offer-id strings — anything sortable and
    JSON-representable; two clusterings hash equal iff they partition
    the same keys identically.
    """
    clusters: dict[int, list] = {}
    noise: list = []
    for row in sorted(assignments):
        key = row if isinstance(row, str) else int(row)
        if assignments[row] == NOISE:
            noise.append(key)
        else:
            clusters.setdefault(int(assignments[row]), []).append(key)
    body = {"clusters": sorted(clusters.values()), "noise": noise}
    return hashlib.sha256(
        json.dumps(body, separators=(",", ":")).encode("utf-8")
    ).hexdigest()


class IncrementalDBSCAN:
    """Exact DBSCAN over materialized eps-neighbourhoods, kept under
    engine append/retire.

    Bootstraps over ``engine.live_rows()`` (one blocked sparse product
    pass, see :meth:`_link_rows`) and is then kept coherent by
    calling :meth:`append` with the row indices ``engine.append``
    returned and :meth:`retire` with the rows passed to
    ``engine.retire`` (the serving layer's ``LiveShard`` does both).
    ``assignments()`` equals — canonically — what
    ``DBSCAN(metric="precomputed").fit_predict(1 - cosine_block)`` on a
    cold rebuild of the live corpus produces.
    """

    def __init__(
        self,
        engine,
        *,
        eps: float = 0.35,
        min_samples: int = 1,
    ) -> None:
        if eps <= 0:
            raise ValueError("eps must be positive")
        if min_samples < 1:
            raise ValueError("min_samples must be >= 1")
        self.engine = engine
        self.eps = eps
        self.min_samples = min_samples
        self._neighbors: dict[int, set[int]] = {}
        self._labels: dict[int, int] = {}
        self._next_cluster = 0
        rows = [int(row) for row in engine.live_rows()]
        self._link_rows(rows)
        self._relabel(set(rows))

    # ------------------------------------------------------------------ #
    # Delta entry points
    # ------------------------------------------------------------------ #
    def append(self, rows: Iterable[int]) -> None:
        """Absorb rows just appended to the engine and relabel locally."""
        new_rows = [int(row) for row in rows]
        for row in new_rows:
            if row in self._neighbors:
                raise ValueError(f"row {row} already clustered")
            if row < 0 or row >= len(self.engine):
                raise IndexError(f"row {row} outside engine of {len(self.engine)}")
        if not new_rows:
            return
        self._link_rows(new_rows)
        self._relabel(self._component_of(new_rows))

    def retire(self, rows: Iterable[int]) -> None:
        """Drop retired rows from the index and relabel their components."""
        gone = [int(row) for row in rows]
        for row in gone:
            if row not in self._neighbors:
                raise KeyError(f"row {row} is not clustered")
        if not gone:
            return
        region = self._component_of(gone) - set(gone)
        for row in gone:
            for other in sorted(self._neighbors.pop(row)):
                if other != row and other in self._neighbors:
                    self._neighbors[other].discard(row)
            self._labels.pop(row, None)
        self._relabel(region)

    # ------------------------------------------------------------------ #
    # Results
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._labels)

    def assignments(self) -> dict[int, int]:
        """Canonical ``row -> cluster`` map (noise ``-1``)."""
        return canonical_assignments(self._labels)

    def clusters(self) -> list[list[int]]:
        """Cluster member lists, each ascending, ordered by first member."""
        grouped: dict[int, list[int]] = {}
        for row, label in sorted(self.assignments().items()):
            if label != NOISE:
                grouped.setdefault(label, []).append(row)
        return [grouped[label] for label in sorted(grouped)]

    def noise_rows(self) -> list[int]:
        return sorted(row for row, label in self._labels.items() if label == NOISE)

    def n_clusters(self) -> int:
        return len({label for label in self._labels.values() if label != NOISE})

    def sha(self) -> str:
        """sha256 pin of the current canonical partition."""
        return partition_sha(self._labels)

    def neighbors_of(self, row: int) -> list[int]:
        """The exact eps-neighbourhood of a clustered row (includes self)."""
        return sorted(self._neighbors[int(row)])

    # ------------------------------------------------------------------ #
    # Neighbor index maintenance
    # ------------------------------------------------------------------ #
    def _link_rows(self, rows: Sequence[int]) -> None:
        """Compute the new rows' exact neighbour sets, symmetrically.

        The new rows join the clustered set first, so new↔new pairs are
        found from either side; existing rows gain the new rows through
        the symmetric insert.  Scores come from the engine's own
        formula with ``_exact_subset_scores``' argument order, so the
        predicate matches the batch clusterer's ``1 - score <= eps``
        bit for bit.
        """
        for row in rows:
            self._neighbors.setdefault(row, set())
        if self.eps >= 1.0:
            # Every score is >= 0, so every clustered pair is admissible.
            everyone = sorted(self._neighbors)
            for row in rows:
                self._neighbors[row].update(everyone)
            for other in everyone:
                self._neighbors[other].update(rows)
            return
        matrix = self.engine._matrix
        sizes = self.engine._set_sizes
        clustered = np.zeros(matrix.shape[0], dtype=bool)
        clustered[list(self._neighbors)] = True
        for start in range(0, len(rows), _LINK_BLOCK):
            block = np.asarray(rows[start : start + _LINK_BLOCK], dtype=np.intp)
            # Engine rows x block; retired rows are masked out below.
            product = matrix @ matrix[block].T
            candidates = np.repeat(
                np.arange(product.shape[0]), np.diff(product.indptr)
            )
            positions = product.indices
            scores = cosine_dice_scores(
                "cosine", product.data, sizes[candidates], sizes[block[positions]]
            )
            close = clustered[candidates] & ((1.0 - scores) <= self.eps)
            for row, other in zip(
                block[positions[close]].tolist(), candidates[close].tolist()
            ):
                self._neighbors[row].add(other)
                self._neighbors[other].add(row)

    def _component_of(self, seeds: Sequence[int]) -> set[int]:
        """Union of the eps-connected components containing ``seeds``."""
        seen: set[int] = set()
        queue: deque[int] = deque()
        for seed in seeds:
            if seed not in seen:
                seen.add(seed)
                queue.append(seed)
        while queue:
            row = queue.popleft()
            for other in sorted(self._neighbors[row]):
                if other not in seen:
                    seen.add(other)
                    queue.append(other)
        return seen

    # ------------------------------------------------------------------ #
    # Component-local relabeling (textbook DBSCAN replay)
    # ------------------------------------------------------------------ #
    def _relabel(self, region: set[int]) -> None:
        """Re-run the batch algorithm over whole affected components.

        ``region`` is a union of eps-connected components, so every
        neighbour of a region member is itself in the region; replaying
        the batch BFS in ascending row order therefore reproduces, for
        this slice of the corpus, exactly what a cold batch run over
        the final corpus computes.  Fresh cluster ids come from a
        monotone counter — never reused, so ids of untouched components
        stay valid.
        """
        state: dict[int, int] = {row: _UNVISITED for row in sorted(region)}
        for point in sorted(region):
            if state[point] != _UNVISITED:
                continue
            if len(self._neighbors[point]) < self.min_samples:
                state[point] = NOISE
                continue
            cluster = self._next_cluster
            self._next_cluster += 1
            state[point] = cluster
            queue = deque(
                row for row in sorted(self._neighbors[point]) if row != point
            )
            while queue:
                candidate = queue.popleft()
                if state[candidate] == NOISE:
                    state[candidate] = cluster  # border point
                if state[candidate] != _UNVISITED:
                    continue
                state[candidate] = cluster
                if len(self._neighbors[candidate]) >= self.min_samples:
                    queue.extend(
                        row
                        for row in sorted(self._neighbors[candidate])
                        if state[row] in (_UNVISITED, NOISE)
                    )
        self._labels.update(state)
