"""Proximity-based hierarchical clustering (paper Section IV-C).

Starting from one singleton cluster per embedded record, the algorithm
repeatedly merges the two *closest* clusters subject to the constraint that a
cluster may contain **at most one floor-labeled sample**.  Merging stops when
no admissible merge remains, at which point (provided at least one labeled
sample exists) every cluster contains exactly one labeled sample, whose floor
becomes the cluster's label.

The inter-cluster distance is the mean pairwise Euclidean distance between
members (paper Eq. 11).  That distance obeys the Lance–Williams recurrence
for average linkage,

    d(C_i ∪ C_j, C_k) = (|C_i| d(C_i, C_k) + |C_j| d(C_j, C_k)) / (|C_i| + |C_j|),

so merges can be computed without revisiting raw embeddings.  Average linkage
is *reducible* (merging two clusters never brings the merged cluster closer
to a third cluster than the nearer of its parts was), so a lazy
nearest-neighbour heap over a dense distance matrix yields the exact greedy
merge order in roughly O(n² log n) time, which comfortably handles the
building sizes used in the paper's evaluation (a few thousand records per
building).
"""

from __future__ import annotations

import heapq
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field

import numpy as np

from ..distance import pairwise_distances

__all__ = [
    "MergeStep",
    "ClusteringResult",
    "ProximityClustering",
    "average_pairwise_distance",
]


def average_pairwise_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Mean pairwise Euclidean distance between two sets of embeddings (Eq. 11)."""
    a = np.atleast_2d(np.asarray(a, dtype=np.float64))
    b = np.atleast_2d(np.asarray(b, dtype=np.float64))
    return float(pairwise_distances(a, b).mean())


@dataclass(frozen=True)
class MergeStep:
    """One merge of the agglomeration (indices refer to original records)."""

    first: int
    second: int
    distance: float
    merged_size: int


@dataclass
class ClusteringResult:
    """Outcome of the proximity-based hierarchical clustering.

    Attributes
    ----------
    assignments:
        Mapping record id -> final cluster id (a representative record index).
    cluster_labels:
        Mapping cluster id -> floor label (from its single labeled member).
    cluster_members:
        Mapping cluster id -> list of member record ids.
    merges:
        The merge history, in order, for progress visualisation (Fig. 8).
    record_ids:
        The record ids in the row order used during clustering.
    """

    assignments: dict[str, int]
    cluster_labels: dict[int, int]
    cluster_members: dict[int, list[str]]
    record_ids: list[str]
    merges: list[MergeStep] = field(default_factory=list)

    @property
    def num_clusters(self) -> int:
        return len(self.cluster_members)

    def predicted_floor(self, record_id: str) -> int:
        """Floor label virtually assigned to an (unlabeled) training record."""
        return self.cluster_labels[self.assignments[record_id]]

    def floors(self) -> list[int]:
        return sorted(set(self.cluster_labels.values()))

    def assignments_at_fraction(self, fraction: float) -> dict[str, int]:
        """Cluster assignment after the first ``fraction`` of merges (Fig. 8).

        ``fraction`` = 1.0 reproduces the final grouping; 0.0 returns the
        initial all-singletons state.  The returned cluster ids are
        representative record indices of the partial union-find state and are
        only meaningful for grouping records together.
        """
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("fraction must be within [0, 1]")
        cutoff = int(round(fraction * len(self.merges)))
        parent: dict[int, int] = {}

        def find(x: int) -> int:
            while parent.get(x, x) != x:
                parent[x] = parent.get(parent[x], parent[x])
                x = parent[x]
            return x

        for step in self.merges[:cutoff]:
            root_a, root_b = find(step.first), find(step.second)
            if root_a != root_b:
                parent[root_b] = root_a
        return {rid: find(i) for i, rid in enumerate(self.record_ids)}


class ProximityClustering:
    """Constrained average-linkage agglomerative clustering on record embeddings.

    Parameters
    ----------
    allow_unreachable:
        When ``True``, clusters that end without a labeled sample (possible
        only in degenerate label configurations) are labeled with the floor of
        the nearest labeled cluster instead of raising an error.
    """

    def __init__(self, allow_unreachable: bool = False) -> None:
        self.allow_unreachable = allow_unreachable

    def fit(self, record_ids: Sequence[str], embeddings: np.ndarray,
            labels: Mapping[str, int]) -> ClusteringResult:
        """Cluster the records given their embeddings and the few known labels.

        Parameters
        ----------
        record_ids:
            Ids of all records to cluster (labeled and unlabeled alike).
        embeddings:
            Array of shape ``(len(record_ids), dimension)`` with the ego
            embeddings, row-aligned with ``record_ids``.
        labels:
            Mapping from record id to floor label for the *labeled* subset
            only.  Must be non-empty and every key must appear in
            ``record_ids``.
        """
        record_ids = list(record_ids)
        embeddings = np.asarray(embeddings, dtype=np.float64)
        if embeddings.ndim != 2 or embeddings.shape[0] != len(record_ids):
            raise ValueError("embeddings must be a (n_records, dim) array")
        if len(set(record_ids)) != len(record_ids):
            raise ValueError("record_ids contains duplicates")
        if not labels:
            raise ValueError("at least one floor-labeled record is required")
        unknown = set(labels) - set(record_ids)
        if unknown:
            raise ValueError(
                f"labeled records not present in record_ids: {sorted(unknown)[:5]}")

        n = len(record_ids)
        position = {rid: i for i, rid in enumerate(record_ids)}
        labeled_counts = np.zeros(n, dtype=np.int64)
        cluster_label: dict[int, int] = {}
        for rid, floor in labels.items():
            index = position[rid]
            labeled_counts[index] = 1
            cluster_label[index] = int(floor)

        state = _AgglomerationState(embeddings, labeled_counts)
        merges: list[MergeStep] = []
        heap: list[tuple[float, int, int, int, int]] = []
        for i in range(n):
            candidate = state.nearest_valid(i)
            if candidate is not None:
                j, d = candidate
                heapq.heappush(heap, (d, i, j, state.version[i], state.version[j]))

        while heap:
            d, i, j, vi, vj = heapq.heappop(heap)
            if not state.active[i]:
                continue
            if (state.version[i] != vi or not state.active[j]
                    or state.version[j] != vj or not state.valid_pair(i, j)):
                candidate = state.nearest_valid(i)
                if candidate is not None:
                    nj, nd = candidate
                    heapq.heappush(heap, (nd, i, nj, state.version[i],
                                          state.version[nj]))
                continue

            merges.append(MergeStep(first=i, second=j, distance=d,
                                    merged_size=int(state.size[i] + state.size[j])))
            state.merge(i, j)
            if j in cluster_label and i not in cluster_label:
                cluster_label[i] = cluster_label[j]
            candidate = state.nearest_valid(i)
            if candidate is not None:
                nj, nd = candidate
                heapq.heappush(heap, (nd, i, nj, state.version[i],
                                      state.version[nj]))

        return self._finalize(record_ids, state, cluster_label, merges)

    def _finalize(self, record_ids: list[str], state: "_AgglomerationState",
                  cluster_label: dict[int, int],
                  merges: list[MergeStep]) -> ClusteringResult:
        active_clusters = [i for i in range(len(record_ids)) if state.active[i]]
        unlabeled = [c for c in active_clusters if state.labeled_counts[c] == 0]
        if unlabeled:
            if not self.allow_unreachable:
                raise RuntimeError(
                    f"{len(unlabeled)} clusters ended without a labeled sample; "
                    "pass allow_unreachable=True to label them by the nearest "
                    "labeled cluster")
            labeled_clusters = [c for c in active_clusters
                                if state.labeled_counts[c] >= 1]
            for c in unlabeled:
                distances = state.distance_matrix[c, labeled_clusters]
                nearest = labeled_clusters[int(np.argmin(distances))]
                cluster_label[c] = cluster_label[nearest]

        assignments: dict[str, int] = {}
        members: dict[int, list[str]] = {c: [] for c in active_clusters}
        for i, rid in enumerate(record_ids):
            root = state.find(i)
            assignments[rid] = root
            members[root].append(rid)
        labels_out = {c: cluster_label[c] for c in active_clusters}
        return ClusteringResult(assignments=assignments, cluster_labels=labels_out,
                                cluster_members=members, record_ids=record_ids,
                                merges=merges)


class _AgglomerationState:
    """Dense-matrix union-find state for the constrained agglomeration."""

    def __init__(self, embeddings: np.ndarray, labeled_counts: np.ndarray) -> None:
        n = embeddings.shape[0]
        self.distance_matrix = pairwise_distances(embeddings, embeddings)
        np.fill_diagonal(self.distance_matrix, np.inf)
        self.active = np.ones(n, dtype=bool)
        self.size = np.ones(n, dtype=np.int64)
        self.labeled_counts = labeled_counts.copy()
        self.version = np.zeros(n, dtype=np.int64)
        self.parent = np.arange(n, dtype=np.int64)

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return int(root)

    def valid_pair(self, i: int, j: int) -> bool:
        """Whether clusters ``i`` and ``j`` may merge (at most one labeled sample)."""
        return bool(self.labeled_counts[i] + self.labeled_counts[j] <= 1)

    def nearest_valid(self, i: int) -> tuple[int, float] | None:
        """The closest cluster that ``i`` is allowed to merge with, if any."""
        if not self.active[i]:
            return None
        mask = self.active.copy()
        mask[i] = False
        if self.labeled_counts[i] >= 1:
            mask &= self.labeled_counts == 0
        if not mask.any():
            return None
        row = np.where(mask, self.distance_matrix[i], np.inf)
        j = int(np.argmin(row))
        if not np.isfinite(row[j]):
            return None
        return j, float(row[j])

    def merge(self, i: int, j: int) -> None:
        """Merge cluster ``j`` into cluster ``i`` (Lance–Williams average linkage)."""
        size_i, size_j = self.size[i], self.size[j]
        total = size_i + size_j
        merged_row = (size_i * self.distance_matrix[i]
                      + size_j * self.distance_matrix[j]) / total
        self.distance_matrix[i, :] = merged_row
        self.distance_matrix[:, i] = merged_row
        self.distance_matrix[i, i] = np.inf
        self.distance_matrix[j, :] = np.inf
        self.distance_matrix[:, j] = np.inf

        self.size[i] = total
        self.labeled_counts[i] += self.labeled_counts[j]
        self.active[j] = False
        self.parent[j] = i
        self.version[i] += 1
        self.version[j] += 1
