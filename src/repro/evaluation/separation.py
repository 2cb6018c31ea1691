"""Quantitative cluster-separation metrics for the embedding-quality study.

The paper's Fig. 6 argues *visually* (via t-SNE) that E-LINE embeddings of a
three-storey building separate the floors while MDS and autoencoder
embeddings do not.  To reproduce that claim quantitatively, this module
computes standard separation measures over embeddings labeled with their
ground-truth floor:

* silhouette score (higher is better; positive means floors form clusters),
* intra/inter-floor distance ratio (lower is better),
* nearest-neighbour purity (fraction of samples whose nearest neighbour is
  from the same floor).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ..core.distance import pairwise_distances

__all__ = [
    "SeparationReport",
    "silhouette_score",
    "intra_inter_distance_ratio",
    "nearest_neighbor_purity",
    "evaluate_separation",
]


def _validate(embeddings: np.ndarray, labels: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    embeddings = np.asarray(embeddings, dtype=np.float64)
    labels = np.asarray(list(labels), dtype=np.int64)
    if embeddings.ndim != 2 or embeddings.shape[0] != labels.shape[0]:
        raise ValueError("embeddings must be (n, dim) aligned with labels")
    if embeddings.shape[0] < 2:
        raise ValueError("need at least two samples")
    if np.unique(labels).size < 2:
        raise ValueError("need at least two distinct floors")
    return embeddings, labels


def silhouette_score(embeddings: np.ndarray, labels: Sequence[int]) -> float:
    """Mean silhouette coefficient over all samples."""
    embeddings, labels = _validate(embeddings, labels)
    distances = pairwise_distances(embeddings, embeddings)
    unique = np.unique(labels)
    n = embeddings.shape[0]
    scores = np.zeros(n)
    for i in range(n):
        same = labels == labels[i]
        same[i] = False
        if not same.any():
            scores[i] = 0.0
            continue
        a = distances[i, same].mean()
        b = np.inf
        for other in unique:
            if other == labels[i]:
                continue
            members = labels == other
            b = min(b, distances[i, members].mean())
        scores[i] = (b - a) / max(a, b) if max(a, b) > 0 else 0.0
    return float(scores.mean())


def intra_inter_distance_ratio(embeddings: np.ndarray,
                               labels: Sequence[int]) -> float:
    """Mean intra-floor distance divided by mean inter-floor distance."""
    embeddings, labels = _validate(embeddings, labels)
    distances = pairwise_distances(embeddings, embeddings)
    same = labels[:, None] == labels[None, :]
    np.fill_diagonal(same, False)
    different = ~(labels[:, None] == labels[None, :])
    intra = distances[same]
    inter = distances[different]
    if intra.size == 0 or inter.size == 0:
        raise ValueError("need both intra-floor and inter-floor pairs")
    inter_mean = float(inter.mean())
    if inter_mean == 0:
        return float("inf")
    return float(intra.mean()) / inter_mean


def nearest_neighbor_purity(embeddings: np.ndarray, labels: Sequence[int],
                            k: int = 1) -> float:
    """Fraction of samples whose k nearest neighbours share their floor."""
    embeddings, labels = _validate(embeddings, labels)
    if k < 1:
        raise ValueError("k must be at least 1")
    distances = pairwise_distances(embeddings, embeddings)
    np.fill_diagonal(distances, np.inf)
    neighbor_indices = np.argsort(distances, axis=1)[:, :k]
    matches = labels[neighbor_indices] == labels[:, None]
    return float(matches.mean())


@dataclass(frozen=True)
class SeparationReport:
    """Bundle of the three separation metrics for one embedding method."""

    method: str
    silhouette: float
    intra_inter_ratio: float
    nn_purity: float

    def as_row(self) -> dict[str, object]:
        return {
            "method": self.method,
            "silhouette": round(self.silhouette, 4),
            "intra_inter_ratio": round(self.intra_inter_ratio, 4),
            "nn_purity": round(self.nn_purity, 4),
        }


def evaluate_separation(method: str, embeddings: np.ndarray,
                        labels: Sequence[int]) -> SeparationReport:
    """Compute all separation metrics for one method's embeddings."""
    return SeparationReport(
        method=method,
        silhouette=silhouette_score(embeddings, labels),
        intra_inter_ratio=intra_inter_distance_ratio(embeddings, labels),
        nn_purity=nearest_neighbor_purity(embeddings, labels),
    )
