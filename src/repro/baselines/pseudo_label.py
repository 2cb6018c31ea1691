"""Pseudo-labeling of unlabeled training samples (paper Section VI-A).

The supervised baselines (Scalable-DNN, SAE) need a label for every training
sample, but the experiment protocol only reveals a handful of labels per
floor.  Following the paper, the remaining training samples receive *pseudo*
labels: each unlabeled embedding takes the label of the closest labeled
embedding (Euclidean distance in whatever feature space the baseline uses).
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

import numpy as np

from ..core.distance import pairwise_distances

__all__ = ["assign_pseudo_labels"]


def assign_pseudo_labels(record_ids: Sequence[str], embeddings: np.ndarray,
                         labels: Mapping[str, int]) -> dict[str, int]:
    """Label every record: true labels where known, nearest-labeled otherwise.

    Parameters
    ----------
    record_ids:
        Ids of all training records, row-aligned with ``embeddings``.
    embeddings:
        Feature vectors of shape ``(len(record_ids), dim)``.
    labels:
        True labels for the labeled subset (record id -> floor).

    Returns
    -------
    dict
        A complete ``{record_id: floor}`` mapping over all records.
    """
    record_ids = list(record_ids)
    embeddings = np.asarray(embeddings, dtype=np.float64)
    if embeddings.ndim != 2 or embeddings.shape[0] != len(record_ids):
        raise ValueError("embeddings must be a (n_records, dim) array")
    if not labels:
        raise ValueError("at least one labeled record is required")
    position = {rid: i for i, rid in enumerate(record_ids)}
    unknown = set(labels) - set(position)
    if unknown:
        raise ValueError(f"labels reference unknown records: {sorted(unknown)[:5]}")

    labeled_ids = list(labels)
    labeled_rows = embeddings[[position[rid] for rid in labeled_ids]]
    labeled_floors = np.array([labels[rid] for rid in labeled_ids], dtype=np.int64)

    result: dict[str, int] = {}
    unlabeled_ids = [rid for rid in record_ids if rid not in labels]
    if unlabeled_ids:
        unlabeled_rows = embeddings[[position[rid] for rid in unlabeled_ids]]
        distances = pairwise_distances(unlabeled_rows, labeled_rows)
        nearest = np.argmin(distances, axis=1)
        for rid, pick in zip(unlabeled_ids, nearest):
            result[rid] = int(labeled_floors[pick])
    result.update({rid: int(floor) for rid, floor in labels.items()})
    return result
