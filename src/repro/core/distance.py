"""Pairwise Euclidean distances between two sets of row vectors.

The proximity clustering (paper Eq. 11), the pseudo-labeler, the separation
metrics and t-SNE all need the dense ``(n, m)`` matrix of Euclidean (or
squared Euclidean) distances between the rows of two small-dimensional
arrays.  :func:`pairwise_distances` computes it with NumPy alone.

Each entry is the sequential per-pair sum ``((a0-b0)**2 + (a1-b1)**2) + ...``
over the feature columns in order, which is the summation order of SciPy's
``cdist``, so the results match it bit for bit.  ``einsum`` and
``.sum(axis=-1)`` add in a different order and differ in the last bits
(up to ~1e-13), which could change clustering tie-breaks.

Memory: besides the output the helper allocates one row block of scratch
(about :data:`BLOCK_ELEMENTS` float64 values) and column-major copies of
the inputs; it never materialises the ``(n, m, dim)`` difference tensor.
"""

from __future__ import annotations

import numpy as np

__all__ = ["BLOCK_ELEMENTS", "pairwise_distances"]

#: Target number of float64 entries in one row block of scratch (512 KiB).
BLOCK_ELEMENTS = 1 << 16


def pairwise_distances(a: np.ndarray, b: np.ndarray, squared: bool = False) -> np.ndarray:
    """Euclidean distances between every row of ``a`` and every row of ``b``.

    Parameters
    ----------
    a, b:
        Arrays of shape ``(n, dim)`` and ``(m, dim)``; converted to float64.
    squared:
        Return squared distances (no square root), like ``cdist``'s
        ``"sqeuclidean"`` metric.

    Returns
    -------
    numpy.ndarray
        A fresh ``(n, m)`` float64 array.

    Raises
    ------
    ValueError
        If either input is not two-dimensional or their column counts differ.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError("pairwise_distances needs two 2-dimensional arrays")
    if a.shape[1] != b.shape[1]:
        raise ValueError(f"column counts differ: {a.shape[1]} != {b.shape[1]}")
    n, dim = a.shape
    m = b.shape[0]
    out = np.zeros((n, m))
    if out.size == 0 or dim == 0:
        return out
    # Column-major copies make each feature column contiguous (n*dim, m*dim:
    # tiny next to the output).
    a_cols = np.ascontiguousarray(a.T)
    b_cols = np.ascontiguousarray(b.T)
    rows = max(1, min(n, BLOCK_ELEMENTS // m))
    scratch = np.empty((rows, m))
    # Overflow to inf (and inf - inf = nan) is reported through the values,
    # silently, as cdist does.
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, n, rows):
            stop = min(start + rows, n)
            block = out[start:stop]
            diff = scratch[:stop - start]
            for k in range(dim):
                np.subtract(a_cols[k, start:stop, None], b_cols[k], out=diff)
                np.multiply(diff, diff, out=diff)
                block += diff
    if not squared:
        np.sqrt(out, out=out)
    return out
