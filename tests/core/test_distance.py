"""NumPy pairwise distances: SciPy parity, memory bound, no SciPy at runtime.

``pairwise_distances`` replaced ``scipy.spatial.distance.cdist`` on the
clustering, pseudo-labelling, separation and t-SNE paths.  Clustering
tie-breaks depend on the last bit of every distance, so the helper must
equal ``cdist`` bit for bit; SciPy remains only as the oracle here.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import repro
from repro.core import pairwise_distances
from repro.core.distance import BLOCK_ELEMENTS


@pytest.fixture(scope="module")
def cdist():
    return pytest.importorskip("scipy.spatial.distance").cdist


def _same_bits(x: np.ndarray, y: np.ndarray) -> bool:
    return x.shape == y.shape and x.dtype == y.dtype and x.tobytes() == y.tobytes()


@st.composite
def _pair(draw):
    """Two (n, d) / (m, d) float arrays, magnitudes up to overflow range."""
    n = draw(st.integers(1, 9))
    m = draw(st.integers(1, 9))
    d = draw(st.integers(1, 12))
    scale = draw(st.sampled_from([1e-200, 1e-3, 1.0, 1e3, 1e150, 1e200]))
    unit = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)
    a = draw(hnp.arrays(np.float64, (n, d), elements=unit)) * scale
    b = draw(hnp.arrays(np.float64, (m, d), elements=unit)) * scale
    return a, b


class TestScipyParity:
    @settings(max_examples=150, deadline=None)
    @given(pair=_pair())
    def test_bit_identical_to_cdist(self, cdist, pair):
        a, b = pair
        assert _same_bits(pairwise_distances(a, b), cdist(a, b))
        assert _same_bits(pairwise_distances(a, b, squared=True),
                          cdist(a, b, metric="sqeuclidean"))

    @pytest.mark.parametrize("n,m,d", [(1, 1, 1), (1, 50, 8), (50, 1, 8),
                                       (300, 200, 1), (300, 200, 3),
                                       (300, 200, 8), (300, 200, 16),
                                       (2000, 3, 8)])
    def test_bit_identical_on_fixed_shapes(self, cdist, n, m, d):
        rng = np.random.default_rng(n * 1000 + m * 10 + d)
        a, b = rng.normal(size=(n, d)), rng.normal(size=(m, d))
        assert _same_bits(pairwise_distances(a, b), cdist(a, b))
        assert _same_bits(pairwise_distances(a, b, squared=True),
                          cdist(a, b, metric="sqeuclidean"))

    def test_mismatched_columns_raise_like_cdist(self, cdist):
        a, b = np.zeros((3, 4)), np.zeros((2, 5))
        with pytest.raises(ValueError):
            cdist(a, b)
        with pytest.raises(ValueError, match="column"):
            pairwise_distances(a, b)

    def test_non_matrix_inputs_raise(self):
        with pytest.raises(ValueError):
            pairwise_distances(np.zeros(3), np.zeros((2, 3)))

    def test_integer_inputs_and_self_distance(self):
        points = [[0, 0], [3, 4]]
        assert pairwise_distances(points, points).tolist() == [[0.0, 5.0],
                                                              [5.0, 0.0]]


def test_peak_memory_is_output_plus_one_row_block():
    """No (n, m, dim) difference tensor: scratch is one row block."""
    n = m = 400
    dim = 8
    rng = np.random.default_rng(0)
    a, b = rng.normal(size=(n, dim)), rng.normal(size=(m, dim))
    pairwise_distances(a, b)  # warm up any lazily built ufunc state
    tracemalloc.start()
    try:
        out = pairwise_distances(a, b)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    row_block = min(n, BLOCK_ELEMENTS // m) * m * 8
    # Column-major copies of the inputs, plus the fixed-size buffer NumPy's
    # iterator uses for a broadcast ufunc (np.getbufsize() elements per
    # operand), independent of n and m.
    fixed = a.nbytes + b.nbytes + 2 * np.getbufsize() * 8
    assert peak <= out.nbytes + row_block + fixed
    assert row_block < out.nbytes  # the bound is tighter than two outputs
    assert peak < n * m * dim * 8  # far below the broadcast difference tensor


def test_runtime_imports_do_not_load_scipy():
    """The package, and what a spawned pool worker imports, need no SciPy."""
    code = ("import sys\n"
            "import repro, repro.evaluation, repro.baselines, "
            "repro.visualization, repro.serving.pool\n"
            "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "assert not loaded, loaded\n")
    src = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
