"""Small dense-matrix utilities: the spectral norm and symmetrization."""

from __future__ import annotations

import numpy as np


def symmetrize(a: np.ndarray) -> np.ndarray:
    return (a + np.swapaxes(a, -1, -2)) / 2.0  # per matrix of a stack


def snorm(a) -> float:
    """Largest singular value of ``a``, exact at every size; a vector is
    read as a single row and an empty matrix has norm 0."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    # The largest value of one SVD: np.linalg.norm(a, 2) computes the same
    # bits with twice the overhead on the small blocks the checks pass in.
    return float(np.linalg.svd(a, compute_uv=False)[0]) if a.size else 0.0
