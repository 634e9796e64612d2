"""Small dense-matrix utilities: the spectral norm, symmetrization and
exact power-of-two row scaling."""

from __future__ import annotations

import numpy as np


def symmetrize(a: np.ndarray) -> np.ndarray:
    return (a + np.swapaxes(a, -1, -2)) / 2.0  # per matrix of a stack


def snorm(a) -> float | np.ndarray:
    """Largest singular value of ``a``, exact at every size; a vector is
    read as a single row and an empty matrix has norm 0. A stack
    ``(..., m, n)`` gives an array of one norm per matrix, each the bits
    ``snorm`` gives that matrix alone."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    # The largest value of one SVD: np.linalg.norm(a, 2) computes the same
    # bits with twice the overhead on the small blocks the checks pass in.
    top = np.linalg.svd(a, compute_uv=False)[..., 0] if a.shape[-1] * a.shape[-2] else np.zeros(a.shape[:-2])
    return float(top) if a.ndim == 2 else top


def pow2_rows(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``x`` with each row scaled exactly by 2**-e to a largest magnitude in
    [0.5, 1), and e (0 for a zero, empty or non-finite row): a norm of the
    scaled rows, times 2**e, has the bits of the unscaled norm wherever that
    one neither overflows nor underflows."""
    e = np.frexp(np.maximum.reduce(np.abs(x), axis=-1, initial=0.0))[1]
    return np.ldexp(x, -e[..., None]), e
