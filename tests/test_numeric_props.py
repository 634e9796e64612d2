"""Randomized checks of the spectral-norm facts and matrix perturbation
inequalities that the error analysis leans on."""

import numpy as np
import pytest

from bowfree.linalg import snorm

CASES = 1000


def gershgorin_intervals(sym: np.ndarray) -> list[tuple[float, float]]:
    """Row intervals [a_ii - R_i, a_ii + R_i] with R_i the off-diagonal abs sum."""
    radii = np.sum(np.abs(sym), axis=1) - np.abs(np.diag(sym))
    return [(float(sym[i, i] - radii[i]), float(sym[i, i] + radii[i])) for i in range(sym.shape[0])]


def _pairs(seed, max_n=8):
    rng = np.random.default_rng(seed)
    for _ in range(CASES):
        n = int(rng.integers(1, max_n + 1))
        yield rng, rng.standard_normal((n, n)), rng.standard_normal((n, n))


def test_triangle_inequality():
    for _, a, b in _pairs(1):
        assert snorm(a + b) <= snorm(a) + snorm(b) + 1e-12


def test_reverse_triangle_inequality():
    for _, a, b in _pairs(11):
        assert snorm(a - b) >= abs(snorm(a) - snorm(b)) - 1e-12


def test_submultiplicativity():
    for _, a, b in _pairs(2):
        assert snorm(a @ b) <= snorm(a) * snorm(b) + 1e-12


def test_transpose_invariance():
    for _, a, _b in _pairs(3):
        assert snorm(a.T) == pytest.approx(snorm(a), rel=1e-12, abs=1e-12)


def test_entrywise_bounded_by_norm():
    for _, a, _b in _pairs(4):
        assert np.max(np.abs(a)) <= snorm(a) + 1e-12


def test_inverse_norm_is_reciprocal_smallest_singular_value():
    rng = np.random.default_rng(5)
    for _ in range(CASES):
        n = int(rng.integers(1, 8))
        a = rng.standard_normal((n, n)) + 3.0 * np.eye(n)
        svals = np.linalg.svd(a, compute_uv=False)
        assert snorm(np.linalg.inv(a)) == pytest.approx(1.0 / svals[-1], rel=1e-8)


def test_frobenius_vs_spectral():
    for _, a, _b in _pairs(6):
        n = a.shape[0]
        assert np.sqrt(np.trace(a.T @ a)) <= np.sqrt(n) * snorm(a) + 1e-12


def test_submatrix_norm_bounded():
    rng = np.random.default_rng(7)
    for _ in range(CASES):
        n = int(rng.integers(2, 9))
        a = rng.standard_normal((n, n))
        rows = sorted(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False))
        cols = sorted(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False))
        assert snorm(a[np.ix_(rows, cols)]) <= snorm(a) + 1e-12


def test_gershgorin_containment():
    rng = np.random.default_rng(8)
    for _ in range(CASES):
        n = int(rng.integers(1, 9))
        a = rng.standard_normal((n, n))
        a = (a + a.T) / 2
        intervals = gershgorin_intervals(a)
        for eig in np.linalg.eigvalsh(a):
            assert any(lo - 1e-9 <= eig <= hi + 1e-9 for lo, hi in intervals)


def test_matrix_approximation_inequality():
    # || (Q + M)^{-1} || <= ||Q^{-1}|| (1 + 2 ||Q^{-1} M||) when ||Q^{-1} M|| <= 0.4
    rng = np.random.default_rng(9)
    for _ in range(CASES):
        n = int(rng.integers(1, 7))
        q = rng.standard_normal((n, n)) + 3.0 * np.eye(n)
        m = rng.standard_normal((n, n))
        q_inv = np.linalg.inv(q)
        scale = 0.4 * rng.random() / max(snorm(q_inv @ m), 1e-12)
        m *= scale
        lhs = snorm(np.linalg.inv(q + m))
        rhs = snorm(q_inv) * (1.0 + 2.0 * snorm(q_inv @ m))
        assert lhs <= rhs + 1e-9


def test_inverse_perturbation_inequality():
    # ||A^{-1} - (A+B)^{-1}|| <= ||A^{-1}|| ||A^{-1}B|| (1 + 2||A^{-1}B||)
    rng = np.random.default_rng(10)
    for _ in range(CASES):
        n = int(rng.integers(1, 7))
        a = rng.standard_normal((n, n)) + 3.0 * np.eye(n)
        b = rng.standard_normal((n, n))
        a_inv = np.linalg.inv(a)
        scale = 0.49 * rng.random() / max(snorm(a_inv @ b), 1e-12)
        b *= scale
        lhs = snorm(a_inv - np.linalg.inv(a + b))
        rhs = snorm(a_inv) * snorm(a_inv @ b) * (1.0 + 2.0 * snorm(a_inv @ b))
        assert lhs <= rhs + 1e-9


def test_difference_with_psd_part_shrinks_norm():
    rng = np.random.default_rng(12)
    for _ in range(200):
        n = int(rng.integers(1, 7))
        b = rng.standard_normal((n, n))
        b = b @ b.T + np.eye(n)
        c_half = rng.standard_normal((n, n))
        c = c_half @ c_half.T
        if snorm(c) > np.linalg.eigvalsh(b)[0]:
            c *= 0.5 * np.linalg.eigvalsh(b)[0] / snorm(c)
        assert snorm(b - c) <= snorm(b) + 1e-12
