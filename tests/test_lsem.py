import numpy as np
import pytest

from bowfree.errors import ConvergenceError, DefinitenessError, PatternError, SampleSizeError
from bowfree.graphs import MixedGraph
from bowfree.linalg import snorm
from bowfree.lsem import (
    Covariance,
    ParamSet,
    forward_map,
    load_matrix_csv,
    load_params,
    neumann_inverse,
    project_omega_pattern,
    recover_omega,
    sample_covariance,
    save_matrix_csv,
    save_params,
)

from conftest import graph_from_lambda, random_dag_lambda


def test_forward_map_identity_when_no_edges():
    g = MixedGraph(3, [], [(0, 1)])
    omega = np.array([[2.0, 0.3, 0.0], [0.3, 1.0, 0.0], [0.0, 0.0, 1.5]])
    cov = forward_map(g, ParamSet(np.zeros((3, 3)), omega))
    np.testing.assert_allclose(cov.sigma, omega)


def test_forward_map_two_node_closed_form():
    # hand expansion: (I - lam)^{-1} = [[1, w], [0, 1]]
    w = 0.73
    g = MixedGraph(2, [(0, 1)])
    lam = np.array([[0.0, w], [0.0, 0.0]])
    cov = forward_map(g, ParamSet(lam, np.eye(2)))
    np.testing.assert_allclose(cov.sigma, [[1.0, w], [w, 1.0 + w**2]], atol=1e-15)


def test_forward_map_matches_dense_inverse_oracle(rng):
    lam = np.zeros((3, 3))
    lam[0, 1], lam[1, 2] = 0.8, -1.3
    g = graph_from_lambda(lam, [(0, 2)])
    omega = np.eye(3)
    omega[0, 2] = omega[2, 0] = 0.4
    inv = np.linalg.inv(np.eye(3) - lam)
    expected = inv.T @ omega @ inv
    got = forward_map(g, ParamSet(lam, omega)).sigma
    np.testing.assert_allclose(got, expected, atol=1e-12)


def test_forward_map_rejects_pattern_violations():
    g = MixedGraph(2, [(0, 1)])
    bad_lam = np.array([[0.0, 0.0], [0.5, 0.0]])
    with pytest.raises(PatternError):
        forward_map(g, ParamSet(bad_lam, np.eye(2)))
    bad_omega = np.array([[1.0, 0.2], [0.2, 1.0]])  # (0,1) not bidirected
    with pytest.raises(PatternError):
        forward_map(g, ParamSet(np.zeros((2, 2)), bad_omega))


def test_forward_map_rejects_indefinite_omega():
    g = MixedGraph(2, [], [(0, 1)])
    omega = np.array([[1.0, 2.0], [2.0, 1.0]])
    with pytest.raises(DefinitenessError):
        forward_map(g, ParamSet(np.zeros((2, 2)), omega))


def test_neumann_sum_equals_dense_inverse(rng):
    for _ in range(50):
        n = int(rng.integers(2, 12))
        lam = random_dag_lambda(n, 0.5, rng)
        dense = np.linalg.inv(np.eye(n) - lam)
        assert snorm(neumann_inverse(lam) - dense) <= 1e-10 * max(1.0, snorm(dense))


def test_forward_map_positive_definite(rng):
    for seed in range(10):
        local = np.random.default_rng(seed)
        lam = random_dag_lambda(6, 0.5, local)
        g = graph_from_lambda(lam)
        cov = forward_map(g, ParamSet(lam, np.eye(6)))
        assert np.linalg.eigvalsh(cov.sigma)[0] > 0


def test_recover_omega_identity():
    g = MixedGraph(2, [], [(0, 1)])
    sigma = np.array([[1.0, 0.2], [0.2, 2.0]])
    np.testing.assert_allclose(recover_omega(g, np.zeros((2, 2)), sigma), sigma)


def test_recover_omega_round_trip(rng):
    lam = random_dag_lambda(5, 0.6, rng)
    g = graph_from_lambda(lam, [(0, 4)])
    omega = np.eye(5)
    omega[0, 4] = omega[4, 0] = 0.3
    sigma = forward_map(g, ParamSet(lam, omega))
    np.testing.assert_allclose(recover_omega(g, lam, sigma), omega, atol=1e-10)


def test_recover_omega_perturbation_norm_bound(rng):
    lam = random_dag_lambda(5, 0.6, rng)
    g = graph_from_lambda(lam)
    sigma = forward_map(g, ParamSet(lam, np.eye(5))).sigma
    noise = rng.standard_normal((5, 5))
    noise = (noise + noise.T) / 2
    noise *= 1e-6 / snorm(noise)
    base = recover_omega(g, lam, sigma)
    shifted = recover_omega(g, lam, sigma + noise)
    c = (1.0 + snorm(lam)) ** 2
    assert np.max(np.abs(shifted - base)) <= c * 1e-6 * (1 + 1e-9)


def test_project_omega_feasible_fixed_point():
    omega = np.array([[2.0, 0.5, 0.0], [0.5, 1.0, 0.0], [0.0, 0.0, 1.0]])
    out = project_omega_pattern(omega, {(0, 1)})
    np.testing.assert_allclose(out, omega, atol=1e-9)


def test_project_omega_masks_and_keeps_psd():
    omega = np.array([[1.0, 0.1], [0.1, 1.0]])
    out = project_omega_pattern(omega, set())
    np.testing.assert_allclose(np.diag(out), [1.0, 1.0], atol=1e-9)
    assert abs(out[0, 1]) <= 1e-12
    assert np.linalg.eigvalsh(out)[0] >= -1e-12


def test_project_omega_clips_rank_deficient(rng):
    a = rng.standard_normal((4, 2))
    low_rank = a @ a.T - 0.5 * np.eye(4)  # indefinite
    full = {(i, j) for i in range(4) for j in range(i + 1, 4)}
    out = project_omega_pattern(low_rank, full, tol=1e-10)
    assert np.linalg.eigvalsh(out)[0] >= -1e-10
    # eigenvalue-clip oracle: with the full pattern one clip step suffices
    vals, vecs = np.linalg.eigh((low_rank + low_rank.T) / 2)
    oracle = (vecs * np.clip(vals, 0, None)) @ vecs.T
    np.testing.assert_allclose(out, oracle, atol=1e-8)


def test_project_omega_convergence_error():
    omega = np.array([[1.0, 0.9], [0.9, 1.0]])
    with pytest.raises(ConvergenceError) as err:
        project_omega_pattern(omega, set(), tol=1e-14, max_iters=1)
    assert err.value.last_iterate is not None


def test_sample_covariance_identical_rows():
    x = np.tile([1.0, 2.0, 3.0], (5, 1))
    np.testing.assert_allclose(sample_covariance(x).sigma, np.zeros((3, 3)))


def test_sample_covariance_two_rows_hand_computed():
    x = np.array([[1.0, 0.0], [-1.0, 0.0]])
    np.testing.assert_allclose(sample_covariance(x).sigma, [[2.0, 0.0], [0.0, 0.0]])


def test_sample_covariance_statistical():
    sigma = np.array([[2.0, 0.6], [0.6, 1.0]])
    x = np.random.default_rng(0).multivariate_normal([0, 0], sigma, size=100_000)
    got = sample_covariance(x).sigma
    assert np.max(np.abs(got - sigma) / np.abs(sigma)) < 0.05


def test_sample_covariance_normalizes_rows():
    x = np.array([[3.0, 4.0], [0.0, 2.0], [5.0, 0.0]])
    cov = sample_covariance(x, normalize_rows=True)
    normalized = x / np.linalg.norm(x, axis=1, keepdims=True)
    centered = normalized - normalized.mean(axis=0)
    np.testing.assert_allclose(cov.sigma, centered.T @ centered / 2)


def test_sample_covariance_needs_two_rows():
    with pytest.raises(SampleSizeError):
        sample_covariance(np.ones((1, 3)))


def test_spectral_norm_examples():
    assert snorm(np.eye(5)) == pytest.approx(1.0)
    assert snorm(np.diag([3.0, -5.0])) == pytest.approx(5.0)
    assert snorm(np.zeros((0, 3))) == 0.0
    assert snorm([3.0, 4.0]) == pytest.approx(5.0)


def test_spectral_norm_matches_svd(rng):
    a = rng.standard_normal((20, 20))
    assert snorm(a) == pytest.approx(np.linalg.svd(a, compute_uv=False)[0], abs=1e-8)


def test_spectral_norm_exact_above_64(rng):
    a = rng.standard_normal((80, 70))
    assert snorm(a) == np.linalg.svd(a, compute_uv=False)[0]


def test_matrix_and_params_serialization(tmp_path, rng):
    a = rng.standard_normal((4, 4))
    path = tmp_path / "m.csv"
    save_matrix_csv(a, path)
    np.testing.assert_allclose(load_matrix_csv(path), a)

    params = ParamSet(np.eye(3), np.eye(3) * 2)
    ppath = tmp_path / "p.json"
    save_params(params, ppath)
    loaded = load_params(ppath)
    np.testing.assert_allclose(loaded.lam, params.lam)
    np.testing.assert_allclose(loaded.omega, params.omega)


def test_exact_covariance_requires_pd():
    with pytest.raises(DefinitenessError):
        Covariance.exact(np.array([[1.0, 2.0], [2.0, 1.0]]))
    cov = Covariance.exact(np.eye(2))
    assert cov.provenance == "exact"
