import warnings

import numpy as np
import pytest

from bowfree.errors import ConfigError, DefinitenessError, IngestionError, PatternError, SampleSizeError
from bowfree.generators import (
    RandomGraphConfig,
    SDDNoiseConfig,
    gen_lambda_range,
    gen_omega_sdd,
    gen_random_bowfree_graph,
)
from bowfree.graphs import MixedGraph
from bowfree.linalg import snorm, symmetrize
from bowfree.lsem import (
    ParamSet,
    dag_inverse,
    forward_map,
    load_matrix_csv,
    load_params,
    sample_covariance,
    params_bytes,
    save_matrix_csv,
)

from conftest import graph_from_lambda, random_dag_lambda


def test_forward_map_identity_when_no_edges():
    g = MixedGraph(3, [], [(0, 1)])
    omega = np.array([[2.0, 0.3, 0.0], [0.3, 1.0, 0.0], [0.0, 0.0, 1.5]])
    cov = forward_map(g, ParamSet(np.zeros((3, 3)), omega))
    np.testing.assert_allclose(cov, omega)


def test_forward_map_two_node_closed_form():
    # hand expansion: (I - lam)^{-1} = [[1, w], [0, 1]]
    w = 0.73
    g = MixedGraph(2, [(0, 1)])
    lam = np.array([[0.0, w], [0.0, 0.0]])
    cov = forward_map(g, ParamSet(lam, np.eye(2)))
    np.testing.assert_allclose(cov, [[1.0, w], [w, 1.0 + w**2]], atol=1e-15)


def test_forward_map_matches_dense_inverse_oracle(rng):
    lam = np.zeros((3, 3))
    lam[0, 1], lam[1, 2] = 0.8, -1.3
    g = graph_from_lambda(lam, [(0, 2)])
    omega = np.eye(3)
    omega[0, 2] = omega[2, 0] = 0.4
    inv = np.linalg.inv(np.eye(3) - lam)
    expected = inv.T @ omega @ inv
    got = forward_map(g, ParamSet(lam, omega))
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
    with pytest.raises(DefinitenessError) as err:
        forward_map(g, ParamSet(np.zeros((2, 2)), omega))
    assert str(err.value) == "omega must be positive semidefinite"


@pytest.mark.parametrize("where", ["omega", "lambda"])
def test_forward_map_rejects_non_finite_parameters(where):
    # An inf in omega gave an all-inf covariance and only a RuntimeWarning.
    lam = np.array([[0.0, 0.5], [0.0, 0.0]])
    omega = np.array([[np.inf, 0.0], [0.0, 1.0]])
    if where == "lambda":
        lam, omega = np.array([[0.0, np.nan], [0.0, 0.0]]), np.eye(2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PatternError, match="^lambda and omega must be finite$"):
            forward_map(MixedGraph(2, [(0, 1)]), ParamSet(lam, omega))


def test_forward_map_rejects_a_covariance_that_overflows():
    # Finite weights of 1e100 along a path give 1e200, then inf: only a RuntimeWarning before.
    lam = np.diag([1e100, 1e100], k=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError, match="^the model's covariance has non-finite entries$"):
            forward_map(MixedGraph(3, [(0, 1), (1, 2)]), ParamSet(lam, np.eye(3)))


def test_forward_map_computes_eigenvalues_only_when_cholesky_fails(monkeypatch):
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counted(a):
        calls.append(a.shape)
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    g = MixedGraph(3, [(0, 1)], [(0, 2), (1, 2)])
    lam = np.zeros((3, 3))
    lam[0, 1] = 0.5
    definite = np.array([[2.0, 0.0, 0.5], [0.0, 1.0, 0.3], [0.5, 0.3, 1.0]])
    inv = dag_inverse(g, lam)  # the congruence without the checks
    np.testing.assert_array_equal(forward_map(g, ParamSet(lam, definite)), symmetrize(inv.T @ definite @ inv))
    assert calls == []
    # Singular but semidefinite (rank 1): Cholesky fails, the eigenvalues accept it.
    singular = np.array([[1.0, 0.0, 1.0], [0.0, 0.0, 0.0], [1.0, 0.0, 1.0]])
    assert np.isfinite(forward_map(g, ParamSet(lam, singular))).all()
    assert calls == [(3, 3)]
    indefinite = np.array([[1.0, 0.0, 2.0], [0.0, 1.0, 0.0], [2.0, 0.0, 1.0]])
    with pytest.raises(DefinitenessError, match="^omega must be positive semidefinite$"):
        forward_map(g, ParamSet(lam, indefinite))
    assert calls == [(3, 3)] * 2


def test_dag_inverse_equals_dense_inverse(rng):
    for _ in range(50):
        n = int(rng.integers(2, 12))
        lam = random_dag_lambda(n, 0.5, rng)
        dense = np.linalg.inv(np.eye(n) - lam)
        got = dag_inverse(graph_from_lambda(lam), lam)
        assert snorm(got - dense) <= 1e-10 * max(1.0, snorm(dense))


def _assert_matches_dense_inverse_oracle(g, lam, omega):
    inv = np.linalg.inv(np.eye(g.n) - lam)
    expected = inv.T @ omega @ inv
    got = forward_map(g, ParamSet(lam, omega))
    assert snorm(got - expected) <= 1e-10 * max(1.0, snorm(expected))


@pytest.mark.parametrize("seed", range(4))
def test_forward_map_matches_dense_inverse_on_random_bowfree_graphs(seed):
    g = gen_random_bowfree_graph(RandomGraphConfig(40, 0.3, seed=seed))
    assert g.topological_order() != list(range(g.n))  # indices are not a topological order
    lam = gen_lambda_range(g, SDDNoiseConfig(1.0, seed=seed))
    omega = gen_omega_sdd(g, SDDNoiseConfig(1.0, seed=seed))
    _assert_matches_dense_inverse_oracle(g, lam, omega)


def test_forward_map_matches_dense_inverse_on_a_deep_path(rng):
    # a directed path through all 300 vertices in shuffled index order: depth 300
    n = 300
    order = rng.permutation(n).tolist()
    edges = list(zip(order, order[1:]))
    g = MixedGraph(n, edges)
    lam = np.zeros((n, n))
    for u, v in edges:
        lam[u, v] = rng.choice([-1.0, 1.0]) * rng.uniform(0.9, 1.1)
    omega = np.diag(rng.uniform(0.5, 2.0, n))
    _assert_matches_dense_inverse_oracle(g, lam, omega)


def test_forward_map_positive_definite(rng):
    for seed in range(10):
        local = np.random.default_rng(seed)
        lam = random_dag_lambda(6, 0.5, local)
        g = graph_from_lambda(lam)
        cov = forward_map(g, ParamSet(lam, np.eye(6)))
        assert np.linalg.eigvalsh(cov)[0] > 0


def test_sample_covariance_identical_rows():
    x = np.tile([1.0, 2.0, 3.0], (5, 1))
    np.testing.assert_allclose(sample_covariance(x), np.zeros((3, 3)))


def test_sample_covariance_two_rows_hand_computed():
    x = np.array([[1.0, 0.0], [-1.0, 0.0]])
    np.testing.assert_allclose(sample_covariance(x), [[2.0, 0.0], [0.0, 0.0]])


def test_sample_covariance_statistical():
    sigma = np.array([[2.0, 0.6], [0.6, 1.0]])
    x = np.random.default_rng(0).multivariate_normal([0, 0], sigma, size=100_000)
    got = sample_covariance(x)
    assert np.max(np.abs(got - sigma) / np.abs(sigma)) < 0.05


def test_sample_covariance_normalizes_rows():
    x = np.array([[3.0, 4.0], [0.0, 2.0], [5.0, 0.0]])
    cov = sample_covariance(x, normalize_rows=True)
    normalized = x / np.linalg.norm(x, axis=1, keepdims=True)
    centered = normalized - normalized.mean(axis=0)
    np.testing.assert_allclose(cov, centered.T @ centered / 2)


@pytest.mark.parametrize("e", [-1000, -600, 0, 600, 1020])
def test_sample_covariance_normalizes_rows_out_of_range_by_powers_of_two(e):
    # Rows whose squares leave the float range normalize as the same rows
    # scaled into range do; rows in range keep np.linalg.norm's bits.
    x = np.random.default_rng(5).normal(size=(7, 4))
    x[0] = 0.0
    scaled = x.copy()
    scaled[1::2] *= 2.0**e
    assert sample_covariance(scaled, normalize_rows=True).tobytes() == sample_covariance(x, normalize_rows=True).tobytes()
    rows = x[1:] / np.linalg.norm(x[1:], axis=1, keepdims=True)
    centered = np.vstack([x[:1], rows]) - np.vstack([x[:1], rows]).mean(axis=0)
    assert sample_covariance(x, normalize_rows=True).tobytes() == symmetrize(centered.T @ centered / 6).tobytes()


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


@pytest.mark.parametrize("shape", [(7, 3, 2), (5, 1, 4), (6, 4, 4), (2, 3, 5, 1), (4, 0, 3), (3, 2, 0), (0, 2, 2)])
def test_spectral_norm_of_a_stack_is_each_matrix_norm_bitwise(rng, shape):
    stack = rng.standard_normal(shape) * rng.uniform(1e-3, 1e3, shape[:-2] + (1, 1))
    got = snorm(stack)
    assert isinstance(got, np.ndarray) and got.shape == shape[:-2]
    for i in np.ndindex(shape[:-2]):
        assert got[i] == snorm(stack[i])


def test_spectral_norm_exact_above_64(rng):
    a = rng.standard_normal((80, 70))
    assert snorm(a) == np.linalg.svd(a, compute_uv=False)[0]


def test_matrix_and_params_serialization(tmp_path, rng):
    a = rng.standard_normal((4, 4))
    path = tmp_path / "m.csv"
    with open(path, "wb") as fh:
        save_matrix_csv(a, fh)
    np.testing.assert_allclose(load_matrix_csv(path), a)

    params = ParamSet(np.eye(3), np.eye(3) * 2)
    ppath = tmp_path / "p.json"
    ppath.write_bytes(params_bytes(params))
    loaded = load_params(ppath)
    np.testing.assert_allclose(loaded.lam, params.lam)
    np.testing.assert_allclose(loaded.omega, params.omega)



@pytest.mark.parametrize("text, message", [
    (b"", "not valid JSON: "),
    (b'{"lambda": [[0.0', "not valid JSON: "),
    (b"\xff\xfe", "not valid JSON: "),
    (b"[" * 100_000, "not valid JSON: "),
    (b"[]", 'expected an object with "lambda" and "omega", got array'),
    (b"null", 'expected an object with "lambda" and "omega", got null'),
    (b"3", 'expected an object with "lambda" and "omega", got number'),
    (b"true", 'expected an object with "lambda" and "omega", got boolean'),
    (b'"x"', 'expected an object with "lambda" and "omega", got string'),
    (b'{"omega": [[1.0]]}', 'missing key "lambda"'),
    (b'{"lambda": [[0.0]]}', 'missing key "omega"'),
    (b'{"lambda": [[0.0]], "omega": "eye"}', '"omega" must be a 2-d array of numbers'),
    (b'{"lambda": [[0.0]], "omega": [[1.0, 0.0], [0.0]]}', '"omega" must be a 2-d array of numbers'),
    (b'{"lambda": [0.0], "omega": [[1.0]]}', '"lambda" must be a 2-d array of numbers'),
    (b'{"lambda": [[true]], "omega": [[1.0]]}', '"lambda" must be a 2-d array of numbers'),
    (b'{"lambda": [[0.0]], "omega": [[NaN]]}', "parameters have non-finite entries"),
    (b'{"lambda": [[1' + b"0" * 400 + b']], "omega": [[1.0]]}', "parameters have non-finite entries"),
], ids=["empty", "truncated", "not-utf8", "nested-past-depth", "top-level-list", "top-level-null", "top-level-number",
        "top-level-boolean", "top-level-string", "missing-lambda", "missing-omega",
        "string-omega", "ragged-omega", "flat-lambda", "bool-lambda", "nan-omega", "int-beyond-float"])
def test_load_params_names_what_is_wrong(tmp_path, text, message):
    path = tmp_path / "p.json"
    path.write_bytes(text)
    with pytest.raises(IngestionError) as info:
        load_params(path)
    assert str(info.value).startswith(f"{path}: {message}")


def test_load_params_reads_integers_as_floats(tmp_path):
    path = tmp_path / "p.json"
    path.write_text('{"lambda": [[0, 2], [0, 0]], "omega": [[1, 0], [0, 3]]}')
    params = load_params(path)
    assert params.lam.dtype == params.omega.dtype == np.float64
    assert params.lam.tolist() == [[0.0, 2.0], [0.0, 0.0]] and params.omega.tolist() == [[1.0, 0.0], [0.0, 3.0]]
