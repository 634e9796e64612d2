import hashlib
import json
import math

import numpy as np
import pytest

from bowfree.errors import ConfigError, DefinitenessError
from bowfree.generators import (
    SPHERE_BYTES_MAX,
    GenerativeConfig,
    RandomGraphConfig,
    SDDNoiseConfig,
    d_min,
    gen_generative_instance,
    gen_lambda_range,
    gen_lambda_uniform,
    gen_layered_bowfree_graph,
    gen_omega_sdd,
    gen_omega_spherical,
    gen_random_bowfree_graph,
    sample_observations,
)
from bowfree.graphs import MixedGraph, graph_to_dict
from bowfree.linalg import snorm

C_CONC_DEFAULT = 3.0


def gram_tail_bound(k: int, d: int, c_conc: float = C_CONC_DEFAULT) -> float:
    """The off-pattern Gram bound k^2 * c / d^0.25 used by the norm tests."""
    return k**2 * c_conc / d**0.25


def test_random_graph_p_zero_has_no_directed_edges():
    g = gen_random_bowfree_graph(RandomGraphConfig(8, 0.0, seed=1))
    assert g.directed == ()
    assert len(g.pairs) >= 1


def test_random_graph_p_one_is_complete_dag():
    g = gen_random_bowfree_graph(RandomGraphConfig(6, 1.0, seed=2))
    assert len(g.directed) == 6 * 5 // 2
    assert g.bow_violations() == []
    assert g.topological_order()


def test_random_graphs_are_bow_free_in_bulk():
    for seed in range(1000):
        g = gen_random_bowfree_graph(RandomGraphConfig(9, 0.4, seed=seed))
        assert g.bow_violations() == []


def test_layered_graph_respects_degree_bound():
    for seed in range(50):
        g = gen_layered_bowfree_graph(20, 3, 0.8, seed)
        assert g.max_degree() <= 3
        assert g.bow_violations() == []


def test_lambda_uniform_support():
    g = gen_layered_bowfree_graph(20, 2, 0.9, 3)
    cfg = GenerativeConfig(20, 2, 30.0, d=8, seed=5)
    lam = gen_lambda_uniform(g, cfg)
    half, hole = 1.0 / (2 * 2 * 30.0), 1.0 / 400
    values = lam[lam != 0]
    assert values.size == len(g.directed)
    assert np.all(np.abs(values) > hole)
    assert np.all(np.abs(values) <= half)


def test_lambda_uniform_rejects_empty_interval():
    g = MixedGraph(4, [(0, 1)])
    with pytest.raises(ConfigError):
        gen_lambda_uniform(g, GenerativeConfig(4, 2, 30.0, d=8))  # 2k*mu=120 >= 16


def test_lambda_uniform_symmetric_mean():
    # 1e5 draws across seeds; the truncated uniform is symmetric about 0
    g = gen_layered_bowfree_graph(500, 2, 1.0, 0, extra_bidirected_p=0.0)
    draws = []
    seed = 0
    while sum(d.size for d in draws) < 100_000:
        lam = gen_lambda_uniform(g, GenerativeConfig(500, 2, 30.0, d=8, seed=seed))
        draws.append(lam[lam != 0])
        seed += 1
    values = np.concatenate(draws)[:100_000]
    half = 1.0 / (2 * 2 * 30.0)
    se = half / math.sqrt(3) / math.sqrt(values.size)
    assert abs(values.mean()) <= 3 * se


def test_lambda_uniform_norm_bound():
    # spectral norm of the whole matrix and of arbitrary blocks stays below 1/mu
    for seed in range(20):
        g = gen_layered_bowfree_graph(20, 2, 0.9, seed)
        lam = gen_lambda_uniform(g, GenerativeConfig(20, 2, 30.0, d=8, seed=seed))
        assert snorm(lam) <= 1.0 / 30.0 + 1e-12
        rng = np.random.default_rng(seed)
        rows = sorted(rng.choice(20, size=5, replace=False))
        cols = sorted(rng.choice(20, size=7, replace=False))
        assert snorm(lam[np.ix_(rows, cols)]) <= 1.0 / 30.0 + 1e-12


def test_omega_spherical_gram_structure(monkeypatch):
    g = gen_layered_bowfree_graph(12, 2, 0.8, 7)
    draws = []  # one standard-normal draw per vertex, and one more per retry

    class CountingRng:
        def __init__(self, seed):
            self.rng = default_rng(seed)

        def standard_normal(self, size):
            draws.append(size)
            return self.rng.standard_normal(size)

    gram_diagonals = []  # the Gram matrix's diagonal, the squared vector norms, before it is set to 1

    def checked_fill_diagonal(a, val, wrap=False):
        gram_diagonals.append(np.diag(a).copy())
        fill_diagonal(a, val, wrap)

    default_rng, fill_diagonal = np.random.default_rng, np.fill_diagonal
    monkeypatch.setattr(np.random, "default_rng", CountingRng)
    monkeypatch.setattr(np, "fill_diagonal", checked_fill_diagonal)
    omega = gen_omega_spherical(g, GenerativeConfig(12, 2, 30.0, d=64, seed=1))
    np.testing.assert_allclose(np.diag(omega), np.ones(12))
    assert np.linalg.eigvalsh(omega)[0] >= -1e-10
    assert len(draws) == 12  # no retries
    (norms2,) = gram_diagonals
    np.testing.assert_allclose(norms2, np.ones(12), rtol=0, atol=2e-12)  # unit vectors
    # noise correlations vanish exactly on directed edges
    for e in g.directed:
        assert abs(omega[e.source, e.target]) <= 1e-12


def test_omega_spherical_concentration_at_dmin():
    k, n = 2, 20
    d = d_min(k, n)
    cap = 3.0 / d**0.25
    inside = 0
    total = 0
    for seed in range(5):
        g = gen_layered_bowfree_graph(n, k, 0.7, seed)
        omega = gen_omega_spherical(g, GenerativeConfig(n, k, 30.0, d=d, seed=seed))
        adjacent = {(min(e.source, e.target), max(e.source, e.target)) for e in g.directed}
        for u in range(n):
            for v in range(u + 1, n):
                if (u, v) in adjacent:
                    continue
                total += 1
                inside += abs(omega[u, v]) <= cap
    assert inside / total >= 0.95


def test_omega_spherical_block_norm_bounds():
    k, n = 2, 20
    d = d_min(k, n)
    j_bound = gram_tail_bound(k, d)
    hits = 0
    total = 0
    rng = np.random.default_rng(0)
    for seed in range(10):
        g = gen_layered_bowfree_graph(n, k, 0.7, 100 + seed)
        omega = gen_omega_spherical(g, GenerativeConfig(n, k, 30.0, d=d, seed=seed))
        for _ in range(20):
            size = int(rng.integers(1, k**2 + 1))
            block = sorted(rng.choice(n, size=size, replace=False))
            sub = omega[np.ix_(block, block)]
            total += 1
            ok_fwd = snorm(sub) <= 1.0 + j_bound
            ok_inv = snorm(np.linalg.inv(sub)) <= 1.0 + 2.0 * j_bound
            hits += ok_fwd and ok_inv
    assert hits / total >= 0.95


def test_gram_tail_shrinks_with_dimension():
    # fraction of random unit-vector projections above the cap decays in d
    rng = np.random.default_rng(3)
    fractions = []
    for d in (100, 1000, 10_000):
        cap = 3.0 / d**0.25
        v = rng.standard_normal(d)
        v /= np.linalg.norm(v)
        draws = rng.standard_normal((400, d))
        draws /= np.linalg.norm(draws, axis=1, keepdims=True)
        fractions.append(float(np.mean(np.abs(draws @ v) > cap)))
    assert fractions[0] >= fractions[1] >= fractions[2]
    assert fractions[2] == 0.0


def test_omega_sdd_no_bidirected_edges_is_diagonal():
    g = MixedGraph(4, [(0, 1)], [])
    omega = gen_omega_sdd(g, SDDNoiseConfig(1.0, seed=2))
    assert np.allclose(omega, np.diag(np.diag(omega)))
    assert np.all(np.diag(omega) > 0)


def test_omega_sdd_diagonally_dominant_and_pd():
    for seed in range(20):
        g = gen_random_bowfree_graph(RandomGraphConfig(10, 0.3, seed=seed))
        omega = gen_omega_sdd(g, SDDNoiseConfig(1.0, seed=seed))
        off = np.abs(omega).sum(axis=1) - np.abs(np.diag(omega))
        assert np.all(np.diag(omega) >= off)
        assert np.linalg.eigvalsh(omega)[0] > 0
        allowed = {(u, v) for u, v in g.pairs.tolist()} | {(v, u) for u, v in g.pairs.tolist()}
        nz = {(int(i), int(j)) for i, j in np.argwhere(omega != 0) if i != j}
        assert nz <= allowed


def test_lambda_range_support_and_variance():
    g = gen_layered_bowfree_graph(200, 100, 1.0, 0)
    draws = []
    for seed in range(10):
        lam = gen_lambda_range(g, SDDNoiseConfig(0.7, seed=seed))
        values = lam[lam != 0]
        assert np.all(np.abs(values) <= 0.7)
        draws.append(values)
    values = np.concatenate(draws)
    assert values.size == 100_000
    assert abs(values.var() - 0.7**2 / 3) / (0.7**2 / 3) < 0.05


def test_lambda_range_shrinks_with_range():
    g = MixedGraph(3, [(0, 1), (1, 2)])
    lam = gen_lambda_range(g, SDDNoiseConfig(1e-9, seed=1))
    assert np.max(np.abs(lam)) <= 1e-9


def test_d_min_values():
    assert d_min(1, math.e) == 1
    d = d_min(2, 20)
    assert d == math.ceil(2**8 * math.log(20) ** 4)
    assert 2.0e4 < d < 2.2e4
    # at the prescribed dimension the tail bound drops below c/log(n)
    assert gram_tail_bound(2, d) <= 3.0 / math.log(20) * (1 + 1e-12)


def test_sample_observations_statistics():
    sigma = np.eye(3)
    x = sample_observations(sigma, 100_000, seed=4)
    emp = np.cov(x, rowvar=False)
    assert np.max(np.abs(emp - sigma)) < 0.05


def test_sample_observations_shape_and_determinism():
    sigma = np.eye(2)
    assert sample_observations(sigma, 1, seed=1).shape == (1, 2)
    a = sample_observations(sigma, 10, seed=9)
    b = sample_observations(sigma, 10, seed=9)
    np.testing.assert_array_equal(a, b)
    with pytest.raises(DefinitenessError):
        sample_observations(np.array([[1.0, 2.0], [2.0, 1.0]]), 5, seed=0)


def test_generative_instance_refuses_a_sphere_matrix_above_the_bound():
    # d_min(3, 500) = 9,786,447: the unit vectors alone would take 36.5 GiB.
    with pytest.raises(ConfigError) as err:
        gen_generative_instance(500, 3, 0.8, seed=3)
    assert str(err.value) == "n=500 unit vectors of dimension d=9786447 need 36.5 GiB, above the 1 GiB bound"
    d = SPHERE_BYTES_MAX // (8 * 20)
    GenerativeConfig(20, 2, 30.0, d=d).validate()
    with pytest.raises(ConfigError):
        GenerativeConfig(20, 2, 30.0, d=d + 1).validate()


def test_generative_instance_is_reproducible():
    a = gen_generative_instance(n=12, k=2, p=0.6, seed=77)
    b = gen_generative_instance(n=12, k=2, p=0.6, seed=77)
    assert a.graph == b.graph
    np.testing.assert_array_equal(a.params.lam, b.params.lam)
    np.testing.assert_array_equal(a.sigma, b.sigma)


def _layered(n, k, p, extra, seed):
    return gen_layered_bowfree_graph(n, k, p, seed, extra)


def _random(n, p, extra, seed):
    return gen_random_bowfree_graph(RandomGraphConfig(n, p, extra, seed))


# sha256 of graph_to_dict and of the lam and omega bytes drawn by the
# generators on each graph, recorded from the scalar-draw implementation:
# any change to the order or number of random draws changes a digest.
STREAM_CASES = {
    "layered-500-s0": (_layered, (500, 3, 0.8, 0.1, 0)),
    "layered-500-s1": (_layered, (500, 3, 0.8, 0.1, 1)),
    "layered-500-s2": (_layered, (500, 3, 0.8, 0.1, 2)),
    "layered-7-full": (_layered, (7, 2, 1.0, 1.0, 3)),
    "layered-6-empty": (_layered, (6, 4, 0.0, 0.0, 4)),
    "layered-1": (_layered, (1, 3, 0.8, 0.5, 5)),
    "layered-0": (_layered, (0, 3, 0.8, 0.1, 6)),
    "random-40-s0": (_random, (40, 0.3, 0.1, 0)),
    "random-40-s1": (_random, (40, 0.3, 0.1, 1)),
    "random-200": (_random, (200, 0.4, 0.2, 7)),
    "random-9-dense": (_random, (9, 1.0, 1.0, 8)),
}
STREAM_DIGESTS = {
    "layered-500-s0": "b6c4511e6ca83d5d084e50a2f30b50d021c5b82dd097355ea76a841748933dbd",
    "layered-500-s1": "81dfb738149785c7b442da12170d766a9fea669e89bcc9665a7abf77e7f519a2",
    "layered-500-s2": "c2e66acf9a1bd50601d7a47d92dbbdb1a6126e09b130a8ce2b6b99b17808b939",
    "layered-7-full": "30023482be4cbb31ed9568874e440b54a29de3ea359f169dbfa101872d59677a",
    "layered-6-empty": "82eec9bd06960d883d897e979e9aa6893218e9be2335445c0b4593d4dc497035",
    "layered-1": "68f50a7765cb0472f18300a3867a89f4c645473dd34d616b0d2bdfdca94307c4",
    "layered-0": "8541d597e36005fd74fc06dab806da5e662588789c8ddcf3deda720251ab0125",
    "random-40-s0": "28d351d02ddcca0b36161d124d3ca1877079cb643c1cd89822ffbe424eba3918",
    "random-40-s1": "012cc4a86b47ea50cbab986b6601442a7450932a23361d35609e1965c1f1886c",
    "random-200": "030b63aafaccf40eb661b76f3d83bf7862ee85745a848e65976e8e5c0942baaa",
    "random-9-dense": "7c37281d4ef87b79b93078544d7469abd09af5c17da58debde232e20be793d91",
}


def _stream_digest(make_graph, args):
    g, seed = make_graph(*args), args[-1]
    lam = gen_lambda_range(g, SDDNoiseConfig(0.5, seed=seed + 100))
    omega = gen_omega_sdd(g, SDDNoiseConfig(0.5, seed=seed + 200))
    h = hashlib.sha256(json.dumps(graph_to_dict(g), sort_keys=True).encode())
    h.update(np.ascontiguousarray(lam).tobytes())
    h.update(np.ascontiguousarray(omega).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("case", sorted(STREAM_CASES))
def test_generators_keep_their_random_stream(case):
    make_graph, args = STREAM_CASES[case]
    assert _stream_digest(make_graph, args) == STREAM_DIGESTS[case]
