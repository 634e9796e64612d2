import dataclasses
from fractions import Fraction

import numpy as np
import pytest

from bowfree.errors import ConfigError
from bowfree.generators import (
    RandomGraphConfig,
    SDDNoiseConfig,
    gen_lambda_range,
    gen_omega_sdd,
    gen_random_bowfree_graph,
)
from bowfree.graphs import MixedGraph
from bowfree.lsem import Covariance, ParamSet, forward_map, neumann_inverse
from bowfree.recovery import build_system, recover_all
from bowfree.reduction import (
    _IdAllocator,
    build_gadget,
    reduce_covariance,
    reduce_graph,
    reduce_instance,
    reduction_manifest,
    verify_reduction,
)


def _gadget_graph(u, v, q, r, n_original=2):
    allocator = _IdAllocator(n_original, 10_000)
    spec, edges = build_gadget(u, v, q, r, allocator)
    g = MixedGraph(allocator.next_id, edges, [])
    return spec, g


def test_gadget_q1_r2_collector_copies_head():
    spec, g = _gadget_graph(0, 1, q=1, r=2)
    assert len(spec.inner_layers) == 1 and len(spec.inner_layers[0]) == 4
    lam = np.zeros((g.n, g.n))
    for (a, b), w in g.forced_weights.items():
        lam[a, b] = w
    # X_collector = 4 * (1/2) * (1/2) * X_head
    paths = neumann_inverse(lam)
    assert paths[spec.head, spec.collector] == pytest.approx(1.0, abs=1e-15)
    assert paths[spec.head, spec.inner_layers[0][0]] == pytest.approx(0.5)


def test_gadget_vertex_count():
    spec, g = _gadget_graph(0, 1, q=2, r=2)
    assert len(spec.new_vertices) == 2 + 4 + 1
    assert g.n == 2 + 7


def test_gadget_path_product_is_exactly_one():
    # telescoping checked in exact rational arithmetic
    for q in (1, 2, 3):
        for r in (2, 3, 5):
            widths = [r] * (q - 1) + [r * r]
            n_paths = Fraction(1)
            for w in widths:
                n_paths *= w
            assert n_paths * Fraction(1, r) ** (q + 1) == 1


def test_gadget_degenerate_forced_unit_weight():
    spec, g = _gadget_graph(0, 1, q=0, r=3)
    assert spec.inner_layers == ()
    assert g.forced_weights == {(0, spec.collector): 1.0}


def test_gadget_subgraph_is_layered():
    _, g = _gadget_graph(0, 1, q=3, r=2)
    assert g.is_k_layered()


def test_gadget_rejects_bad_parameters():
    with pytest.raises(ConfigError):
        build_gadget(0, 1, -1, 2, _IdAllocator(2, 10))
    with pytest.raises(ConfigError):
        build_gadget(0, 1, 1, 0, _IdAllocator(2, 10))


def test_allocator_capacity_error():
    allocator = _IdAllocator(2, 3)
    with pytest.raises(ConfigError):
        build_gadget(0, 1, 2, 2, allocator)


def test_reduce_layered_graph_is_identity():
    g = MixedGraph(3, [(0, 1), (1, 2)], [(0, 2)])
    g_prime, gadgets, _ = reduce_graph(g)
    assert g_prime == g
    assert gadgets == ()
    red = reduce_instance(g, np.eye(3))
    np.testing.assert_array_equal(red.sigma_prime.sigma, np.eye(3))


def test_reduce_four_node_skip_edge():
    g = MixedGraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)], [(0, 2)])
    g_prime, gadgets, r = reduce_graph(g)
    assert r == 2
    assert len(gadgets) == 1
    spec = gadgets[0]
    assert (spec.head, spec.tail) == (0, 3)
    assert spec.q == 1  # span 3 edge: one inner stage plus the collector
    assert g_prime.is_k_layered()
    assert g_prime.bow_violations() == []
    # the bidirected neighbour of the head is mirrored onto the collector
    assert g_prime.has_bidirected(spec.collector, 2)


def test_reduce_covariance_factor_map():
    spec, g_prime = _gadget_graph(0, 1, q=1, r=2)
    g = MixedGraph(2, [(0, 1)], [])
    sigma = np.array([[2.0, 0.6], [0.6, 1.5]])
    cov = reduce_covariance(sigma, g_prime, (spec,), r=2)
    inner = spec.inner_layers[0][0]
    assert cov.sigma[0, inner] == pytest.approx(sigma[0, 0] / 2)
    assert cov.sigma[0, spec.collector] == pytest.approx(sigma[0, 0])
    assert cov.sigma[inner, inner] == pytest.approx(sigma[0, 0] / 4)
    assert cov.sigma[spec.collector, spec.collector] == pytest.approx(sigma[0, 0])
    np.testing.assert_allclose(cov.sigma[:2, :2], sigma)


def _random_instance(seed, n=8):
    g = gen_random_bowfree_graph(RandomGraphConfig(n, 0.45, seed=seed))
    lam = gen_lambda_range(g, SDDNoiseConfig(0.6, seed + 1000))
    omega = gen_omega_sdd(g, SDDNoiseConfig(0.6, seed + 2000))
    return g, forward_map(g, ParamSet(lam, omega)).sigma


def test_reduction_preserves_recovery_on_random_instances():
    for seed in range(20):
        g, sigma = _random_instance(seed)
        red = reduce_instance(g, sigma)
        report = verify_reduction(g, sigma, red)
        assert report.all_ok, (seed, report)
        assert red.g_prime.n <= g.n**6


def test_reduction_preserves_system_conditioning():
    g, sigma = _random_instance(3)
    red = reduce_instance(g, sigma)
    base = recover_all(g, sigma)
    reduced = recover_all(red.g_prime, red.sigma_prime)
    head_of = {x: s.head for s in red.gadgets for x in s.new_vertices}
    for v in range(g.n):
        if not g.parents(v):
            continue
        orig = build_system(g, sigma, base.lambda_hat, v)
        new = build_system(red.g_prime, red.sigma_prime.sigma, reduced.lambda_hat, v)
        cond = lambda m: np.linalg.cond(m)
        assert cond(orig.a_matrix) == pytest.approx(cond(new.a_matrix), rel=1e-9)


def test_corrupted_reduced_covariance_is_detected():
    g = MixedGraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)], [])
    lam = np.zeros((4, 4))
    lam[0, 1], lam[1, 2], lam[2, 3], lam[0, 3] = 0.5, 0.4, -0.3, 0.25
    sigma = forward_map(g, ParamSet(lam, np.eye(4))).sigma
    red = reduce_instance(g, sigma)
    corrupted = red.sigma_prime.sigma.copy()
    collector = red.gadgets[0].collector
    corrupted[0, collector] = corrupted[collector, 0] = 0.0
    bad = dataclasses.replace(red, sigma_prime=Covariance(corrupted, "reduced"))
    report = verify_reduction(g, sigma, bad)
    assert not report.all_ok
    assert not report.systems_match or not report.collector_weights_ok


def test_reduce_rejects_forced_input():
    g = MixedGraph(2, [(0, 1, 0.5)])
    with pytest.raises(Exception):
        reduce_graph(g)


def test_manifest_round_trip(tmp_path):
    g = MixedGraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)], [])
    lam = np.zeros((4, 4))
    lam[0, 1], lam[1, 2], lam[2, 3], lam[0, 3] = 0.5, 0.4, -0.3, 0.25
    sigma = forward_map(g, ParamSet(lam, np.eye(4))).sigma
    red = reduce_instance(g, sigma)
    manifest = reduction_manifest(red)
    assert manifest["original_n"] == 4
    assert manifest["n_prime"] == red.g_prime.n
    assert manifest["gadgets"][0]["head"] == 1  # 1-based
    assert set(manifest) == {"original_n", "n_prime", "r", "k_layers", "gadgets"}
