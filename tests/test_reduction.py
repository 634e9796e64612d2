import dataclasses
import hashlib
import json
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bowfree.errors import ConfigError, OrderingError
from bowfree.generators import (
    RandomGraphConfig,
    SDDNoiseConfig,
    gen_lambda_range,
    gen_omega_sdd,
    gen_random_bowfree_graph,
)
from bowfree.graphs import MixedGraph, graph_to_dict
from bowfree.lsem import ParamSet, ReducedCovariance, dag_inverse, forward_map
from bowfree import recovery, reduction
from bowfree.recovery import build_system, recover_all, recovery_plan
from bowfree.reduction import (
    build_gadgets,
    reduce_covariance,
    reduce_graph,
    reduce_instance,
    reduction_manifest,
    verify_reduction,
)
from bowfree.robustness import check_assumptions
from helpers import reference_build_gadgets, reference_verify_reduction


def _gadget_graph(u, v, q, r, n_original=2):
    gadgets, edges, _ = build_gadgets(u, v, q, r, n_original)
    g = MixedGraph.from_arrays(int(gadgets.collector[-1]) + 1, *edges)
    return gadgets, g


def test_gadget_q1_r2_collector_copies_head():
    gadgets, g = _gadget_graph(0, 1, q=1, r=2)
    (head,), (first,), (collector,) = gadgets.head, gadgets.first, gadgets.collector
    assert gadgets.q.tolist() == [1] and collector - first == 4  # one inner stage of r^2 = 4 vertices
    lam = np.zeros((g.n, g.n))
    forced = ~np.isnan(g.forced)
    lam[g.source[forced], g.target[forced]] = g.forced[forced]
    # X_collector = 4 * (1/2) * (1/2) * X_head
    paths = dag_inverse(g, lam)
    assert paths[head, collector] == pytest.approx(1.0, abs=1e-15)
    assert paths[head, first] == pytest.approx(0.5)


def test_gadget_vertex_count():
    gadgets, g = _gadget_graph(0, 1, q=2, r=2)
    assert (gadgets.collector + 1 - gadgets.first).tolist() == [2 + 4 + 1]
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
    gadgets, g = _gadget_graph(0, 1, q=0, r=3)
    assert gadgets.first.tolist() == gadgets.collector.tolist()  # no inner stage
    forced = ~np.isnan(g.forced)
    assert (g.source[forced].tolist(), g.target[forced].tolist(), g.forced[forced].tolist()) == (
        [0], gadgets.collector.tolist(), [1.0])


def test_gadget_subgraph_is_layered():
    _, g = _gadget_graph(0, 1, q=3, r=2)
    assert g.is_k_layered()


def test_gadget_rejects_bad_parameters():
    with pytest.raises(ConfigError):
        build_gadgets(0, 1, -1, 2, 2)
    with pytest.raises(ConfigError):
        build_gadgets(0, 1, 1, 0, 2)


def _by_edge(edges):
    source, target, forced = edges
    order = np.lexsort((target, source))
    return source[order], target[order], forced[order]


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 5), st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9), st.integers(0, 6)), max_size=8))
@example(3, [])
def test_one_pass_gadgets_equal_the_per_q_templates(r, rows):
    heads, tails, qs = (list(col) for col in zip(*rows)) if rows else ([], [], [])
    gadgets, edges, _ = build_gadgets(heads, tails, qs, r, 10)
    want, want_edges = reference_build_gadgets(heads, tails, qs, r, 10)
    for got, ref in zip(gadgets, want):
        assert got.dtype == ref.dtype and np.array_equal(got, ref)
    for got, ref in zip(_by_edge(edges), _by_edge(want_edges)):
        assert got.dtype == ref.dtype and np.array_equal(got, ref, equal_nan=True)
    source, target, forced = _by_edge(edges)
    free = np.isnan(forced)
    assert sorted(zip(source[free].tolist(), target[free].tolist())) == sorted(
        zip(gadgets.collector.tolist(), gadgets.tail.tolist()))


def test_reduce_layered_graph_is_identity():
    g = MixedGraph(3, [(0, 1), (1, 2)], [(0, 2)])
    g_prime, gadgets, _ = reduce_graph(g)
    assert g_prime == g
    assert all(col.size == 0 for col in gadgets)
    red = reduce_instance(g, np.eye(3))
    np.testing.assert_array_equal(red.sigma_prime.sigma, np.eye(3))


def test_reduce_four_node_skip_edge():
    g = MixedGraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)], [(0, 2)])
    g_prime, gadgets, r = reduce_graph(g)
    assert r == 2
    assert gadgets.head.size == 1
    assert (gadgets.head.tolist(), gadgets.tail.tolist()) == ([0], [3])
    assert gadgets.q.tolist() == [1]  # span 3 edge: one inner stage plus the collector
    assert g_prime.is_k_layered()
    assert g_prime.bow_violations() == []
    # the bidirected neighbour of the head is mirrored onto the collector
    assert [2, int(gadgets.collector[0])] in g_prime.pairs.tolist()


def test_reduce_covariance_factor_map():
    gadgets, g_prime = _gadget_graph(0, 1, q=1, r=2)
    g = MixedGraph(2, [(0, 1)], [])
    sigma = np.array([[2.0, 0.6], [0.6, 1.5]])
    cov = reduce_covariance(sigma, g_prime, gadgets, r=2)
    (inner,), (collector,) = gadgets.first, gadgets.collector
    assert cov.sigma[0, inner] == pytest.approx(sigma[0, 0] / 2)
    assert cov.sigma[0, collector] == pytest.approx(sigma[0, 0])
    assert cov.sigma[inner, inner] == pytest.approx(sigma[0, 0] / 4)
    assert cov.sigma[collector, collector] == pytest.approx(sigma[0, 0])
    np.testing.assert_allclose(cov.sigma[:2, :2], sigma)


def _random_instance(seed, n=8):
    g = gen_random_bowfree_graph(RandomGraphConfig(n, 0.45, seed=seed))
    lam = gen_lambda_range(g, SDDNoiseConfig(0.6, seed + 1000))
    omega = gen_omega_sdd(g, SDDNoiseConfig(0.6, seed + 2000))
    return g, forward_map(g, ParamSet(lam, omega))


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
    for v in range(g.n):
        if not g.parents(v):
            continue
        orig = build_system(g, sigma, base.weights, v)
        new = build_system(red.g_prime, red.sigma_prime.sigma, reduced.weights, v)
        cond = lambda m: np.linalg.cond(m)
        assert cond(orig.a_matrix) == pytest.approx(cond(new.a_matrix), rel=1e-9)


def test_corrupted_reduced_covariance_is_detected():
    g = MixedGraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)], [])
    lam = np.zeros((4, 4))
    lam[0, 1], lam[1, 2], lam[2, 3], lam[0, 3] = 0.5, 0.4, -0.3, 0.25
    sigma = forward_map(g, ParamSet(lam, np.eye(4)))
    red = reduce_instance(g, sigma)
    corrupted = red.sigma_prime.sigma.copy()
    (collector,) = red.gadgets.collector
    corrupted[0, collector] = corrupted[collector, 0] = 0.0
    identity = np.arange(red.g_prime.n)
    bad = dataclasses.replace(red, sigma_prime=ReducedCovariance(corrupted, identity, np.ones(red.g_prime.n)))
    report = verify_reduction(g, sigma, bad)
    assert not report.all_ok
    assert not report.systems_match or not report.collector_weights_ok


@pytest.mark.parametrize("entry", [(0, 8), (0, 3)], ids=["system-matrix", "right-hand-side"])
def test_mismatched_systems_names_the_tail_of_a_corrupted_gadget(entry):
    g = MixedGraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)], [])
    lam = np.zeros((4, 4))
    lam[0, 1], lam[1, 2], lam[2, 3], lam[0, 3] = 0.5, 0.4, -0.3, 0.25
    sigma = forward_map(g, ParamSet(lam, np.eye(4)))
    red = reduce_instance(g, sigma)
    assert red.gadgets.collector.tolist() == [8]
    # sigma' as a dense matrix with identity heads passes: verification takes
    # the head map from the gadgets, not from the covariance under test.
    identity = np.arange(red.g_prime.n)
    dense = red.sigma_prime.sigma.copy()
    assert verify_reduction(g, sigma, dataclasses.replace(
        red, sigma_prime=ReducedCovariance(dense, identity, np.ones(red.g_prime.n)))).all_ok
    # 0-based (0, 8), head and collector, enters vertex 3's system matrix;
    # (0, 3) enters only its right-hand side.
    dense[entry] += 0.01
    dense[entry[::-1]] += 0.01
    bad = dataclasses.replace(red, sigma_prime=ReducedCovariance(dense, identity, np.ones(red.g_prime.n)))
    report = verify_reduction(g, sigma, bad)
    assert report.mismatched_systems == (3,)
    assert not report.systems_match and not report.collector_weights_ok
    assert len(report.notes) == 1 and report.notes[0].startswith("gadget 1->4: ")


def _with_dense(red, dense):
    """red with sigma' replaced by a dense matrix under identity heads."""
    n = red.g_prime.n
    return dataclasses.replace(red, sigma_prime=ReducedCovariance(dense, np.arange(n), np.ones(n)))


def _verify_cases():
    """(g, sigma, red) triples: clean random reductions, random ones with one
    entry of sigma' moved, and the corrupted-gadget cases above."""
    rng = np.random.default_rng(0)
    for seed in range(8):
        g, sigma = _random_instance(seed)
        red = reduce_instance(g, sigma)
        yield g, sigma, red
        dense = red.sigma_prime.sigma.copy()
        i, j = rng.integers(0, g.n, size=2)  # original vertices
        dense[i, j] += 1e-3
        dense[j, i] = dense[i, j]
        yield g, sigma, _with_dense(red, dense)
    g = MixedGraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)], [])
    lam = np.zeros((4, 4))
    lam[0, 1], lam[1, 2], lam[2, 3], lam[0, 3] = 0.5, 0.4, -0.3, 0.25
    sigma = forward_map(g, ParamSet(lam, np.eye(4)))
    red = reduce_instance(g, sigma)
    for entry, delta in ((None, 0.0), ((0, 8), 0.01), ((0, 3), 0.01), ((0, 8), -red.sigma_prime.sigma[0, 8])):
        dense = red.sigma_prime.sigma.copy()
        if entry:
            dense[entry] += delta
            dense[entry[::-1]] = dense[entry]
        yield g, sigma, _with_dense(red, dense)


def test_verify_reduction_compares_the_kept_systems_and_builds_none(monkeypatch):
    cases = list(_verify_cases())
    want = [reference_verify_reduction(*case) for case in cases]
    assert any(r.all_ok for r in want) and any(r.mismatched_systems for r in want)
    assert any(len(r.mismatched_systems) > 1 for r in want)
    built = []

    def counted(g, *args):
        built.append(g)
        return build_system(g, *args)

    def fail(*args):
        raise AssertionError("verify_reduction assembled a system")

    monkeypatch.setattr(recovery, "build_system", counted)
    monkeypatch.setattr(reduction, "build_system", fail, raising=False)
    for (g, sigma, red), ref in zip(cases, want):
        built.clear()
        report = verify_reduction(g, sigma, red)
        assert report == ref and repr(report) == repr(ref)
        # Only the two recoveries assemble, once per vertex outside the closed form.
        assemblies = [h for h in (g, red.g_prime) for span in recovery_plan(h).spans.values() if not span[-1]]
        assert list(map(id, built)) == list(map(id, assemblies))


@pytest.mark.parametrize("side", ["original", "reduced"])
@pytest.mark.parametrize("change", ["nan-a", "nan-b", "1e-6-a", "1e-6-b", "1e-10-a", "size"])
def test_verify_reduction_flags_exactly_the_vertex_whose_kept_system_changed(monkeypatch, side, change):
    g, sigma = _random_instance(3, n=12)
    red = reduce_instance(g, sigma)
    clean = verify_reduction(g, sigma, red)
    assert clean.all_ok
    kept = {id(h): recover_all(h, cov) for h, cov in ((g, sigma), (red.g_prime, red.sigma_prime))}
    changed = []

    def recover_changed(h, cov):  # the kept result, with one system of the chosen side changed
        result = kept[id(h)]
        if (h is red.g_prime) != (side == "reduced"):
            return result
        v, rng = changed[-1], np.random.default_rng(changed[-1])
        system = result.systems[v]
        if change == "size":  # one unknown fewer
            system = dataclasses.replace(system, y_set=system.y_set[1:], parents=system.parents[1:],
                                         a_matrix=system.a_matrix[1:, 1:], b_vector=system.b_vector[1:])
        else:
            what, field = change.rsplit("-", 1)
            name = "a_matrix" if field == "a" else "b_vector"
            values = getattr(system, name).copy()
            at = np.unravel_index(rng.integers(values.size), values.shape)
            values[at] = np.nan if what == "nan" else values[at] + float(what)
            system = dataclasses.replace(system, **{name: values})
        return dataclasses.replace(result, systems={**result.systems, v: system})

    monkeypatch.setattr(reduction, "recover_all", recover_changed)
    vertices = sorted(kept[id(g)].systems)
    assert max(len(kept[id(g)].systems[v].y_set) for v in vertices) >= 3  # a permutation to follow
    for v in vertices:
        changed.append(v)
        report = verify_reduction(g, sigma, red)
        flagged = () if change == "1e-10-a" else (v,)  # within VERIFY_TOL
        assert report.mismatched_systems == flagged and report.systems_match == (not flagged)
        assert report.collector_weights_ok and report.max_weight_error == clean.max_weight_error


def _assert_reduction_claims_the_layering(g):
    g_prime = reduce_graph(g)[0]
    # reduce_graph keeps the layering it derived, so the Kahn sweep never runs on g'
    assert "_layering" in vars(g_prime)
    fresh = MixedGraph.from_arrays(g_prime.n, g_prime.source, g_prime.target, g_prime.forced, g_prime.pairs)
    got, want = g_prime.layer_decomposition(), fresh.layer_decomposition()
    assert got.dtype == want.dtype == np.int64 and not got.flags.writeable
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("seed", range(5))
def test_reduced_pool_graph_carries_the_layering_of_a_fresh_copy(seed):  # reduce-verify's pool, n' up to 5,635
    _assert_reduction_claims_the_layering(gen_random_bowfree_graph(RandomGraphConfig(26, 0.4, seed=seed)))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.integers(3, 16), st.floats(0.1, 0.9), st.integers(0, 10_000))  # more than half the draws need gadgets
@example(0, 0.0, 0)
@example(12, 1.0, 0)
def test_reduced_random_graph_carries_the_layering_of_a_fresh_copy(n, p, seed):
    _assert_reduction_claims_the_layering(gen_random_bowfree_graph(RandomGraphConfig(n, p, seed=seed)))


def test_verify_reduction_rejects_a_covariance_stack():
    # reduce_instance takes a stack; verify_reduction then ended in a TypeError
    # from float() of the per-trial weight errors.
    g, sigma = _random_instance(2)
    stack = np.stack([sigma, 2.0 * sigma])
    red = reduce_instance(g, stack)
    with pytest.raises(OrderingError, match=rf"^covariance shape \(2, {g.n}, {g.n}\) does not match n={g.n}$"):
        verify_reduction(g, stack, red)


def test_verify_reduction_rejects_the_reduction_of_a_graph_on_another_vertex_count():
    g, sigma = _random_instance(2)
    h, sigma_h = _random_instance(2, n=9)
    with pytest.raises(OrderingError, match=f"^reduction of a graph on 9 vertices does not match n={g.n}$"):
        verify_reduction(g, sigma, reduce_instance(h, sigma_h))


def test_verify_reduction_of_another_graph_counts_a_missing_system_as_a_mismatch():
    # A vertex without a reduced system raised KeyError. Vertex 3 has a system
    # on g only and 0 on h only; 2 has one unknown on g and two on h; 1 has
    # one on both, but on h it corrects for 0's parent 3, so its entries differ.
    g = MixedGraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    h = MixedGraph(4, [(3, 0), (0, 1), (1, 2), (3, 2)])
    lam = np.zeros((4, 4))
    lam[g.source, g.target] = 0.3
    sigma = forward_map(g, ParamSet(lam, np.eye(4)))
    report = verify_reduction(g, sigma, reduce_instance(h, sigma))
    assert report.mismatched_systems == (0, 1, 2, 3) and not report.systems_match


def test_reduce_rejects_forced_input():
    g = MixedGraph(2, [(0, 1, 0.5)])
    with pytest.raises(Exception):
        reduce_graph(g)


def test_manifest_round_trip(tmp_path):
    g = MixedGraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)], [])
    lam = np.zeros((4, 4))
    lam[0, 1], lam[1, 2], lam[2, 3], lam[0, 3] = 0.5, 0.4, -0.3, 0.25
    sigma = forward_map(g, ParamSet(lam, np.eye(4)))
    red = reduce_instance(g, sigma)
    manifest = reduction_manifest(red)
    assert manifest["original_n"] == 4
    assert manifest["n_prime"] == red.g_prime.n
    assert manifest["gadgets"][0]["head"] == 1  # 1-based
    assert set(manifest) == {"original_n", "n_prime", "r", "k_layers", "gadgets"}
    assert type(manifest["k_layers"]) is int and manifest["k_layers"] == 4  # the path 0 -> 1 -> 2 -> 3
    assert reduction_manifest(reduce_instance(MixedGraph(0), np.zeros((0, 0))))["k_layers"] == 0


def _dense(sigma, head, factor):
    """The reduced covariance as the reduction used to build it."""
    return np.outer(factor, factor) * sigma[..., head[:, None], head]


def test_reduced_covariance_gathers_equal_the_dense_matrix_bitwise():
    g, sigma = _random_instance(5)
    red = reduce_instance(g, sigma)
    head, factor = red.sigma_prime.head, red.sigma_prime.factor
    assert red.r == 3 and np.any(factor == 1 / 3)  # a factor that is not a power of 2
    rng = np.random.default_rng(0)
    stack = np.stack([sigma, sigma + 1e-3 * np.eye(g.n), 2.0 * sigma])
    rows = rng.integers(0, red.g_prime.n, size=7)
    cols = rng.integers(0, red.g_prime.n, size=5)
    for base in (sigma, stack):
        cov = ReducedCovariance(base, head, factor)
        dense = _dense(base, head, factor)
        assert cov.shape == dense.shape and cov.ndim == dense.ndim
        np.testing.assert_array_equal(cov.sigma, dense)
        np.testing.assert_array_equal(cov[..., rows[:, None], cols], dense[..., rows[:, None], cols])
        np.testing.assert_array_equal(cov[..., rows[:, None, None], cols], dense[..., rows[:, None, None], cols])
        np.testing.assert_array_equal(cov[..., rows, 4], dense[..., rows, 4])
    np.testing.assert_array_equal(red.sigma_prime.sigma, _dense(sigma, head, factor))


def test_recovery_on_the_implicit_reduced_covariance_is_bitwise_dense():
    for seed in (3, 5, 11):
        g, sigma = _random_instance(seed)
        red = reduce_instance(g, sigma)
        implicit = recover_all(red.g_prime, red.sigma_prime)
        dense = recover_all(red.g_prime, red.sigma_prime.sigma)
        forced = ~np.isnan(red.g_prime.forced)
        assert forced.any() and np.all(implicit.weights[..., forced] == red.g_prime.forced[forced])
        np.testing.assert_array_equal(implicit.lambda_hat, dense.lambda_hat)
        assert implicit.per_vertex == dense.per_vertex
        for v in range(g.n):
            if g.parents(v):
                a = build_system(red.g_prime, red.sigma_prime, implicit.weights, v)
                b = build_system(red.g_prime, red.sigma_prime.sigma, implicit.weights, v)
                np.testing.assert_array_equal(a.a_matrix, b.a_matrix)
                np.testing.assert_array_equal(a.b_vector, b.b_vector)


def test_check_assumptions_reads_the_reduced_covariance_without_densifying(monkeypatch):
    g, sigma = _random_instance(3)
    red = reduce_instance(g, sigma)
    dense = red.sigma_prime.sigma
    weights = recover_all(red.g_prime, dense).weights
    want = check_assumptions(red.g_prime, dense, weights).to_dict()

    def refuse(self):
        raise AssertionError("the dense reduced covariance was built")

    monkeypatch.setattr(ReducedCovariance, "sigma", property(refuse))
    assert check_assumptions(red.g_prime, red.sigma_prime, weights).to_dict() == want


def test_reduce_instance_does_not_build_the_dense_reduced_covariance():
    g = gen_random_bowfree_graph(RandomGraphConfig(20, 0.4, seed=0))
    sigma = forward_map(g, ParamSet(gen_lambda_range(g, SDDNoiseConfig(0.5, 1)),
                                    gen_omega_sdd(g, SDDNoiseConfig(0.5, 2))))
    tracemalloc.start()
    try:
        red = reduce_instance(g, sigma)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    n_prime = red.g_prime.n
    assert n_prime >= 1000
    assert peak < n_prime * n_prime * 8, (peak, n_prime)


# sha256 of graph_to_dict(g_prime) and of the manifest, as sorted-key JSON,
# for gen_random_bowfree_graph(n=26, p=0.4, seed); recorded before the graph
# core moved to arrays.
REDUCTION_DIGESTS = {
    0: ("c6fb577c2069c71af4a9155b8d24daf6ac1e3dfac6f2a63b5dc9b8a570f7e55b",
        "c38d6e53f1aaf55fe398c3c062c2586bb0f7252d0a21e34e25175a2cffbce40c"),
    1: ("11330cd8195f359ec27091027179537cf17aab380d5251487d3f4ff7cca90ddd",
        "af3a14337707ab9675de8ce2597b644a61beb881857f2abfedaa9fd4dddf8d63"),
    2: ("9c4b9d9e1883df286c94926edae7c35748320321dad8a2c5cb7be432b5c2d824",
        "6d1f9722f58a5b102e96a6011d1b2b62e99e2a150f71cbac6bd1d53f45abfc5d"),
    3: ("722b6a59c70c4ac61cf4695d9f055d2585a5fd026d3e1009484c502fa1b48aa0",
        "30b947c47f33d8b860303bdaa8a71f4efa84f569a6606bfc985f2a7668614f63"),
    4: ("3fb0bed9873747d8882e9b65f6ec0f3866d49adae9332200ca18273a1f9e0791",
        "d734eb50285bcb75ab49f4df1e2e26f76b68187cf876c61a6d2f64f78eda907f"),
}


@pytest.mark.parametrize("seed", sorted(REDUCTION_DIGESTS))
def test_reduction_keeps_its_bytes(seed):
    g = gen_random_bowfree_graph(RandomGraphConfig(26, 0.4, seed=seed))
    red = reduce_instance(g, np.eye(g.n))
    digests = tuple(
        hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()
        for doc in (graph_to_dict(red.g_prime), reduction_manifest(red))
    )
    assert digests == REDUCTION_DIGESTS[seed]


def test_reduce_and_verify_build_no_per_edge_objects_for_g_prime():
    g, sigma = _random_instance(3, n=12)
    red = reduce_instance(g, sigma)
    assert verify_reduction(g, sigma, red).all_ok
    assert red.g_prime.n > 100
    # the per-edge view is cached on first read, so an unread one is absent
    assert "directed" not in vars(red.g_prime)
    assert len(red.g_prime.directed) == red.g_prime.source.size  # still there when asked for
    assert "directed" in vars(red.g_prime)


def test_reduce_and_verify_stay_below_one_dense_weight_matrix():
    g = gen_random_bowfree_graph(RandomGraphConfig(20, 0.4, seed=0))
    sigma = forward_map(g, ParamSet(gen_lambda_range(g, SDDNoiseConfig(0.5, 1)),
                                    gen_omega_sdd(g, SDDNoiseConfig(0.5, 2))))
    tracemalloc.start()
    try:
        red = reduce_instance(g, sigma)
        report = verify_reduction(g, sigma, red)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    n_prime = red.g_prime.n
    assert report.all_ok
    assert n_prime >= 1000
    assert peak < n_prime * n_prime * 8, (peak, n_prime)


def test_n40_reduces_and_verifies():
    # n' = 19,372: a dense n' x n' weight matrix alone would take 3 GB.
    g = gen_random_bowfree_graph(RandomGraphConfig(40, 0.4, seed=0))
    sigma = forward_map(g, ParamSet(gen_lambda_range(g, SDDNoiseConfig(0.5, 1)),
                                    gen_omega_sdd(g, SDDNoiseConfig(0.5, 2))))
    red = reduce_instance(g, sigma)
    assert red.g_prime.n == 19_372
    report = verify_reduction(g, sigma, red)
    assert report.all_ok, report
