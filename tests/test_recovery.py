import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bowfree.errors import GraphStructureError, NearSingularError, OrderingError
from bowfree.generators import (
    RandomGraphConfig,
    SDDNoiseConfig,
    gen_generative_instance,
    gen_lambda_range,
    gen_omega_sdd,
    gen_random_bowfree_graph,
    gen_sdd_instance,
)
from bowfree.cli import main
from bowfree.experiments import write_report
from bowfree.graphs import MixedGraph, graph_to_dict
from bowfree.lsem import ParamSet, ReducedCovariance, forward_map, project_omega_pattern, save_matrix_csv
from bowfree import recovery, robustness
from bowfree.recovery import (
    RecoverySystem,
    build_system,
    recover_all,
    recover_first_layers,
    recover_full_params,
    recover_vertex,
    recovery_plan,
    recovery_to_dict,
)
from bowfree.reduction import reduce_covariance, reduce_instance, verify_reduction
from bowfree.robustness import (
    PerturbationSpec,
    check_assumptions,
    perturbation_ratios,
    relative_distance,
    sample_perturbation,
)

from conftest import graph_from_lambda
from helpers import recover_alone, reference_build_system, spa


def _chain3_sigma(w01=0.7, w12=-0.4):
    lam = np.zeros((3, 3))
    lam[0, 1], lam[1, 2] = w01, w12
    g = MixedGraph(3, [(0, 1), (1, 2)], [])
    return g, lam, forward_map(g, ParamSet(lam, np.eye(3)))


def test_build_system_chain_hand_expansion():
    g, lam, sigma = _chain3_sigma()
    partial = np.array([lam[0, 1], 0.0])  # edges 0 -> 1, 1 -> 2
    system = build_system(g, sigma, partial, 2)
    assert system.parents == (1,)
    assert system.y_set == (1,)
    np.testing.assert_allclose(
        system.a_matrix, [[sigma[1, 1] - lam[0, 1] * sigma[0, 1]]]
    )
    np.testing.assert_allclose(
        system.b_vector, [sigma[1, 2] - lam[0, 1] * sigma[0, 2]]
    )


def test_build_system_diamond_matches_block_oracle(rng):
    # 0 -> {1, 2} -> 3: a 2x2 system assembled independently from the
    # block formula sigma[pa,pa] - lam[spa,pa]^T sigma[spa,pa]
    lam = np.zeros((4, 4))
    lam[0, 1], lam[0, 2], lam[1, 3], lam[2, 3] = 0.6, -0.5, 0.8, 0.3
    g = graph_from_lambda(lam)
    sigma = forward_map(g, ParamSet(lam, np.eye(4)))
    partial = np.where(g.target == 3, 0.0, lam[g.source, g.target])
    system = build_system(g, sigma, partial, 3)
    pa, spa = [1, 2], [0]
    a_oracle = sigma[np.ix_(pa, pa)] - lam[np.ix_(spa, pa)].T @ sigma[np.ix_(spa, pa)]
    b_oracle = sigma[pa, 3] - lam[np.ix_(spa, pa)].T @ sigma[spa, 3]
    np.testing.assert_allclose(system.a_matrix, a_oracle, atol=1e-12)
    np.testing.assert_allclose(system.b_vector, b_oracle, atol=1e-12)


def test_build_system_all_forced_is_empty():
    g = MixedGraph(2, [(0, 1, 0.5)])
    system = build_system(g, np.eye(2), np.array([0.5]), 1)
    assert system.parents == ()
    assert system.a_matrix.shape == (0, 0)
    assert recover_vertex(system)[0].size == 0


def test_build_system_shape_guard():
    g = MixedGraph(2, [(0, 1)])
    with pytest.raises(OrderingError):
        build_system(g, np.eye(2), np.zeros((3, 3)), 1)
    with pytest.raises(OrderingError):  # the n x n matrix is not an edge vector
        build_system(g, np.eye(2), np.zeros((2, 2)), 1)
    with pytest.raises(OrderingError):  # weights without the covariance's trial axis
        build_system(g, np.stack([np.eye(2)] * 3), np.zeros(1), 1)


def test_recover_vertex_scalar():
    system = RecoverySystem(0, (0,), (0,), np.array([[2.0]]), np.array([4.0]))
    np.testing.assert_allclose(recover_vertex(system)[0], [2.0])


def test_recover_vertex_singular():
    system = RecoverySystem(3, (0,), (0,), np.zeros((1, 1)), np.array([1.0]))
    with pytest.raises(NearSingularError) as err:
        recover_vertex(system)
    assert err.value.vertex == 3


def test_recover_chain_round_trip():
    g, lam, sigma = _chain3_sigma()
    result = recover_all(g, sigma)
    np.testing.assert_allclose(result.lambda_hat, lam, atol=1e-10)


def test_recover_first_layers_two_node_closed_form():
    w = 0.37
    g = MixedGraph(2, [(0, 1)])
    sigma = np.array([[1.0, w], [w, 1.0 + w**2]])
    np.testing.assert_allclose(recover_vertex(recover_first_layers(g, sigma, 1))[0], [w], atol=1e-12)


def test_recover_first_layers_no_parents():
    g = MixedGraph(2, [(0, 1)])
    assert recover_vertex(recover_first_layers(g, np.eye(2), 0))[0].size == 0


def test_recover_first_layers_identity_block():
    g = MixedGraph(3, [(0, 2), (1, 2)])
    sigma = np.eye(3)
    sigma[0, 2] = sigma[2, 0] = 0.4
    sigma[1, 2] = sigma[2, 1] = -0.2
    np.testing.assert_allclose(recover_vertex(recover_first_layers(g, sigma, 2))[0], [0.4, -0.2])


def test_recover_first_layers_requires_no_grandparents(chain3):
    with pytest.raises(OrderingError):
        recover_first_layers(chain3, np.eye(3), 2)


def test_both_forms_agree_when_no_grandparents():
    g = MixedGraph(3, [(0, 2), (1, 2)], [])
    lam = np.zeros((3, 3))
    lam[0, 2], lam[1, 2] = 0.5, -0.7
    sigma = forward_map(g, ParamSet(lam, np.eye(3)))
    direct = recover_vertex(recover_first_layers(g, sigma, 2))[0]
    system = build_system(g, sigma, np.zeros(2), 2)
    np.testing.assert_allclose(recover_vertex(system)[0], direct, atol=1e-12)


def test_recover_all_generative_round_trip():
    inst = gen_generative_instance(n=20, k=2, p=0.7, seed=11)
    result = recover_all(inst.graph, inst.sigma)
    assert np.max(np.abs(result.lambda_hat - inst.params.lam)) <= 1e-8
    for v, diag in result.per_vertex.items():
        assert diag.residual <= 1e-9
        assert diag.condition >= 1.0
        assert diag.used_partial_form == (not spa(inst.graph, v))


def test_recover_all_no_edges():
    g = MixedGraph(4, [], [(0, 1)])
    result = recover_all(g, np.eye(4))
    np.testing.assert_allclose(result.lambda_hat, np.zeros((4, 4)))
    assert result.per_vertex == {}


def test_recover_all_forced_pass_through():
    g = MixedGraph(3, [(0, 1, 0.25), (1, 2)], [])
    lam = np.array([[0.0, 0.25, 0.0], [0.0, 0.0, 0.6], [0.0, 0.0, 0.0]])
    sigma = forward_map(g, ParamSet(lam, np.eye(3)))
    result = recover_all(g, sigma)
    assert result.lambda_hat[0, 1] == 0.25
    forced = ~np.isnan(g.forced)
    assert np.all(result.weights[..., forced] == g.forced[forced])
    np.testing.assert_allclose(result.lambda_hat, lam, atol=1e-10)


def test_source_vertex_follows_forced_chains():
    # Vertex 3's parent 2 copies 0 through two forced edges; vertex 4's
    # parents 0 (parentless) and 3 (a free in-edge) are their own sources.
    g = MixedGraph(5, [(0, 1, 1.0), (1, 2, 0.5), (2, 3), (0, 4), (3, 4)])
    weights = np.zeros(g.source.size)
    assert build_system(g, np.eye(5), weights, 3).y_set == (0,)
    assert build_system(g, np.eye(5), weights, 4).y_set == (0, 3)
    assert build_system(g, np.eye(5), weights, 2).y_set == ()


def test_cyclic_forced_chain_is_an_ordering_error():
    g = MixedGraph(3, [(0, 1, 1.0), (1, 0, 1.0), (1, 2)])
    with pytest.raises(OrderingError, match="cyclic"):
        build_system(g, np.eye(3), np.zeros(3), 2)


def test_recover_first_layers_rejects_forced_in_edges():
    g = MixedGraph(3, [(0, 2, 0.5), (1, 2)])
    with pytest.raises(OrderingError, match="vertex 3 has grandparents or forced in-edges"):
        recover_first_layers(g, np.eye(3), 2)


def test_a_forced_parent_is_folded_into_the_right_hand_side(tmp_path):
    # Vertex 4 has a forced in-edge besides free ones, and a parent with a
    # parent: its general system moves the forced column into b.
    g = MixedGraph(4, [(0, 3, 0.5), (1, 3), (2, 3), (1, 2)], [(0, 1)])
    lam, omega = np.zeros((4, 4)), np.eye(4)
    lam[0, 3], lam[1, 3], lam[2, 3], lam[1, 2] = 0.5, 0.7, -0.4, 0.6
    omega[0, 1] = omega[1, 0] = 0.3
    sigma = forward_map(g, ParamSet(lam, omega))
    _, k0, b0, _, _, k1, b1, _, closed = recovery_plan(g).spans[3]
    assert (k1 - k0, b1 > b0, closed) == (1, True, False)
    result = recover_all(g, sigma)
    np.testing.assert_allclose(result.lambda_hat, lam, rtol=0, atol=1e-12)
    for cov in (sigma, _perturbed_stack(sigma, 1, seed=3)):
        weights = recover_all(g, cov).weights
        got, want = build_system(g, cov, weights, 3), reference_build_system(g, cov, weights, 3)
        assert (got.y_set, got.parents) == (want.y_set, want.parents) == ((1, 2), (1, 2))
        assert got.a_matrix.tobytes() == want.a_matrix.tobytes() and got.b_vector.tobytes() == want.b_vector.tobytes()
    graph, sig, out = tmp_path / "g.json", tmp_path / "s.csv", tmp_path / "o.json"
    write_report(graph_to_dict(g), graph)
    save_matrix_csv(sigma, sig)
    assert main(["recover", "--graph", str(graph), "--sigma", str(sig), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["lambda"] == result.lambda_hat.tolist()


def test_recovery_plan_is_compiled_once_and_read_only():
    inst = gen_generative_instance(n=12, k=2, p=0.7, seed=11)
    g = inst.graph
    plan = recovery_plan(g)
    recover_all(g, inst.sigma)
    free = list(plan.spans)
    build_system(g, inst.sigma, np.zeros(g.source.size), free[-1])
    assert recovery_plan(g) is plan
    with pytest.raises(TypeError):
        plan.spans[free[0]] = None
    for name, a in vars(plan).items():
        if name == "spans":
            continue
        assert not a.flags.writeable, name
        with pytest.raises(ValueError):
            a[...] = 0


def test_recover_all_walks_no_per_vertex_adjacency(monkeypatch):
    # Whole-graph passes read the graph's CSR index; none asks a vertex for its parents.
    def fail(self, v):
        raise AssertionError(f"parents({v}) asked for")

    monkeypatch.setattr(MixedGraph, "parents", fail)
    inst = _golden_sdd()
    fresh = MixedGraph.from_arrays(inst.graph.n, inst.graph.source, inst.graph.target, bidirected=inst.graph.pairs)
    g0, sigma0 = _golden_reduced_instance()
    red = reduce_instance(g0, sigma0)
    for g, sigma in ((fresh, inst.sigma), (red.g_prime, red.sigma_prime)):
        check_assumptions(g, sigma, recover_all(g, sigma).weights)
    for g, sigma in ((fresh, inst.sigma), (g0, sigma0)):
        assert verify_reduction(g, sigma, reduce_instance(g, sigma)).all_ok


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(2, 9),
    p=st.floats(0.2, 0.9),
    seed=st.integers(0, 10_000),
    trials=st.sampled_from([None, 3]),
    mode=st.sampled_from(["plain", "reduced", "reduced-implicit"]),
)
def test_plan_systems_equal_the_per_vertex_assembly_bitwise(n, p, seed, trials, mode):
    g = gen_random_bowfree_graph(RandomGraphConfig(n, p, seed=seed))
    lam = gen_lambda_range(g, SDDNoiseConfig(0.6, seed + 1))
    sigma = forward_map(g, ParamSet(lam, gen_omega_sdd(g, SDDNoiseConfig(0.6, seed + 2))))
    if trials:
        sigma = _perturbed_stack(sigma, trials - 1, seed)
    if mode != "plain":
        red = reduce_instance(g, sigma)
        g, sigma = red.g_prime, red.sigma_prime if mode == "reduced-implicit" else red.sigma_prime.sigma
    rng = np.random.default_rng(seed)
    weights = np.where(np.isnan(g.forced), rng.uniform(-1, 1, sigma.shape[:-2] + g.forced.shape), g.forced)
    for v in recovery_plan(g).spans:
        got, want = build_system(g, sigma, weights, v), reference_build_system(g, sigma, weights, v)
        assert got.y_set == want.y_set and got.parents == want.parents
        np.testing.assert_array_equal(got.a_matrix, want.a_matrix)
        np.testing.assert_array_equal(got.b_vector, want.b_vector)


def _kept_systems_case(kind):
    if kind == "reduced":
        red = reduce_instance(*_golden_reduced_instance())
        return red.g_prime, red.sigma_prime
    inst = _golden_sdd()
    return inst.graph, inst.sigma if kind == "one" else _perturbed_stack(inst.sigma, 3, 7)


@pytest.mark.parametrize("kind", ["one", "stack", "reduced"])
def test_recover_all_keeps_each_system_as_build_system_assembles_it(kind):
    g, sigma = _kept_systems_case(kind)
    result = recover_all(g, sigma)
    assert result.failed_vertex is None or (result.failed_vertex < 0).all()
    assert list(result.systems) == list(recovery_plan(g).spans)
    closed = np.array([d.used_partial_form for d in result.per_vertex.values()])
    assert closed.any() and not closed.all()  # both forms are kept
    for v, kept in result.systems.items():
        fresh = build_system(g, sigma, result.weights, v)
        assert (kept.vertex, kept.y_set, kept.parents) == (v, fresh.y_set, fresh.parents)
        for got, want in ((kept.a_matrix, fresh.a_matrix), (kept.b_vector, fresh.b_vector)):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert "systems" not in repr(result)


def test_recover_all_solves_every_vertex_through_recover_vertex(monkeypatch):
    g, sigma = _kept_systems_case("one")
    solved = []

    def counted(system):
        solved.append(system)
        return recover_vertex(system)

    monkeypatch.setattr(recovery, "recover_vertex", counted)
    result = recover_all(g, sigma)
    assert [s.vertex for s in solved] == list(recovery_plan(g).spans)
    assert all(s is result.systems[s.vertex] for s in solved)


def test_recover_full_params_round_trip():
    inst = gen_generative_instance(n=12, k=2, p=0.6, seed=4)
    params = recover_full_params(inst.graph, inst.sigma)
    assert np.max(np.abs(params.lam - inst.params.lam)) <= 1e-8
    assert np.max(np.abs(params.omega - inst.params.omega)) <= 1e-8


def test_recover_full_params_zero_lambda():
    g = MixedGraph(3, [], [(0, 1)])
    omega = np.eye(3)
    omega[0, 1] = omega[1, 0] = 0.4
    sigma = forward_map(g, ParamSet(np.zeros((3, 3)), omega))
    params = recover_full_params(g, sigma)
    projected = project_omega_pattern(sigma, g.pairs)
    np.testing.assert_allclose(params.omega, projected, atol=1e-9)


def test_recover_full_params_perturbed_sigma():
    inst = gen_generative_instance(n=12, k=2, p=0.6, seed=8)
    spec = PerturbationSpec(gamma=1e-6, k=2, seed=3)
    perturbed = sample_perturbation(inst.sigma, spec)
    params = recover_full_params(inst.graph, perturbed)
    assert np.max(np.abs(params.omega - inst.params.omega)) <= 1e-3


def test_layer_monotone_recovery_reads_lower_layers_only():
    inst = gen_generative_instance(n=15, k=2, p=0.8, seed=2)
    g = inst.graph
    layers = g.layer_decomposition()
    result = recover_all(g, inst.sigma)
    for v in range(g.n):
        for p in g.parents(v):
            assert layers[p] < layers[v]
    assert set(result.per_vertex) == {v for v in range(g.n) if g.parents(v)}


def test_recovery_to_dict_schema():
    g, lam, sigma = _chain3_sigma()
    payload = recovery_to_dict(recover_all(g, sigma))
    assert set(payload) == {"lambda", "diagnostics"}
    assert set(payload["diagnostics"]) == {"2", "3"}
    assert set(payload["diagnostics"]["2"]) == {"residual", "condition", "partial_form"}


# -- stacks of covariances along a trial axis ------------------------------------


def _per_draw(g, stack):
    """Reference loop: one recover_all per covariance; (weights, failed vertex)."""
    out = []
    for sigma in stack:
        try:
            out.append((recover_all(g, sigma).lambda_hat, -1))
        except NearSingularError as exc:
            out.append((None, exc.vertex))
    return out


def _assert_stack_matches_per_draw(g, stack):
    result = recover_all(g, stack)
    assert result.lambda_hat.shape == stack.shape
    assert result.failed_vertex.shape == stack.shape[:1]
    for t, (want, vertex) in enumerate(_per_draw(g, stack)):
        assert result.failed_vertex[t] == vertex
        got = result.lambda_hat[t]
        if want is None:
            assert np.isnan(got).all()
            continue
        scale = max(np.max(np.abs(want)), 1.0)
        assert np.max(np.abs(got - want)) <= 1e-12 * scale
    return result


def _perturbed_stack(sigma, trials, seed, gamma=1e-3):
    draws = [sample_perturbation(sigma, PerturbationSpec(gamma, 2, seed + t, strict=False))
             for t in range(trials)]
    return np.stack([sigma] + draws)


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(2, 9),
    p=st.floats(0.2, 0.8),
    seed=st.integers(0, 10_000),
    trials=st.integers(1, 4),
    mode=st.sampled_from(["plain", "reduced"]),
)
def test_stack_recovery_matches_per_covariance(n, p, seed, trials, mode):
    g = gen_random_bowfree_graph(RandomGraphConfig(n, p, seed=seed))
    lam = gen_lambda_range(g, SDDNoiseConfig(0.6, seed + 1))
    omega = gen_omega_sdd(g, SDDNoiseConfig(0.6, seed + 2))
    sigma = forward_map(g, ParamSet(lam, omega))
    stack = _perturbed_stack(sigma, trials, seed)
    if mode == "reduced":
        red = reduce_instance(g, sigma)
        stack = np.stack([
            reduce_covariance(s, red.g_prime, red.gadgets, red.r).sigma for s in stack
        ])
        g = red.g_prime
    _assert_stack_matches_per_draw(g, stack)


def test_stack_with_a_singular_trial_fails_only_that_trial():
    inst = gen_generative_instance(n=12, k=2, p=0.7, seed=11)
    g = inst.graph
    stack = _perturbed_stack(inst.sigma, 3, seed=5, gamma=1e-6)
    # Trial 2: two parents of one vertex become perfectly correlated copies.
    v = next(v for v in range(g.n) if len(g.parents(v)) >= 2)
    p1, p2 = g.parents(v)[:2]
    stack[2][p2, :] = stack[2][p1, :]
    stack[2][:, p2] = stack[2][:, p1]
    stack[2][p2, p2] = stack[2][p1, p1]
    with pytest.raises(NearSingularError):
        recover_all(g, stack[2])
    result = _assert_stack_matches_per_draw(g, stack)
    assert (result.failed_vertex >= 0).sum() == 1
    assert result.failed_vertex[2] >= 0
    for t in (0, 1, 3):
        np.testing.assert_allclose(result.lambda_hat[t], inst.params.lam, atol=1e-4)


def test_stack_diagnostics_are_per_trial():
    inst = gen_generative_instance(n=12, k=2, p=0.7, seed=3)
    stack = _perturbed_stack(inst.sigma, 2, seed=1, gamma=1e-6)
    batched = recover_all(inst.graph, stack)
    for v, diag in batched.per_vertex.items():
        assert diag.condition.shape == (3,) and diag.residual.shape == (3,)
        single = recover_all(inst.graph, stack[1]).per_vertex[v]
        assert diag.condition[1] == pytest.approx(single.condition, rel=1e-12)
        assert diag.used_partial_form == single.used_partial_form
    forced = ~np.isnan(inst.graph.forced)
    assert np.all(batched.weights[..., forced] == inst.graph.forced[forced])


def test_recover_vertex_masks_singular_trials_of_a_stack():
    a = np.array([[[2.0]], [[0.0]]])
    system = RecoverySystem(3, (0,), (0,), a, np.array([[4.0], [1.0]]))
    weights, residual, condition = recover_vertex(system)
    assert weights[0, 0] == 2.0 and np.isnan(weights[1, 0])
    assert residual[0] == 0.0 and condition[0] == 1.0 and np.isinf(condition[1])


@pytest.mark.parametrize(
    "edges, variances",
    [([(0, 2), (1, 2)], [0.0, 0.0, 1.0]),  # the closed form: vertex 3's parent block is zero
     ([(0, 1), (1, 2)], [1.0, 0.0, 1.0])],  # the transformed system: vertex 3's row is zero
    ids=["closed-form", "general"],
)
def test_an_all_zero_system_fails_only_its_trial_with_condition_inf(edges, variances):
    g = MixedGraph(3, edges)
    zero = np.diag(variances)
    result = recover_all(g, np.stack([np.eye(3), zero]))
    assert result.failed_vertex.tolist() == [-1, 2]
    assert np.isnan(result.weights[1]).all() and not np.isnan(result.weights[0]).any()
    condition = result.per_vertex[2].condition
    assert condition[0] == 1.0 and condition[1] == np.inf  # 0/0 would be NaN
    with pytest.raises(NearSingularError, match="^vertex 3: ") as err:
        recover_all(g, zero)
    assert err.value.vertex == 2


def _read_slot_bytes(g):
    """The bytes of one slot of g's read stack: 8 (K + |E|), K the plan's reads."""
    return 8 * (recovery_plan(g).read_rows.size + g.source.size)


def _engine_run(g, stack, monkeypatch, stack_bytes=None):
    """perturbation_ratios of stack[0] and the draws stack[1:] with a
    STACK_BYTES of ``stack_bytes``; returns its result, the recover_all read
    stack sizes and the fill calls as (slots, first draw)."""
    calls, fills = [], []

    def counting(g, sigma):
        calls.append(len(sigma.values))
        return recover_all(g, sigma)

    def fill(out, lo):
        fills.append((len(out), lo))
        out[...] = stack[1 + lo : 1 + lo + len(out)]

    with monkeypatch.context() as m:
        m.setattr(robustness, "recover_all", counting)
        if stack_bytes:
            m.setattr(robustness, "STACK_BYTES", stack_bytes)
        run = perturbation_ratios(g, stack[0], len(stack) - 1, fill)
    return run, calls, fills


def _run_bytes(run):
    return [np.asarray(a).tobytes() for a in run]


def test_a_read_stack_slot_costs_its_reads_and_weights(monkeypatch):
    inst = gen_generative_instance(n=12, k=2, p=0.7, seed=11)
    g = inst.graph
    plan, slot = recovery_plan(g), _read_slot_bytes(g)
    assert slot == 8 * (plan.read_rows.size + g.source.size) and plan.read_rows.size == plan.read_cols.size
    stack = _perturbed_stack(inst.sigma, 7, seed=5, gamma=1e-6)
    for slots in (1, 2, 7):  # the first recover_all stack is as large as STACK_BYTES holds
        assert _engine_run(g, stack, monkeypatch, slots * slot)[1][0] == slots
        assert _engine_run(g, stack, monkeypatch, slots * slot - 1)[1][0] == max(1, slots - 1)


def test_one_read_stack_holds_every_draw_at_n_1000(monkeypatch):
    inst = gen_sdd_instance(1000, 3, 0.6, 1.0, seed=11)
    assert robustness.STACK_BYTES // _read_slot_bytes(inst.graph) >= 21  # the base and condition's 20 default draws
    stacks = []

    def counting(g, sigma):
        stacks.append(getattr(sigma, "values", sigma).shape)
        return recover_all(g, sigma)

    monkeypatch.setattr(robustness, "recover_all", counting)
    gammas = [0.5 * 1000**-4, 0.1 * 1000**-4]  # bowfree condition's defaults
    est = robustness.estimate_condition_number(inst.graph, inst.sigma, trials=10, gammas=gammas, seed=3)
    assert stacks == [(21, recovery_plan(inst.graph).read_rows.size)] and est.failures == 0


def test_perturbation_ratios_split_into_bounded_stacks(monkeypatch):
    inst = gen_generative_instance(n=12, k=2, p=0.3, seed=1)
    g = inst.graph
    read_slot, dense_slot = _read_slot_bytes(g), 8 * g.n**2
    assert 5 * read_slot <= dense_slot  # one dense slot's budget holds the reads of all 5
    stack = _perturbed_stack(inst.sigma, 4, seed=5, gamma=1e-6)
    stack[3] = np.ones_like(stack[3])  # draw 2 has a singular system
    whole, calls, fills = _engine_run(g, stack, monkeypatch)
    assert calls == [5] and fills == [(4, 0)]
    failed_vertex = whole[4]
    assert failed_vertex[2] >= 0 and (np.delete(failed_vertex, 2) < 0).all()
    # STACK_BYTES as so many read slots or dense draw slots -> recover_all stack sizes, fill calls
    chunks = {(1, 0): ([1, 1, 1, 1, 1], [(1, 0), (1, 1), (1, 2), (1, 3)]),
              (2, 0): ([2, 2, 1], [(1, 0), (1, 1), (1, 2), (1, 3)]),
              (3, 0): ([3, 2], [(1, 0), (1, 1), (1, 2), (1, 3)]),
              (0, 1): ([5], [(1, 0), (1, 1), (1, 2), (1, 3)]),
              (0, 2): ([5], [(2, 0), (2, 2)]),
              (0, 3): ([5], [(3, 0), (1, 3)])}
    for (reads, dense), (want_calls, want_fills) in chunks.items():
        split, calls, fills = _engine_run(g, stack, monkeypatch, max(reads * read_slot, dense * dense_slot))
        assert (calls, fills) == (want_calls, want_fills)
        assert _run_bytes(split) == _run_bytes(whole)


@pytest.mark.parametrize("per_stack", [None, 1, 2, 3])
def test_perturbation_ratios_have_the_bits_of_each_covariance_alone(monkeypatch, per_stack):
    inst = gen_generative_instance(n=12, k=2, p=0.7, seed=11)
    g = inst.graph
    stack = _perturbed_stack(inst.sigma, 4, seed=5, gamma=1e-6)
    stack[3] = np.ones_like(stack[3])  # every system of draw 2 is singular
    stack_bytes = per_stack and per_stack * _read_slot_bytes(g)
    base, base_failed, rel_sigma, rel_lambda, failed_vertex = _engine_run(g, stack, monkeypatch, stack_bytes)[0]
    want = recover_all(g, inst.sigma).weights
    assert base.tobytes() == want.tobytes() and not base_failed
    for t, draw in enumerate(stack[1:]):
        weights, failed = recover_alone(g, draw)
        assert failed_vertex[t] == failed
        assert rel_sigma[t] == relative_distance(inst.sigma, draw)
        if failed >= 0:
            assert np.isnan(rel_lambda[t])
        else:
            assert rel_lambda[t] == relative_distance(want, weights)


def test_perturbation_ratios_stop_at_a_failed_base_and_skip_an_all_zero_one(monkeypatch):
    g = MixedGraph(3, [(0, 2), (1, 2)])
    stack = np.stack([np.ones((3, 3)), np.eye(3), 2.0 * np.eye(3)])
    one_slot = _read_slot_bytes(g)
    (_, base_failed, rel_sigma, _, failed_vertex), calls, fills = _engine_run(g, stack, monkeypatch, one_slot)
    assert base_failed and calls == [1] and fills == []
    assert np.isnan(rel_sigma).all() and (failed_vertex == -1).all()
    stack[0] = np.eye(3)  # the weights recovered from the identity are all zero
    base, base_failed, rel_sigma, rel_lambda, _ = _engine_run(g, stack, monkeypatch, one_slot)[0]
    assert not base_failed and not base.any()
    assert rel_sigma.tolist() == [0.0, 1.0] and np.isnan(rel_lambda).all()


def test_non_finite_solve_raises_on_one_covariance_and_masks_its_trial():
    # The covariance is finite (a non-finite one is rejected before any
    # solve), but vertex 2's weight sigma[1, 2] / sigma[1, 1] = 2e308
    # overflows: its system matrix stays regular and the solve gives inf.
    g = MixedGraph(3, [(0, 1), (1, 2)])
    sigma = 2.0 * np.eye(3)
    sigma[1, 1] = 0.5
    sigma[1, 2] = sigma[2, 1] = 1e308
    with pytest.raises(NearSingularError, match="vertex 3: solve gave non-finite values") as exc:
        recover_all(g, sigma)
    assert exc.value.vertex == 2
    result = recover_all(g, np.stack([2.0 * np.eye(3), sigma]))
    assert result.failed_vertex.tolist() == [-1, 2]
    assert np.isnan(result.lambda_hat[1]).all()
    np.testing.assert_array_equal(result.lambda_hat[0], np.zeros((3, 3)))


# -- golden bits ---------------------------------------------------------------


def _golden_sdd():
    return gen_sdd_instance(60, 3, 0.7, 0.6, seed=5)


def _golden_one():
    inst = _golden_sdd()
    return recover_all(inst.graph, inst.sigma)


def _golden_stack():
    inst = _golden_sdd()
    draws = [sample_perturbation(inst.sigma, PerturbationSpec(1e-3, 2, seed, strict=False))
             for seed in range(3)]
    return recover_all(inst.graph, np.stack(draws))


def _golden_reduced_instance():
    g = gen_random_bowfree_graph(RandomGraphConfig(8, 0.5, seed=3))
    lam = gen_lambda_range(g, SDDNoiseConfig(0.6, 4))
    omega = gen_omega_sdd(g, SDDNoiseConfig(0.6, 5))
    return g, forward_map(g, ParamSet(lam, omega))


def _golden_reduced():
    red = reduce_instance(*_golden_reduced_instance())
    return recover_all(red.g_prime, red.sigma_prime)


def _golden_full_params():
    inst = _golden_sdd()
    return recover_full_params(inst.graph, inst.sigma)


def _golden_digest(out):
    if isinstance(out, ParamSet):
        arrays = [out.lam, out.omega]
    else:
        arrays = [out.lambda_hat]
        for _, diag in sorted(out.per_vertex.items()):
            arrays += [np.asarray(diag.residual, dtype=float), np.asarray(diag.condition, dtype=float)]
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


# sha256 of lambda_hat and of every vertex's residual and condition (of lam
# and omega for full parameters), recorded before the recovery options and
# the explicit-row path were removed: the single assembly path moves no bit.
GOLDEN_CASES = {
    "sdd": _golden_one,
    "stack-of-3": _golden_stack,
    "reduced": _golden_reduced,
    "full-params": _golden_full_params,
}
GOLDEN_DIGESTS = {
    "sdd": "3b6f093293413feab065cbc1c02d31328703b05684c2974abbd62ef63ec6e38e",
    "stack-of-3": "cde500dec735a9e802237e33c6696b32195569c8afe65dda0b80b4bf820de56a",
    "reduced": "ab4bb8e5de193aa436c2b72367db267b2e799c71d8d22272ab06e69635715984",
    "full-params": "095884ac3a78e6edbb48723f5241950e43845f0bd2b59a4a2224cc06687af1e5",
}


@pytest.mark.parametrize("case", sorted(GOLDEN_CASES))
def test_recovery_keeps_its_bits(case):
    assert _golden_digest(GOLDEN_CASES[case]()) == GOLDEN_DIGESTS[case]


@pytest.mark.parametrize("e", [-900, -540, 520, 600, 900])
@pytest.mark.parametrize("kind", ["generative", "sdd"])
def test_recovery_and_profile_survive_a_covariance_scaled_by_a_power_of_two(kind, e):
    # Before the residual and the row norms were scaled, 2**600 overflowed
    # the residual (NearSingularError) and 2**520 the norms (alpha inf).
    if kind == "generative":
        inst = gen_generative_instance(n=12, k=2, p=0.7, seed=41)
    else:
        inst = gen_sdd_instance(n=12, k=2, p=0.6, weight_range=1.0, seed=4)
    g, sigma = inst.graph, inst.sigma
    base, scaled = recover_all(g, sigma), recover_all(g, sigma * 2.0**e)
    stacked = recover_all(g, np.stack([sigma, sigma * 2.0**e]))
    assert scaled.weights.tobytes() == base.weights.tobytes()
    assert stacked.weights.tobytes() == np.stack([base.weights] * 2).tobytes()
    for v, diag in base.per_vertex.items():
        assert scaled.per_vertex[v].residual == diag.residual * 2.0**e
        assert stacked.per_vertex[v].residual.tolist() == [diag.residual, diag.residual * 2.0**e]
        # LAPACK's SVD rescales a matrix outside its safe range by a factor
        # that is not a power of two, which moves the last few bits.
        assert scaled.per_vertex[v].condition == pytest.approx(diag.condition, rel=8 * np.finfo(float).eps)
    want = robustness.check_assumptions(g, sigma, base.weights).alpha
    got = robustness.check_assumptions(g, sigma * 2.0**e, base.weights).alpha
    assert got == pytest.approx(want, rel=4 * np.finfo(float).eps)


def test_a_stack_rescales_its_residuals_only_when_one_is_out_of_range(monkeypatch):
    inst = gen_generative_instance(n=12, k=2, p=0.7, seed=41)
    g, sigma = inst.graph, inst.sigma
    calls = []

    def counting(x):
        calls.append(x.shape)
        return recovery_pow2_rows(x)

    recovery_pow2_rows = recovery.pow2_rows
    monkeypatch.setattr(recovery, "pow2_rows", counting)
    alone = [recover_all(g, s) for s in (sigma, sigma * 2.0**600)]
    calls.clear()
    plain = recover_all(g, np.stack([sigma, sigma * 0.5]))
    assert calls == []  # every residual in range: none rescaled
    mixed = recover_all(g, np.stack([sigma, sigma * 2.0**600]))
    assert calls and len(calls) <= len(recovery_plan(g).spans)
    for v in recovery_plan(g).spans:
        assert mixed.per_vertex[v].residual.tolist() == [a.per_vertex[v].residual for a in alone]
        assert plain.per_vertex[v].residual[0] == alone[0].per_vertex[v].residual


def test_the_plan_indexes_free_vertices_only():
    red = reduce_instance(gen_random_bowfree_graph(RandomGraphConfig(26, 0.4, seed=1)), np.eye(26))
    g, plan = red.g_prime, recovery_plan(red.g_prime)
    free, layer = np.flatnonzero(np.bincount(g.target[np.isnan(g.forced)], minlength=g.n)), g.layer_decomposition()
    assert g.n == 5635 and list(plan.spans) == sorted(free.tolist(), key=lambda v: (layer[v], v))  # recovery order
    arrays = [a for a in vars(plan).values() if isinstance(a, np.ndarray)]
    assert len(arrays) == 6 and all(len(a) not in (g.n, g.n + 1) for a in arrays)
    # A vertex without free in-edges still gets the empty system, with the covariance's trial axes.
    small = MixedGraph(3, [(0, 1, 0.5), (1, 2)])
    idle = [v for v in range(g.n) if v not in plan.spans][:3]
    for h, sigma, weights, vs, trials in ((g, red.sigma_prime, np.zeros(g.source.size), idle, ()),
                                          (small, np.stack([np.eye(3)] * 2), np.zeros((2, 2)), [0, 1], (2,))):
        for v in vs:
            for got in (build_system(h, sigma, weights, v), recover_first_layers(h, sigma, v)):
                assert (got.vertex, got.y_set, got.parents) == (v, (), ())
                assert got.a_matrix.shape == trials + (0, 0) and got.b_vector.shape == trials + (0,)
    for v in (-1, g.n):
        with pytest.raises(GraphStructureError, match=f"^vertex {v + 1} out of range for n={g.n}$"):
            build_system(g, red.sigma_prime, np.zeros(g.source.size), v)
        with pytest.raises(GraphStructureError, match=f"^vertex {v + 1} out of range for n={g.n}$"):
            recover_first_layers(g, red.sigma_prime, v)


def test_recover_all_gathers_a_reduced_covariance_once(monkeypatch):
    red = reduce_instance(*_golden_reduced_instance())
    calls = []
    getitem = ReducedCovariance.__getitem__

    def counting(self, key):
        calls.append(key)
        return getitem(self, key)

    want = recover_all(red.g_prime, red.sigma_prime)
    monkeypatch.setattr(ReducedCovariance, "__getitem__", counting)
    got = recover_all(red.g_prime, red.sigma_prime)
    assert len(calls) == 1 and calls[0][1].size == recovery_plan(red.g_prime).read_rows.size
    assert got.weights.tobytes() == want.weights.tobytes() and len(got.systems) > 1


@pytest.mark.parametrize("kind", ["one", "stack", "reduced"])
def test_recover_all_assembles_each_free_vertex_once_through_the_module(monkeypatch, kind):
    g, sigma = _kept_systems_case(kind)
    assembled = []

    def counted(name, assemble):
        def wrapper(*args):
            assembled.append((name, args[-1]))
            assert isinstance(args[1], recovery.PlanReads)  # the reads recover_all gathered, not sigma
            return assemble(*args)
        return wrapper

    monkeypatch.setattr(recovery, "build_system", counted("general", build_system))
    monkeypatch.setattr(recovery, "recover_first_layers", counted("closed", recover_first_layers))
    result = recover_all(g, sigma)
    closed = {v: d.used_partial_form for v, d in result.per_vertex.items()}
    assert assembled == [("closed" if closed[v] else "general", v) for v in recovery_plan(g).spans]
    assert any(closed.values()) and not all(closed.values())
