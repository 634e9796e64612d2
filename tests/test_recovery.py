import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bowfree.errors import NearSingularError, OrderingError
from bowfree.generators import (
    RandomGraphConfig,
    SDDNoiseConfig,
    gen_generative_instance,
    gen_lambda_range,
    gen_omega_sdd,
    gen_random_bowfree_graph,
)
from bowfree.graphs import MixedGraph
from bowfree.lsem import ParamSet, forward_map, project_omega_pattern
from bowfree import recovery
from bowfree.recovery import (
    RecoveryConfig,
    RecoverySystem,
    build_system,
    recover_all,
    recover_first_layers,
    recover_full_params,
    recover_many,
    recover_vertex,
    recovery_to_dict,
    source_vertex,
)
from bowfree.reduction import reduce_covariance, reduce_instance
from bowfree.robustness import PerturbationSpec, sample_perturbation

from conftest import graph_from_lambda


def _chain3_sigma(w01=0.7, w12=-0.4):
    lam = np.zeros((3, 3))
    lam[0, 1], lam[1, 2] = w01, w12
    g = MixedGraph(3, [(0, 1), (1, 2)], [])
    return g, lam, forward_map(g, ParamSet(lam, np.eye(3))).sigma


def test_build_system_chain_hand_expansion():
    g, lam, sigma = _chain3_sigma()
    partial = np.zeros((3, 3))
    partial[0, 1] = lam[0, 1]
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
    sigma = forward_map(g, ParamSet(lam, np.eye(4))).sigma
    partial = lam.copy()
    partial[:, 3] = 0.0
    system = build_system(g, sigma, partial, 3)
    pa, spa = [1, 2], [0]
    a_oracle = sigma[np.ix_(pa, pa)] - lam[np.ix_(spa, pa)].T @ sigma[np.ix_(spa, pa)]
    b_oracle = sigma[pa, 3] - lam[np.ix_(spa, pa)].T @ sigma[spa, 3]
    np.testing.assert_allclose(system.a_matrix, a_oracle, atol=1e-12)
    np.testing.assert_allclose(system.b_vector, b_oracle, atol=1e-12)


def test_build_system_all_forced_is_empty():
    g = MixedGraph(2, [(0, 1, 0.5)])
    system = build_system(g, np.eye(2), np.array([[0.0, 0.5], [0.0, 0.0]]), 1)
    assert system.parents == ()
    assert system.a_matrix.shape == (0, 0)
    assert recover_vertex(system)[0].size == 0


def test_build_system_shape_guard():
    g = MixedGraph(2, [(0, 1)])
    with pytest.raises(OrderingError):
        build_system(g, np.eye(2), np.zeros((3, 3)), 1)


def test_recover_vertex_scalar():
    system = RecoverySystem(0, (0,), (0,), np.array([[2.0]]), np.array([4.0]), (True,))
    np.testing.assert_allclose(recover_vertex(system)[0], [2.0])


def test_recover_vertex_singular():
    system = RecoverySystem(3, (0,), (0,), np.zeros((1, 1)), np.array([1.0]), (True,))
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
    np.testing.assert_allclose(recover_first_layers(g, sigma, 1)[0], [w], atol=1e-12)


def test_recover_first_layers_no_parents():
    g = MixedGraph(2, [(0, 1)])
    assert recover_first_layers(g, np.eye(2), 0)[0].size == 0


def test_recover_first_layers_identity_block():
    g = MixedGraph(3, [(0, 2), (1, 2)])
    sigma = np.eye(3)
    sigma[0, 2] = sigma[2, 0] = 0.4
    sigma[1, 2] = sigma[2, 1] = -0.2
    np.testing.assert_allclose(recover_first_layers(g, sigma, 2)[0], [0.4, -0.2])


def test_recover_first_layers_requires_no_grandparents(chain3):
    with pytest.raises(OrderingError):
        recover_first_layers(chain3, np.eye(3), 2)


def test_both_forms_agree_when_no_grandparents():
    g = MixedGraph(3, [(0, 2), (1, 2)], [])
    lam = np.zeros((3, 3))
    lam[0, 2], lam[1, 2] = 0.5, -0.7
    sigma = forward_map(g, ParamSet(lam, np.eye(3))).sigma
    direct = recover_first_layers(g, sigma, 2)[0]
    system = build_system(g, sigma, np.zeros((3, 3)), 2)
    np.testing.assert_allclose(recover_vertex(system)[0], direct, atol=1e-12)


def test_recover_all_generative_round_trip():
    inst = gen_generative_instance(n=20, k=2, p=0.7, seed=11)
    result = recover_all(inst.graph, inst.sigma)
    assert np.max(np.abs(result.lambda_hat - inst.params.lam)) <= 1e-8
    for v, diag in result.per_vertex.items():
        assert diag.residual <= 1e-9
        assert diag.condition >= 1.0
        assert diag.used_partial_form == (not inst.graph.spa(v))


def test_recover_all_no_edges():
    g = MixedGraph(4, [], [(0, 1)])
    result = recover_all(g, np.eye(4))
    np.testing.assert_allclose(result.lambda_hat, np.zeros((4, 4)))
    assert result.per_vertex == {}


def test_recover_all_forced_pass_through():
    g = MixedGraph(3, [(0, 1, 0.25), (1, 2)], [])
    lam = np.array([[0.0, 0.25, 0.0], [0.0, 0.0, 0.6], [0.0, 0.0, 0.0]])
    sigma = forward_map(g, ParamSet(lam, np.eye(3)), check=False).sigma
    result = recover_all(g, sigma)
    assert result.lambda_hat[0, 1] == 0.25
    assert result.forced_edges_respected
    np.testing.assert_allclose(result.lambda_hat, lam, atol=1e-10)


def test_source_vertex_follows_forced_chains():
    g = MixedGraph(4, [(0, 1, 1.0), (1, 2, 0.5), (2, 3)])
    assert source_vertex(g, 2) == 0
    assert source_vertex(g, 3) == 3
    assert source_vertex(g, 0) == 0


def test_explicit_y_set_flags_convention_conflicts():
    # parent 1 of vertex 2 is not half-trek reachable FROM 2, so the
    # explicit-row construction uses the raw covariance row there.
    g, lam, sigma = _chain3_sigma()
    partial = np.zeros((3, 3))
    partial[0, 1] = lam[0, 1]
    system = build_system(g, sigma, partial, 2, y_set=(1,))
    assert system.transformed == (False,)
    assert system.convention_conflicts == (1,)
    config = RecoveryConfig(y_sets={2: (1,)})
    result = recover_all(g, sigma, config)
    # the untransformed row is still a valid equation here (no noise edge)
    np.testing.assert_allclose(result.lambda_hat, lam, atol=1e-10)


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
    projected = project_omega_pattern(sigma.sigma, g.bidirected)
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
    layers = g.layer_decomposition().layer_of
    result = recover_all(g, inst.sigma)
    for v in range(g.n):
        for p in g.parents(v):
            assert layers[p] < layers[v]
    assert set(result.per_vertex) == {v for v in range(g.n) if g.parents(v)}


def test_recovery_to_dict_schema():
    g, lam, sigma = _chain3_sigma()
    payload = recovery_to_dict(recover_all(g, sigma))
    assert set(payload) == {"lambda", "diagnostics", "forced_edges_respected"}
    assert set(payload["diagnostics"]) == {"2", "3"}
    assert set(payload["diagnostics"]["2"]) == {"residual", "condition", "partial_form"}


# -- stacks of covariances along a trial axis ------------------------------------


def _per_draw(g, stack, config=None):
    """Reference loop: one recover_all per covariance; (weights, failed vertex)."""
    out = []
    for sigma in stack:
        try:
            out.append((recover_all(g, sigma, config).lambda_hat, -1))
        except NearSingularError as exc:
            out.append((None, exc.vertex))
    return out


def _assert_stack_matches_per_draw(g, stack, config=None):
    result = recover_all(g, stack, config)
    assert result.lambda_hat.shape == stack.shape
    assert result.failed_vertex.shape == stack.shape[:1]
    for t, (want, vertex) in enumerate(_per_draw(g, stack, config)):
        assert result.failed_vertex[t] == vertex
        got = result.lambda_hat[t]
        if want is None:
            assert np.isnan(got).all()
            continue
        scale = max(np.max(np.abs(want)), 1.0)
        assert np.max(np.abs(got - want)) <= 1e-12 * scale
    return result


def _perturbed_stack(sigma, trials, seed, gamma=1e-3):
    draws = [sample_perturbation(sigma, PerturbationSpec(gamma, 2, seed + t, strict=False)).sigma
             for t in range(trials)]
    return np.stack([sigma] + draws)


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(2, 9),
    p=st.floats(0.2, 0.8),
    seed=st.integers(0, 10_000),
    trials=st.integers(1, 4),
    mode=st.sampled_from(["plain", "y_sets", "reduced"]),
)
def test_stack_recovery_matches_per_covariance(n, p, seed, trials, mode):
    g = gen_random_bowfree_graph(RandomGraphConfig(n, p, seed=seed))
    lam = gen_lambda_range(g, SDDNoiseConfig(0.6, seed + 1))
    omega = gen_omega_sdd(g, SDDNoiseConfig(0.6, seed + 2))
    sigma = forward_map(g, ParamSet(lam, omega)).sigma
    stack = _perturbed_stack(sigma, trials, seed)
    config = None
    if mode == "y_sets":
        # Explicit rows at the parents: rows not half-trek reachable from v
        # stay untransformed, so some systems differ from the default.
        config = RecoveryConfig(y_sets={v: g.parents(v) for v in range(n) if g.parents(v)})
    elif mode == "reduced":
        red = reduce_instance(g, sigma)
        stack = np.stack([
            reduce_covariance(s, red.g_prime, red.gadgets, red.r).sigma for s in stack
        ])
        g = red.g_prime
    _assert_stack_matches_per_draw(g, stack, config)


def test_stack_with_a_singular_trial_fails_only_that_trial():
    inst = gen_generative_instance(n=12, k=2, p=0.7, seed=11)
    g = inst.graph
    stack = _perturbed_stack(inst.sigma.sigma, 3, seed=5, gamma=1e-6)
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
    stack = _perturbed_stack(inst.sigma.sigma, 2, seed=1, gamma=1e-6)
    batched = recover_all(inst.graph, stack)
    for v, diag in batched.per_vertex.items():
        assert diag.condition.shape == (3,) and diag.residual.shape == (3,)
        single = recover_all(inst.graph, stack[1]).per_vertex[v]
        assert diag.condition[1] == pytest.approx(single.condition, rel=1e-12)
        assert diag.used_partial_form == single.used_partial_form
    assert batched.forced_edges_respected


def test_recover_vertex_masks_singular_trials_of_a_stack():
    a = np.array([[[2.0]], [[0.0]]])
    system = RecoverySystem(3, (0,), (0,), a, np.array([[4.0], [1.0]]), (True,))
    weights, residual, condition = recover_vertex(system)
    assert weights[0, 0] == 2.0 and np.isnan(weights[1, 0])
    assert residual[0] == 0.0 and condition[0] == 1.0 and np.isinf(condition[1])


def test_recover_many_splits_into_bounded_stacks(monkeypatch):
    inst = gen_generative_instance(n=12, k=2, p=0.7, seed=11)
    g = inst.graph
    stack = _perturbed_stack(inst.sigma.sigma, 4, seed=5, gamma=1e-6)
    stack[3] = np.ones_like(stack[3])  # every system of trial 3 is singular
    whole = list(recover_many(g, stack))
    calls = []

    def counting(g, sigma, config=None):
        calls.append(len(sigma))
        return recover_all(g, sigma, config)

    monkeypatch.setattr(recovery, "recover_all", counting)
    monkeypatch.setattr(recovery, "STACK_BYTES", 2 * 16 * g.n**2)
    split = list(recover_many(g, iter(stack)))
    assert calls == [2, 2, 1]
    assert [int(f) for _, _, f in split] == [int(f) for _, _, f in whole]
    assert split[3][2] >= 0
    for (sig_a, lam_a, _), (sig_b, lam_b, _), sigma in zip(whole, split, stack):
        np.testing.assert_array_equal(sig_a, sigma)
        np.testing.assert_array_equal(sig_b, sigma)
        np.testing.assert_allclose(lam_b, lam_a, rtol=1e-12, atol=1e-14)
