import hashlib
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bowfree.errors import BowViolationError, ConfigError, NearSingularError, OrderingError, PremiseError
from bowfree.generators import (
    RandomGraphConfig,
    SDDNoiseConfig,
    derived_seed,
    gen_generative_instance,
    gen_lambda_range,
    gen_omega_sdd,
    gen_random_bowfree_graph,
    gen_sdd_instance,
)
from bowfree.experiments import _ratio_record
from bowfree.graphs import MixedGraph
from bowfree.linalg import snorm
from bowfree.lsem import ParamSet, ReducedCovariance, forward_map
from bowfree import recovery, robustness
from bowfree.recovery import recover_all, recovery_plan
from bowfree.reduction import reduce_instance, verify_reduction
from bowfree.robustness import (
    AssumptionProfile,
    VertexAssumptions,
    PerturbationSpec,
    check_assumptions,
    condition_bound,
    estimate_condition_number,
    eta_bound,
    perturbation_ratios,
    relative_distance,
    sample_perturbation,
    stability_premise,
)

from helpers import (
    per_vertex_error_check,
    reference_condition_estimate,
    reference_relative_distance,
    reference_sample_perturbation,
    spa,
)


def test_relative_distance_examples():
    a = np.array([[2.0]])
    assert relative_distance(a, a) == 0.0
    assert relative_distance(a, np.array([[1.0]])) == pytest.approx(0.5)
    ref = np.eye(2)
    other = np.array([[1.0, 9.0], [0.0, 1.0]])
    assert relative_distance(ref, other) == 0.0  # zero entries skipped


def test_relative_distance_is_asymmetric():
    a = np.array([[1.0, 0.0], [0.0, 1.0]])
    b = np.array([[2.0, 0.0], [0.0, 2.0]])
    assert relative_distance(a, b) == pytest.approx(1.0)
    assert relative_distance(b, a) == pytest.approx(0.5)


def test_relative_distance_zero_reference():
    with pytest.raises(ConfigError):
        relative_distance(np.zeros((2, 2)), np.ones((2, 2)))


def test_sample_perturbation_entrywise_bound():
    rng = np.random.default_rng(0)
    sigma = rng.standard_normal((5, 5))
    sigma = sigma @ sigma.T + 5 * np.eye(5)
    gamma, k = 1e-4, 2
    cap = gamma / math.sqrt(k)
    for seed in range(10_000):
        spec = PerturbationSpec(gamma, k, seed, strict=False)
        eps = sample_perturbation(sigma, spec) - sigma
        assert np.all(np.abs(eps) <= cap * np.abs(sigma) + 1e-18)
        assert np.allclose(eps, eps.T)


def test_sample_perturbation_tight_entry():
    sigma = np.array([[4.0, 1.0], [1.0, 2.0]])
    spec = PerturbationSpec(1e-3, 1, 7, enforce_tight=True, strict=False)
    eps = sample_perturbation(sigma, spec) - sigma
    assert eps[0, 0] == pytest.approx(1e-3 * 4.0)
    assert relative_distance(sigma, sigma + eps) == pytest.approx(1e-3)


def test_sample_perturbation_gamma_limits():
    sigma = np.eye(3)
    with pytest.raises(ConfigError):
        sample_perturbation(sigma, PerturbationSpec(0.0, 2, 0))
    with pytest.raises(ConfigError):
        sample_perturbation(sigma, PerturbationSpec(0.5, 2, 0, strict=True))
    # permitted when the strict regime flag is dropped
    sample_perturbation(sigma, PerturbationSpec(0.5, 2, 0, strict=False))


def test_sample_perturbation_vanishes_with_gamma():
    sigma = np.eye(3) * 2
    out = sample_perturbation(sigma, PerturbationSpec(1e-15, 1, 3, strict=False))
    np.testing.assert_allclose(out, sigma, atol=1e-14)


def test_sample_perturbation_block_norm_bounds():
    # per-vertex norm bounds implied by the entrywise constraint
    inst = gen_generative_instance(n=12, k=2, p=0.7, seed=21)
    g, sigma = inst.graph, inst.sigma
    gamma, k = 1e-6, 2
    profile = check_assumptions(g, sigma, inst.params.lam[g.source, g.target])
    alpha = profile.alpha
    for seed in range(50):
        eps = sample_perturbation(sigma, PerturbationSpec(gamma, k, seed)) - sigma
        for v in range(g.n):
            pa = list(g.parents(v))
            if not pa:
                continue
            spa_v = list(spa(g, v))
            pp = snorm(sigma[np.ix_(pa, pa)])
            assert snorm(eps[np.ix_(pa, pa)]) <= gamma * pp + 1e-15
            assert np.linalg.norm(eps[pa, v]) <= gamma * alpha * pp + 1e-15
            if spa_v:
                assert snorm(eps[np.ix_(spa_v, pa)]) <= gamma * alpha * pp + 1e-15
                assert np.linalg.norm(eps[spa_v, v]) <= gamma * alpha * pp + 1e-15


def test_perturbation_preserves_definiteness_for_small_gamma():
    inst = gen_generative_instance(n=12, k=2, p=0.6, seed=5)
    out = sample_perturbation(inst.sigma, PerturbationSpec(1e-5, 2, 1))
    assert np.linalg.eigvalsh(out)[0] > 0


def test_sample_perturbation_keeps_its_bits():
    # sha256 of the draws, recorded before the mirror of the upper triangle
    # became one np.where; the second covariance has signed zeros.
    inst = gen_sdd_instance(n=9, k=2, p=0.6, weight_range=1.0, seed=4)
    signed = inst.sigma.copy()
    signed[0, 5] = signed[5, 0] = signed[2, 7] = signed[7, 2] = -0.0
    signed[1, 8] = signed[8, 1] = 0.0
    signed[3, 3] = -0.0
    digest = hashlib.sha256()
    for sigma in (inst.sigma, signed):
        for tight in (False, True):
            for seed in range(6):
                spec = PerturbationSpec(1e-3, 2, seed, enforce_tight=tight, strict=False)
                digest.update(sample_perturbation(sigma, spec).tobytes())
    assert digest.hexdigest() == "5024975d13b24fe319911e1f2d7dfbf9157674d8f8f10b3ef7beec15d065da8b"


def _per_vertex_profile(g, sig, lam, gamma=None):
    """check_assumptions as one SVD and norm per vertex: the reference the
    grouped computation must match bitwise."""
    kappa_cap = (0.5 / gamma) if gamma else float("inf")
    n2_floor = 1.0 / g.n**2 if g.n else 0.0
    per_vertex = {}
    alpha = 0.0
    beta = 0.0
    kappa0 = 1.0
    lambda_floor = float(np.fmin.reduce(np.abs(lam[g.source, g.target]), initial=np.inf))
    for v in range(g.n):
        pa = list(g.parents(v))
        if not pa:
            continue
        spa_v = list(spa(g, v))
        svals = np.linalg.svd(sig[np.ix_(pa, pa)], compute_uv=False)
        denom = float(svals[0])
        singular = svals[-1] <= 1e-12 * svals[0]
        kappa = float("inf") if singular else float(svals[0] / svals[-1])
        if denom > 0:
            r1 = float(np.linalg.norm(sig[pa, v])) / denom
            r2 = snorm(sig[np.ix_(spa_v, pa)]) / denom if spa_v else 0.0
            r3 = float(np.linalg.norm(sig[spa_v, v])) / denom if spa_v else 0.0
        else:
            r1 = r2 = r3 = float("inf")
        beta_v = snorm(lam[np.ix_(spa_v, pa)]) if spa_v else 0.0
        floor_v = min(float(abs(lam[p, v])) for p in pa)
        pass_a1 = math.isfinite(kappa) and kappa <= kappa_cap
        pass_a2 = max(r1, r2, r3) < 1.0
        pass_a3 = beta_v < 1.0 and floor_v > n2_floor
        per_vertex[v] = VertexAssumptions(kappa, (r1, r2, r3), beta_v, pass_a1, pass_a2, pass_a3)
        alpha = max(alpha, r1, r2, r3)
        beta = max(beta, beta_v)
        kappa0 = max(kappa0, kappa) if math.isfinite(kappa) else float("inf")
    return AssumptionProfile(alpha, beta, kappa0, lambda_floor, g.max_degree(), per_vertex)


def _outcome(profile):
    try:
        got = profile()
    except np.linalg.LinAlgError as exc:  # a NaN weight in a grandparent block
        return str(exc)
    # repr() prints every float exactly, tells -0.0 from 0.0 and keeps the
    # vertex order.
    return repr(got), got.all_pass


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(1, 14),
    p=st.floats(0.0, 1.0),
    seed=st.integers(0, 10_000),
    sigma_kind=st.sampled_from(["exact", "low-rank", "zero-rows"]),
    weights=st.sampled_from(["drawn", "zeros", "nan"]),
    gamma=st.sampled_from([None, 1e-3, 0.05, 0.5]),
)
def test_grouped_profile_matches_the_per_vertex_loop(n, p, seed, sigma_kind, weights, gamma):
    g = gen_random_bowfree_graph(RandomGraphConfig(n, p, seed=seed))
    rng = np.random.default_rng(seed)
    lam = gen_lambda_range(g, SDDNoiseConfig(0.6, seed + 1))
    sigma = forward_map(g, ParamSet(lam, gen_omega_sdd(g, SDDNoiseConfig(0.6, seed + 2))))
    if sigma_kind == "low-rank":  # parent blocks of more than two vertices are (near) singular
        x = rng.standard_normal((n, 2))
        sigma = x @ x.T + 10.0 ** rng.uniform(-16, -10) * np.eye(n)
    elif sigma_kind == "zero-rows":  # a parent block may vanish entirely
        rows = rng.random(n) < 0.5
        sigma[rows, :] = sigma[:, rows] = 0.0
    if weights != "drawn" and g.source.size:
        hit = rng.random(g.source.size) < 0.3
        lam[g.source[hit], g.target[hit]] = 0.0 if weights == "zeros" else np.nan
    want = _outcome(lambda: _per_vertex_profile(g, sigma, lam, gamma))
    assert _outcome(lambda: check_assumptions(g, sigma, lam[g.source, g.target], gamma)) == want


def test_check_assumptions_trivial_instance():
    g = MixedGraph(3, [], [(0, 1)])
    profile = check_assumptions(g, np.eye(3), np.zeros(0))
    assert profile.alpha == 0.0
    assert profile.kappa0 == 1.0
    assert profile.per_vertex == {}
    assert profile.lambda_floor == math.inf


def test_check_assumptions_takes_edge_order_weights():
    inst = gen_generative_instance(n=12, k=2, p=0.7, seed=9)
    with pytest.raises(ConfigError, match="edge weights expected, got shape \\(12, 12\\)"):
        check_assumptions(inst.graph, inst.sigma, inst.params.lam)


def test_check_assumptions_scale_invariant():
    inst = gen_generative_instance(n=12, k=2, p=0.7, seed=9)
    weights = inst.params.lam[inst.graph.source, inst.graph.target]
    base = check_assumptions(inst.graph, inst.sigma, weights)
    scaled = check_assumptions(inst.graph, 7.3 * inst.sigma, weights)
    assert base.alpha == pytest.approx(scaled.alpha, rel=1e-10)
    assert base.kappa0 == pytest.approx(scaled.kappa0, rel=1e-10)


def test_the_profile_rescales_its_row_norms_only_when_one_is_out_of_range(monkeypatch):
    inst = gen_generative_instance(n=12, k=2, p=0.7, seed=41)
    g, sigma = inst.graph, inst.sigma
    weights = recover_all(g, sigma).weights
    want = [repr(check_assumptions(g, s, weights)) for s in (sigma, sigma * 2.0**600)]
    calls = []

    def counting(x):
        calls.append(x.shape)
        return robustness_pow2_rows(x)

    robustness_pow2_rows = robustness.pow2_rows
    monkeypatch.setattr(robustness, "pow2_rows", counting)
    assert repr(check_assumptions(g, sigma, weights)) == want[0]
    assert calls == []  # every norm in range: none rescaled
    assert repr(check_assumptions(g, sigma * 2.0**600, weights)) == want[1]
    assert calls and "inf" not in want[1]


def test_check_assumptions_flags_singular_block():
    g = MixedGraph(3, [(0, 2), (1, 2)], [])
    sigma = np.ones((3, 3))  # parent block singular
    profile = check_assumptions(g, sigma, np.zeros(2))
    assert not profile.per_vertex[2].pass_a1
    assert not math.isfinite(profile.kappa0)


_NON_FINITE_ENTRY_POINTS = {
    "recover_all": lambda g, sigma: recover_all(g, sigma),
    "recover_all-stack": lambda g, sigma: recover_all(g, np.stack([2.0 * np.eye(3), sigma])),
    "recover_all-reduced": lambda g, sigma: recover_all(g, ReducedCovariance(sigma, np.arange(3), np.ones(3))),
    "check_assumptions": lambda g, sigma: check_assumptions(g, sigma, np.zeros(g.source.size)),
    "estimate_condition_number": lambda g, sigma: estimate_condition_number(g, sigma, 2, [1e-9], 0, strict=False),
    "reduce_instance": lambda g, sigma: reduce_instance(g, sigma),
    # the engine gathers the base and each draw into its read stack itself
    "perturbation_ratios": lambda g, sigma: perturbation_ratios(g, sigma, 1, lambda out, lo: np.copyto(out, 2.0)),
    "perturbation_ratios-draw": lambda g, sigma: perturbation_ratios(g, 2.0 * np.eye(3), 1,
                                                                     lambda out, lo: np.copyto(out, sigma)),
    # the original covariance is finite; the NaN is in sigma' only
    "verify_reduction": lambda g, sigma: verify_reduction(g, 2.0 * np.eye(3), replace(
        reduce_instance(g, 2.0 * np.eye(3)), sigma_prime=ReducedCovariance(sigma, np.arange(3), np.ones(3)))),
}


def test_perturbation_ratios_checks_the_covariance_before_compiling_the_plan(monkeypatch):
    # The plan and the scratch are sized by n and sigma: at n = 10**8 the plan took gigabytes.
    def no_plan(g):
        raise AssertionError("the plan was compiled before the covariance check")

    monkeypatch.setattr(robustness, "recovery_plan", no_plan)
    with pytest.raises(OrderingError, match="covariance shape \\(6, 6\\) does not match n=100000000"):
        perturbation_ratios(MixedGraph(10**8, [(0, 1)], [(0, 2)]), np.eye(6), 2, lambda out, lo: None)


@pytest.mark.parametrize("bad", range(5))
def test_perturbation_ratios_names_the_draw_that_is_not_finite(monkeypatch, bad):
    # Scratch and read stack of two slots: the draws come in chunks of 1, 2 and 2.
    g, sigma = MixedGraph(3, [(0, 1), (1, 2)]), 2.0 * np.eye(3)
    monkeypatch.setattr(robustness, "STACK_BYTES", 2 * sigma.nbytes)
    starts = []

    def fill(out, lo):
        starts.append(lo)
        out[...] = sigma
        if lo <= bad < lo + len(out):
            out[bad - lo, 1, 1] = np.inf

    with pytest.raises(ConfigError, match=f"^perturbed covariance of draw {bad + 1} has non-finite entries$"):
        perturbation_ratios(g, sigma, 5, fill)
    assert starts == [0, 1, 3][: 1 + (bad >= 1) + (bad >= 3)]


@pytest.mark.parametrize("entry", sorted(_NON_FINITE_ENTRY_POINTS))
@pytest.mark.parametrize("entry_ij", [(1, 2), (1, 1)], ids=["rhs", "system"])
def test_non_finite_covariance_is_rejected_in_one_line(entry, entry_ij):
    # (1, 2) reached only vertex 2's right-hand side and gave a NaN weight or
    # a silent profile; (1, 1) made LAPACK's SVD fail.
    g = MixedGraph(3, [(0, 1), (1, 2)])
    sigma = 2.0 * np.eye(3)
    sigma[entry_ij] = sigma[entry_ij[::-1]] = np.nan
    what = "perturbed covariance of draw 1" if entry == "perturbation_ratios-draw" else "covariance"  # not the input
    with pytest.raises(ConfigError, match=f"^{what} has non-finite entries$"):
        _NON_FINITE_ENTRY_POINTS[entry](g, sigma)


@pytest.mark.parametrize("entry", ["recover_all", "check_assumptions", "estimate_condition_number", "reduce_instance"])
@pytest.mark.parametrize("shape", [(2, 2), (4, 4), "stack"], ids=["smaller", "larger", "stack"])
def test_covariance_of_another_shape_is_rejected_in_one_line(entry, shape):
    # check_assumptions ended in an IndexError or a ValueError, or read a larger
    # covariance's leading block; estimate_condition_number named its trial stack.
    g = MixedGraph(3, [(0, 1), (1, 2)])
    if shape == "stack":  # one too many axes: recover_all and reduce_instance take a (T, n, n) stack
        shape = (2, 2, 3, 3) if entry in ("recover_all", "reduce_instance") else (2, 3, 3)
    sigma = np.broadcast_to(2.0 * np.eye(shape[-1]), shape)
    with pytest.raises(OrderingError, match="^" + re.escape(f"covariance shape {shape} does not match n=3") + "$"):
        _NON_FINITE_ENTRY_POINTS[entry](g, sigma)


def _profile(alpha, beta, kappa0, floor=0.1, k=2):
    return AssumptionProfile(alpha, beta, kappa0, floor, k)


def test_premise_trivial_and_failing_cases():
    ok = stability_premise(_profile(0.0, 0.5, 2.0))
    assert ok.holds and ok.growth == 0.0
    bad = stability_premise(_profile(1.0, 1.0, 1.0))
    assert not bad.holds


def test_premise_generative_constants():
    mu = 30.0
    kappa0 = ((1 + mu) / mu) ** 4 + (mu + 1) ** 2 / (5 * mu**2 * (mu - 1))
    assert kappa0 == pytest.approx(1.1475, abs=5e-4)
    check = stability_premise(_profile(1 / mu, 1 / mu, kappa0, k=2))
    assert check.holds


def test_eta_zero_when_alpha_zero():
    constants = eta_bound(_profile(0.0, 0.3, 1.5), n=20, k=2, gamma=1e-9)
    assert constants.eta == 0.0
    assert condition_bound(constants, _profile(0.0, 0.3, 1.5, floor=1e-3), 20, 2) == 0.0


def _eta_bisection_oracle(alpha, beta, kappa0, n, k, gamma):
    s = 1.0 - alpha * beta * kappa0
    d_lin = 1.0 - k * alpha * kappa0 / s - k * alpha * kappa0**2 * (1 + beta) / s**2

    def gap(eta):
        tau = k * eta / n**2
        numer = (
            alpha * kappa0**2 * (1 + beta) * (1 + beta + tau) / s**2
            + kappa0 * alpha * (1 + beta + tau) / s
        )
        c_quad = 4 * alpha * (1 + beta) * kappa0**3 * (k * eta + 1 + beta + tau) ** 2 / s**3
        return eta * d_lin - numer - c_quad * gamma

    lo, hi = 0.0, 1.0
    while gap(hi) < 0:
        hi *= 2
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if gap(mid) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_eta_fixed_point_matches_bisection():
    alpha = beta = 0.05
    kappa0, k, n, gamma = 1.2, 2, 20, 1e-9
    constants = eta_bound(_profile(alpha, beta, kappa0, k=k), n=n, k=k, gamma=gamma)
    oracle = _eta_bisection_oracle(alpha, beta, kappa0, n, k, gamma)
    assert constants.eta == pytest.approx(oracle, abs=1e-10)
    assert constants.tau == pytest.approx(k * constants.eta / n**2, rel=1e-12)


def test_eta_premise_error():
    with pytest.raises(PremiseError):
        eta_bound(_profile(0.9, 0.9, 5.0), n=10, k=3, gamma=1e-9)


def test_condition_bound_arithmetic():
    constants = eta_bound(_profile(0.05, 0.05, 1.2), n=10, k=4, gamma=1e-9)
    fake = constants.__class__(1.0, constants.tau, constants.c_quad)
    profile = _profile(0.05, 0.05, 1.2, floor=0.005, k=4)  # floor below 1/n^2
    assert condition_bound(fake, profile, 10, 4) == pytest.approx(200.0)
    tighter = _profile(0.05, 0.05, 1.2, floor=0.5, k=4)
    assert condition_bound(fake, tighter, 10, 4) == pytest.approx(math.sqrt(4) / 0.5)


def test_condition_estimate_monotone_in_trials():
    inst = gen_generative_instance(n=12, k=2, p=0.6, seed=31)
    small = estimate_condition_number(inst.graph, inst.sigma, 3, [1e-8], seed=5)
    large = estimate_condition_number(inst.graph, inst.sigma, 9, [1e-8], seed=5)
    assert small.kappa_hat <= large.kappa_hat
    assert [r.ratio for r in small.records] == [r.ratio for r in large.records[:3]]


def test_condition_estimate_matches_directional_derivative():
    w = 0.6
    g = MixedGraph(2, [(0, 1)])
    lam = np.array([[0.0, w], [0.0, 0.0]])
    sigma = forward_map(g, ParamSet(lam, np.eye(2)))
    est = estimate_condition_number(g, sigma, 1, [1e-9], seed=0, enforce_tight=True)
    record = est.records[0]
    eps = sample_perturbation(sigma, PerturbationSpec(1e-9, 1, record_seed(0))) - sigma

    def recovered(s):
        return recover_all(g, s).lambda_hat[0, 1]

    t = 1.0
    central = (recovered(sigma + t * eps) - recovered(sigma - t * eps)) / 2
    predicted = abs(central) / abs(w) / record.rel_sigma
    assert record.ratio == pytest.approx(predicted, rel=1e-4)


def record_seed(trial, seed=0, gamma_index=0):
    return int(np.random.SeedSequence([seed, gamma_index, trial]).generate_state(1)[0])


def test_condition_estimate_records_the_vertex_of_failed_draws(monkeypatch):
    inst = gen_generative_instance(n=12, k=2, p=0.7, seed=41)
    g, sigma = inst.graph, inst.sigma
    base = recover_all(g, sigma)
    worst = max(base.per_vertex, key=lambda v: base.per_vertex[v].condition)
    # A tolerance just inside the base's worst system: draws that raise that
    # system's condition number fail, the others recover.
    monkeypatch.setattr(recovery, "SING_TOL", (1 - 1e-9) / base.per_vertex[worst].condition)
    est = estimate_condition_number(g, sigma, 12, [1e-4], seed=3, strict=False)
    assert 0 < est.failures < 12
    np.testing.assert_allclose(est.base_weights, base.weights, rtol=0, atol=1e-12)
    assert "base_weights" not in est.to_dict()
    k = max(g.max_degree(), 1)
    for rec in est.records:
        draw = sample_perturbation(sigma, PerturbationSpec(1e-4, k, record_seed(rec.trial, seed=3), strict=False))
        try:
            recover_all(g, draw)
            vertex = None
        except NearSingularError as exc:
            vertex = exc.vertex
        assert rec.failed == (vertex is not None)
        assert rec.vertex == vertex
    assert {rec.vertex for rec in est.records if rec.failed} == {worst}


def test_condition_estimate_raises_when_the_base_is_singular():
    g = MixedGraph(3, [(0, 2), (1, 2)])
    with pytest.raises(NearSingularError) as err:
        estimate_condition_number(g, np.ones((3, 3)), 2, [1e-3], seed=0, strict=False)
    assert err.value.vertex == 2
    assert "sigma_min=" in str(err.value) and "sigma_max=" in str(err.value)


def test_a_bow_is_reported_before_a_cycle_as_recover_all_does():
    g = MixedGraph(3, [(0, 1), (1, 0), (1, 2)], [(0, 1)])
    for run in (recover_all, lambda g, sigma: estimate_condition_number(g, sigma, 2, [1e-3], seed=0, strict=False)):
        with pytest.raises(BowViolationError):
            run(g, np.eye(3))


def test_an_all_zero_base_gives_no_ratio():
    # sigma = I recovers every weight as 0, so no draw has a Rel(lam, lam~).
    g, sigma = MixedGraph(3, [(0, 2), (1, 2)]), np.eye(3)
    est = estimate_condition_number(g, sigma, 2, [1e-3], seed=0, strict=False)
    assert (est.kappa_hat, est.failures, len(est.records)) == (0.0, 0, 2) and not est.base_weights.any()
    for rec in est.records:
        assert rec.ratio is None and rec.rel_lambda is None and rec.rel_sigma > 0 and not rec.failed
    specs = [PerturbationSpec(1e-3, 2, derived_seed(0, 0, t), strict=False) for t in range(2)]
    record = _ratio_record(g, sigma, 2, lambda out, lo: sample_perturbation(sigma, specs[lo : lo + len(out)], out=out))
    assert record == {"ratios": [], "recovery_failed": False, "run_failures": 0}


def test_singular_base_is_reported_before_a_strict_gamma_error():
    g = MixedGraph(3, [(0, 2), (1, 2)])
    # gamma=0.5 breaks the strict bound n^-4 on its first draw.
    with pytest.raises(ConfigError):
        estimate_condition_number(g, np.eye(3), 2, [1e-3, 0.5], seed=0)
    with pytest.raises(NearSingularError) as err:
        estimate_condition_number(g, np.ones((3, 3)), 2, [1e-3, 0.5], seed=0)
    assert err.value.vertex == 2


def _padded(g, sigma, variance):
    """g and sigma with one more vertex, isolated, of the given variance."""
    sigma = np.pad(sigma, (0, 1))
    sigma[-1, -1] = variance
    return MixedGraph.from_arrays(g.n + 1, g.source, g.target, g.forced, g.pairs), sigma


def _condition_outcome(estimate):
    try:
        est = estimate()
    except (ConfigError, NearSingularError) as exc:
        return f"{type(exc).__name__}: {exc}"
    # repr() prints every float exactly and tells -0.0 from 0.0; it leaves base_weights out.
    return repr(est), est.base_weights.tobytes()


@pytest.mark.parametrize(
    "case",
    ["plain", "signed-zeros", "asymmetric", "variance-1e307", "variance-6e307", "variance-1e308", "tight",
     "failing", "three-chunks", "failing-three-chunks"],
)
def test_in_place_condition_estimate_has_the_bits_of_the_per_draw_loop(case, monkeypatch):
    inst = gen_generative_instance(n=12, k=2, p=0.7, seed=41)
    g, sigma = inst.graph, inst.sigma.copy()
    kwargs = dict(trials=4, gammas=[1e-3, 1e-4], seed=5, strict=False)
    if case == "signed-zeros":
        sigma[0, 5] = sigma[5, 0] = sigma[4, 9] = sigma[9, 4] = -0.0
        sigma[2, 7], sigma[7, 2] = 0.0, -0.0
    elif case == "asymmetric":  # within 1e-10, so the mirror average is not the identity
        sigma[1, 3] *= 1 + 1e-11
    elif case.startswith("variance-"):  # x + x overflows in the mirror average of 1e308 only
        g, sigma = _padded(g, sigma, float(case.split("-")[1]))
    elif case == "tight":
        kwargs["enforce_tight"] = True
    if "failing" in case:  # as in test_condition_estimate_records_the_vertex_of_failed_draws
        base = recover_all(g, sigma)
        worst = max(base.per_vertex, key=lambda v: base.per_vertex[v].condition)
        monkeypatch.setattr(recovery, "SING_TOL", (1 - 1e-9) / base.per_vertex[worst].condition)
    if "three-chunks" in case:  # 3 read-stack slots of 8 (K + |E|) bytes, 2 dense draw slots of 8 n^2
        read_slot = 8 * (recovery_plan(g).read_rows.size + g.source.size)
        assert 2 * 8 * g.n**2 < 4 * read_slot
        monkeypatch.setattr(robustness, "STACK_BYTES", max(3 * read_slot, 2 * 8 * g.n**2))
    stacks, fills = [], []

    def counting(g, sigma):
        stacks.append(len(getattr(sigma, "values", sigma)))
        return recover_all(g, sigma)

    def counting_draws(sigma, specs, out):
        fills.append(len(out))
        return sample_perturbation(sigma, specs, out=out)

    with np.errstate(over="ignore"):
        want = _condition_outcome(lambda: reference_condition_estimate(g, sigma, **kwargs))
        with monkeypatch.context() as m:
            m.setattr(robustness, "recover_all", counting)
            m.setattr(robustness, "sample_perturbation", counting_draws)
            got = _condition_outcome(lambda: estimate_condition_number(g, sigma, **kwargs))
    assert got == want
    if case == "variance-1e308":
        assert want == "ConfigError: perturbed covariance of draw 1 has non-finite entries"
        return
    assert stacks == ([3, 3, 3] if "three-chunks" in case else [9])
    assert fills == ([2, 2, 1, 2, 1] if "three-chunks" in case else [8])
    assert ("failed=True" in want[0]) == ("failing" in case)


@pytest.mark.parametrize("tight", [False, True])
@pytest.mark.parametrize("kind", ["plain", "signed-zeros", "asymmetric", "huge"])
def test_stacked_draws_have_the_bits_of_single_draws(kind, tight):
    sigma = gen_sdd_instance(n=9, k=2, p=0.6, weight_range=1.0, seed=4).sigma
    if kind == "signed-zeros":
        sigma[0, 5] = sigma[5, 0] = sigma[3, 3] = -0.0
        sigma[2, 7], sigma[7, 2] = 0.0, -0.0
    elif kind == "asymmetric":
        sigma[1, 3] *= 1 + 1e-11
    elif kind == "huge":  # entries on both sides of the mirror average's overflow guard, and past overflow
        sigma = sigma / np.abs(sigma).max() * 6e307
        sigma[8, 8] = 1.7e308
    specs = [PerturbationSpec(gamma, 2, seed, tight, strict=False) for gamma in (1e-3, 0.5) for seed in range(3)]
    with np.errstate(over="ignore"):
        want = np.stack([reference_sample_perturbation(sigma, spec) for spec in specs])
        out = np.empty_like(want)
        assert sample_perturbation(sigma, specs, out=out) is out
        assert out.tobytes() == want.tobytes()
        assert sample_perturbation(sigma, specs[1]).tobytes() == want[1].tobytes()


def test_relative_distance_of_a_stack_is_the_per_member_value():
    sigma = gen_sdd_instance(n=9, k=2, p=0.6, weight_range=1.0, seed=4).sigma
    sigma[0, 5] = sigma[5, 0] = 0.0
    draws = sample_perturbation(sigma, [PerturbationSpec(1e-3, 2, seed, strict=False) for seed in range(4)])
    draws[2, 0, 5], draws[3, 5, 0] = 7.0, np.nan  # skipped: sigma is zero there
    got = relative_distance(sigma, draws.reshape(2, 2, 9, 9))
    assert got.shape == (2, 2)
    assert got.ravel().tolist() == [reference_relative_distance(sigma, d) for d in draws]
    with pytest.raises(ConfigError, match="shape mismatch"):
        relative_distance(sigma, draws[0, :3])


def test_condition_estimate_within_error_rate_bound():
    inst = gen_generative_instance(n=12, k=2, p=0.7, seed=41)
    profile = check_assumptions(inst.graph, inst.sigma, inst.params.lam[inst.graph.source, inst.graph.target])
    assert stability_premise(profile).holds
    constants = eta_bound(profile, 12, 2, 1e-8)
    bound = condition_bound(constants, profile, 12, 2)
    est = estimate_condition_number(
        inst.graph, inst.sigma, 20, [1e-8], seed=2, enforce_tight=True
    )
    assert est.failures == 0
    assert est.kappa_hat <= bound


def test_per_vertex_error_check_small_gamma_passes():
    inst = gen_generative_instance(n=12, k=2, p=0.7, seed=51)
    profile = check_assumptions(inst.graph, inst.sigma, inst.params.lam[inst.graph.source, inst.graph.target])
    constants = eta_bound(profile, 12, 2, 1e-8)
    base = recover_all(inst.graph, inst.sigma).lambda_hat
    for tight in (False, True):
        checks = per_vertex_error_check(
            inst.graph,
            inst.sigma,
            base,
            PerturbationSpec(1e-8, 2, 9, enforce_tight=tight),
            constants,
            trials=10,
        )
        assert checks and all(c.passed for c in checks)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(2, 12), p=st.floats(0.2, 0.8), seed=st.integers(0, 10_000))
def test_relative_distance_of_edge_weights_is_the_dense_value_bitwise(n, p, seed):
    g = gen_random_bowfree_graph(RandomGraphConfig(n, p, seed=seed))
    if not g.source.size:
        return
    lam = gen_lambda_range(g, SDDNoiseConfig(0.6, seed + 1))
    sigma = forward_map(g, ParamSet(lam, gen_omega_sdd(g, SDDNoiseConfig(0.6, seed + 2))))
    draws = [sample_perturbation(sigma, PerturbationSpec(1e-3, 2, seed + t, strict=False)) for t in range(3)]
    result = recover_all(g, np.stack([sigma] + draws))
    for t in range(1, 4):
        dense = relative_distance(result.lambda_hat[0], result.lambda_hat[t])
        assert relative_distance(result.weights[0], result.weights[t]) == dense
    assert relative_distance(lam[g.source, g.target], result.weights[0]) == relative_distance(lam, result.lambda_hat[0])


def test_per_vertex_error_check_matches_a_dense_reference(monkeypatch):
    inst = gen_generative_instance(n=12, k=2, p=0.7, seed=41)
    g, sigma, lam_true = inst.graph, inst.sigma, inst.params.lam
    base = recover_all(g, sigma)
    worst = max(base.per_vertex, key=lambda v: base.per_vertex[v].condition)
    # As in test_condition_estimate_records_the_vertex_of_failed_draws: some draws fail.
    monkeypatch.setattr(recovery, "SING_TOL", (1 - 1e-9) / base.per_vertex[worst].condition)
    spec = PerturbationSpec(1e-4, 2, 3, strict=False)
    constants = eta_bound(check_assumptions(g, sigma, lam_true[g.source, g.target]), 12, 2, 1e-8)
    checks = per_vertex_error_check(g, sigma, lam_true, spec, constants, trials=12)
    draws = [sample_perturbation(sigma, replace(spec, seed=derived_seed(spec.seed, t))) for t in range(12)]
    dense = recover_all(g, np.stack(draws)).lambda_hat
    want = []
    for t in range(12):
        for v in range(g.n):
            pa = list(g.parents(v))
            if pa:
                failed = np.isnan(dense[t]).all()
                want.append(None if failed else float(np.linalg.norm(lam_true[pa, v] - dense[t][pa, v])))
    assert None in want and any(w is not None for w in want)
    assert [c.error for c in checks] == want
