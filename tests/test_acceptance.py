"""End-to-end acceptance checks with pinned tolerances and runtime budgets.

Run with `pytest -s tests/test_acceptance.py` to see one PASS/FAIL line per
criterion.
"""

import math
import time

import numpy as np
import pytest

from bowfree.experiments import ExperimentConfig, report_bytes, run_experiment
from bowfree.generators import d_min, gen_generative_instance, gen_random_bowfree_graph
from bowfree.generators import RandomGraphConfig, SDDNoiseConfig, gen_lambda_range, gen_omega_sdd
from bowfree.lsem import ParamSet, forward_map
from bowfree.recovery import recover_all
from bowfree.reduction import VERIFY_TOL, reduce_instance, verify_reduction
from bowfree.robustness import (
    PerturbationSpec,
    check_assumptions,
    condition_bound,
    estimate_condition_number,
    eta_bound,
    stability_premise,
)

import test_numeric_props as numeric_props
from helpers import per_vertex_error_check


def _report(index, name, ok, detail, elapsed, budget):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {index} {name}: {status} ({detail}) [{elapsed:.1f}s / budget {budget:.0f}s]")


def _round_trip_grid():
    cases = []
    seed = 0
    while len(cases) < 200:
        k = 1 + seed % 3
        n_low = {1: 7, 2: 11, 3: 16}[k]
        n = n_low + (seed // 3) % (31 - n_low)
        cases.append((n, k, 0.4 + 0.1 * (seed % 5), seed))
        seed += 1
    return cases


def test_criterion_1_exact_recovery_round_trip():
    start = time.monotonic()
    worst = 0.0
    for n, k, p, seed in _round_trip_grid():
        inst = gen_generative_instance(n=n, k=k, p=p, seed=seed, d=64)
        result = recover_all(inst.graph, inst.sigma)
        worst = max(worst, float(np.max(np.abs(result.lambda_hat - inst.params.lam))))
    elapsed = time.monotonic() - start
    ok = worst <= 1e-8 and elapsed < 30.0
    _report(1, "exact-recovery round trip", ok, f"200 instances, max error {worst:.2e}", elapsed, 30)
    assert worst <= 1e-8
    assert elapsed < 30.0


@pytest.fixture(scope="module")
def premise_instances():
    instances = []
    seed = 0
    while len(instances) < 20:
        n = 12 + (seed % 9)
        inst = gen_generative_instance(n=n, k=2, p=0.7, seed=1000 + seed)
        profile = check_assumptions(inst.graph, inst.sigma, inst.params.lam[inst.graph.source, inst.graph.target])
        if stability_premise(profile).holds:
            constants = eta_bound(profile, n, 2, 1e-8)
            instances.append((n, inst, profile, constants))
        seed += 1
    return instances


def test_criterion_2_per_vertex_error_bound(premise_instances):
    start = time.monotonic()
    gamma = 1e-8
    worst = 0.0
    checked = 0
    for idx, (n, inst, profile, constants) in enumerate(premise_instances):
        base = recover_all(inst.graph, inst.sigma).lambda_hat
        checks = per_vertex_error_check(
            inst.graph,
            inst.sigma,
            base,
            PerturbationSpec(gamma, 2, 500 + idx, enforce_tight=True),
            constants,
            trials=100,
        )
        assert all(c.passed is not None for c in checks)
        checked += len(checks)
        worst = max(worst, max(c.error / c.bound for c in checks))
    elapsed = time.monotonic() - start
    ok = worst <= 1.0 and elapsed < 120.0
    _report(
        2,
        "per-vertex perturbation error bound",
        ok,
        f"{checked} vertex trials, worst error/bound {worst:.3f}",
        elapsed,
        120,
    )
    assert worst <= 1.0
    assert elapsed < 120.0


def test_criterion_3_condition_ratio_bound(premise_instances):
    start = time.monotonic()
    gamma = 1e-8
    worst = 0.0
    for idx, (n, inst, profile, constants) in enumerate(premise_instances):
        bound = constants.eta * math.sqrt(2) * n**2
        est = estimate_condition_number(
            inst.graph, inst.sigma, trials=100, gammas=[gamma], seed=700 + idx
        )
        assert est.failures == 0
        for record in est.records:
            if record.ratio is not None:
                worst = max(worst, record.ratio / bound)
        tight_bound = condition_bound(constants, profile, n, 2)
        assert est.kappa_hat <= tight_bound or est.kappa_hat <= bound
    elapsed = time.monotonic() - start
    ok = worst <= 1.0 and elapsed < 120.0
    _report(
        3,
        "per-trial condition-ratio bound",
        ok,
        f"2000 trials, worst ratio/bound {worst:.3f}",
        elapsed,
        120,
    )
    assert worst <= 1.0
    assert elapsed < 120.0


def test_criterion_4_generative_assumption_prevalence():
    start = time.monotonic()
    k, mu, slack = 2, 30.0, 0.05
    kappa0_cap = (((1 + mu) / mu) ** 4 + (mu + 1) ** 2 / (5 * mu**2 * (mu - 1))) * (1 + slack)
    alpha_cap = (1.0 / mu) * (1 + slack)
    beta_cap = 1.0 / mu
    passed = 0
    for i in range(40):
        n = 15 if i % 2 == 0 else 20
        inst = gen_generative_instance(n=n, k=k, p=0.7, seed=9000 + i, mu=mu, d=d_min(k, n))
        profile = check_assumptions(inst.graph, inst.sigma, inst.params.lam[inst.graph.source, inst.graph.target])
        if (
            profile.alpha <= alpha_cap
            and profile.beta <= beta_cap
            and profile.kappa0 <= kappa0_cap
            and profile.lambda_floor > 1.0 / n**2
        ):
            passed += 1
    elapsed = time.monotonic() - start
    ok = passed >= 0.95 * 40 and elapsed < 300.0
    _report(
        4,
        "generative-model assumption prevalence",
        ok,
        f"{passed}/40 instances within caps at d=d_min",
        elapsed,
        300,
    )
    assert passed >= 38  # 95% of 40
    assert elapsed < 300.0


def test_criterion_5_reduction_correctness():
    assert VERIFY_TOL == 1e-8  # the tolerance verify_reduction checks systems and weights to
    start = time.monotonic()
    worst = 0.0
    for seed in range(100):
        n = 6 + seed % 10  # up to 15
        g = gen_random_bowfree_graph(RandomGraphConfig(n, 0.45, seed=seed))
        lam = gen_lambda_range(g, SDDNoiseConfig(0.6, seed + 10_000))
        omega = gen_omega_sdd(g, SDDNoiseConfig(0.6, seed + 20_000))
        sigma = forward_map(g, ParamSet(lam, omega))
        red = reduce_instance(g, sigma)
        assert red.g_prime.bow_violations() == []
        assert red.g_prime.is_k_layered()
        assert red.g_prime.n <= n**6
        report = verify_reduction(g, sigma, red)
        assert report.all_ok, (seed, report)
        worst = max(worst, report.max_weight_error)
    elapsed = time.monotonic() - start
    ok = worst <= 1e-8 and elapsed < 60.0
    _report(
        5,
        "layered reduction preserves recovery",
        ok,
        f"100 instances, worst collector-weight error {worst:.2e}",
        elapsed,
        60,
    )
    assert worst <= 1e-8
    assert elapsed < 60.0


def test_criterion_6_sparse_dense_trend():
    start = time.monotonic()
    cfg = ExperimentConfig(
        mode="simulated",
        seed=0,
        p_grid=(0.2, 0.8),
        k=2,
        n_grid=(20,),
        range_grid=(1.0,),
        graphs=10,
        runs_per_graph=10,
        samples=50,
    )
    report = run_experiment(cfg)
    sparse = report["summary"]["n=20,p=0.2,range=1"]["mean"]
    dense = report["summary"]["n=20,p=0.8,range=1"]["mean"]
    factor = dense / sparse
    elapsed = time.monotonic() - start
    ok = factor >= 5.0 and elapsed < 120.0
    _report(
        6,
        "dense instances are worse conditioned",
        ok,
        f"mean ratio dense/sparse = {factor:.2f}",
        elapsed,
        120,
    )
    assert factor >= 5.0
    assert elapsed < 120.0


def test_criterion_7_numeric_inequality_suite():
    start = time.monotonic()
    checks = [
        numeric_props.test_triangle_inequality,
        numeric_props.test_reverse_triangle_inequality,
        numeric_props.test_submultiplicativity,
        numeric_props.test_transpose_invariance,
        numeric_props.test_entrywise_bounded_by_norm,
        numeric_props.test_inverse_norm_is_reciprocal_smallest_singular_value,
        numeric_props.test_frobenius_vs_spectral,
        numeric_props.test_submatrix_norm_bounded,
        numeric_props.test_gershgorin_containment,
        numeric_props.test_matrix_approximation_inequality,
        numeric_props.test_inverse_perturbation_inequality,
    ]
    for check in checks:
        check()
    elapsed = time.monotonic() - start
    ok = elapsed < 30.0
    _report(
        7,
        "norm and perturbation inequality suite",
        ok,
        f"{len(checks)} families x {numeric_props.CASES} cases",
        elapsed,
        30,
    )
    assert elapsed < 30.0


def test_criterion_8_deterministic_replay():
    start = time.monotonic()
    cfg = ExperimentConfig(
        mode="simulated", seed=123, p_grid=(0.5,), k=2, n_grid=(14,),
        range_grid=(0.5,), graphs=3, runs_per_graph=3,
    )
    first = report_bytes(run_experiment(cfg))
    second = report_bytes(run_experiment(cfg))
    survey = ExperimentConfig(mode="survey", seed=5, p_grid=(0.1,), graphs=5)
    third = report_bytes(run_experiment(survey))
    fourth = report_bytes(run_experiment(survey))
    gene = ExperimentConfig(mode="gene", seed=8, p_grid=(0.3,), graphs=2, runs_per_graph=2)
    fifth = report_bytes(run_experiment(gene))
    sixth = report_bytes(run_experiment(gene))
    identical = first == second and third == fourth and fifth == sixth
    elapsed = time.monotonic() - start
    _report(
        8,
        "byte-identical replay",
        identical,
        "simulated, survey and gene reports each re-run",
        elapsed,
        60,
    )
    assert identical
