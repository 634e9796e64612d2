"""The benchmark's workloads: seeded inputs, one timed op, and its check.

Each workload builds its inputs from the benchmark seed in ``setup``, runs
op ``i`` through the package's public entry points in ``op`` (the only
timed call), and checks that op's output in ``check``. ``cycle`` is the
length of the input rotation; a run ends on a whole rotation so every input
is timed equally often. Sizes are constructor arguments so the smoke test
can run the same code on tiny inputs.

Ops and set-up reach the package through module attributes (``cli.main``,
``reduction.reduce_instance``) so the tracer's wrappers see them; the
run pauses recording while a check runs.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import numpy as np

import oracle
from bowfree import cli, generators, graphs, lsem, recovery, reduction
from bowfree.generators import SDDNoiseConfig

# kappa_hat divides weight changes by covariance changes of relative size
# gamma ~ n^-4 ~ 1e-9, so rounding in the solves (1e-16 times the system
# condition) moves it by up to ~2e-6 between two correct implementations;
# measured across 57 (instance, op) seeds. 1e-4 leaves a 50x margin.
KAPPA_RTOL = 1e-4
RATIO_RTOL = 1e-6  # simulated ratios compare O(1) covariance changes
EXACT_ATOL = 1e-8  # exact round trip, as in the acceptance criteria


class CheckFailed(Exception):
    def __init__(self, message, near_singular=0):
        super().__init__(message)
        self.near_singular = near_singular


def run_cli(argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    if code != 0:
        raise CheckFailed(f"bowfree {argv[0]} exited {code}: {err.getvalue().strip()}")


def _close(got, want, rtol, what):
    if not abs(got - want) <= rtol * abs(want):
        raise CheckFailed(f"{what} {got!r} differs from the reference {want!r} by more than {rtol:g} relative")


class McCondition:
    """``bowfree condition`` on one seeded SDD instance, a new --seed per op."""

    name = "mc-condition"
    cycle = 1

    def __init__(self, work: Path, seed: int, n=150, k=3, p=0.6, trials=10):
        self.work, self.seed = work, seed
        self.n, self.k, self.p, self.trials = n, k, p, trials

    def setup(self):
        run_cli(["generate", "--kind", "sdd", "--n", self.n, "--k", self.k, "--p", self.p,
                 "--seed", self.seed, "--out-dir", self.work])
        with open(self.work / "graph.json", encoding="utf-8") as fh:
            doc = json.load(fh)
        self.parents = oracle.parent_lists(doc["n"], [(u - 1, v - 1) for u, v in doc["directed"]])
        with open(self.work / "params.json", encoding="utf-8") as fh:
            self.lam_true = np.array(json.load(fh)["lambda"], dtype=float)
        self.sigma = np.loadtxt(self.work / "sigma.csv", delimiter=",", ndmin=2)
        self.gammas = [0.5 * self.n**-4, 0.1 * self.n**-4]  # the CLI's defaults

    def op(self, i):
        run_cli(["condition", "--graph", self.work / "graph.json", "--sigma", self.work / "sigma.csv",
                 "--trials", self.trials, "--seed", self.op_seed(i), "--out", self.work / "report.json"])

    def op_seed(self, i):
        return oracle.derived_seed(self.seed, i)

    def check(self, i) -> dict:
        with open(self.work / "report.json", encoding="utf-8") as fh:
            report = json.load(fh)
        if report["failures"]:
            raise CheckFailed(f"{report['failures']} perturbed recoveries were near-singular", report["failures"])
        want = oracle.condition_kappa(self.parents, self.sigma, self.trials, self.gammas, self.op_seed(i))
        _close(report["kappa_hat"], want, KAPPA_RTOL, "kappa_hat")
        base = recovery.recover_all(graphs.load_graph(self.work / "graph.json"), self.sigma)
        err = float(np.max(np.abs(base.lambda_hat - self.lam_true)))
        if err > EXACT_ATOL:
            raise CheckFailed(f"base recovery is {err:.3e} from params.json")
        return {"near_singular": 0, "condition_max": max(d.condition for d in base.per_vertex.values())}


class SimSweep:
    """``bowfree experiment --mode simulated``, one graph per op, rotating
    over a fixed pool of graph offsets.

    Edge probability 0.8 keeps every layer linked to the next: at 0.6, 17
    of 40 sampled graphs broke their longest chain (depth 61-162 of 167),
    which ends the Neumann sum early and moved op time by 25% between
    seeds. At 0.8 all 40 kept the full depth.
    """

    name = "sim-sweep"
    cycle = 1
    pool = 4

    def __init__(self, work: Path, seed: int, n=500, k=3, p=0.8, runs=2, samples=1000):
        self.work, self.seed = work, seed
        self.n, self.k, self.p, self.runs, self.samples = n, k, p, runs, samples
        self._expected: dict[int, list[float]] = {}

    def setup(self):
        pass

    def op(self, i):
        run_cli(["experiment", "--mode", "simulated", "--n", self.n, "--k", self.k, "--p", self.p,
                 "--graphs", 1, "--runs-per-graph", self.runs, "--samples", self.samples,
                 "--graph-offset", i % self.pool, "--seed", self.seed, "--out", self.work / "report.json"])

    def expected(self, offset: int) -> list[float]:
        """Oracle ratios of one pool graph; graph and parameters come from the
        package's generators with the experiment's cell seeds."""
        if offset not in self._expected:
            cell = (self.seed, 3, 0, 0, 0, offset)  # (seed, pipeline, n, p, range, graph)
            g = generators.gen_layered_bowfree_graph(self.n, self.k, self.p, oracle.derived_seed(*cell, 0))
            lam = generators.gen_lambda_range(g, SDDNoiseConfig(1.0, oracle.derived_seed(*cell, 1)))
            omega = generators.gen_omega_sdd(g, SDDNoiseConfig(1.0, oracle.derived_seed(*cell, 2)))
            parents = oracle.parent_lists(g.n, [(e.source, e.target) for e in g.directed])
            seeds = [oracle.derived_seed(*cell, 4, run) for run in range(self.runs)]
            self._expected[offset] = oracle.simulated_ratios(parents, lam, omega, self.samples, seeds)
        return self._expected[offset]

    def check(self, i) -> dict:
        with open(self.work / "report.json", encoding="utf-8") as fh:
            report = json.load(fh)
        (record,) = report["records"]
        failures = int(record["recovery_failed"]) + record["run_failures"]
        if failures:
            raise CheckFailed(f"{failures} recoveries were near-singular", failures)
        count = sum(cell["count"] for cell in report["summary"].values())
        if count != self.runs:
            raise CheckFailed(f"summary counts {count} ratios, expected {self.runs}")
        want = self.expected(i % self.pool)
        if len(record["ratios"]) != len(want):
            raise CheckFailed(f"{len(record['ratios'])} ratios, expected {len(want)}")
        for got, ref in zip(record["ratios"], want):
            _close(got, ref, RATIO_RTOL, "ratio")
        return {"near_singular": 0}


class ReduceVerify:
    """``reduce_instance`` then ``verify_reduction`` over a fixed pool of
    random bow-free graphs; the seed draws their SDD parameters.

    The pool is fixed because n' (hence time and memory) is a property of
    the graph: seeds 0-4 give n' = 3,310, 5,635, 4,178, 3,149 and 3,675, and
    seed 1 sets the memory peak. An odd pool of graphs with distinct costs
    puts the median and the 75th percentile inside one graph's op times
    rather than on the boundary between two, where they would jump.
    """

    name = "reduce-verify"
    graph_seeds = (0, 1, 2, 3, 4)

    def __init__(self, work: Path, seed: int, n=26, p=0.4, weight_range=0.5):
        self.work, self.seed = work, seed
        self.n, self.p, self.weight_range = n, p, weight_range
        self.cycle = len(self.graph_seeds)

    def setup(self):
        self.instances = []
        for i, graph_seed in enumerate(self.graph_seeds):
            g = generators.gen_random_bowfree_graph(generators.RandomGraphConfig(self.n, self.p, seed=graph_seed))
            lam = generators.gen_lambda_range(g, SDDNoiseConfig(self.weight_range, oracle.derived_seed(self.seed, i, 1)))
            omega = generators.gen_omega_sdd(g, SDDNoiseConfig(self.weight_range, oracle.derived_seed(self.seed, i, 2)))
            self.instances.append((g, lsem.forward_map(g, lsem.ParamSet(lam, omega))))

    def op(self, i):
        g, sigma = self.instances[i % self.cycle]
        red = reduction.reduce_instance(g, sigma)
        self.last = (red.g_prime.n, reduction.verify_reduction(g, sigma, red))

    def check(self, i) -> dict:
        n_prime, report = self.last
        self.last = None
        if not report.all_ok:
            failed = sum(note.startswith("recovery failed") for note in report.notes)
            raise CheckFailed(f"verify_reduction failed: {report}", failed)
        if report.max_weight_error > EXACT_ATOL:
            raise CheckFailed(f"collector weights are {report.max_weight_error:.3e} from the original weights")
        return {"near_singular": 0, "n_prime": n_prime}


WORKLOADS = {w.name: w for w in (McCondition, SimSweep, ReduceVerify)}
