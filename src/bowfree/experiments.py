"""Experiment pipelines behind the CLI: gene-style condition studies on an
observation matrix, simulated condition studies on synthetic models, and
the structural-assumption survey.

Reports are plain dicts serialized as canonical JSON (sorted keys); every
random quantity derives its seed from (seed, absolute indices) so a report
is byte-identical across re-runs and across graph-range splits.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, IngestionError, NearSingularError
from .generators import (
    RandomGraphConfig,
    SDDNoiseConfig,
    derived_seed,
    gen_lambda_range,
    gen_omega_sdd,
    gen_random_bowfree_graph,
    gen_layered_bowfree_graph,
    sample_observations,
)
from .lsem import ParamSet, forward_map, sample_covariance
from .recovery import recover_all, recover_many
from .robustness import check_assumptions, relative_distance

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class ExperimentConfig:
    mode: str  # "gene" | "simulated" | "survey"
    seed: int
    dataset_path: str | None = None
    p_grid: tuple[float, ...] = (0.2,)
    k: int = 2
    n_grid: tuple[int, ...] = (20,)
    range_grid: tuple[float, ...] = (1.0,)
    noise_eps: float = 0.1
    graphs: int = 10
    runs_per_graph: int = 10
    samples: int = 50
    normalize: bool = True
    graph_offset: int = 0

    def validate(self):
        if self.mode not in ("gene", "simulated", "survey"):
            raise ConfigError(f"unknown experiment mode {self.mode!r}")
        for p in self.p_grid:
            if not (0.0 <= p <= 1.0):
                raise ConfigError(f"edge probability {p} outside [0, 1]")
        if self.graphs < 1 or self.runs_per_graph < 0:
            raise ConfigError("graphs must be >= 1 and runs_per_graph >= 0")


def _stats(values: list[float]) -> dict:
    if not values:
        return {"count": 0, "mean": None, "median": None, "max": None}
    arr = np.asarray(values, dtype=float)
    return {
        "count": int(arr.size),
        "mean": float(arr.mean()),
        "median": float(np.median(arr)),
        "max": float(arr.max()),
    }


# -- dataset handling ---------------------------------------------------------


def load_dataset(path) -> np.ndarray:
    try:
        data = np.loadtxt(path, delimiter=",", ndmin=2)
    except (OSError, ValueError) as exc:
        raise IngestionError(f"cannot read observation CSV {path}: {exc}") from exc
    if data.ndim != 2 or data.shape[0] < 3 or data.shape[1] < 2:
        raise IngestionError(f"observation matrix of shape {data.shape} is too small")
    if not np.all(np.isfinite(data)):
        raise IngestionError("observation matrix contains non-finite entries")
    return data


def gene_standin_dataset(m: int = 118, v: int = 13, seed: int = 0) -> np.ndarray:
    """Shape-compatible synthetic stand-in for the gene-expression matrix.

    Single-pathway expression profiles are strongly co-expressed, so the
    stand-in is a known LSEM with one common driver and unit column
    variances: every pair of columns correlates moderately and partial
    regression coefficients stay bounded away from zero under arbitrary
    overlay graphs.
    """
    from .graphs import MixedGraph

    rng = np.random.default_rng(derived_seed(seed, 0))
    driver_edges = [(0, j) for j in range(1, v)]
    g = MixedGraph(v, driver_edges, [])
    lam = np.zeros((v, v))
    noise_var = np.ones(v)
    for u, w in driver_edges:
        weight = rng.uniform(0.55, 0.7)
        lam[u, w] = weight
        noise_var[w] = 1.0 - weight**2  # unit column variances
    sigma = forward_map(g, ParamSet(lam, np.diag(noise_var)))
    return sample_observations(sigma, m, derived_seed(seed, 3))


# -- pipelines ----------------------------------------------------------------


def _perturbation_ratios(graph, sigma: np.ndarray, perturbed, record: dict) -> dict:
    """Recover ``sigma`` and each covariance of the iterable ``perturbed``
    together and fill the record: a failed ``sigma`` marks
    ``recovery_failed``; otherwise, unless every recovered weight is zero,
    failed perturbations count in ``run_failures`` and each other one adds
    the ratio Rel(lam, lam~) / Rel(sigma, sigma~), skipped when
    Rel(sigma, sigma~) = 0.
    """
    recovered = recover_many(graph, itertools.chain([sigma], perturbed))
    _, base, failed = next(recovered)
    base = base.copy()  # a view would keep its whole stack alive
    if failed >= 0:
        record["recovery_failed"] = True
    elif np.any(base != 0):
        for draw, lam, failed in recovered:
            if failed >= 0:
                record["run_failures"] += 1
                continue
            rel_sig = relative_distance(sigma, draw)
            if rel_sig != 0.0:
                record["ratios"].append(relative_distance(base, lam) / rel_sig)
    return record


def run_gene_style(cfg: ExperimentConfig) -> dict:
    """Condition-number study on an observation matrix.

    Per random graph the observation matrix is perturbed with i.i.d.
    Gaussian noise of standard deviation noise_eps; the reported ratio
    compares the relative change of recovered weights against the relative
    change of the sample covariance. This perturbs the data matrix rather
    than the covariance, so it is a different perturbation family than the
    entrywise covariance model; the report labels it as such.
    """
    cfg.validate()
    x = load_dataset(cfg.dataset_path) if cfg.dataset_path else gene_standin_dataset(seed=cfg.seed)
    n = x.shape[1]
    degenerate = cfg.noise_eps == 0.0
    sigma = sample_covariance(x, normalize_rows=cfg.normalize).sigma

    records = []
    for pi, p in enumerate(cfg.p_grid):
        for gidx in range(cfg.graph_offset, cfg.graph_offset + cfg.graphs):
            graph = gen_random_bowfree_graph(
                RandomGraphConfig(n, p, seed=derived_seed(cfg.seed, 1, pi, gidx))
            )

            def noisy():
                for run in range(0 if degenerate else cfg.runs_per_graph):
                    rng = np.random.default_rng(derived_seed(cfg.seed, 2, pi, gidx, run))
                    yield sample_covariance(x + rng.normal(0.0, cfg.noise_eps, size=x.shape),
                                            normalize_rows=cfg.normalize).sigma

            record = {
                "p": p,
                "graph": gidx,
                "ratios": [],
                "recovery_failed": False,
                "run_failures": 0,
            }
            records.append(_perturbation_ratios(graph, sigma, noisy(), record))

    return summarise({
        "schema": SCHEMA_VERSION,
        "mode": "gene",
        "perturbation": "observation-noise",
        "degenerate_perturbation": degenerate,
        "dataset_shape": list(x.shape),
        "config": asdict(cfg),
        "records": records,
    })


def run_simulated(cfg: ExperimentConfig) -> dict:
    """Condition-number study on synthetic layered models with uniform
    weights and diagonally dominant noise; the perturbed covariance is the
    sample covariance of finitely many draws from the exact model."""
    cfg.validate()
    records = []
    for ni, n in enumerate(cfg.n_grid):
        for pi, p in enumerate(cfg.p_grid):
            for ri, weight_range in enumerate(cfg.range_grid):
                for gidx in range(cfg.graph_offset, cfg.graph_offset + cfg.graphs):
                    cell_seed = (cfg.seed, 3, ni, pi, ri, gidx)
                    graph = gen_layered_bowfree_graph(
                        n, cfg.k, p, derived_seed(*cell_seed, 0)
                    )
                    lam = gen_lambda_range(graph, SDDNoiseConfig(weight_range, derived_seed(*cell_seed, 1)))
                    omega = gen_omega_sdd(graph, SDDNoiseConfig(weight_range, derived_seed(*cell_seed, 2)))
                    sigma = forward_map(graph, ParamSet(lam, omega)).sigma
                    sampled = (
                        sample_covariance(
                            sample_observations(sigma, cfg.samples, derived_seed(*cell_seed, 4, run))
                        ).sigma
                        for run in range(cfg.runs_per_graph)
                    )
                    record = {
                        "n": n,
                        "p": p,
                        "range": weight_range,
                        "graph": gidx,
                        "ratios": [],
                        "recovery_failed": False,
                        "run_failures": 0,
                    }
                    records.append(_perturbation_ratios(graph, sigma, sampled, record))

    return summarise({
        "schema": SCHEMA_VERSION,
        "mode": "simulated",
        "perturbation": "sample-covariance",
        "config": asdict(cfg),
        "records": records,
    })


def run_assumption_survey(cfg: ExperimentConfig) -> dict:
    """Evaluate the structural assumptions over random graph hypotheses on
    normalized observational data."""
    cfg.validate()
    x = load_dataset(cfg.dataset_path) if cfg.dataset_path else gene_standin_dataset(seed=cfg.seed)
    n = x.shape[1]
    sigma = sample_covariance(x, normalize_rows=True)

    records = []
    p = cfg.p_grid[0]
    for gidx in range(cfg.graph_offset, cfg.graph_offset + cfg.graphs):
        graph = gen_random_bowfree_graph(
            RandomGraphConfig(n, p, seed=derived_seed(cfg.seed, 4, gidx))
        )
        record = {"graph": gidx, "recovery_failed": False}
        try:
            base = recover_all(graph, sigma)
        except NearSingularError:
            record["recovery_failed"] = True
            record.update({"pass_a1": None, "pass_a2": None, "pass_a3": None, "all_pass": None})
            records.append(record)
            continue
        profile = check_assumptions(graph, sigma, base.lambda_hat)
        record["pass_a1"] = all(d.pass_a1 for d in profile.per_vertex.values())
        record["pass_a2"] = all(d.pass_a2 for d in profile.per_vertex.values())
        record["pass_a3"] = all(d.pass_a3 for d in profile.per_vertex.values())
        record["all_pass"] = profile.all_pass
        record["alpha"] = profile.alpha
        record["beta"] = profile.beta
        record["kappa0"] = profile.kappa0 if np.isfinite(profile.kappa0) else None
        records.append(record)

    return summarise({
        "schema": SCHEMA_VERSION,
        "mode": "survey",
        "config": asdict(cfg),
        "records": records,
    })


def run_experiment(cfg: ExperimentConfig) -> dict:
    cfg.validate()
    if cfg.mode == "gene":
        return run_gene_style(cfg)
    if cfg.mode == "simulated":
        return run_simulated(cfg)
    return run_assumption_survey(cfg)


def summarise(report: dict) -> dict:
    """Set ``report["summary"]`` from the report's mode, config grid and
    records, and return the report.

    A survey counts the graphs passing each assumption. The condition
    studies give the ratio statistics of each grid cell, matching records
    on their own grid values.
    """
    cfg, records = report["config"], report["records"]
    if report["mode"] == "survey":
        evaluated = [r for r in records if not r["recovery_failed"]]
        summary = {"graphs": len(records), "evaluated": len(evaluated)}
        for key in ("pass_a1", "pass_a2", "pass_a3", "all_pass"):
            summary[key] = sum(bool(r[key]) for r in evaluated)
    else:
        if report["mode"] == "gene":
            cells = {f"p={p:g}": {"p": p} for p in cfg["p_grid"]}
        else:
            cells = {
                f"n={n},p={p:g},range={w:g}": {"n": n, "p": p, "range": w}
                for n, p, w in itertools.product(cfg["n_grid"], cfg["p_grid"], cfg["range_grid"])
            }
        summary = {
            key: _stats([x for r in records if all(r[f] == v for f, v in cell.items()) for x in r["ratios"]])
            for key, cell in cells.items()
        }
    report["summary"] = summary
    return report


def merge_reports(first: dict, second: dict) -> dict:
    """Merge two reports produced from disjoint graph ranges of one config."""
    for key in ("schema", "mode"):
        if first.get(key) != second.get(key):
            raise ConfigError(f"cannot merge reports with different {key}")
    merged = dict(first)
    merged["records"] = first["records"] + second["records"]
    merged["config"] = dict(first["config"], graphs=first["config"]["graphs"] + second["config"]["graphs"])
    return summarise(merged)


def report_bytes(report: dict) -> bytes:
    return (json.dumps(report, indent=2, sort_keys=True) + "\n").encode()


def write_report(report: dict, path):
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_bytes(report_bytes(report))


def summary_csv_lines(report: dict) -> list[str]:
    """Data-only plot emission: one line per summary cell."""
    lines = ["cell,count,mean,median,max"]
    for key, stats in sorted(report["summary"].items()):
        if not isinstance(stats, dict) or "mean" not in stats:
            continue
        lines.append(
            f"{key},{stats['count']},{stats['mean']},{stats['median']},{stats['max']}"
        )
    return lines
