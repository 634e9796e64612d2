"""Test-side helpers that measure the library rather than extend it."""

from dataclasses import dataclass, replace

import numpy as np

from bowfree.generators import derived_seed
from bowfree.graphs import MixedGraph
from bowfree.lsem import as_matrix
from bowfree.recovery import recover_many
from bowfree.robustness import ErrorRateConstants, PerturbationSpec, sample_perturbation


@dataclass(frozen=True)
class VertexErrorCheck:
    vertex: int
    trial: int
    error: float | None
    bound: float
    passed: bool | None  # None when the trial's recovery failed


def per_vertex_error_check(
    g: MixedGraph,
    sigma,
    lambda_true: np.ndarray,
    spec: PerturbationSpec,
    constants: ErrorRateConstants,
    trials: int = 1,
) -> list[VertexErrorCheck]:
    """Per-vertex check that recovered-weight perturbations stay within
    eta * gamma in 2-norm, for every vertex with parents; trials are
    recovered together through recover_many."""
    sig = as_matrix(sigma)
    lam_true = np.asarray(lambda_true, dtype=float)
    bound = constants.eta * spec.gamma

    def perturbed():
        for t in range(trials):
            trial_spec = replace(spec, seed=derived_seed(spec.seed, t))
            yield sample_perturbation(sig, trial_spec)

    out = []
    for t, (_, recovered, failed) in enumerate(recover_many(g, perturbed())):
        for v in range(g.n):
            pa = list(g.parents(v))
            if not pa:
                continue
            if failed >= 0:
                out.append(VertexErrorCheck(v, t, None, bound, None))
                continue
            err = float(np.linalg.norm(lam_true[pa, v] - recovered[g.in_edges(v)]))
            out.append(VertexErrorCheck(v, t, err, bound, err <= bound))
    return out
