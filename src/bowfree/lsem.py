"""Linear SEM algebra: parameter sets, the forward covariance map and its
companions.

A model is the pair (lam, omega): edge weights on the directed part and the
noise covariance on the bidirected part. The observational covariance is

    sigma = (I - lam)^{-T} @ omega @ (I - lam)^{-1}

computed through the finite Neumann sum, which is exact because lam is
nilpotent on a DAG.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, DefinitenessError, PatternError, SampleSizeError
from .graphs import MixedGraph
from .linalg import snorm, symmetrize

PATTERN_ATOL = 1e-9
PD_FLOOR_SCALE = 1e-12


@dataclass(frozen=True)
class ParamSet:
    """Edge-weight matrix and noise covariance with structural zero patterns."""

    lam: np.ndarray
    omega: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "lam", np.asarray(self.lam, dtype=float))
        object.__setattr__(self, "omega", np.asarray(self.omega, dtype=float))


@dataclass(frozen=True)
class Covariance:
    """Observational covariance with a provenance tag.

    provenance is one of "exact", "sample", "perturbed" or "reduced";
    positive definiteness is enforced only for exact covariances (reduced
    ones are singular by construction: gadget variables are deterministic).
    """

    sigma: np.ndarray
    provenance: str = "exact"
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        sig = symmetrize(np.asarray(self.sigma, dtype=float))
        object.__setattr__(self, "sigma", sig)

    @property
    def n(self) -> int:
        return self.sigma.shape[0]

    @staticmethod
    def exact(sigma) -> "Covariance":
        cov = Covariance(sigma, "exact")
        scale = snorm(cov.sigma)
        if cov.n and np.linalg.eigvalsh(cov.sigma)[0] <= PD_FLOOR_SCALE * scale:
            raise DefinitenessError("exact covariance must be positive definite")
        return cov


def as_matrix(sigma) -> np.ndarray:
    if isinstance(sigma, Covariance):
        return sigma.sigma
    return np.asarray(sigma, dtype=float)


def neumann_inverse(lam: np.ndarray) -> np.ndarray:
    """(I - lam)^{-1} as I + lam + ... + lam^{n-1}; exact for nilpotent lam."""
    lam = np.asarray(lam, dtype=float)
    n = lam.shape[0]
    total = np.eye(n)
    power = np.eye(n)
    for _ in range(n - 1):
        power = power @ lam
        if not power.any():
            break
        total += power
    return total


def check_pattern(g: MixedGraph, params: ParamSet, atol: float = PATTERN_ATOL):
    """Raise PatternError when (lam, omega) violates the zero patterns of g."""
    lam, omega = params.lam, params.omega
    if lam.shape != (g.n, g.n) or omega.shape != (g.n, g.n):
        raise PatternError(
            f"parameter shapes {lam.shape}, {omega.shape} do not match n={g.n}"
        )
    allowed = np.zeros((g.n, g.n), dtype=bool)
    for e in g.directed:
        allowed[e.source, e.target] = True
    off = np.abs(lam) > atol
    if np.any(off & ~allowed):
        where = np.argwhere(off & ~allowed)
        raise PatternError(f"lambda has weight on non-edges, e.g. {tuple(where[0])}")

    if not np.allclose(omega, omega.T, atol=atol):
        raise PatternError("omega must be symmetric")
    allowed_om = np.eye(g.n, dtype=bool)
    for u, v in g.bidirected:
        allowed_om[u, v] = allowed_om[v, u] = True
    off_om = np.abs(omega) > atol
    if np.any(off_om & ~allowed_om):
        where = np.argwhere(off_om & ~allowed_om)
        raise PatternError(f"omega is nonzero off the bidirected pattern, e.g. {tuple(where[0])}")


def forward_map(g: MixedGraph, params: ParamSet, check: bool = True) -> Covariance:
    """Observational covariance of the model (lam, omega) on graph g.

    Verifies the zero patterns and that omega is positive semidefinite,
    then evaluates the congruence through the Neumann sum and symmetrizes
    the result.
    """
    if check:
        check_pattern(g, params)
        eigs = np.linalg.eigvalsh(symmetrize(params.omega))
        if eigs.size and eigs[0] < -PATTERN_ATOL * max(1.0, float(eigs[-1])):
            raise DefinitenessError("omega must be positive semidefinite")
    inv = neumann_inverse(params.lam)
    sigma = symmetrize(inv.T @ params.omega @ inv)
    return Covariance(sigma, "exact")


def recover_omega(g: MixedGraph, lam: np.ndarray, sigma) -> np.ndarray:
    """Noise covariance implied by edge weights: (I-lam)^T sigma (I-lam).

    No pattern is enforced here; use project_omega_pattern for that.
    """
    sig = as_matrix(sigma)
    factor = np.eye(g.n) - np.asarray(lam, dtype=float)
    return symmetrize(factor.T @ sig @ factor)


def project_omega_pattern(
    omega_hat: np.ndarray,
    bidirected: frozenset | set,
    tol: float = 1e-10,
    max_iters: int = 10_000,
) -> np.ndarray:
    """Alternating projections onto the zero-pattern subspace and the PSD cone.

    Stops when successive iterates differ by less than ``tol`` in Frobenius
    norm; raises ConvergenceError (carrying the last iterate) otherwise.
    """
    x = symmetrize(np.asarray(omega_hat, dtype=float))
    n = x.shape[0]
    mask = np.eye(n, dtype=bool)
    for u, v in bidirected:
        mask[u, v] = mask[v, u] = True

    for _ in range(max_iters):
        masked = np.where(mask, x, 0.0)
        vals, vecs = np.linalg.eigh(symmetrize(masked))
        clipped = (vecs * np.clip(vals, 0.0, None)) @ vecs.T
        clipped = symmetrize(clipped)
        if np.linalg.norm(clipped - x, ord="fro") < tol:
            return np.where(mask, clipped, 0.0)
        x = clipped
    raise ConvergenceError(
        f"pattern projection did not converge in {max_iters} iterations", last_iterate=x
    )


def sample_covariance(x: np.ndarray, normalize_rows: bool = False) -> Covariance:
    """Empirical covariance of observation rows (mean-centered, divisor m-1).

    With ``normalize_rows`` every observation is first scaled to unit
    2-norm; zero rows are left untouched.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise SampleSizeError(f"observation matrix must be 2-d, got shape {x.shape}")
    m = x.shape[0]
    if m < 2:
        raise SampleSizeError(f"need at least 2 observations, got {m}")
    if normalize_rows:
        norms = np.linalg.norm(x, axis=1, keepdims=True)
        x = np.where(norms > 0, x / np.where(norms == 0, 1.0, norms), x)
    centered = x - x.mean(axis=0, keepdims=True)
    sigma = symmetrize(centered.T @ centered / (m - 1))
    return Covariance(sigma, "sample", {"m": m, "normalized": bool(normalize_rows)})


# -- serialization ---------------------------------------------------------


def save_matrix_csv(a: np.ndarray, path):
    np.savetxt(path, np.asarray(a, dtype=float), delimiter=",")


def load_matrix_csv(path) -> np.ndarray:
    a = np.loadtxt(path, delimiter=",", ndmin=2)
    return np.asarray(a, dtype=float)


def params_to_dict(params: ParamSet) -> dict:
    return {"lambda": params.lam.tolist(), "omega": params.omega.tolist()}


def params_from_dict(data: dict) -> ParamSet:
    return ParamSet(np.array(data["lambda"], dtype=float), np.array(data["omega"], dtype=float))


def save_params(params: ParamSet, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(params_to_dict(params), fh, sort_keys=True)
        fh.write("\n")


def load_params(path) -> ParamSet:
    with open(path, encoding="utf-8") as fh:
        return params_from_dict(json.load(fh))
