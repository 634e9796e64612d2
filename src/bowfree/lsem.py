"""Linear SEM algebra: parameter sets, the forward covariance map and its
companions.

A model is the pair (lam, omega): edge weights on the directed part and the
noise covariance on the bidirected part. The observational covariance is

    sigma = (I - lam)^{-T} @ omega @ (I - lam)^{-1}

computed through one linear solve: taken in a topological order, I - lam
is unit upper triangular, so the solve is plain back-substitution.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, DefinitenessError, IngestionError, PatternError, SampleSizeError
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


@dataclass(frozen=True)
class ReducedCovariance:
    """sigma[a, b] = factor[a] * factor[b] * base[..., head[a], head[b]], kept
    implicit. ``sig[..., rows, cols]`` gathers entries in the dense matrix's
    operation order, so they equal its entries bitwise; ``sigma`` builds it."""

    base: np.ndarray
    head: np.ndarray
    factor: np.ndarray
    provenance = "reduced"

    def __post_init__(self):
        object.__setattr__(self, "base", symmetrize(np.asarray(self.base, dtype=float)))

    @property
    def shape(self) -> tuple[int, ...]:
        return self.base.shape[:-2] + (len(self.head),) * 2

    @property
    def ndim(self) -> int:
        return self.base.ndim

    def __getitem__(self, key) -> np.ndarray:
        _, rows, cols = key  # (..., rows, cols)
        return (self.factor[rows] * self.factor[cols]) * self.base[..., self.head[rows], self.head[cols]]

    @property
    def sigma(self) -> np.ndarray:
        idx = np.arange(len(self.head))
        return self[..., idx[:, None], idx]


def as_matrix(sigma) -> np.ndarray:
    if isinstance(sigma, (Covariance, ReducedCovariance)):
        return sigma.sigma
    return np.asarray(sigma, dtype=float)


def dag_inverse(g: MixedGraph, lam: np.ndarray) -> np.ndarray:
    """(I - lam)^{-1} by one solve in the topological order of g, where
    I - lam is unit upper triangular: the LU factorisation does not pivot,
    the solve is back-substitution and its cost does not depend on depth."""
    lam = np.asarray(lam, dtype=float)
    order = g.topological_order()
    block = np.ix_(order, order)
    inv = np.empty_like(lam)
    inv[block] = np.linalg.solve(np.eye(g.n) - lam[block], np.eye(g.n))
    return inv


def check_pattern(g: MixedGraph, params: ParamSet, atol: float = PATTERN_ATOL):
    """Raise PatternError when (lam, omega) violates the zero patterns of g."""
    lam, omega = params.lam, params.omega
    if lam.shape != (g.n, g.n) or omega.shape != (g.n, g.n):
        raise PatternError(
            f"parameter shapes {lam.shape}, {omega.shape} do not match n={g.n}"
        )
    allowed = np.zeros((g.n, g.n), dtype=bool)
    allowed[g.source, g.target] = True
    off = np.abs(lam) > atol
    if np.any(off & ~allowed):
        where = np.argwhere(off & ~allowed)
        raise PatternError(f"lambda has weight on non-edges, e.g. {tuple(where[0])}")

    if not np.allclose(omega, omega.T, atol=atol):
        raise PatternError("omega must be symmetric")
    allowed_om = np.eye(g.n, dtype=bool)
    us, vs = g.pairs.T
    allowed_om[us, vs] = allowed_om[vs, us] = True
    off_om = np.abs(omega) > atol
    if np.any(off_om & ~allowed_om):
        where = np.argwhere(off_om & ~allowed_om)
        raise PatternError(f"omega is nonzero off the bidirected pattern, e.g. {tuple(where[0])}")


def forward_map(g: MixedGraph, params: ParamSet, check: bool = True) -> Covariance:
    """Observational covariance of the model (lam, omega) on graph g.

    Verifies the zero patterns and that omega is positive semidefinite,
    then evaluates the congruence through the triangular solve of
    ``dag_inverse`` and symmetrizes the result.
    """
    if check:
        check_pattern(g, params)
        eigs = np.linalg.eigvalsh(symmetrize(params.omega))
        if eigs.size and eigs[0] < -PATTERN_ATOL * max(1.0, float(eigs[-1])):
            raise DefinitenessError("omega must be positive semidefinite")
    inv = dag_inverse(g, params.lam)
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
    """A square matrix of finite numbers; IngestionError otherwise."""
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")  # reported below
            a = np.loadtxt(path, delimiter=",", ndmin=2, dtype=float)
    except ValueError as exc:
        raise IngestionError(f"{path}: not a numeric CSV matrix: {exc}") from exc
    if a.size == 0:
        raise IngestionError(f"{path}: no numbers in the CSV file")
    if a.shape[0] != a.shape[1]:
        raise IngestionError(f"{path}: matrix of shape {a.shape} is not square")
    if not np.isfinite(a).all():
        raise IngestionError(f"{path}: matrix has non-finite entries")
    return a


def load_covariance_csv(path) -> np.ndarray:
    """load_matrix_csv, then symmetry to 1e-10 of the largest entry; IngestionError otherwise."""
    a = load_matrix_csv(path)
    asym = np.max(np.abs(a - a.T))
    if asym > 1e-10 * np.max(np.abs(a)):
        raise IngestionError(f"{path}: covariance is not symmetric (max |a - a.T| = {asym:.3g})")
    return a


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
