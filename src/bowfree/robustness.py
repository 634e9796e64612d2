"""Perturbation analysis: relative distances, entrywise covariance
perturbations, Monte Carlo condition-number estimates, the structural
assumptions on an instance and the closed-form error-rate bound.

The perturbation family scales each covariance entry by at most
gamma / sqrt(k) in relative terms; the entrywise constraint is read as a
magnitude bound |eps_ij| <= (gamma / sqrt(k)) |sigma_ij| since covariance
entries may be negative. Symmetry of the perturbed matrix is enforced by
mirroring the upper triangle.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ConvergenceError, PremiseError
from .generators import derived_seed
from .graphs import MixedGraph
from .linalg import snorm, symmetrize
from .lsem import ReducedCovariance, as_matrix, gatherable
from .recovery import recover_all, recover_many, weight_matrix


def relative_distance(a, b) -> float:
    """Max entrywise relative deviation of b from a over nonzero entries of a.

    Not symmetric: entries of ``a`` are the denominators, and positions
    where a is zero are skipped entirely.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ConfigError(f"shape mismatch {a.shape} vs {b.shape}")
    nonzero = a != 0
    if not nonzero.any():
        raise ConfigError("relative distance is undefined for an all-zero reference")
    rel = np.abs(a - b)
    np.divide(rel, np.abs(a), out=rel, where=nonzero)
    return float(np.max(rel, where=nonzero, initial=0.0))


@dataclass(frozen=True)
class PerturbationSpec:
    """Entrywise perturbation parameters.

    ``strict`` enforces gamma < n^-4 (the regime the error bounds cover).
    Callers may disable it; ``bowfree condition`` records the choice in its report.
    """

    gamma: float
    k: int
    seed: int
    enforce_tight: bool = False
    strict: bool = True

    def validate(self, n: int):
        if not (0 < self.gamma < math.inf):  # also false for NaN
            raise ConfigError(f"gamma must be positive and finite, got {self.gamma}")
        if self.k < 1:
            raise ConfigError(f"degree bound k must be >= 1, got {self.k}")
        if self.strict and self.gamma >= n ** -4:
            raise ConfigError(
                f"gamma={self.gamma:g} exceeds the strict bound n^-4={n ** -4:g}"
            )


def sample_perturbation(sigma, spec: PerturbationSpec) -> np.ndarray:
    """Draw sigma + eps with |eps_ij| <= (gamma / sqrt(k)) |sigma_ij|.

    With ``enforce_tight`` the entry of largest magnitude is set to exactly
    (gamma / sqrt(k)) sigma_ij so the relative distance of the draw equals
    gamma / sqrt(k).
    """
    sig = as_matrix(sigma)
    n = sig.shape[0]
    spec.validate(n)
    rng = np.random.default_rng(spec.seed)
    bound = (spec.gamma / math.sqrt(spec.k)) * np.abs(sig)
    eps = rng.uniform(-1.0, 1.0, size=sig.shape) * bound
    eps = np.where(np.tri(n, k=-1, dtype=bool), eps.T, eps)  # the upper triangle, mirrored
    eps += 0.0  # -0.0 becomes 0.0, as it did when the two triangles were summed
    if spec.enforce_tight:
        i, j = np.unravel_index(np.argmax(np.abs(sig)), sig.shape)
        eps[i, j] = (spec.gamma / math.sqrt(spec.k)) * sig[i, j]
        eps[j, i] = eps[i, j]
    return symmetrize(sig + eps)


# -- structural assumptions -------------------------------------------------


def _json_num(x) -> float | None:
    """Finite float for JSON payloads; non-finite values map to None."""
    x = float(x)
    return x if math.isfinite(x) else None


@dataclass(frozen=True)
class VertexAssumptions:
    kappa: float
    alpha_ratios: tuple[float, float, float]
    beta_v: float
    pass_a1: bool
    pass_a2: bool
    pass_a3: bool


@dataclass(frozen=True)
class AssumptionProfile:
    alpha: float
    beta: float
    kappa0: float
    lambda_floor: float
    k: int
    per_vertex: dict[int, VertexAssumptions] = field(default_factory=dict)

    @property
    def all_pass(self) -> bool:
        return all(
            d.pass_a1 and d.pass_a2 and d.pass_a3 for d in self.per_vertex.values()
        )

    def to_dict(self) -> dict:
        return {
            "alpha": _json_num(self.alpha),
            "beta": _json_num(self.beta),
            "kappa0": _json_num(self.kappa0),
            "lambda_floor": _json_num(self.lambda_floor),
            "k": self.k,
            "all_pass": self.all_pass,
            "per_vertex": {
                str(v + 1): {
                    "kappa": _json_num(d.kappa),
                    "alpha_ratios": [_json_num(r) for r in d.alpha_ratios],
                    "beta": _json_num(d.beta_v),
                    "pass_a1": d.pass_a1,
                    "pass_a2": d.pass_a2,
                    "pass_a3": d.pass_a3,
                }
                for v, d in sorted(self.per_vertex.items())
            },
        }


def check_assumptions(
    g: MixedGraph,
    sigma,
    lam: np.ndarray,
    gamma: float | None = None,
) -> AssumptionProfile:
    """Measure the per-vertex structural constants of an instance.

    Per vertex with parents: the condition number of the parent covariance
    block; the three neighbouring-block norm ratios; the norm of the
    grandparent-to-parent weight block. Aggregates are worst cases over
    vertices. A singular parent block marks that vertex failed instead of
    aborting; a non-finite covariance raises ConfigError. When ``gamma``
    is given, the condition-number cap 1/(2 gamma) is included in the first
    check.

    Vertices with equal (|pa|, |spa|) are measured together: one gather per
    block and one batched SVD or norm per quantity, with the bits the
    per-vertex computation gives.
    """
    sig = gatherable(sigma)  # a reduced one stays implicit: only blocks are read
    if not np.isfinite(sig.base if isinstance(sig, ReducedCovariance) else sig).all():
        raise ConfigError("covariance has non-finite entries")
    lam = np.asarray(lam, dtype=float)
    kappa_cap = (0.5 / gamma) if gamma else float("inf")
    n2_floor = 1.0 / g.n**2 if g.n else 0.0
    lambda_floor = float(np.fmin.reduce(np.abs(lam[g.source, g.target]), initial=np.inf))  # NaN-blind, as min()

    groups: dict[tuple[int, int], list] = {}
    for v in range(g.n):
        pa = g.parents(v)
        if pa:
            spa = g.spa(v)
            groups.setdefault((len(pa), len(spa)), []).append((v, pa, spa))
    per_vertex: dict[int, VertexAssumptions] = {}
    for members in groups.values():
        vs, pa, spa = (np.array(col, dtype=np.intp) for col in zip(*members))
        svals = np.linalg.svd(sig[..., pa[:, :, None], pa[:, None, :]], compute_uv=False)
        denom, low = svals[:, 0], svals[:, -1]
        kappas = np.divide(denom, low, out=np.full_like(denom, np.inf), where=low > 1e-12 * denom)
        norms = np.stack([_row_norms(sig[..., pa, vs[:, None]]), snorm(sig[..., spa[:, :, None], pa[:, None, :]]),
                          _row_norms(sig[..., spa, vs[:, None]])], axis=1)  # 0 where spa is empty
        ratios = np.divide(norms, denom[:, None], out=np.full_like(norms, np.inf), where=denom[:, None] > 0)
        betas = snorm(lam[spa[:, :, None], pa[:, None, :]])
        floors = np.abs(lam[pa, vs[:, None]]).tolist()
        for v, kappa, r, beta_v, floor in zip(vs.tolist(), kappas.tolist(), ratios.tolist(), betas.tolist(), floors):
            pass_a1 = math.isfinite(kappa) and kappa <= kappa_cap
            pass_a2 = max(r) < 1.0
            pass_a3 = beta_v < 1.0 and min(floor) > n2_floor  # min() skips a NaN weight unless it comes first
            per_vertex[v] = VertexAssumptions(kappa, tuple(r), beta_v, pass_a1, pass_a2, pass_a3)
    per_vertex = dict(sorted(per_vertex.items()))
    # Worst cases over the vertices; a singular block's kappa is inf.
    alpha = max([0.0, *(r for d in per_vertex.values() for r in d.alpha_ratios)])
    beta = max([0.0, *(d.beta_v for d in per_vertex.values())])
    kappa0 = max([1.0, *(d.kappa for d in per_vertex.values())])
    return AssumptionProfile(alpha, beta, kappa0, lambda_floor, g.max_degree(), per_vertex)


def _row_norms(x: np.ndarray) -> np.ndarray:
    """2-norm of each row of ``x``, bitwise np.linalg.norm's: matmul takes
    BLAS's dot per row as norm does, where a sum over an axis would not."""
    return np.sqrt((x[:, None, :] @ x[:, :, None])[:, 0, 0])


# -- premise and error-rate constants ---------------------------------------


@dataclass(frozen=True)
class PremiseCheck:
    product: float  # alpha * beta * kappa0
    growth: float  # the composite expression bounded by 0.99 / k
    k: int
    holds: bool

    def to_dict(self) -> dict:
        return {
            "product": _json_num(self.product),
            "growth": _json_num(self.growth),
            "k": self.k,
            "holds": self.holds,
        }


def stability_premise(profile: AssumptionProfile) -> PremiseCheck:
    """Evaluate the two stability inequalities on a measured profile."""
    k = max(profile.k, 1)
    a, b, k0 = profile.alpha, profile.beta, profile.kappa0
    product = a * b * k0
    if product >= 1.0 or not math.isfinite(k0):
        return PremiseCheck(product, float("inf"), k, False)
    denom = 1.0 - product
    growth = (a * k0 / denom) * (1.0 + k0 * (1.0 + b) / denom)
    holds = product < 0.99 and growth < 0.99 / k
    return PremiseCheck(product, growth, k, holds)


@dataclass(frozen=True)
class ErrorRateConstants:
    """Solution of the self-consistent per-vertex error-rate equation.

    ``eta`` bounds the 2-norm error of each recovered parent-weight vector
    per unit gamma; ``tau`` = k * eta / n^2 is the feedback of lower-layer
    errors, ``c_quad`` the coefficient of the second-order gamma term.
    """

    eta: float
    tau: float
    c_quad: float


def eta_bound(profile: AssumptionProfile, n: int, k: int, gamma: float) -> ErrorRateConstants:
    """Iterate the error-rate fixed point until successive iterates agree to
    1e-12 relative, in at most 100 iterations.

    The equation solved is

        eta * D = N(tau) + c_quad(eta) * gamma,
        D = 1 - k a k0 / (1 - a b k0) - k a k0^2 (1 + b) / (1 - a b k0)^2,
        N(tau) = a k0^2 (1+b)(1+b+tau) / (1 - a b k0)^2
                 + k0 a (1+b+tau) / (1 - a b k0),
        tau = k * eta / n^2,
        c_quad = 4 a (1+b) k0^3 (k eta + 1 + b + tau)^2 / (1 - a b k0)^3,

    with (a, b, k0) the measured profile constants. Raises PremiseError
    when the linear coefficient D is not positive.
    """
    a, b, k0 = profile.alpha, profile.beta, profile.kappa0
    if not math.isfinite(k0):
        raise PremiseError("instance has a singular parent covariance block")
    s = 1.0 - a * b * k0
    if s <= 0:
        raise PremiseError(f"alpha*beta*kappa0 = {a * b * k0:g} is not below 1")
    d_lin = 1.0 - k * a * k0 / s - k * a * k0**2 * (1.0 + b) / s**2
    if d_lin <= 0:
        raise PremiseError(f"error-rate denominator {d_lin:g} is not positive")

    def rhs(eta):
        tau = k * eta / n**2
        numer = (
            a * k0**2 * (1.0 + b) * (1.0 + b + tau) / s**2
            + k0 * a * (1.0 + b + tau) / s
        )
        c_quad = 4.0 * a * (1.0 + b) * k0**3 * (k * eta + 1.0 + b + tau) ** 2 / s**3
        return numer + c_quad * gamma, tau, c_quad

    eta = 0.0
    for _ in range(100):
        numer, tau, c_quad = rhs(eta)
        eta_next = numer / d_lin
        if abs(eta_next - eta) <= 1e-12 * max(abs(eta_next), 1e-300):
            return ErrorRateConstants(eta_next, k * eta_next / n**2, rhs(eta_next)[2])
        eta = eta_next
    raise ConvergenceError("error-rate fixed point did not converge in 100 iterations")


def condition_bound(constants: ErrorRateConstants, profile: AssumptionProfile, n: int, k: int) -> float:
    """Upper bound eta * sqrt(k) * n^2 on the condition number, tightened to
    eta * sqrt(k) / lambda_floor when the measured weight floor beats 1/n^2."""
    bound = constants.eta * math.sqrt(k) * n**2
    if math.isfinite(profile.lambda_floor) and profile.lambda_floor > 1.0 / n**2:
        bound = constants.eta * math.sqrt(k) / profile.lambda_floor
    return bound


# -- Monte Carlo condition-number estimation --------------------------------


@dataclass(frozen=True)
class ConditionTrial:
    gamma: float
    trial: int
    ratio: float | None
    rel_sigma: float | None
    rel_lambda: float | None
    failed: bool
    vertex: int | None = None  # the near-singular vertex of a failed draw


@dataclass(frozen=True)
class ConditionEstimate:
    kappa_hat: float
    gamma_grid: tuple[float, ...]
    trials: int
    failures: int
    records: tuple[ConditionTrial, ...]
    # Weights recovered from the unperturbed covariance; not part of the report.
    base_lambda: np.ndarray | None = field(default=None, repr=False, compare=False)

    def to_dict(self) -> dict:
        return {
            "kappa_hat": self.kappa_hat,
            "gamma_grid": list(self.gamma_grid),
            "trials": self.trials,
            "failures": self.failures,
        }


def estimate_condition_number(
    g: MixedGraph,
    sigma,
    trials: int,
    gammas,
    seed: int,
    enforce_tight: bool = False,
    strict: bool = True,
) -> ConditionEstimate:
    """Seeded Monte Carlo lower estimate of the relative condition number.

    kappa_hat is the max over draws of Rel(lam, lam~) / Rel(sigma, sigma~).
    Rel(lam, lam~) compares edge-order weights: they hold the weight
    matrix's nonzero entries in its row-major order, hence its exact value.
    Recovery failures on perturbed draws are counted, with the vertex that
    failed, and excluded from the max. Trial seeds are derived from
    (seed, gamma index, trial index) so a longer run extends a shorter one.
    The unperturbed covariance and the draws are recovered together, in as
    few passes as recover_many's memory bound allows. NearSingularError is
    raised when the unperturbed one fails, before any invalid gamma is
    reported.
    """
    sig = as_matrix(sigma)
    k = max(g.max_degree(), 1)
    draws = [(gamma, gi, t) for gi, gamma in enumerate(gammas) for t in range(trials)]

    def perturbed():
        for gamma, gi, t in draws:
            spec = PerturbationSpec(gamma, k, derived_seed(seed, gi, t), enforce_tight, strict)
            yield sample_perturbation(sig, spec)

    recovered = recover_many(g, itertools.chain([sig], perturbed()))
    try:
        _, base, failed = next(recovered)
    except ConfigError:
        recover_all(g, sig)  # a singular base is reported before a bad gamma
        raise
    if failed >= 0:
        # Alone, the base raises NearSingularError with its singular values.
        base = recover_all(g, sig).weights
    else:
        base = base.copy()  # a view would keep its whole stack alive
    records = []
    kappa_hat = 0.0
    for (gamma, _, t), (draw, lam, failed) in zip(draws, recovered):
        rel_sig = relative_distance(sig, draw)
        if failed >= 0:
            records.append(ConditionTrial(gamma, t, None, rel_sig, None, True, int(failed)))
            continue
        if np.all(base == 0) or rel_sig == 0:
            records.append(ConditionTrial(gamma, t, None, rel_sig, None, False))
            continue
        rel_lam = relative_distance(base, lam)
        ratio = rel_lam / rel_sig
        kappa_hat = max(kappa_hat, ratio)
        records.append(ConditionTrial(gamma, t, ratio, rel_sig, rel_lam, False))
    failures = sum(rec.failed for rec in records)
    return ConditionEstimate(kappa_hat, tuple(gammas), trials, failures, tuple(records), weight_matrix(g, base))
