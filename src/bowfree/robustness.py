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

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ConvergenceError, PremiseError
from .generators import derived_seed
from .graphs import MixedGraph, _row_pointers, _runs, _unique
from .linalg import pow2_rows, snorm, symmetrize
from .lsem import _checked_covariance, as_matrix
from .recovery import PlanReads, recover_all, recovery_plan


def relative_distance(a, b) -> float | np.ndarray:
    """Max entrywise relative deviation of b from a over nonzero entries of a.

    Not symmetric: entries of ``a`` are the denominators, and positions
    where a is zero are skipped entirely. A stack ``b`` (..., *a.shape)
    gives one distance per member, each with the bits of that member alone.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if b.shape[b.ndim - a.ndim :] != a.shape:
        raise ConfigError(f"shape mismatch {a.shape} vs {b.shape}")
    zero = np.flatnonzero(a == 0)
    if zero.size == a.size:
        raise ConfigError("relative distance is undefined for an all-zero reference")
    # Unmasked passes, faster than where=: a zero of a divides by 1, without a warning, and is then reset.
    mag, rel, out = np.where(a == 0, 1.0, np.abs(a)), np.empty(a.shape), np.empty(b.shape[: b.ndim - a.ndim])
    for i in np.ndindex(out.shape):  # in one scratch of a's size: a chunk-sized one was no faster
        np.divide(np.abs(np.subtract(a, b[i], out=rel), out=rel), mag, out=rel)
        rel.flat[zero] = 0.0
        out[i] = np.max(rel, initial=0.0)
    return out if out.ndim else float(out)


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


def sample_perturbation(sigma, spec: PerturbationSpec | list[PerturbationSpec], out=None) -> np.ndarray:
    """Draw sigma + eps with |eps_ij| <= (gamma / sqrt(k)) |sigma_ij|.

    With ``enforce_tight`` the entry of largest magnitude is set to exactly
    (gamma / sqrt(k)) sigma_ij so the relative distance of the draw equals
    gamma / sqrt(k). A sequence of specs gives one draw each, with the bits
    of that spec alone, stacked (T, n, n) into ``out`` when it is given.
    """
    sig = as_matrix(sigma)
    n = sig.shape[0]
    specs = [spec] if isinstance(spec, PerturbationSpec) else spec
    draws = np.empty((len(specs), *sig.shape)) if out is None else out
    mag, lower = np.abs(sig), np.tri(n, k=-1, dtype=bool)
    sig0 = sig + 0.0  # sig0 + eps has the bits of sig + (eps + 0.0): a -0.0 in eps counts as 0.0
    i, j = np.unravel_index(np.argmax(mag), sig.shape)
    # Draws of a symmetric sigma are symmetric, and |draw| <= (1 + c) max|sigma|
    # up to rounding: below 2^1022 the mirror average x + x cannot overflow.
    symmetric, top = np.array_equal(sig, sig.T), mag.max(initial=0.0)
    eps, bound = np.empty(sig.shape), np.empty(sig.shape)
    for s, x in zip(specs, draws):
        s.validate(n)
        c = s.gamma / math.sqrt(s.k)
        np.multiply(np.random.default_rng(s.seed).random(out=eps), 2.0, out=eps)
        np.multiply(np.subtract(eps, 1.0, out=eps), np.multiply(c, mag, out=bound), out=eps)  # uniform(-1, 1)'s bits
        np.add(sig0, eps, out=x)
        np.add(sig0, eps.T, out=x, where=lower)  # the upper triangle of eps, mirrored
        if s.enforce_tight:
            x[i, j], x[j, i] = sig[i, j] + c * sig[i, j], sig[j, i] + c * sig[i, j]
        if not (symmetric and (1.0 + c) * top < 2.0**1022):
            x[...] = symmetrize(x)
    return draws[0] if isinstance(spec, PerturbationSpec) else draws


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
    weights: np.ndarray,
    gamma: float | None = None,
) -> AssumptionProfile:
    """Measure the per-vertex structural constants of an instance.

    ``weights`` are g's edge weights in its edge order, as recover_all
    gives them. Per vertex with parents: the condition number of the parent
    covariance block; the three neighbouring-block norm ratios; the norm of
    the grandparent-to-parent weight block. Aggregates are worst cases over
    vertices. A singular parent block marks that vertex failed instead of
    aborting; a covariance of another shape raises OrderingError, a
    non-finite one or weights of the wrong shape ConfigError. When
    ``gamma`` is given, the condition-number cap 1/(2 gamma) is included
    in the first check.

    Vertices with equal (|pa|, |spa|) are measured together: one gather per
    block and one batched SVD or norm per quantity, with the bits the
    per-vertex computation gives.
    """
    sig = _checked_covariance(sigma, g.n)  # a reduced one stays implicit: only blocks are read
    weights = np.asarray(weights, dtype=float)
    if weights.shape != g.source.shape:
        raise ConfigError(f"{g.source.size} edge weights expected, got shape {weights.shape}")
    kappa_cap = (0.5 / gamma) if gamma else float("inf")
    n2_floor = 1.0 / g.n**2 if g.n else 0.0
    lambda_floor = float(np.fmin.reduce(np.abs(weights), initial=np.inf))  # NaN-blind, as min()

    # v's parents are parents[ptr[v]:ptr[v + 1]], ascending; its second parents, each edge
    # p -> v joined to p's in-edges and sorted once, are second[spa_ptr[v]:spa_ptr[v + 1]].
    ptr, span, into, indeg = g._in_ptr, g.n + 1, g._in_order, g._in_degree
    parents, k = g.source[into], indeg[g.source]
    grand = parents[_runs(ptr[g.source], k)]
    keys = _unique(np.repeat(g.target, k) * span + grand)
    second, spa_ptr = keys % span, _row_pointers(keys // span, g.n)
    sizes = indeg * span + np.diff(spa_ptr)  # (|pa|, |spa|) as one number
    per_vertex: dict[int, VertexAssumptions] = {}
    for size in _unique(sizes[ptr[1:] > ptr[:-1]]).tolist():
        vs = np.flatnonzero(sizes == size)
        pa_edges = into[ptr[vs, None] + np.arange(size // span)]
        pa = g.source[pa_edges]
        spa = second[spa_ptr[vs, None] + np.arange(size % span)]
        svals = np.linalg.svd(sig[..., pa[:, :, None], pa[:, None, :]], compute_uv=False)
        denom, low = svals[:, 0], svals[:, -1]
        kappas = np.divide(denom, low, out=np.full_like(denom, np.inf), where=low > 1e-12 * denom)
        norms = np.stack([_row_norms(sig[..., pa, vs[:, None]]), snorm(sig[..., spa[:, :, None], pa[:, None, :]]),
                          _row_norms(sig[..., spa, vs[:, None]])], axis=1)  # 0 where spa is empty
        ratios = np.divide(norms, denom[:, None], out=np.full_like(norms, np.inf), where=denom[:, None] > 0)
        betas = snorm(g.edge_weights(weights, spa[:, :, None], pa[:, None, :]))
        floors = np.abs(weights[pa_edges]).tolist()
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
    """2-norm of each row of ``x``, bitwise np.linalg.norm's where that one
    neither overflows nor underflows: matmul takes BLAS's dot per row as
    norm does, where a sum over an axis would not."""
    x, e = pow2_rows(x)
    return np.ldexp(np.sqrt((x[:, None, :] @ x[:, :, None])[:, 0, 0]), e)


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

# perturbation_ratios' read stack, 8 (K + |E|) bytes per slot for K plan reads
# and the recovered weights, and its dense scratch of n x n draws each hold at
# most this many bytes. 8 MiB holds 49 slots of reads at n = 1000 (K = 19,380).
STACK_BYTES = 8 * 2**20


def perturbation_ratios(g: MixedGraph, sigma: np.ndarray, draws: int, fill):
    """Recover the covariance ``sigma`` and ``draws`` perturbations of it,
    and measure each draw against sigma and the base weights.

    Returns ``(base, base_failed, rel_sigma, rel_lambda, failed_vertex)``:
    the weights recovered from sigma, in edge order, and whether that
    recovery failed; then per draw Rel(sigma, sigma~), Rel(lam, lam~) (NaN
    for a failed draw or an all-zero base) and the near-singular vertex of
    a failed draw (-1 for the others). ``fill(out, lo)`` writes draws lo,
    lo + 1, ... into the slots ``out`` of a reused n x n scratch of at most
    STACK_BYTES, where Rel(sigma, sigma~) is measured; their reads go to a
    reused stack of as many slots as STACK_BYTES holds, sigma's first, which
    one recover_all call recovers per chunk. Each member is measured with the
    bits it has alone. When the base fails nothing more is recovered and
    the per-draw values stay NaN and -1.
    """
    g.require_bow_free()  # before the plan's layering raises for a cycle, as in recover_all
    plan = recovery_plan(g)
    slot = 8 * max(plan.read_rows.size + g.source.size, 1)
    stack = np.empty((max(1, min(STACK_BYTES // slot, draws + 1)), plan.read_rows.size))
    scratch = np.empty((max(1, min(STACK_BYTES // (8 * sigma.size), draws, len(stack))), *sigma.shape))
    stack[0] = plan.gather(_checked_covariance(sigma, g.n)).values
    rel_sigma, rel_lambda, failed_vertex = np.full(draws, np.nan), np.full(draws, np.nan), np.full(draws, -1)
    for lo in range(0, draws + 1, len(stack)):  # positions in (sigma, *draws)
        first = int(lo == 0)
        chunk = stack[: min(len(stack), draws + 1 - lo)]
        at = slice(lo - 1 + first, lo - 1 + len(chunk))  # the chunk's draws
        rel = np.empty(len(chunk) - first)
        for d in range(0, len(rel), len(scratch)):  # draws at.start + d, ... into the scratch
            fill(out := scratch[: min(len(scratch), len(rel) - d)], at.start + d)
            rel[d : d + len(out)] = relative_distance(sigma, _checked_covariance(out, g.n, stack=True))
            chunk[first + d : first + d + len(out)] = plan.gather(out).values
        result = recover_all(g, PlanReads(chunk))
        if first:
            base, base_failed = result.weights[0].copy(), bool(result.failed_vertex[0] >= 0)
            if base_failed:
                break
        rel_sigma[at] = rel
        if np.any(base != 0):
            rel_lambda[at] = relative_distance(base, result.weights[first:])
        failed_vertex[at] = result.failed_vertex[first:]
    return base, base_failed, rel_sigma, rel_lambda, failed_vertex


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
    # Edge-order weights recovered from the unperturbed covariance; not part of the report.
    base_weights: np.ndarray | None = field(default=None, repr=False, compare=False)

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
    The draws are made in place by perturbation_ratios' chunks.
    A covariance of another shape or with a non-finite entry is rejected
    first; NearSingularError is raised when the unperturbed covariance
    fails, before any invalid gamma is reported.
    """
    sig = as_matrix(_checked_covariance(sigma, g.n))
    k = max(g.max_degree(), 1)
    specs = [PerturbationSpec(gamma, k, derived_seed(seed, gi, t), enforce_tight, strict)
             for gi, gamma in enumerate(gammas) for t in range(trials)]

    def draw(out, lo):
        sample_perturbation(sig, specs[lo : lo + len(out)], out=out)

    try:
        base, base_failed, rel_sigma, rel_lambda, failed_vertex = perturbation_ratios(g, sig, len(specs), draw)
    except ConfigError:
        recover_all(g, sig)  # a singular base is reported before a bad gamma
        raise
    if base_failed:
        recover_all(g, sig)  # raises NearSingularError with the singular values
    records, kappa_hat = [], 0.0
    rows = zip(specs, rel_sigma.tolist(), rel_lambda.tolist(), failed_vertex.tolist())
    for j, (spec, rs, rl, failed) in enumerate(rows):
        if failed >= 0:
            records.append(ConditionTrial(spec.gamma, j % trials, None, rs, None, True, failed))
        elif math.isnan(rl) or rs == 0:  # an all-zero base leaves rel_lambda NaN
            records.append(ConditionTrial(spec.gamma, j % trials, None, rs, None, False))
        else:
            kappa_hat = max(kappa_hat, rl / rs)
            records.append(ConditionTrial(spec.gamma, j % trials, rl / rs, rs, rl, False))
    failures = sum(rec.failed for rec in records)
    return ConditionEstimate(kappa_hat, tuple(gammas), trials, failures, tuple(records), base)
