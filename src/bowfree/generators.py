"""Random instance generation.

Two graph samplers are provided: the permutation-order sampler used with
the gene-expression pipeline, and a width-k layered sampler whose directed
in- and out-degrees are bounded by k by construction. Parameter samplers
cover the truncated-uniform weight model with spherical noise Gram
matrices, and the experiments' uniform-weight / diagonally-dominant noise
model. All generators are deterministic functions of (config, seed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DefinitenessError
from .graphs import MixedGraph, _runs
from .lsem import ParamSet, as_matrix, forward_map

_RETRY_CAP = 1_000_000
# Largest n x d float64 matrix of unit vectors gen_omega_spherical may hold
# (1 GiB); d_min grows as k^8 ln(n)^4, past 36 GiB at n=500, k=3.
SPHERE_BYTES_MAX = 1 << 30


@dataclass(frozen=True)
class RandomGraphConfig:
    n: int
    p: float
    extra_bidirected_p: float = 0.1
    seed: int = 0

    def validate(self):
        if not (0.0 <= self.p <= 1.0) or not (0.0 <= self.extra_bidirected_p <= 1.0):
            raise ConfigError("edge probabilities must lie in [0, 1]")
        if self.n < 0:
            raise ConfigError("vertex count must be nonnegative")


@dataclass(frozen=True)
class GenerativeConfig:
    """Truncated-uniform weights with spherical noise vectors.

    Weights are drawn from U[-1/(2 k mu), 1/(2 k mu)] excluding
    [-1/n^2, 1/n^2]; the noise Gram matrix comes from unit vectors in R^d
    projected off the span of their parents' vectors.
    """

    n: int
    k: int
    mu: float
    d: int
    seed: int = 0

    def validate(self):
        if self.k < 1:
            raise ConfigError("degree bound k must be >= 1")
        if not (10 * (self.k + 1) <= self.mu < math.inf):  # NaN too
            raise ConfigError(f"mu={self.mu} must be finite and at least 10*(k+1)={10 * (self.k + 1)}")
        if self.d < 1:
            raise ConfigError("sphere dimension d must be >= 1")
        if 8 * self.n * self.d > SPHERE_BYTES_MAX:
            raise ConfigError(
                f"n={self.n} unit vectors of dimension d={self.d} need {8 * self.n * self.d / 2**30:.1f} GiB, "
                f"above the {SPHERE_BYTES_MAX / 2**30:g} GiB bound"
            )
        if 2 * self.k * self.mu >= self.n**2:
            raise ConfigError(
                f"empty sampling interval: need 2*k*mu < n^2, got "
                f"{2 * self.k * self.mu} >= {self.n ** 2}"
            )


@dataclass(frozen=True)
class SDDNoiseConfig:
    range: float
    seed: int = 0

    def validate(self):
        if not (0 < self.range <= np.finfo(float).max / 2):  # NaN too; uniform(-range, range) spans 2 * range
            raise ConfigError(f"weight range {self.range} must be positive, and finite when doubled")


def derived_seed(*parts) -> int:
    """One seed from integer parts such as (seed, stage, index, ...)."""
    return int(np.random.SeedSequence([int(p) for p in parts]).generate_state(1)[0])


def _attach_bidirected(n, source, target, rng, extra_p) -> np.ndarray:
    """One mandatory bidirected partner per vertex plus extras; never on a
    pair that already carries a directed edge. The partners of the vertices
    with candidates draw in one bulk call in vertex order, and the extras
    once per eligible pair u < v, in one bulk call in row-major order.
    Returns the pairs as (u, v) rows with u < v."""
    adjacent = np.eye(n, dtype=bool)
    adjacent[source, target] = adjacent[target, source] = True
    degree = np.count_nonzero(adjacent, axis=1)
    js = np.flatnonzero(degree < n)
    pick = np.zeros(n, dtype=np.int64)
    pick[js] = rng.integers(n - degree[js])
    # j's partner is its pick-th non-adjacent vertex: pick plus the vertices
    # adjacent to j below it, those with at most pick non-adjacent ones below.
    rows, cols = np.nonzero(adjacent)
    below = cols - _runs(0, degree)  # rows holds degree[j] entries of each row j, in order
    i = (pick + np.bincount(rows[below <= pick[rows]], minlength=n))[js]
    bidirected = np.zeros((n, n), dtype=bool)
    bidirected[np.minimum(i, js), np.maximum(i, js)] = True
    us, vs = np.nonzero(np.triu(~adjacent & ~bidirected))
    extra = rng.random(us.size) < extra_p
    bidirected[us[extra], vs[extra]] = True
    return np.argwhere(bidirected)


def gen_random_bowfree_graph(cfg: RandomGraphConfig) -> MixedGraph:
    """Permutation-ordered random DAG with bow-free bidirected attachment."""
    cfg.validate()
    rng = np.random.default_rng(cfg.seed)
    order = rng.permutation(cfg.n)
    rank = np.empty(cfg.n, dtype=int)
    rank[order] = np.arange(cfg.n)
    sources, targets = np.nonzero(rank[:, None] < rank[None, :])
    keep = rng.random(sources.size) < cfg.p
    source, target = sources[keep], targets[keep]
    bidirected = _attach_bidirected(cfg.n, source, target, rng, cfg.extra_bidirected_p)
    return MixedGraph.from_arrays(cfg.n, source, target, bidirected=bidirected)


def gen_layered_bowfree_graph(
    n: int, k: int, p: float, seed: int, extra_bidirected_p: float = 0.1
) -> MixedGraph:
    """Layered DAG with at most k vertices per layer and edges only between
    consecutive layers, so in- and out-degrees are bounded by k."""
    if k < 1:
        raise ConfigError("layer width k must be >= 1")
    if not (0.0 <= p <= 1.0) or not (0.0 <= extra_bidirected_p <= 1.0):
        raise ConfigError("edge probabilities must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    # Layer j holds vertices jk..jk+k-1; vertex u may point at any of the k
    # slots of the next layer that exist. One coin per (u, v) pair, drawn
    # in bulk in (u, v) order.
    slots = (np.arange(n) // k + 1)[:, None] * k + np.arange(k)
    source, slot = np.nonzero(slots < n)
    target = slots[source, slot]
    keep = rng.random(source.size) < p
    source, target = source[keep], target[keep]
    bidirected = _attach_bidirected(n, source, target, rng, extra_bidirected_p)
    return MixedGraph.from_arrays(n, source, target, bidirected=bidirected)


def gen_lambda_uniform(g: MixedGraph, cfg: GenerativeConfig) -> np.ndarray:
    """Truncated-uniform weight per edge via rejection sampling."""
    cfg.validate()
    rng = np.random.default_rng(cfg.seed)
    half = 1.0 / (2 * cfg.k * cfg.mu)
    hole = 1.0 / g.n**2
    lam = np.zeros((g.n, g.n))
    for u, v in zip(g.source.tolist(), g.target.tolist()):
        for _ in range(_RETRY_CAP):
            draw = rng.uniform(-half, half)
            if abs(draw) > hole:
                lam[u, v] = draw
                break
        else:
            raise ConfigError("rejection sampling exhausted its retry cap")
    return lam


def gen_omega_spherical(g: MixedGraph, cfg: GenerativeConfig) -> np.ndarray:
    """Noise Gram matrix from unit vectors orthogonal to their parents' span.

    Vectors are processed in topological order; each raw draw loses its
    component in the span of the (final) parent vectors, so noise
    correlations vanish exactly on every directed edge.
    """
    cfg.validate()
    rng = np.random.default_rng(cfg.seed)
    order = g.topological_order()
    vectors = np.zeros((g.n, cfg.d))
    for v in order:
        pa = list(g.parents(v))
        basis = None
        if pa:
            basis, _ = np.linalg.qr(vectors[pa].T)
        for _ in range(_RETRY_CAP):
            raw = rng.standard_normal(cfg.d)
            raw /= np.linalg.norm(raw)
            if basis is not None:
                raw = raw - basis @ (basis.T @ raw)
            norm = np.linalg.norm(raw)
            if norm >= 1e-12:
                vectors[v] = raw / norm
                break
        else:
            raise ConfigError("sphere sampling kept collapsing onto the parent span")
    omega = vectors @ vectors.T
    np.fill_diagonal(omega, 1.0)
    return omega


def gen_omega_sdd(g: MixedGraph, cfg: SDDNoiseConfig) -> np.ndarray:
    """Diagonally dominant noise covariance on the bidirected pattern:
    standard-normal entries per bidirected edge, row-dominant diagonal plus
    an independent chi-squared(1) draw per row."""
    cfg.validate()
    rng = np.random.default_rng(cfg.seed)
    omega = np.zeros((g.n, g.n))
    us, vs = g.pairs.T
    omega[us, vs] = omega[vs, us] = rng.standard_normal(us.size)
    diag = np.abs(omega).sum(axis=1) + rng.chisquare(1, size=g.n)
    np.fill_diagonal(omega, diag)
    return omega


def gen_lambda_range(g: MixedGraph, cfg: SDDNoiseConfig) -> np.ndarray:
    """Uniform weights on [-range, range] per structural edge."""
    cfg.validate()
    rng = np.random.default_rng(cfg.seed)
    lam = np.zeros((g.n, g.n))
    lam[g.source, g.target] = rng.uniform(-cfg.range, cfg.range, size=g.source.size)
    return lam


def d_min(k: int, n: int) -> int:
    """Sphere dimension ceil(k^8 * ln(n)^4) taming the Gram tails."""
    if n < 2:
        raise ConfigError("need n >= 2")
    return math.ceil(k**8 * math.log(n) ** 4)


def sample_observations(sigma, m: int, seed: int) -> np.ndarray:
    """m i.i.d. zero-mean Gaussian rows with the given covariance."""
    sig = as_matrix(sigma)
    try:
        factor = np.linalg.cholesky(sig)
    except np.linalg.LinAlgError as exc:
        raise DefinitenessError(f"covariance admits no Cholesky factor: {exc}") from exc
    rng = np.random.default_rng(seed)
    return rng.standard_normal((m, sig.shape[0])) @ factor.T


# -- whole-instance builders -------------------------------------------------


@dataclass(frozen=True)
class Instance:
    graph: MixedGraph
    params: ParamSet
    sigma: np.ndarray


def gen_generative_instance(
    n: int, k: int, p: float, seed: int, mu: float | None = None, d: int | None = None
) -> Instance:
    """Random layered k-bow-free model with truncated-uniform weights and a
    spherical noise Gram matrix.

    The sphere construction leaves small nonzero correlations on every
    non-adjacent pair, so the instance graph carries the full non-adjacent
    bidirected pattern.
    """
    mu = 10.0 * (k + 1) if mu is None else mu
    d = d_min(k, n) if d is None else d
    root = np.random.SeedSequence(seed)
    graph_seed, lam_seed, omega_seed = (int(s.generate_state(1)[0]) for s in root.spawn(3))
    skeleton = gen_layered_bowfree_graph(n, k, p, graph_seed)
    adjacent = np.eye(n, dtype=bool)
    adjacent[skeleton.source, skeleton.target] = adjacent[skeleton.target, skeleton.source] = True
    g = MixedGraph.from_arrays(n, skeleton.source, skeleton.target, bidirected=np.argwhere(np.triu(~adjacent)))
    lam = gen_lambda_uniform(g, GenerativeConfig(n, k, mu, d, seed=lam_seed))
    omega = gen_omega_spherical(g, GenerativeConfig(n, k, mu, d, seed=omega_seed))
    params = ParamSet(lam, omega)
    return Instance(g, params, forward_map(g, params))


def gen_sdd_instance(
    n: int, k: int, p: float, weight_range: float, seed: int, extra_bidirected_p: float = 0.1
) -> Instance:
    """Layered instance with uniform weights and diagonally dominant noise."""
    root = np.random.SeedSequence(seed)
    graph_seed, lam_seed, omega_seed = (int(s.generate_state(1)[0]) for s in root.spawn(3))
    g = gen_layered_bowfree_graph(n, k, p, graph_seed, extra_bidirected_p)
    lam = gen_lambda_range(g, SDDNoiseConfig(weight_range, lam_seed))
    omega = gen_omega_sdd(g, SDDNoiseConfig(weight_range, omega_seed))
    params = ParamSet(lam, omega)
    return Instance(g, params, forward_map(g, params))
