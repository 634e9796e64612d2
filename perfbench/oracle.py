"""Reference computations the benchmark checks the program's outputs against.

These re-derive, with plain numpy and none of the package's code, the
numbers the timed ops report: edge weights recovered layer by layer, the
Monte Carlo condition estimate of ``bowfree condition`` and the ratios of
``bowfree experiment --mode simulated``. They follow the paper's
definitions, not the package's code paths, so a faster implementation
inside the package is still checked against the same numbers. Random
draws use the package's documented seed derivations (``SeedSequence`` of
the absolute indices), which are part of its replay contract.

Agreement with the package at the commit that introduced the benchmark:
simulated ratios to about 1e-13 relative, kappa_hat to at most 1.7e-6
(see README.md for why kappa_hat cannot agree more closely).
"""

from __future__ import annotations

import math

import numpy as np


def derived_seed(*parts) -> int:
    return int(np.random.SeedSequence([int(p) for p in parts]).generate_state(1)[0])


def parent_lists(n, edges):
    """Ascending parent list per vertex from (source, target) pairs."""
    parents = [[] for _ in range(n)]
    for u, v in edges:
        parents[v].append(u)
    return [sorted(p) for p in parents]


def topological_order(parents):
    n = len(parents)
    children = [[] for _ in range(n)]
    for v, pa in enumerate(parents):
        for u in pa:
            children[u].append(v)
    indeg = [len(pa) for pa in parents]
    order = [v for v in range(n) if indeg[v] == 0]
    for v in order:
        for c in children[v]:
            indeg[c] -= 1
            if indeg[c] == 0:
                order.append(c)
    return order


def layer_of(parents) -> list[int]:
    """Longest-path DAG layer of each vertex; parentless vertices are layer 1."""
    layer = [1] * len(parents)
    for v in topological_order(parents):
        for u in parents[v]:
            layer[v] = max(layer[v], layer[u] + 1)
    return layer


def recover_weights(parents, sigmas: np.ndarray) -> np.ndarray:
    """Recovered weight matrices for a stack of covariances ``(T, n, n)``.

    Vertex v's weights solve A x = b with rows taken at v's parents y, each
    row being row y of (I - lam)^T sigma restricted to (pa(v), v); the
    weights of y's own parents are known because y is solved first.
    """
    sigmas = np.asarray(sigmas, dtype=float)
    lam = np.zeros(sigmas.shape)
    for v in topological_order(parents):
        pa = parents[v]
        if not pa:
            continue
        cols = pa + [v]
        rows = []
        for y in pa:
            row = sigmas[:, y, cols]
            pa_y = parents[y]
            if pa_y:
                block = sigmas[:, pa_y][:, :, cols]
                row = row - np.einsum("tp,tpc->tc", lam[:, pa_y, y], block)
            rows.append(row)
        system = np.stack(rows, axis=1)
        lam[:, pa, v] = np.linalg.solve(system[:, :, :-1], system[:, :, -1:])[..., 0]
    return lam


def relative_distance(a: np.ndarray, b: np.ndarray) -> float:
    """max |a - b| / |a| over the nonzero entries of a."""
    nz = a != 0
    return float(np.max(np.abs(a[nz] - b[nz]) / np.abs(a[nz])))


def condition_kappa(parents, sigma: np.ndarray, trials: int, gammas, seed: int) -> float:
    """kappa_hat of the entrywise perturbation study.

    Draw (gi, t) scales each upper-triangle entry by a uniform factor in
    [-gamma/sqrt(k), gamma/sqrt(k)], mirrors it, and compares the relative
    change of the recovered weights with that of the covariance; k is the
    largest directed in- or out-degree.
    """
    n = sigma.shape[0]
    out_degree = [0] * n
    for pa in parents:
        for u in pa:
            out_degree[u] += 1
    k = max(1, max(out_degree), max(len(pa) for pa in parents))
    draws = [sigma]
    for gi, gamma in enumerate(gammas):
        for t in range(trials):
            rng = np.random.default_rng(derived_seed(seed, gi, t))
            eps = np.triu(rng.uniform(-1.0, 1.0, size=sigma.shape) * (gamma / math.sqrt(k)) * np.abs(sigma))
            eps = eps + np.triu(eps, 1).T
            draws.append(sigma + eps)
    lams = recover_weights(parents, np.stack(draws))
    kappa = 0.0
    for i in range(1, len(draws)):
        rel_sigma = relative_distance(sigma, draws[i])
        kappa = max(kappa, relative_distance(lams[0], lams[i]) / rel_sigma)
    return kappa


def forward_covariance(lam: np.ndarray, omega: np.ndarray) -> np.ndarray:
    """(I - lam)^{-T} omega (I - lam)^{-1}, symmetrized."""
    inv = np.linalg.inv(np.eye(lam.shape[0]) - lam)
    sigma = inv.T @ omega @ inv
    return (sigma + sigma.T) / 2.0


def sample_cov(sigma: np.ndarray, m: int, seed: int) -> np.ndarray:
    """Covariance (divisor m-1, mean-centred) of m seeded Gaussian draws."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((m, sigma.shape[0])) @ np.linalg.cholesky(sigma).T
    centred = x - x.mean(axis=0, keepdims=True)
    cov = centred.T @ centred / (m - 1)
    return (cov + cov.T) / 2.0


def simulated_ratios(parents, lam: np.ndarray, omega: np.ndarray, samples: int, run_seeds) -> list[float]:
    """Ratios of one simulated-experiment graph, one per run seed."""
    sigma = forward_covariance(lam, omega)
    sampled = [sample_cov(sigma, samples, s) for s in run_seeds]
    lams = recover_weights(parents, np.stack([sigma] + sampled))
    return [
        relative_distance(lams[0], lams[i]) / relative_distance(sigma, sampled[i - 1])
        for i in range(1, len(lams))
    ]
