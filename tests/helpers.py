"""Test-side helpers that measure the library rather than extend it."""

import math
from dataclasses import dataclass, replace

import numpy as np

from bowfree.errors import ConfigError, NearSingularError
from bowfree.generators import derived_seed
from bowfree.graphs import MixedGraph
from bowfree.linalg import symmetrize
from bowfree.lsem import as_matrix
from bowfree.recovery import RecoverySystem, build_system, recover_all
from bowfree.reduction import VERIFY_TOL, Gadgets, ReductionOutput, ReductionReport
from bowfree.robustness import (
    ConditionEstimate,
    ConditionTrial,
    ErrorRateConstants,
    PerturbationSpec,
    sample_perturbation,
)


def in_edges(g: MixedGraph, v) -> np.ndarray:
    """Indices of v's in-edges into g's edge arrays, by ascending parent:
    found by a scan of the targets, apart from the graph's own index."""
    return np.flatnonzero(g.target == v)


def reference_bows(g: MixedGraph) -> list[tuple[int, int]]:
    """bow_violations by sorting: a bow's (min, max) key is both an undirected
    edge key and a pair key, and each set is duplicate-free, so it shows as a
    repeat in their sorted union. The reference for the key lookup."""
    span = max(g.n, 1)
    edges = np.unique(np.minimum(g.source, g.target) * span + np.maximum(g.source, g.target))
    keys = np.sort(np.concatenate([edges, g.pairs[:, 0] * span + g.pairs[:, 1]]))
    bows = keys[1:][keys[1:] == keys[:-1]]
    return list(zip((bows // span).tolist(), (bows % span).tolist()))


def spa(g: MixedGraph, v) -> tuple[int, ...]:
    """Second parents: union of parents of parents of v."""
    out = set()
    for p in g.parents(v):
        out.update(g.parents(p))
    return tuple(sorted(out))


def recover_alone(g: MixedGraph, sigma) -> tuple[np.ndarray, int]:
    """recover_all of one covariance as ``(weights, failed_vertex)``: NaN
    weights and the vertex it raises for when it is near-singular, else -1."""
    try:
        return recover_all(g, sigma).weights, -1
    except NearSingularError as exc:
        return np.full(g.source.shape, np.nan), exc.vertex


def reference_build_system(g: MixedGraph, sigma, weights: np.ndarray, v: int) -> RecoverySystem:
    """build_system assembled by walking the graph's adjacency from vertex v:
    the reference that the compiled recovery plan must match bit for bit.
    ``sigma`` is an array or a ReducedCovariance."""

    def source(y):  # follow forced in-edges upstream to the vertex y copies
        while g.parents(y) and not np.isnan(g.forced[in_edges(g, y)]).any():
            y = g.parents(y)[0]
        return y

    edges = in_edges(g, v)
    free = np.isnan(g.forced[edges])
    unknown, known = g.source[edges[free]].tolist(), g.source[edges[~free]].tolist()
    rows = [source(p) for p in unknown]
    cols = np.array([*unknown, *known, v], dtype=int)
    full = sigma[..., np.array(rows, dtype=int)[:, None], cols]
    upstream = [in_edges(g, y) for y in rows]
    width = max(map(len, upstream), default=0)
    if width:
        edge_idx = np.zeros((len(rows), width), dtype=int)
        live = np.zeros((len(rows), width))
        for i, up in enumerate(upstream):
            edge_idx[i, : len(up)] = up
            live[i, : len(up)] = 1.0
        pa_idx = np.where(live > 0, g.source[edge_idx], 0)
        full = full - np.einsum(
            "...rp,...rpc->...rc", weights[..., edge_idx] * live, sigma[..., pa_idx[:, :, None], cols]
        )
    m = len(unknown)
    b = full[..., -1]
    if known:
        b = b - full[..., m:-1] @ g.forced[edges[~free]]
    return RecoverySystem(v, tuple(rows), tuple(unknown), full[..., :m], b)


def reference_build_gadgets(heads, tails, qs, r: int, start: int):
    """build_gadgets built from one edge template per distinct q: the
    reference that the one-pass build must match. Returns the same table and
    the same edges, grouped by q rather than by gadget."""
    heads, tails, qs = (np.atleast_1d(np.asarray(x, dtype=np.int64)) for x in (heads, tails, qs))
    sizes = np.where(qs > 0, (qs - 1) * r + r * r, 0) + 1
    firsts = start + np.cumsum(sizes) - sizes
    edges = [(np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros(0))]
    for q in sorted(set(qs.tolist())):
        # In ids relative to a gadget's first id, with -1 for the head and
        # -2 for the tail.
        widths = [r] * (q - 1) + [r * r] if q else []
        starts = np.cumsum([0] + widths)  # stage s is starts[s]:starts[s + 1]; the collector is starts[-1]
        chain = [np.array([-1])] + [np.arange(a, b) for a, b in zip(starts[:-1], starts[1:])] + [starts[-1:]]
        src = np.concatenate([np.repeat(a, b.size) for a, b in zip(chain, chain[1:])] + [starts[-1:]])
        tgt = np.concatenate([np.tile(b, a.size) for a, b in zip(chain, chain[1:])] + [[-2]])
        weight = np.full(src.size, 1.0 / r if q else 1.0)
        weight[-1] = np.nan  # collector -> tail is the free edge
        members = np.flatnonzero(qs == q)
        head, tail, base = heads[members, None], tails[members, None], firsts[members, None]
        ends = [np.select([t == -1, t == -2], [head, tail], t + base).ravel() for t in (src, tgt)]
        edges.append((*ends, np.tile(weight, members.size)))
    gadgets = Gadgets(heads, tails, qs, firsts, firsts + sizes - 1)
    return gadgets, tuple(np.concatenate(x) for x in zip(*edges))


def reference_verify_reduction(g: MixedGraph, sigma, red: ReductionOutput) -> ReductionReport:
    """verify_reduction with both systems of every original vertex rebuilt
    by build_system after the two recoveries: the reference that comparing
    the systems recovery kept must match report for report."""
    notes = []
    bow_free = not red.g_prime.bow_violations()
    layered = red.g_prime.is_k_layered()
    sig = as_matrix(sigma)
    base = recover_all(g, sig)
    try:
        reduced = recover_all(red.g_prime, red.sigma_prime)
    except NearSingularError as exc:
        return ReductionReport(bow_free, layered, False, False, float("inf"),
                               notes=(f"recovery failed on the reduced instance: {exc}",))
    heads, tails, _, _, collectors = red.gadgets
    got = red.g_prime.edge_weights(reduced.weights, collectors, tails)
    want = g.edge_weights(base.weights, heads, tails)
    err = np.abs(got - want)
    bad = err > VERIFY_TOL
    for h, t, a, b in zip(heads[bad], tails[bad], got[bad], want[bad]):
        notes.append(f"gadget {h + 1}->{t + 1}: recovered {a:.12g}, expected {b:.12g}")
    mismatched = []
    sizes = red.gadgets.collector + 1 - red.gadgets.first  # each vertex's gadget head, from the gadget table
    head = np.concatenate([np.arange(red.g_prime.n - sizes.sum()), np.repeat(red.gadgets.head, sizes)])
    for v in range(g.n):
        if not g.parents(v):
            continue
        orig = build_system(g, sig, base.weights, v)
        new = build_system(red.g_prime, red.sigma_prime, reduced.weights, v)
        order = np.argsort(head[list(new.parents)])
        a_err = np.abs(orig.a_matrix - new.a_matrix[order[:, None], order]).max()
        if not (a_err <= VERIFY_TOL and np.abs(orig.b_vector - new.b_vector[order]).max() <= VERIFY_TOL):
            mismatched.append(v)
    max_err = float(np.fmax.reduce(err, initial=0.0))
    return ReductionReport(bow_free, layered, not bad.any(), not mismatched, max_err, tuple(mismatched), tuple(notes))


def reference_sample_perturbation(sigma, spec: PerturbationSpec) -> np.ndarray:
    """One draw of sample_perturbation computed on its own, every
    intermediate a fresh array and the mirror average always taken: the
    reference for the bits of the in-place draws."""
    sig = as_matrix(sigma)
    n = sig.shape[0]
    spec.validate(n)
    rng = np.random.default_rng(spec.seed)
    bound = (spec.gamma / math.sqrt(spec.k)) * np.abs(sig)
    eps = rng.uniform(-1.0, 1.0, size=sig.shape) * bound
    eps = np.where(np.tri(n, k=-1, dtype=bool), eps.T, eps)  # the upper triangle, mirrored
    eps += 0.0
    if spec.enforce_tight:
        i, j = np.unravel_index(np.argmax(np.abs(sig)), sig.shape)
        eps[i, j] = (spec.gamma / math.sqrt(spec.k)) * sig[i, j]
        eps[j, i] = eps[i, j]
    return symmetrize(sig + eps)


def reference_relative_distance(a, b) -> float:
    """relative_distance of one pair, with no stack axis."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    nonzero = a != 0
    rel = np.abs(a - b)
    np.divide(rel, np.abs(a), out=rel, where=nonzero)
    return float(np.max(rel, where=nonzero, initial=0.0))


def reference_condition_estimate(g, sigma, trials, gammas, seed, enforce_tight=False, strict=True):
    """estimate_condition_number as a per-draw loop: the base and then each
    draw sampled, recovered and measured alone. The in-place chunks must
    match it bit for bit."""
    sig = as_matrix(sigma)
    k = max(g.max_degree(), 1)
    draws = [(gamma, gi, t) for gi, gamma in enumerate(gammas) for t in range(trials)]
    base = recover_all(g, sig).weights  # a singular base is reported before a bad gamma
    specs = [PerturbationSpec(gamma, k, derived_seed(seed, gi, t), enforce_tight, strict) for gamma, gi, t in draws]
    perturbed = [reference_sample_perturbation(sig, spec) for spec in specs]
    records = []
    kappa_hat = 0.0
    for d, ((gamma, _, t), draw) in enumerate(zip(draws, perturbed), 1):
        if not np.isfinite(draw).all():
            raise ConfigError(f"perturbed covariance of draw {d} has non-finite entries")
        lam, failed = recover_alone(g, draw)
        rel_sig = reference_relative_distance(sig, draw)
        if failed >= 0:
            records.append(ConditionTrial(gamma, t, None, rel_sig, None, True, int(failed)))
        elif np.all(base == 0) or rel_sig == 0:
            records.append(ConditionTrial(gamma, t, None, rel_sig, None, False))
        else:
            rel_lam = reference_relative_distance(base, lam)
            kappa_hat = max(kappa_hat, rel_lam / rel_sig)
            records.append(ConditionTrial(gamma, t, rel_lam / rel_sig, rel_sig, rel_lam, False))
    failures = sum(rec.failed for rec in records)
    return ConditionEstimate(kappa_hat, tuple(gammas), trials, failures, tuple(records), base)


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
    eta * gamma in 2-norm, for every vertex with parents; each trial is
    recovered alone."""
    sig = as_matrix(sigma)
    lam_true = np.asarray(lambda_true, dtype=float)
    bound = constants.eta * spec.gamma

    out = []
    for t in range(trials):
        recovered, failed = recover_alone(g, sample_perturbation(sig, replace(spec, seed=derived_seed(spec.seed, t))))
        for v in range(g.n):
            pa = list(g.parents(v))
            if not pa:
                continue
            if failed >= 0:
                out.append(VertexErrorCheck(v, t, None, bound, None))
                continue
            err = float(np.linalg.norm(lam_true[pa, v] - recovered[in_edges(g, v)]))
            out.append(VertexErrorCheck(v, t, err, bound, err <= bound))
    return out
