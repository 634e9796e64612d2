"""Reduction of a bow-free DAG to a layered bow-free DAG.

A directed edge spanning d >= 2 layers is replaced by a forced-weight path
gadget of length exactly d ending in a free edge: inner stages of width r,
a final stage of width r^2 and a single collector vertex whose variable
equals the head's variable (the forced weights 1/r telescope to 1 across
the r^2 parallel routes). The tail edge collector -> v is the only free
edge and recovery assigns it the original weight.

A span-2 edge admits no such widening (a forced path of length 2 with a
single interior vertex needs weight 1), so it degenerates to a lone
collector wired head -> collector at forced weight 1. Matching the span
exactly is what keeps every path length consistent, hence the output
layered; one extra stage would push the tail one layer past its other
parents.

Bidirected edges incident on a gadget's head or tail are mirrored onto the
collector; the reduced covariance is read off the equivalent linear system
(inner variables are 1/r copies of the head, collectors are exact copies).
Its rank is at most n, so it stays implicit (a ReducedCovariance): recovery
gathers the entries it reads, and only save_reduction builds the n' x n' matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, GraphStructureError, NearSingularError, OrderingError
from .experiments import write_report
from .graphs import MixedGraph, graph_to_dict
from .lsem import Covariance, ReducedCovariance, as_matrix, save_matrix_csv
from .recovery import build_system, recover_all


@dataclass(frozen=True)
class GadgetSpec:
    head: int
    tail: int
    collector: int
    q: int  # inner stage count; 0 for the degenerate span-2 form
    r: int
    inner_layers: tuple[tuple[int, ...], ...]

    @property
    def first(self) -> int:
        """The gadget's new vertices are the ids first..collector, stage by stage."""
        return self.collector - sum(map(len, self.inner_layers))

    @property
    def new_vertices(self) -> tuple[int, ...]:
        return tuple(range(self.first, self.collector + 1))


@dataclass(frozen=True)
class ReductionOutput:
    g_prime: MixedGraph
    sigma_prime: ReducedCovariance | Covariance
    original_n: int
    r: int
    k_layers: int
    gadgets: tuple[GadgetSpec, ...]


class _IdAllocator:
    def __init__(self, start: int, capacity: int):
        self.next_id = start
        self.capacity = capacity

    def take(self, count: int) -> int:
        """First of ``count`` consecutive fresh ids."""
        if self.next_id + count > self.capacity:
            raise ConfigError("vertex id allocator exhausted")
        first = self.next_id
        self.next_id += count
        return first


def build_gadgets(heads, tails, qs, r: int, allocator: _IdAllocator):
    """Create the forced-weight path structures for replaced edges.

    Gadget i replaces heads[i] -> tails[i] and takes the next consecutive
    block of ids. Returns (specs, (source, target, forced)), the edges as
    arrays with NaN marking each free collector -> tail edge. q >= 1 builds
    q inner stages (widths r, ..., r, r^2) feeding the collector through
    1/r weights; q = 0 wires the head straight to the collector at forced
    weight 1.
    """
    heads, tails, qs = (np.atleast_1d(np.asarray(x, dtype=np.int64)) for x in (heads, tails, qs))
    if (qs < 0).any() or r < 1:
        raise ConfigError(f"invalid gadget parameters q={qs.tolist()}, r={r}")
    sizes = np.where(qs > 0, (qs - 1) * r + r * r, 0) + 1
    firsts = allocator.take(int(sizes.sum())) + np.cumsum(sizes) - sizes
    specs, edges = [None] * heads.size, [(np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros(0))]
    for q in sorted(set(qs.tolist())):
        # One edge template, in ids relative to a gadget's first id with -1
        # for the head and -2 for the tail, serves every gadget of this q.
        widths = [r] * (q - 1) + [r * r] if q else []
        starts = np.cumsum([0] + widths)  # stage s is starts[s]:starts[s + 1]; the collector is starts[-1]
        chain = [np.array([-1])] + [np.arange(a, b) for a, b in zip(starts[:-1], starts[1:])] + [starts[-1:]]
        src = np.concatenate([np.repeat(a, b.size) for a, b in zip(chain, chain[1:])] + [starts[-1:]])
        tgt = np.concatenate([np.tile(b, a.size) for a, b in zip(chain, chain[1:])] + [[-2]])
        weight = np.full(src.size, 1.0 / r if q else 1.0)
        weight[-1] = np.nan  # collector -> tail is the free edge
        members = np.flatnonzero(qs == q)
        for i in members.tolist():
            first = int(firsts[i])
            inner = tuple(tuple(range(first + a, first + b)) for a, b in zip(starts[:-1], starts[1:]))
            specs[i] = GadgetSpec(int(heads[i]), int(tails[i]), first + int(starts[-1]), q, r, inner)
        head, tail, base = heads[members, None], tails[members, None], firsts[members, None]
        ends = [np.select([t == -1, t == -2], [head, tail], t + base).ravel() for t in (src, tgt)]
        edges.append((*ends, np.tile(weight, members.size)))
    return tuple(specs), tuple(np.concatenate(x) for x in zip(*edges))


def reduce_graph(g: MixedGraph) -> tuple[MixedGraph, tuple[GadgetSpec, ...], int]:
    """Replace every layer-skipping edge by a path gadget of matching span.

    Returns (g_prime, gadgets, r). Adjacent-layer edges and all original
    bidirected edges are retained; each gadget mirrors the bidirected
    edges of its head and tail onto its collector.
    """
    g.require_bow_free()
    if not np.isnan(g.forced).all():
        raise GraphStructureError("input graph already carries forced weights")
    layer = g.layer_decomposition().layer_array
    r = max(1, math.ceil(math.sqrt(g.n)))

    span = layer[g.target] - layer[g.source]
    skip = span >= 2
    if not skip.any():
        return g, (), r

    allocator = _IdAllocator(g.n, max(g.n**6, g.n + 1))
    heads, tails = g.source[skip], g.target[skip]  # in (head, tail) order, as edges are
    gadgets, (source, target, forced) = build_gadgets(heads, tails, span[skip] - 2, r, allocator)
    collectors = np.array([spec.collector for spec in gadgets])

    # Collector c mirrors each bidirected partner w of its head and tail;
    # w is an original vertex, so the pair is (w, c).
    partner = np.zeros((g.n, g.n), dtype=bool)
    partner[g.pairs[:, 0], g.pairs[:, 1]] = partner[g.pairs[:, 1], g.pairs[:, 0]] = True
    gadget, w = np.nonzero(partner[heads] | partner[tails])
    g_prime = MixedGraph.from_arrays(
        allocator.next_id,
        np.concatenate([g.source[~skip], source]),
        np.concatenate([g.target[~skip], target]),
        np.concatenate([np.full(np.count_nonzero(~skip), np.nan), forced]),
        np.concatenate([g.pairs, np.stack([w, collectors[gadget]], axis=1)]),
    )
    return g_prime, gadgets, r


def reduce_covariance(sigma, g_prime: MixedGraph, gadgets: tuple[GadgetSpec, ...], r: int) -> ReducedCovariance:
    """Covariance of the reduced model via the equivalent linear system.

    Every new variable is factor * X_head with factor 1/r on inner stages
    and 1 on collectors, so sigma'[a, b] =
    factor(a) * factor(b) * sigma[head(a), head(b)], kept in that form.
    """
    head = _gadget_heads(g_prime.n, gadgets)
    factor = np.where(head == np.arange(g_prime.n), 1.0, 1.0 / r)
    factor[[spec.collector for spec in gadgets]] = 1.0
    return ReducedCovariance(as_matrix(sigma), head, factor)


def _gadget_heads(n_prime: int, gadgets: tuple[GadgetSpec, ...]) -> np.ndarray:
    """Each vertex's head: its gadget's head for a new vertex, else itself."""
    head = np.arange(n_prime)
    for spec in gadgets:
        head[spec.first : spec.collector + 1] = spec.head
    return head


def reduce_instance(g: MixedGraph, sigma) -> ReductionOutput:
    """Full reduction: layered graph, matching covariance, gadget manifest."""
    sig = as_matrix(sigma)
    if sig.shape[-2:] != (g.n, g.n):
        raise OrderingError(f"covariance shape {sig.shape} does not match n={g.n}")
    g_prime, gadgets, r = reduce_graph(g)
    cov = reduce_covariance(sig, g_prime, gadgets, r)
    k_layers = g_prime.layer_decomposition().depth
    return ReductionOutput(g_prime, cov, g.n, r, k_layers, gadgets)


# -- verification -------------------------------------------------------------


@dataclass(frozen=True)
class ReductionReport:
    bow_free: bool
    layered: bool
    layer_count_ok: bool
    size_ok: bool
    collector_weights_ok: bool
    systems_match: bool
    max_weight_error: float
    mismatched_systems: tuple[int, ...] = ()
    notes: tuple[str, ...] = ()

    @property
    def all_ok(self) -> bool:
        return (
            self.bow_free
            and self.layered
            and self.layer_count_ok
            and self.size_ok
            and self.collector_weights_ok
            and self.systems_match
        )


def verify_reduction(
    g: MixedGraph,
    sigma,
    red: ReductionOutput,
    tol: float = 1e-8,
) -> ReductionReport:
    """Itemized checks that the reduction preserves structure and recovery."""
    notes = []
    bow_free = not red.g_prime.bow_violations()
    layered = red.g_prime.is_k_layered()
    layer_count_ok = red.k_layers <= g.n**2
    size_ok = red.g_prime.n <= g.n**6

    sig = as_matrix(sigma)
    base = recover_all(g, sig)
    try:
        reduced = recover_all(red.g_prime, red.sigma_prime)
    except NearSingularError as exc:
        return ReductionReport(
            bow_free,
            layered,
            layer_count_ok,
            size_ok,
            collector_weights_ok=False,
            systems_match=False,
            max_weight_error=float("inf"),
            notes=(f"recovery failed on the reduced instance: {exc}",),
        )

    heads, tails, collectors = np.array([(s.head, s.tail, s.collector) for s in red.gadgets], dtype=int).reshape(-1, 3).T
    got, want = reduced.lambda_hat[collectors, tails], base.lambda_hat[heads, tails]
    err = np.abs(got - want)
    max_err = float(np.fmax.reduce(err, initial=0.0))  # NaN-blind, as max()
    collector_ok = not (err > tol).any()
    for h, t, a, b in zip(heads[err > tol], tails[err > tol], got[err > tol], want[err > tol]):
        notes.append(f"gadget {h}->{t}: recovered {a:.12g}, expected {b:.12g}")

    mismatched = []
    head = _gadget_heads(red.g_prime.n, red.gadgets)
    for v in range(g.n):
        if not g.parents(v):
            continue
        orig = build_system(g, sig, base.lambda_hat, v)
        new = build_system(red.g_prime, red.sigma_prime, reduced.lambda_hat, v)
        order = np.argsort(head[list(new.parents)])
        a_new = new.a_matrix[np.ix_(order, order)]
        b_new = new.b_vector[order]
        if not (
            np.allclose(orig.a_matrix, a_new, atol=tol, rtol=0.0)
            and np.allclose(orig.b_vector, b_new, atol=tol, rtol=0.0)
        ):
            mismatched.append(v)
    systems_match = not mismatched

    return ReductionReport(
        bow_free,
        layered,
        layer_count_ok,
        size_ok,
        collector_ok,
        systems_match,
        max_err,
        tuple(mismatched),
        tuple(notes),
    )


# -- serialization -------------------------------------------------------------


def reduction_manifest(red: ReductionOutput) -> dict:
    return {
        "original_n": red.original_n,
        "n_prime": red.g_prime.n,
        "r": red.r,
        "k_layers": red.k_layers,
        "gadgets": [
            {
                "head": spec.head + 1,
                "tail": spec.tail + 1,
                "collector": spec.collector + 1,
                "q": spec.q,
                "r": spec.r,
                "inner_layers": [[x + 1 for x in stage] for stage in spec.inner_layers],
            }
            for spec in red.gadgets
        ],
    }


def save_reduction(red: ReductionOutput, out_dir):
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_report(graph_to_dict(red.g_prime), out / "g_prime.json")
    save_matrix_csv(red.sigma_prime.sigma, out / "sigma_prime.csv")
    write_report(reduction_manifest(red), out / "manifest.json")
