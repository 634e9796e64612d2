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
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, GraphStructureError, NearSingularError
from .graphs import MixedGraph, save_graph
from .lsem import Covariance, as_matrix, save_matrix_csv
from .recovery import RecoveryConfig, build_system, recover_all


@dataclass(frozen=True)
class GadgetSpec:
    head: int
    tail: int
    collector: int
    q: int  # inner stage count; 0 for the degenerate span-2 form
    r: int
    inner_layers: tuple[tuple[int, ...], ...]

    @property
    def new_vertices(self) -> tuple[int, ...]:
        out = [v for stage in self.inner_layers for v in stage]
        out.append(self.collector)
        return tuple(out)


@dataclass(frozen=True)
class ReductionOutput:
    g_prime: MixedGraph
    sigma_prime: Covariance
    original_n: int
    r: int
    k_layers: int
    gadgets: tuple[GadgetSpec, ...]


class _IdAllocator:
    def __init__(self, start: int, capacity: int):
        self.next_id = start
        self.capacity = capacity

    def take(self) -> int:
        if self.next_id >= self.capacity:
            raise ConfigError("vertex id allocator exhausted")
        v = self.next_id
        self.next_id += 1
        return v


def build_gadget(u: int, v: int, q: int, r: int, allocator: _IdAllocator):
    """Create the forced-weight path structure for one replaced edge.

    Returns (spec, directed_edges). q >= 1 builds q inner stages (widths
    r, ..., r, r^2) feeding the collector through 1/r weights; q = 0 wires
    the head straight to the collector at forced weight 1.
    """
    if q < 0 or r < 1:
        raise ConfigError(f"invalid gadget parameters q={q}, r={r}")
    edges = []
    stages: list[tuple[int, ...]] = []
    weight = 1.0 / r
    for stage_index in range(q):
        width = r * r if stage_index == q - 1 else r
        stages.append(tuple(allocator.take() for _ in range(width)))
    collector = allocator.take()

    if q == 0:
        edges.append((u, collector, 1.0))
    else:
        for x in stages[0]:
            edges.append((u, x, weight))
        for prev, cur in zip(stages, stages[1:]):
            for x in cur:
                for y in prev:
                    edges.append((y, x, weight))
        for y in stages[-1]:
            edges.append((y, collector, weight))
    edges.append((collector, v, None))
    spec = GadgetSpec(u, v, collector, q, r, tuple(stages))
    return spec, edges


def reduce_graph(g: MixedGraph) -> tuple[MixedGraph, tuple[GadgetSpec, ...], int]:
    """Replace every layer-skipping edge by a path gadget of matching span.

    Returns (g_prime, gadgets, r). Adjacent-layer edges and all original
    bidirected edges are retained; each gadget mirrors the bidirected
    edges of its head and tail onto its collector.
    """
    g.require_bow_free()
    if g.forced_weights:
        raise GraphStructureError("input graph already carries forced weights")
    layer = g.layer_decomposition().layer_of
    r = max(1, math.ceil(math.sqrt(g.n)))

    skipping = [
        e for e in g.directed if layer[e.target] - layer[e.source] >= 2
    ]
    if not skipping:
        return g, (), r

    capacity = max(g.n**6, g.n + 1)
    allocator = _IdAllocator(g.n, capacity)
    directed: list[tuple] = [
        (e.source, e.target, None)
        for e in g.directed
        if layer[e.target] - layer[e.source] == 1
    ]
    bidirected = set(g.bidirected)
    gadgets = []
    for e in sorted(skipping, key=lambda e: (e.source, e.target)):
        span = layer[e.target] - layer[e.source]
        spec, edges = build_gadget(e.source, e.target, span - 2, r, allocator)
        directed.extend(edges)
        gadgets.append(spec)
        for w in set(g.bidirected_neighbors(e.source)) | set(g.bidirected_neighbors(e.target)):
            bidirected.add((min(spec.collector, w), max(spec.collector, w)))

    g_prime = MixedGraph(allocator.next_id, directed, bidirected)
    return g_prime, tuple(gadgets), r


def reduce_covariance(sigma, g_prime: MixedGraph, gadgets: tuple[GadgetSpec, ...], r: int) -> Covariance:
    """Covariance of the reduced model via the equivalent linear system.

    Every new variable is factor * X_head with factor 1/r on inner stages
    and 1 on collectors, so sigma'[a, b] =
    factor(a) * factor(b) * sigma[head(a), head(b)].
    """
    sig = as_matrix(sigma)
    head = np.arange(g_prime.n)
    factor = np.ones(g_prime.n)
    for spec in gadgets:
        for stage in spec.inner_layers:
            for x in stage:
                head[x] = spec.head
                factor[x] = 1.0 / r
        head[spec.collector] = spec.head
    return Covariance(np.outer(factor, factor) * sig[np.ix_(head, head)], "reduced")


def reduce_instance(g: MixedGraph, sigma) -> ReductionOutput:
    """Full reduction: layered graph, matching covariance, gadget manifest."""
    g_prime, gadgets, r = reduce_graph(g)
    if gadgets:
        cov = reduce_covariance(sigma, g_prime, gadgets, r)
    else:
        cov = Covariance(as_matrix(sigma), "reduced")
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
    config: RecoveryConfig | None = None,
) -> ReductionReport:
    """Itemized checks that the reduction preserves structure and recovery."""
    notes = []
    bow_free = not red.g_prime.bow_violations()
    layered = red.g_prime.is_k_layered()
    layer_count_ok = red.k_layers <= g.n**2
    size_ok = red.g_prime.n <= g.n**6

    sig = as_matrix(sigma)
    base = recover_all(g, sig, config)
    try:
        reduced = recover_all(red.g_prime, red.sigma_prime, config)
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

    max_err = 0.0
    collector_ok = True
    for spec in red.gadgets:
        got = reduced.lambda_hat[spec.collector, spec.tail]
        want = base.lambda_hat[spec.head, spec.tail]
        err = abs(got - want)
        max_err = max(max_err, err)
        if err > tol:
            collector_ok = False
            notes.append(
                f"gadget {spec.head}->{spec.tail}: recovered {got:.12g}, expected {want:.12g}"
            )

    mismatched = []
    head_of = {x: spec.head for spec in red.gadgets for x in spec.new_vertices}
    for v in range(g.n):
        if not g.parents(v):
            continue
        orig = build_system(g, sig, base.lambda_hat, v)
        new = build_system(red.g_prime, red.sigma_prime.sigma, reduced.lambda_hat, v)
        order = np.argsort([head_of.get(p, p) for p in new.parents])
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
    save_graph(red.g_prime, out / "g_prime.json")
    save_matrix_csv(red.sigma_prime.sigma, out / "sigma_prime.csv")
    with open(out / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(reduction_manifest(red), fh, indent=2, sort_keys=True)
        fh.write("\n")
