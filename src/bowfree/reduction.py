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
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, GraphStructureError, NearSingularError
from .experiments import write_report
from .graphs import MixedGraph, _runs, graph_to_dict
from .lsem import ReducedCovariance, _checked_covariance, as_matrix, save_matrix_csv
from .recovery import recover_all

VERIFY_TOL = 1e-8  # absolute


class Gadgets(NamedTuple):
    """One entry per replaced edge head -> tail, in edge order. Gadget i's new
    vertices are the ids first[i]..collector[i], stage by stage, and the
    gadgets take consecutive blocks, so the last collector is the largest id."""

    head: np.ndarray
    tail: np.ndarray
    q: np.ndarray  # inner stage count; 0 for the degenerate span-2 form
    first: np.ndarray
    collector: np.ndarray


@dataclass(frozen=True)
class ReductionOutput:
    g_prime: MixedGraph
    sigma_prime: ReducedCovariance
    original_n: int
    r: int
    k_layers: int
    gadgets: Gadgets


def build_gadgets(heads, tails, qs, r: int, start: int):
    """Create the forced-weight path structures for replaced edges.

    Gadget i replaces heads[i] -> tails[i] and takes the next consecutive
    block of ids from ``start`` on. Returns (gadgets, (source, target,
    forced)), the edges as arrays, gadget by gadget, with NaN marking each
    free collector -> tail edge. q >= 1 builds q inner stages feeding the
    collector through 1/r weights; q = 0 wires the head straight to the
    collector at forced weight 1.
    """
    heads, tails, qs = (np.atleast_1d(np.asarray(x, dtype=np.int64)) for x in (heads, tails, qs))
    if (qs < 0).any() or r < 1:
        raise ConfigError(f"invalid gadget parameters q={qs.tolist()}, r={r}")
    sizes = np.where(qs > 0, (qs - 1) * r + r * r, 0) + 1
    firsts = start + np.cumsum(sizes) - sizes
    gadgets = Gadgets(heads, tails, qs, firsts, firsts + sizes - 1)
    # Gadget i is a chain of q + 3 vertex ranges: head, stages j = 1..q of
    # widths r, ..., r, r^2, collector, tail. Each range feeds the next
    # through one complete bipartite block; all blocks expand in one pass.
    gid = np.repeat(np.arange(qs.size), qs + 3)
    j = _runs(0, qs + 3)
    q = qs[gid]
    lo = np.select([j == 0, j <= q, j == q + 1],  # each range's first id
                   [heads[gid], firsts[gid] + (j - 1) * r, gadgets.collector[gid]], tails[gid])
    width = np.where((j == 0) | (j > q), 1, np.where(j < q, r, r * r))
    # the forced weight of the edges into each range; collector -> tail is free
    into = np.where(j == q + 2, np.nan, np.where(q > 0, 1.0 / r, 1.0))
    s, t = j < q + 2, j > 0  # block b joins the b-th range that is no tail to the b-th that is no head
    # Row i of block b joins vertex lo[s][b] + i to the width[t][b] vertices from lo[t][b] on.
    block = np.repeat(np.arange(np.count_nonzero(s)), width[s])
    row = _runs(0, width[s])
    cols = width[t][block]
    return gadgets, (np.repeat(lo[s][block] + row, cols), _runs(lo[t][block], cols), np.repeat(into[t][block], cols))


def reduce_graph(g: MixedGraph) -> tuple[MixedGraph, Gadgets, int]:
    """Replace every layer-skipping edge by a path gadget of matching span.

    Returns (g_prime, gadgets, r). Adjacent-layer edges and all original
    bidirected edges are retained; each gadget mirrors the bidirected
    edges of its head and tail onto its collector.
    """
    g.require_bow_free()
    if not np.isnan(g.forced).all():
        raise GraphStructureError("input graph already carries forced weights")
    layer = g.layer_decomposition()
    r = max(1, math.ceil(math.sqrt(g.n)))

    span = layer[g.target] - layer[g.source]
    skip = span >= 2  # gadgets come in (head, tail) order, as edges do
    gadgets, (source, target, forced) = build_gadgets(g.source[skip], g.target[skip], span[skip] - 2, r, g.n)
    if not skip.any():
        return g, gadgets, r

    # Collector c mirrors each bidirected partner w of its head and tail;
    # w is an original vertex, so the pair is (w, c).
    partner = np.zeros((g.n, g.n), dtype=bool)
    partner[g.pairs[:, 0], g.pairs[:, 1]] = partner[g.pairs[:, 1], g.pairs[:, 0]] = True
    gadget, w = np.nonzero(partner[gadgets.head] | partner[gadgets.tail])
    g_prime = MixedGraph.from_arrays(
        int(gadgets.collector[-1]) + 1,
        np.concatenate([g.source[~skip], source]),
        np.concatenate([g.target[~skip], target]),
        np.concatenate([np.full(np.count_nonzero(~skip), np.nan), forced]),
        np.concatenate([g.pairs, np.stack([w, gadgets.collector[gadget]], axis=1)]),
    )
    return g_prime, gadgets, r


def reduce_covariance(sigma, g_prime: MixedGraph, gadgets: Gadgets, r: int) -> ReducedCovariance:
    """Covariance of the reduced model via the equivalent linear system.

    Every new variable is factor * X_head with factor 1/r on inner stages
    and 1 on collectors, so sigma'[a, b] =
    factor(a) * factor(b) * sigma[head(a), head(b)], kept in that form.
    """
    # A new vertex's head is its gadget's, and the gadgets' id blocks fill
    # the ids after the original vertices, which are their own heads.
    sizes = gadgets.collector + 1 - gadgets.first
    head = np.concatenate([np.arange(g_prime.n - sizes.sum()), np.repeat(gadgets.head, sizes)])
    factor = np.where(head == np.arange(g_prime.n), 1.0, 1.0 / r)
    factor[gadgets.collector] = 1.0
    return ReducedCovariance(as_matrix(sigma), head, factor)


def reduce_instance(g: MixedGraph, sigma) -> ReductionOutput:
    """Full reduction: layered graph, matching covariance, gadget manifest."""
    sig = as_matrix(_checked_covariance(sigma, g.n, stack=True))
    g_prime, gadgets, r = reduce_graph(g)
    cov = reduce_covariance(sig, g_prime, gadgets, r)
    k_layers = int(g_prime.layer_decomposition().max(initial=0))
    return ReductionOutput(g_prime, cov, g.n, r, k_layers, gadgets)


# -- verification -------------------------------------------------------------


@dataclass(frozen=True)
class ReductionReport:
    bow_free: bool
    layered: bool
    collector_weights_ok: bool
    systems_match: bool
    max_weight_error: float
    mismatched_systems: tuple[int, ...] = ()
    notes: tuple[str, ...] = ()

    @property
    def all_ok(self) -> bool:
        return self.bow_free and self.layered and self.collector_weights_ok and self.systems_match


def verify_reduction(g: MixedGraph, sigma, red: ReductionOutput) -> ReductionReport:
    """Itemized checks that the reduction preserves structure and recovery,
    the latter to VERIFY_TOL in weights and system entries."""
    notes = []
    bow_free = not red.g_prime.bow_violations()
    layered = red.g_prime.is_k_layered()

    base = recover_all(g, as_matrix(sigma))
    try:
        reduced = recover_all(red.g_prime, red.sigma_prime)
    except NearSingularError as exc:
        return ReductionReport(bow_free, layered, collector_weights_ok=False, systems_match=False,
                               max_weight_error=float("inf"),
                               notes=(f"recovery failed on the reduced instance: {exc}",))

    heads, tails, _, _, collectors = red.gadgets
    got = red.g_prime.edge_weights(reduced.weights, collectors, tails)
    want = g.edge_weights(base.weights, heads, tails)
    err = np.abs(got - want)
    max_err = float(np.fmax.reduce(err, initial=0.0))  # NaN-blind, as max()
    bad = err > VERIFY_TOL
    collector_ok = not bad.any()
    for h, t, a, b in zip(heads[bad], tails[bad], got[bad], want[bad]):
        notes.append(f"gadget {h + 1}->{t + 1}: recovered {a:.12g}, expected {b:.12g}")

    # Recovery kept the systems it solved. v's equation rows on g' are the
    # heads of its parents there (a collector copies its gadget's head), so
    # sorting them puts its unknowns in the order of v's parents on g.
    mismatched = []
    for v in sorted(base.systems):
        orig, new = base.systems[v], reduced.systems[v]
        order = np.argsort(new.y_set)
        a_err = np.abs(orig.a_matrix - new.a_matrix[order[:, None], order]).max()
        if not (a_err <= VERIFY_TOL and np.abs(orig.b_vector - new.b_vector[order]).max() <= VERIFY_TOL):  # NaN fails
            mismatched.append(v)
    return ReductionReport(bow_free, layered, collector_ok, not mismatched, max_err, tuple(mismatched), tuple(notes))


# -- serialization -------------------------------------------------------------


def reduction_manifest(red: ReductionOutput) -> dict:
    gadgets = []
    for head, tail, q, first, collector in zip(*(col.tolist() for col in red.gadgets)):
        widths = [red.r] * (q - 1) + [red.r * red.r] if q else []  # inner stages: r, ..., r, r^2
        starts = np.cumsum([first + 1] + widths).tolist()  # 1-based
        gadgets.append(
            {
                "head": head + 1,
                "tail": tail + 1,
                "collector": collector + 1,
                "q": q,
                "r": red.r,
                "inner_layers": [list(range(a, b)) for a, b in zip(starts[:-1], starts[1:])],
            }
        )
    return {
        "original_n": red.original_n,
        "n_prime": red.g_prime.n,
        "r": red.r,
        "k_layers": red.k_layers,
        "gadgets": gadgets,
    }


def save_reduction(red: ReductionOutput, out_dir):
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_report(graph_to_dict(red.g_prime), out / "g_prime.json")
    save_matrix_csv(red.sigma_prime.sigma, out / "sigma_prime.csv")
    write_report(reduction_manifest(red), out / "manifest.json")
