"""Layer-by-layer recovery of edge weights from an observational covariance.

For a vertex v whose grandparent set is empty the weights solve

    sigma[pa(v), pa(v)] @ x = sigma[pa(v), v].

Otherwise each parent row is transformed so that upstream causal paths are
subtracted out: with T[y, x] = sigma[y, x] - lam[pa(y), y] . sigma[pa(y), x]
(the row of (I - lam)^T sigma for y), the weights solve A @ x = b with
A[i, j] = T[y_i, p_j] and b[i] = T[y_i, v]. The transformed row for y is a
valid equation exactly when y carries no bidirected edge to v, which
bow-freeness guarantees for y in pa(v).

Edges with forced weights (introduced by the layered reduction) are knowns:
they are dropped from the unknown set and folded into the right-hand side.
A parent whose incoming edges are all forced is a deterministic copy of a
unique upstream "source" vertex; its equation row is taken at that source,
which is what makes recovery on reduced graphs solve the same systems as on
the original graph. The indices of every vertex's system, those sources
included, are compiled once per graph into its RecoveryPlan, which lays out
each free vertex's K reads of sigma as one contiguous run.

recover_all gathers those reads once (RecoveryPlan.gather, PlanReads) and
solves each system, assembled as views of them by build_system or (the
closed form) recover_first_layers, with recover_vertex; it keeps them all.

Weights are held in the graph's edge order: ``weights[..., e]`` belongs to
``g.source[e] -> g.target[e]``, so ``lam[pa(y), y]`` is ``weights[..., e]``
over y's in-edges e, one run of the graph's in-edge index. No n x n weight
matrix is built, which a reduced graph with tens of thousands of vertices
could not afford, and the ``recover`` report lists the weights by edge;
``RecoveryResult.lambda_hat`` scatters them into one on first read.

Every function here also accepts a stack of covariances (T, n, n), or of
their reads (T, K): one layer-ordered pass solves each vertex's T systems in
one batched call. A near-singular system raises NearSingularError for a
single covariance; on a stack it fails only its own trial, whose weights
become NaN. _solve calls the LAPACK gufuncs behind np.linalg.svd and solve,
whose checks cost more than LAPACK on these small systems.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType

import numpy as np
from numpy.linalg import _umath_linalg  # numpy >= 2.0: the gufuncs behind np.linalg.svd and solve

from .errors import GraphStructureError, NearSingularError, OrderingError
from .graphs import MixedGraph, _read_only, _runs
from .linalg import pow2_rows
from .lsem import _checked_covariance, gatherable

# A system is near-singular when sigma_min <= SING_TOL * sigma_max.
SING_TOL = 1e-10


@dataclass(frozen=True)
class RecoverySystem:
    """The linear system determining the unforced incoming weights of one
    vertex; ``a_matrix`` and ``b_vector`` keep the covariance's trial axis."""

    vertex: int
    y_set: tuple[int, ...]  # equation rows: the sources of the unknown parents
    parents: tuple[int, ...]  # unknown columns, ascending
    a_matrix: np.ndarray
    b_vector: np.ndarray


@dataclass(frozen=True)
class VertexDiagnostics:
    # residual and condition are per-trial arrays when recovering a stack
    residual: float
    condition: float


@dataclass(frozen=True)
class RecoveryResult:
    graph: MixedGraph = field(repr=False, compare=False)
    weights: np.ndarray  # (..., |E|) in the graph's edge order
    per_vertex: dict[int, VertexDiagnostics] = field(default_factory=dict)
    # Stacks only: per trial, the first vertex (in recovery order) whose
    # system was near-singular, or -1 when the trial recovered.
    failed_vertex: np.ndarray | None = None
    # Each free vertex's system as it was solved.
    systems: dict[int, RecoverySystem] = field(default_factory=dict, repr=False, compare=False)

    @cached_property
    def lambda_hat(self) -> np.ndarray:
        """The (..., n, n) weight matrix, NaN throughout for a failed trial."""
        lam = np.zeros(self.weights.shape[:-1] + (self.graph.n, self.graph.n))
        lam[..., self.graph.source, self.graph.target] = self.weights
        if self.failed_vertex is not None:
            lam[self.failed_vertex >= 0] = np.nan
        return lam


@dataclass(frozen=True)
class PlanReads:
    """The (..., K) entries of a covariance or a stack that RecoveryPlan.gather reads."""
    values: np.ndarray


@dataclass(frozen=True)
class RecoveryPlan:
    """Every free vertex's system as index arrays, compiled once per graph by
    recovery_plan. ``spans`` holds the free vertices (those with a free
    in-edge) in recovery order, by layer, then vertex; ``spans[v]`` is v's
    (r0, k0, b0, q0, r1, k1, b1, q1, closed form): its runs r0:r1 of
    free_edges, k0:k1 of known, b0:b1 of its (rows, width) upstream blocks
    and q0:q1 of its reads."""

    spans: MappingProxyType
    free_edges: np.ndarray  # the unknown parents' edges, row by row
    known: np.ndarray  # the forced parents' weights
    edge_idx: np.ndarray  # each row's in-edges, padded with edge 0
    live: np.ndarray  # 1.0 on an in-edge, 0.0 on padding
    # v's reads, duplicates kept: its columns (unknown parents, forced parents, v) in each equation row
    # (the unknown parents' sources), then in each row of its (rows, width) block of the rows' parents
    read_rows: np.ndarray
    read_cols: np.ndarray

    def gather(self, sigma) -> PlanReads:
        """The plan's K reads of sigma, one covariance, a stack or a ReducedCovariance."""
        return PlanReads(gatherable(sigma)[..., self.read_rows, self.read_cols])


def recovery_plan(g: MixedGraph) -> RecoveryPlan:
    """g's plan, compiled on first use and kept on the graph, which is immutable."""
    if "_recovery_plan" not in vars(g):
        g._recovery_plan = _compile_plan(g)
    return g._recovery_plan


def _compile_plan(g: MixedGraph) -> RecoveryPlan:
    """Index every free vertex's system with numpy over edges, no vertex loop."""
    n, src, tgt = g.n, g.source, g.target
    m = np.bincount(tgt[np.isnan(g.forced)], minlength=n)  # free in-edges per vertex
    order, in_ptr, indeg = g._in_order, g._in_ptr, g._in_degree  # v's in-edges are order[in_ptr[v]:in_ptr[v + 1]]
    # A vertex whose in-edges are all forced copies its first parent, and an
    # equation row is taken at the end of such a chain, found by pointer jumping.
    copies = (indeg > 0) & (m == 0)
    copy_of = np.arange(n)
    copy_of[copies] = src[order[in_ptr[:-1][copies]]]
    for _ in range(n.bit_length() + 1):  # 2^k steps after k rounds, and a chain has fewer than n
        if not copies[copy_of].any():
            break
        copy_of = copy_of[copy_of]
    else:
        raise OrderingError(f"forced-edge chain through vertex {np.argmax(copies[copy_of]) + 1} is cyclic")

    # The free vertices' in-edges, one run of ``order`` per vertex, with the
    # unknown parents first. Free vertex i's columns are its k[i] parents and
    # then itself, so they start after i own columns of lower free vertices.
    vs = np.flatnonzero(m)
    k, m = indeg[vs], m[vs]
    into = order[_runs(in_ptr[vs], k)]
    into = into[np.argsort(2 * tgt[into] + ~np.isnan(g.forced[into]), kind="stable")]
    cols = np.repeat(vs, k + 1)
    cols[np.arange(into.size) + np.repeat(np.arange(vs.size), k)] = src[into]
    free = np.isnan(g.forced[into])
    unknown = into[free]
    rows = copy_of[src[unknown]]
    # Row i lists the in-edges of rows[i], padded to its vertex's widest row.
    degree, row_of = indeg[rows], np.repeat(np.arange(vs.size), m)
    width = np.zeros(vs.size, dtype=np.int64)
    np.maximum.at(width, row_of, degree)
    row = np.repeat(np.arange(rows.size), width[row_of])
    slot = _runs(0, width[row_of])
    live = slot < degree[row]
    edge_idx = np.where(live, order[np.where(live, in_ptr[rows[row]] + slot, 0)], 0)
    # Each vertex reads its columns in its rows, then in its upstream rows.
    line_of = np.concatenate([row_of, row_of[row]])
    by_vertex = np.argsort(line_of, kind="stable")
    line, line_of = np.concatenate([rows, np.where(live, src[edge_idx], 0)])[by_vertex], line_of[by_vertex]
    c = (k + 1)[line_of]

    ptr = np.zeros((vs.size + 1, 4), dtype=np.int64)
    np.cumsum(np.stack([m, k - m, m * width, m * (k + 1) * (1 + width)], axis=1), axis=0, out=ptr[1:])
    closed = np.bincount(tgt[into[~free | (indeg[src[into]] > 0)]], minlength=n)[vs] == 0
    walk = np.argsort(g.layer_decomposition()[vs], kind="stable")  # recovery order: a cyclic chain raised above
    bounds = np.hstack([ptr[:-1], ptr[1:]])[walk].T.tolist()
    spans = dict(zip(vs[walk].tolist(), zip(*bounds, closed[walk].tolist())))
    arrays = (unknown, g.forced[into[~free]], edge_idx, live.astype(float), np.repeat(line, c),
              cols[_runs(np.cumsum(k + 1)[line_of] - c, c)])
    return RecoveryPlan(MappingProxyType(spans), *map(_read_only, arrays))


def _vertex_reads(g: MixedGraph, sigma, v: int):
    """g's plan, v's span in it and v's reads, a view of recover_all's PlanReads
    or gathered from sigma; a vertex without free in-edges has an empty span."""
    plan = recovery_plan(g)
    reads = (sigma if isinstance(sigma, PlanReads) else plan.gather(sigma)).values
    if not 0 <= v < g.n:
        raise GraphStructureError(f"vertex {v + 1} out of range for n={g.n}")
    span = plan.spans.get(v, (0,) * 8 + (True,))
    return plan, span, reads[..., span[3] : span[7]]


def build_system(g: MixedGraph, sigma, weights: np.ndarray, v: int) -> RecoverySystem:
    """Assemble the square system for vertex v given upstream weights.

    ``weights`` (..., |E|), in the graph's edge order, must already hold
    the recovered weights of every vertex in strictly lower layers (and all
    forced weights), with the same trial axis as ``sigma`` if it has one.
    The equation rows are the sources of v's unforced parents, each
    transformed; their indices come from the graph's recovery plan, and
    their blocks are views of v's reads.
    """
    plan, (r0, k0, b0, q0, r1, k1, b1, _, _), reads = _vertex_reads(g, sigma, v)
    m, trials = r1 - r0, reads.shape[:-1]
    c = m + k1 - k0 + 1  # columns: unknown parents, forced parents, v
    weights = np.asarray(weights, dtype=float)
    if weights.shape != trials + g.source.shape:
        raise OrderingError(f"edge weights of shape {weights.shape} do not match {g.source.size} edges and trials {trials}")
    full = reads[..., : m * c].reshape(*trials, m, c)
    if b1 > b0:
        # Transformed rows subtract lam[pa(y), y] . sigma[pa(y), cols].
        block = (m, (b1 - b0) // m)
        lam = (weights[..., plan.edge_idx[b0:b1]] * plan.live[b0:b1]).reshape(*trials, *block)
        full = full - np.einsum("...rp,...rpc->...rc", lam, reads[..., m * c :].reshape(*trials, *block, c))

    b = full[..., -1]
    if k1 > k0:
        b = b - full[..., m:-1] @ plan.known[k0:k1]
    rows, parents = plan.read_rows[q0 : q0 + m * c : c], plan.read_cols[q0 : q0 + m]
    return RecoverySystem(v, tuple(rows.tolist()), tuple(parents.tolist()), full[..., :m], b)


@np.errstate(all="ignore")  # LAPACK's failures come back as NaN; squares out of range are rescaled below
def _solve(a, b, vertex):
    """Solve A x = b, with or without a trial axis, and return
    ``(weights, residual, condition)``.

    One SVD per system gives both the near-singular test and the condition
    number. Near-singular or non-finite trials of a stack get NaN weights;
    such a single system raises.
    """
    m = a.shape[-1]
    if m == 0:
        return np.zeros(a.shape[:-1]), np.zeros(a.shape[:-2]), np.ones(a.shape[:-2])
    svals = _umath_linalg.svd(a, signature="d->d")
    if a.ndim == 2:  # one system: its tests on Python floats
        s_max, s_min = svals[0].item(), svals[-1].item()
        if not s_min > SING_TOL * s_max:  # NaN too
            raise NearSingularError(f"vertex {vertex + 1}: system is numerically singular "
                                    f"(sigma_min={s_min:.3e}, sigma_max={s_max:.3e})", vertex=vertex)
        weights = _umath_linalg.solve1(a, b, signature="dd->d")
        r = (a @ weights[:, None])[:, 0] - b
        residual = math.sqrt(np.add.reduce(r * r).item())
        if not 2.0**-480 < residual < 2.0**500 and r.any():  # squares out of range, or NaN
            r, e = pow2_rows(r)
            residual = np.ldexp(math.sqrt(np.add.reduce(r * r).item()), e).item()
        return weights, residual, s_max / s_min
    s_max, s_min = svals[..., 0], svals[..., -1]
    weights = _umath_linalg.solve(a, b[..., None], signature="dd->d")[..., 0]
    if (singular := ~(s_min > SING_TOL * s_max)).any():  # NaN too; their solves may be NaN or junk
        weights[singular] = np.nan
        s_max, s_min = np.where(s_min == 0, [[np.inf], [1.0]], [s_max, s_min])  # condition inf, even for 0/0
    r = (a @ weights[..., None])[..., 0] - b
    residual = np.sqrt(np.add.reduce(r * r, axis=-1))  # np.linalg.norm's bits, without its checks
    if not (2.0**-480 < residual.min() and residual.max() < 2.0**500) and not (
            (2.0**-480 < residual) & (residual < 2.0**500) | ~r.any(axis=-1)).all():  # squares out of range, or NaN
        r, e = pow2_rows(r)  # the bits above wherever the squares neither overflowed nor underflowed
        residual = np.ldexp(np.sqrt(np.add.reduce(r * r, axis=-1)), e)
    return weights, residual, s_max / s_min


def recover_vertex(system: RecoverySystem):
    """Solve the per-vertex system for ``(weights, residual, condition)``.

    NearSingularError when A is degenerate, NaN weights for the degenerate
    trials of a stack; the condition number comes from the SVD of that test.
    """
    return _solve(system.a_matrix, system.b_vector, system.vertex)


def recover_first_layers(g: MixedGraph, sigma, v: int) -> RecoverySystem:
    """The closed-form system of a vertex without grandparents or forced
    in-edges, sigma[pa, pa] @ x = sigma[pa, v], for recover_vertex to solve."""
    plan, (r0, _, _, q0, r1, _, _, _, closed), reads = _vertex_reads(g, sigma, v)
    if not closed:
        raise OrderingError(f"vertex {v + 1} has grandparents or forced in-edges; use the general system")
    full = reads.reshape(*reads.shape[:-1], r1 - r0, r1 - r0 + 1)  # v's parents, then v
    parents = tuple(plan.read_cols[q0 : q0 + r1 - r0].tolist())
    return RecoverySystem(v, parents, parents, full[..., :-1], full[..., -1])


@np.errstate(invalid="ignore", over="ignore")  # a non-finite solve fails below, warning or not
def recover_all(g: MixedGraph, sigma) -> RecoveryResult:
    """Recover every edge weight, processing layers in increasing order.

    ``sigma`` is one covariance (n, n), a stack (T, n, n) or the PlanReads
    gathered from a checked one; a stack is recovered in the same single
    pass and gives (T, |E|) ``weights``.
    Forced edges are copied verbatim; per-vertex diagnostics carry the
    solve residual and the condition number of the system matrix, per
    trial on a stack, and ``systems`` each system as it was solved. A
    near-singular system or a non-finite solve raises NearSingularError on
    a single covariance. On a stack it fails the trial:
    ``failed_vertex[t]`` names the vertex a single recovery of trial t
    would raise for, and ``weights[t]`` is NaN throughout. A covariance
    of another shape raises OrderingError, and one with a non-finite entry
    ConfigError, before any solve.
    """
    g.require_bow_free()  # then the covariance, before the plan allocates arrays of length n
    sigma = sigma if isinstance(sigma, PlanReads) else _checked_covariance(sigma, g.n, stack=True)
    plan = recovery_plan(g)
    reads = sigma if isinstance(sigma, PlanReads) else plan.gather(sigma)
    trials = reads.values.shape[:-1]

    recovered = np.where(np.isnan(g.forced), 0.0, np.broadcast_to(g.forced, trials + g.forced.shape))
    failed = np.full(trials, -1)
    per_vertex: dict[int, VertexDiagnostics] = {}
    systems: dict[int, RecoverySystem] = {}
    for v, (r0, *_, r1, _, _, _, closed) in plan.spans.items():
        system = systems[v] = recover_first_layers(g, reads, v) if closed else build_system(g, reads, recovered, v)
        weights, residual, condition = recover_vertex(system)
        # Near-singular trials and non-finite weights or systems leave the residual non-finite.
        if not trials:  # _solve's Python floats
            if not math.isfinite(residual):
                raise NearSingularError(f"vertex {v + 1}: solve gave non-finite values", vertex=v)
        elif (singular := ~np.isfinite(residual)).any():
            failed[singular & (failed < 0)] = v
            # Zero weights keep the failed trials' later systems finite.
            weights = np.where(singular[..., None], 0.0, weights)
        recovered[..., plan.free_edges[r0:r1]] = weights
        per_vertex[v] = VertexDiagnostics(residual, condition)

    recovered[failed >= 0] = np.nan  # no-op on a single covariance, which raises instead
    return RecoveryResult(g, recovered, per_vertex, failed if trials else None, systems)


def recovery_to_dict(result: RecoveryResult) -> dict:
    """CLI-facing JSON form, vertices 1-based: each directed edge's [source,
    target, weight] in the graph's edge order, forced edges included, and
    each free vertex's diagnostics keyed by the vertex."""
    g, diagnostics = result.graph, sorted(result.per_vertex.items())
    return {"weights": list(zip((g.source + 1).tolist(), (g.target + 1).tolist(), result.weights.tolist())),
            "diagnostics": {str(v + 1): {"residual": d.residual, "condition": d.condition} for v, d in diagnostics}}
