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
included, are compiled once per graph into its RecoveryPlan.

recover_all solves each system, assembled by build_system or (the closed
form) recover_first_layers, with recover_vertex and keeps it on its result.

Weights are held in the graph's edge order: ``weights[..., e]`` belongs to
``g.source[e] -> g.target[e]``, so ``lam[pa(y), y]`` is ``weights[..., e]``
over y's in-edges e, one run of the graph's in-edge index. No n x n weight
matrix is built, which a reduced graph with tens of thousands of vertices
could not afford; ``RecoveryResult.lambda_hat`` scatters the weights into
one on first read.

Every function here also accepts a stack of covariances of shape (T, n, n),
a leading trial axis such as the Monte Carlo draws of one graph produce.
The systems of one vertex differ across trials only in their numbers, so a
single layer-ordered pass assembles them with one gather and solves them
with one batched call. A near-singular system raises NearSingularError for
a single covariance; on a stack it fails only its own trial, whose weights
become NaN, and the other trials go on. A stack of stack_trials(g)
covariances stays within STACK_BYTES; robustness.perturbation_ratios feeds
any number of Monte Carlo draws through one such stack, chunk by chunk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import GraphStructureError, NearSingularError, OrderingError
from .graphs import MixedGraph, _runs
from .linalg import pow2_rows
from .lsem import ParamSet, _checked_covariance, gatherable, project_omega_pattern, recover_omega

# A system is near-singular when sigma_min <= SING_TOL * sigma_max.
SING_TOL = 1e-10
# A recovery stack (stack_trials) holds at most this many bytes of
# covariances and edge weights, 8 * (n * n + |E|) per trial. 8 MiB holds 46
# covariances of n = 150, enough to amortise the Python layer walk: larger
# stacks were barely faster there.
STACK_BYTES = 8 * 2**20


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
    used_partial_form: bool


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


def _edge_weights(g: MixedGraph, weights: np.ndarray, u, v) -> np.ndarray:
    """The weights of the edges u -> v (broadcast), 0 where g has none, as
    the n x n matrix would read them, by a search of the sorted g.edge_keys."""
    keys = g.edge_keys
    want = u * g.n + v
    pos = np.minimum(np.searchsorted(keys, want), keys.size - 1)
    return np.where(keys[pos] == want, weights[..., pos], 0.0)


@dataclass(frozen=True)
class RecoveryPlan:
    """Every free vertex's system as index arrays, compiled once per graph by
    recovery_plan. The columns of ``ptr[v]:ptr[v + 1]`` delimit vertex v's rows,
    its columns and its flattened upstream blocks; a vertex without free
    in-edges has no rows and the one column v."""

    ptr: np.ndarray  # (n + 1, 3)
    rows: np.ndarray  # equation rows: the sources of the unknown parents
    free_edges: np.ndarray  # the unknown parents' edges, row by row
    cols: np.ndarray  # unknown parents, then forced parents, then v
    col_forced: np.ndarray  # each column's forced weight, NaN unless a forced parent
    edge_idx: np.ndarray  # a (rows, width) block: each row's in-edges, padded with edge 0
    live: np.ndarray  # 1.0 on an in-edge, 0.0 on padding
    pa_idx: np.ndarray  # the in-edges' sources, 0 on padding
    partial: np.ndarray  # (n,) the closed form applies: no grandparents and no forced in-edge, or nothing to solve

    def system(self, v: int):
        """v's rows, columns, forced weights of its known columns and its
        (edge_idx, live, pa_idx) blocks."""
        if not 0 <= v < self.partial.size:
            raise GraphStructureError(f"vertex {v + 1} out of range for n={self.partial.size}")
        (r0, c0, b0), (r1, c1, b1) = self.ptr[v : v + 2].tolist()
        m = r1 - r0
        blocks = (a[b0:b1].reshape(m, (b1 - b0) // max(m, 1)) for a in (self.edge_idx, self.live, self.pa_idx))
        return self.rows[r0:r1], self.cols[c0:c1], self.col_forced[c0 + m : c1 - 1], *blocks


def recovery_plan(g: MixedGraph) -> RecoveryPlan:
    """g's plan, compiled on first use and kept on the graph, which is immutable."""
    if "_recovery_plan" not in vars(g):
        g._recovery_plan = _compile_plan(g)
    return g._recovery_plan


def _compile_plan(g: MixedGraph) -> RecoveryPlan:
    """Index every free vertex's system with numpy over edges, no vertex loop."""
    n, src, tgt, m = g.n, g.source, g.target, g.free_in_degree
    order, in_ptr, indeg = g._in_order, g._in_ptr, g._in_degree  # v's in-edges are order[in_ptr[v]:in_ptr[v + 1]]
    # A vertex whose in-edges are all forced copies its first parent, and an
    # equation row is taken at the end of such a chain, found by pointer jumping.
    copies = (indeg > 0) & (m == 0)
    copy_of = np.arange(n)
    copy_of[copies] = src[order[in_ptr[:-1][copies]]]
    for _ in range(n.bit_length()):  # 2^k steps after k rounds, and a chain has fewer than n
        copy_of = copy_of[copy_of]
    if copies[copy_of].any():
        raise OrderingError(f"forced-edge chain through vertex {np.argmax(copies[copy_of]) + 1} is cyclic")

    # The free vertices' in-edges, one run of ``order`` per vertex, with the
    # unknown parents first. Vertex t's columns are its k[t] parents and then
    # t, so they start after t own columns of lower vertices.
    k = np.where(m > 0, indeg, 0)
    into = order[_runs(in_ptr[:-1], k)]
    into = into[np.argsort(2 * tgt[into] + ~np.isnan(g.forced[into]), kind="stable")]
    at = np.arange(into.size) + tgt[into]
    cols, col_forced = np.repeat(np.arange(n), k + 1), np.full(into.size + n, np.nan)
    cols[at], col_forced[at] = src[into], g.forced[into]
    free = np.isnan(g.forced[into])
    unknown = into[free]
    rows = copy_of[src[unknown]]
    # Row i lists the in-edges of rows[i], padded to its vertex's widest row.
    degree = indeg[rows]
    width = np.zeros(n, dtype=np.int64)
    np.maximum.at(width, tgt[unknown], degree)
    row_width = width[tgt[unknown]]
    row = np.repeat(np.arange(rows.size), row_width)
    slot = _runs(0, row_width)
    live = slot < degree[row]
    edge_idx = np.where(live, order[np.where(live, in_ptr[rows[row]] + slot, 0)], 0)

    ptr = np.zeros((n + 1, 3), dtype=np.int64)
    np.cumsum(np.stack([m, k + 1, m * width], axis=1), axis=0, out=ptr[1:])
    partial = np.bincount(tgt[into[~free | (indeg[src[into]] > 0)]], minlength=n) == 0
    plan = RecoveryPlan(ptr, rows, unknown, cols, col_forced, edge_idx, live.astype(float),
                        np.where(live, src[edge_idx], 0), partial)
    for a in vars(plan).values():
        a.flags.writeable = False
    return plan


def build_system(g: MixedGraph, sigma, weights: np.ndarray, v: int) -> RecoverySystem:
    """Assemble the square system for vertex v given upstream weights.

    ``weights`` (..., |E|), in the graph's edge order, must already hold
    the recovered weights of every vertex in strictly lower layers (and all
    forced weights), with the same trial axis as ``sigma`` if it has one.
    The equation rows are the sources of v's unforced parents, each
    transformed; their indices come from the graph's recovery plan.
    """
    sig = gatherable(sigma)
    weights = np.asarray(weights, dtype=float)
    if weights.shape != sig.shape[:-2] + g.source.shape:
        raise OrderingError(
            f"edge weights of shape {weights.shape} do not match {g.source.size} edges "
            f"and a covariance of shape {sig.shape}"
        )
    rows, cols, known_weights, edge_idx, live, pa_idx = recovery_plan(g).system(v)
    full = sig[..., rows[:, None], cols]
    if edge_idx.size:
        # Transformed rows subtract lam[pa(y), y] . sigma[pa(y), cols].
        full = full - np.einsum(
            "...rp,...rpc->...rc", weights[..., edge_idx] * live, sig[..., pa_idx[:, :, None], cols]
        )

    m = rows.size
    b = full[..., -1]
    if known_weights.size:
        b = b - full[..., m:-1] @ known_weights
    return RecoverySystem(v, tuple(rows.tolist()), tuple(cols[:m].tolist()), full[..., :m], b)


def _solve(a, b, vertex):
    """Solve A x = b, with or without a trial axis, and return
    ``(weights, residual, condition)``.

    One SVD per system gives both the near-singular test and the condition
    number. Near-singular trials of a stack get NaN weights; a single
    near-singular system raises.
    """
    m = a.shape[-1]
    if m == 0:
        return np.zeros(a.shape[:-1]), np.zeros(a.shape[:-2]), np.ones(a.shape[:-2])
    svals = np.linalg.svd(a, compute_uv=False)
    s_max, s_min = svals[..., 0], svals[..., -1]
    singular = s_min <= SING_TOL * s_max
    if singular.ndim == 0 and singular:
        raise NearSingularError(
            f"vertex {vertex + 1}: system is numerically singular "
            f"(sigma_min={s_min:.3e}, sigma_max={s_max:.3e})",
            vertex=vertex,
        )
    if singular.any():  # only on a stack: its singular trials solve the identity and report NaN
        weights = np.linalg.solve(np.where(singular[..., None, None], np.eye(m), a), b[..., None])[..., 0]
        weights[singular] = np.nan
        s_max, s_min = np.where(s_min == 0, [[np.inf], [1.0]], [s_max, s_min])  # condition inf, even for 0/0
    else:
        weights = np.linalg.solve(a, b[..., None])[..., 0]
    r = (a @ weights[..., None])[..., 0] - b
    residual = np.sqrt(np.add.reduce(r * r, axis=-1))  # np.linalg.norm's bits, without its checks
    if residual.ndim or not (2.0**-480 < residual < 2.0**500 or not r.any()):  # a stack, or squares out of range
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
    plan = recovery_plan(g)
    pa = plan.system(v)[0]  # v's parents, when the closed form applies
    if not plan.partial[v]:
        raise OrderingError(f"vertex {v + 1} has grandparents or forced in-edges; use the general system")
    sig = gatherable(sigma)
    parents = tuple(pa.tolist())
    return RecoverySystem(v, parents, parents, sig[..., pa[:, None], pa], sig[..., pa, v])


@np.errstate(invalid="ignore", over="ignore")  # a non-finite solve fails below, warning or not
def recover_all(g: MixedGraph, sigma) -> RecoveryResult:
    """Recover every edge weight, processing layers in increasing order.

    ``sigma`` is one covariance (n, n) or a stack (T, n, n); a stack is
    recovered in the same single pass and gives (T, |E|) ``weights``.
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
    g.require_bow_free()
    sig = _checked_covariance(sigma, g.n, stack=True)

    recovered = np.broadcast_to(np.where(np.isnan(g.forced), 0.0, g.forced), sig.shape[:-2] + g.forced.shape).copy()
    failed = np.full(sig.shape[:-2], -1)

    plan = recovery_plan(g)
    row_ptr, partial = plan.ptr[:, 0].tolist(), plan.partial.tolist()
    per_vertex: dict[int, VertexDiagnostics] = {}
    systems: dict[int, RecoverySystem] = {}
    for v in g.free_vertices:
        system = systems[v] = recover_first_layers(g, sig, v) if partial[v] else build_system(g, sig, recovered, v)
        weights, residual, condition = recover_vertex(system)
        # Near-singular trials and non-finite weights or systems leave the residual non-finite.
        if sig.ndim == 2:
            residual, condition = float(residual), float(condition)
            if not math.isfinite(residual):
                raise NearSingularError(f"vertex {v + 1}: solve gave non-finite values", vertex=v)
        elif (singular := ~np.isfinite(residual)).any():
            failed[singular & (failed < 0)] = v
            # Zero weights keep the failed trials' later systems finite.
            weights = np.where(singular[..., None], 0.0, weights)
        recovered[..., plan.free_edges[row_ptr[v] : row_ptr[v + 1]]] = weights
        per_vertex[v] = VertexDiagnostics(residual, condition, partial[v])

    if sig.ndim == 2:
        return RecoveryResult(g, recovered, per_vertex, systems=systems)
    recovered[failed >= 0] = np.nan
    return RecoveryResult(g, recovered, per_vertex, failed, systems)


def stack_trials(g: MixedGraph) -> int:
    """How many covariances of g one recovery stack of STACK_BYTES holds."""
    return max(1, STACK_BYTES // (8 * max(g.n**2 + g.source.size, 1)))


def recover_full_params(g: MixedGraph, sigma) -> ParamSet:
    """Full parameter recovery: weights, implied noise covariance, pattern
    projection."""
    lam = recover_all(g, sigma).lambda_hat
    return ParamSet(lam, project_omega_pattern(recover_omega(g, lam, sigma), g.pairs))


def recovery_to_dict(result: RecoveryResult) -> dict:
    """CLI-facing JSON form; vertices are 1-based in the diagnostics keys."""
    return {
        "lambda": result.lambda_hat.tolist(),
        "diagnostics": {
            str(v + 1): {
                "residual": d.residual,
                "condition": d.condition,
                "partial_form": d.used_partial_form,
            }
            for v, d in sorted(result.per_vertex.items())
        },
    }
