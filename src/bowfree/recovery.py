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
the original graph.

Every function here also accepts a stack of covariances of shape (T, n, n),
a leading trial axis such as the Monte Carlo draws of one graph produce.
The systems of one vertex differ across trials only in their numbers, so a
single layer-ordered pass assembles them with one gather and solves them
with one batched call. A near-singular system raises NearSingularError for
a single covariance; on a stack it fails only its own trial, whose weights
become NaN, and the other trials go on. recover_many feeds any number of
covariances through such passes in stacks of bounded size.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import NearSingularError, OrderingError
from .graphs import MixedGraph
from .lsem import (
    ParamSet,
    ReducedCovariance,
    as_matrix,
    project_omega_pattern,
    recover_omega,
)

# A system is near-singular when sigma_min <= SING_TOL * sigma_max.
SING_TOL = 1e-10
# recover_many stacks at most this many bytes of covariances and weights.
# Peak memory grows by up to about twice this over recovering one covariance
# at a time. 8 MiB holds 23 covariances of n = 150, enough to amortise the
# Python layer walk: larger stacks were barely faster there.
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
    lambda_hat: np.ndarray
    per_vertex: dict[int, VertexDiagnostics] = field(default_factory=dict)
    forced_edges_respected: bool = True
    # Stacks only: per trial, the first vertex (in recovery order) whose
    # system was near-singular, or -1 when the trial recovered.
    failed_vertex: np.ndarray | None = None


def _gatherable(sigma):
    """``sigma`` indexable as ``sig[..., rows, cols]``, a reduced one kept implicit."""
    return sigma if isinstance(sigma, ReducedCovariance) else as_matrix(sigma)


def source_vertex(g: MixedGraph, v: int) -> int:
    """Follow forced in-edges upstream to the vertex v is a copy of.

    Identity for vertices with any unforced (or no) incoming edge.
    """
    seen = set()
    while g.parents(v) and not g.free_in_degree[v]:
        if v in seen:
            raise OrderingError(f"forced-edge chain through vertex {v} is cyclic")
        seen.add(v)
        v = g.parents(v)[0]
    return v


def _split_in_edges(g: MixedGraph, v: int):
    """v's free parents, forced parents and their forced weights, each by
    ascending parent."""
    parents = g.parents(v)
    if g.free_in_degree[v] == len(parents):  # no forced in-edge, as on every unreduced graph
        return parents, (), ()
    edges = g.in_edges(v)
    free = np.isnan(g.forced[edges])
    return tuple(g.source[edges[free]].tolist()), tuple(g.source[edges[~free]].tolist()), g.forced[edges[~free]]


def build_system(g: MixedGraph, sigma, lambda_partial: np.ndarray, v: int) -> RecoverySystem:
    """Assemble the square system for vertex v given upstream weights.

    ``lambda_partial`` must already hold recovered weights for every vertex
    in strictly lower layers (and all forced weights), with the same trial
    axis as ``sigma`` if it has one. The equation rows are the sources of
    v's unforced parents, each transformed.
    """
    sig = _gatherable(sigma)
    lam = np.asarray(lambda_partial, dtype=float)
    if lam.shape[-2:] != (g.n, g.n):
        raise OrderingError(
            f"partial weight matrix of shape {lam.shape} does not match n={g.n}"
        )
    unknown, known, known_weights = _split_in_edges(g, v)
    rows = [source_vertex(g, p) for p in unknown]

    cols = np.array([*unknown, *known, v], dtype=int)
    row_idx = np.array(rows, dtype=int)[:, None]
    full = sig[..., row_idx, cols]
    # Transformed rows subtract lam[pa(y), y] . sigma[pa(y), cols]; the
    # parent lists are padded to one width with zero weights.
    upstream = [g.parents(y) for y in rows]
    width = max(map(len, upstream), default=0)
    if width:
        pa_idx = np.zeros((len(rows), width), dtype=int)
        live = np.zeros((len(rows), width))
        for i, pa_y in enumerate(upstream):
            pa_idx[i, : len(pa_y)] = pa_y
            live[i, : len(pa_y)] = 1.0
        weights = lam[..., pa_idx, row_idx] * live
        full = full - np.einsum("...rp,...rpc->...rc", weights, sig[..., pa_idx[:, :, None], cols])

    m = len(unknown)
    b = full[..., -1]
    if known:
        b = b - full[..., m:-1] @ known_weights
    return RecoverySystem(
        vertex=v,
        y_set=tuple(rows),
        parents=unknown,
        a_matrix=full[..., :m],
        b_vector=b,
    )


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
            f"vertex {vertex}: system is numerically singular "
            f"(sigma_min={s_min:.3e}, sigma_max={s_max:.3e})",
            vertex=vertex,
        )
    # Singular trials of a stack solve the identity instead and report NaN.
    weights = np.linalg.solve(np.where(singular[..., None, None], np.eye(m), a), b[..., None])[..., 0]
    weights[singular] = np.nan
    residual = np.linalg.norm((a @ weights[..., None])[..., 0] - b, axis=-1)
    condition = np.divide(s_max, s_min, out=np.full_like(s_max, np.inf), where=s_min > 0)
    return weights, residual, condition


def recover_vertex(system: RecoverySystem):
    """Solve the per-vertex system for ``(weights, residual, condition)``.

    NearSingularError when A is degenerate, NaN weights for the degenerate
    trials of a stack; the condition number comes from the SVD of that test.
    """
    return _solve(system.a_matrix, system.b_vector, system.vertex)


def recover_first_layers(g: MixedGraph, sigma, v: int):
    """Closed form for vertices without grandparents,
    sigma[pa, pa]^{-1} @ sigma[pa, v]; returns as recover_vertex."""
    if g.spa(v):
        raise OrderingError(f"vertex {v} has grandparents; use the general system")
    sig = _gatherable(sigma)
    pa = np.array(g.parents(v), dtype=int)
    return _solve(sig[..., pa[:, None], pa], sig[..., pa, v], v)


@np.errstate(invalid="ignore", over="ignore")  # a non-finite solve fails below, warning or not
def recover_all(g: MixedGraph, sigma) -> RecoveryResult:
    """Recover the full weight matrix, processing layers in increasing order.

    ``sigma`` is one covariance (n, n) or a stack (T, n, n); a stack is
    recovered in the same single pass and gives a (T, n, n) ``lambda_hat``.
    Forced edges are copied verbatim; per-vertex diagnostics carry the
    solve residual and the condition number of the system matrix, per
    trial on a stack. A near-singular system or a non-finite solve raises
    NearSingularError on a single covariance. On a stack it fails the trial:
    ``failed_vertex[t]`` names the vertex a single recovery of trial t
    would raise for, and ``lambda_hat[t]`` is NaN throughout.
    """
    g.require_bow_free()
    sig = _gatherable(sigma)
    if sig.ndim not in (2, 3) or sig.shape[-2:] != (g.n, g.n):
        raise OrderingError(f"covariance shape {sig.shape} does not match n={g.n}")

    forced_edges = np.flatnonzero(~np.isnan(g.forced))
    forced_u, forced_v = g.source[forced_edges], g.target[forced_edges]
    forced_w = g.forced[forced_edges]
    lam = np.zeros(sig.shape)
    lam[..., forced_u, forced_v] = forced_w
    failed = np.full(sig.shape[:-2], -1)

    per_vertex: dict[int, VertexDiagnostics] = {}
    for v in g.free_vertices:
        unknown, known, _ = _split_in_edges(g, v)
        partial_form = not known and not g.spa(v)
        if partial_form:
            weights, residual, condition = recover_first_layers(g, sig, v)
        else:
            weights, residual, condition = recover_vertex(build_system(g, sig, lam, v))
        # Near-singular trials and non-finite weights or systems leave the residual non-finite.
        singular = ~np.isfinite(residual)
        if singular.any():
            if sig.ndim == 2:
                raise NearSingularError(f"vertex {v}: solve gave non-finite values", vertex=v)
            failed[singular & (failed < 0)] = v
            # Zero weights keep the failed trials' later systems finite.
            weights = np.where(singular[..., None], 0.0, weights)
        lam[..., unknown, v] = weights
        if sig.ndim == 2:
            residual, condition = float(residual), float(condition)
        per_vertex[v] = VertexDiagnostics(residual, condition, partial_form)

    forced_ok = bool(np.all(lam[..., forced_u, forced_v] == forced_w))
    if sig.ndim == 2:
        return RecoveryResult(lam, per_vertex, forced_ok)
    lam[failed >= 0] = np.nan
    return RecoveryResult(lam, per_vertex, forced_ok, failed)


def recover_many(g: MixedGraph, covariances):
    """Recover each covariance of an iterable, several per recover_all call.

    Yields ``(sigma, lambda_hat, failed_vertex)`` per covariance, in order,
    with ``failed_vertex`` -1 when it recovered; see recover_all for the
    masking of near-singular ones. Covariances are taken lazily and
    stacked up to STACK_BYTES at a time, so memory stays bounded however
    many there are.
    """
    per_stack = max(1, STACK_BYTES // (16 * max(g.n, 1) ** 2))
    remaining = iter(covariances)
    while chunk := list(itertools.islice(remaining, per_stack)):
        stack = np.stack([as_matrix(s) for s in chunk])
        del chunk
        result = recover_all(g, stack)
        yield from zip(stack, result.lambda_hat, result.failed_vertex)


def recover_full_params(g: MixedGraph, sigma) -> ParamSet:
    """Full parameter recovery: weights, implied noise covariance, pattern
    projection."""
    lam = recover_all(g, sigma).lambda_hat
    return ParamSet(lam, project_omega_pattern(recover_omega(g, lam, sigma), g.bidirected))


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
        "forced_edges_respected": result.forced_edges_respected,
    }
