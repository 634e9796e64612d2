"""Mixed causal graphs: directed acyclic edges plus bidirected noise edges.

Vertices are dense 0-based indices internally; the JSON interchange format
is 1-based. Directed edges may carry a *forced* weight, used by the layered
reduction to mark edges whose value is an input to recovery rather than an
unknown.

A graph is stored as arrays: the directed edges as int64 ``source`` and
``target`` sorted by (source, target), that is by their ``edge_keys``
source * n + target, their forced weights as the float array ``forced``
(NaN for a free edge), and the bidirected pairs as the sorted, unique
(m, 2) array ``pairs`` of (min, max). Array position is edge order
everywhere. Messages name vertices 1-based, as the JSON files do; the
vertices an exception carries stay 0-based.
"""

from __future__ import annotations

import heapq
import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import BowViolationError, CycleError, GraphStructureError


@dataclass(frozen=True)
class DirectedEdge:
    source: int
    target: int
    forced_weight: float | None = None


def _vertex_ids(values, width=None) -> np.ndarray:
    """int64 vertex ids: a vector, or rows of ``width`` ids."""
    a = np.asarray(values if isinstance(values, np.ndarray) else list(values))
    shape = (0,) if width is None else (0, width)
    if a.size == 0:
        return np.zeros(shape, dtype=np.int64)
    if a.dtype.kind not in "iu" or a.shape[1:] != shape[1:]:
        want = "a vector" if width is None else f"rows of {width}"
        raise GraphStructureError(f"vertex ids must be integers in {want}, got {a.dtype} of shape {a.shape}")
    return a.astype(np.int64, copy=False)


def _row_pointers(ids: np.ndarray, n: int) -> np.ndarray:
    """CSR row pointers: the edges of vertex v sit at ptr[v]:ptr[v + 1] once sorted by ``ids``."""
    ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(ids, minlength=n), out=ptr[1:])
    return ptr


def _runs(start, count) -> np.ndarray:
    """The index runs start[i]:start[i] + count[i], concatenated; ``start``
    may be a scalar shared by every run."""
    return np.repeat(start - np.cumsum(count) + count, count) + np.arange(count.sum())


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _unique(a: np.ndarray) -> np.ndarray:
    """Sorted distinct values. One sort: np.unique hashes integers on
    numpy 2.x, which took 10x longer on a 5,000-element array."""
    a = np.sort(a)
    return a[np.concatenate(([True], a[1:] != a[:-1]))] if a.size else a


class MixedGraph:
    """Immutable mixed graph G = (V, E, F).

    Parameters
    ----------
    n : vertex count; vertices are 0..n-1.
    directed : iterable of (u, v) or (u, v, weight); a weight of None or
        NaN marks a free edge.
    bidirected : iterable of unordered vertex pairs.

    ``MixedGraph.from_arrays`` takes the same edges as arrays. Construction
    validates indices, self-loops and duplicate directed edges, naming the
    first offender in input order; acyclicity and bow-freeness are checked
    by the dedicated operations so that diagnostic reports can name the
    offending structure.
    """

    def __init__(self, n, directed=(), bidirected=()):
        rows = [(*e[:2], e[2] if len(e) > 2 else None) for e in directed]
        source, target, forced = zip(*rows) if rows else ((), (), ())
        self._build(n, source, target, np.array(forced, dtype=float), bidirected)  # None becomes NaN

    @classmethod
    def from_arrays(cls, n, source, target, forced=None, bidirected=()) -> "MixedGraph":
        """Graph from edge arrays: ``forced`` holds each directed edge's
        forced weight, NaN for a free edge (all free when omitted), and
        ``bidirected`` is an (m, 2) array of vertex pairs in any orientation."""
        g = cls.__new__(cls)
        g._build(n, source, target, forced, bidirected)
        return g

    def _build(self, n, source, target, forced, bidirected):
        if n < 0:
            raise GraphStructureError(f"vertex count must be nonnegative, got {n}")
        source, target, pairs = _vertex_ids(source), _vertex_ids(target), _vertex_ids(bidirected, 2)
        forced = np.full(source.size, np.nan) if forced is None else np.asarray(forced, dtype=float)
        if not source.shape == target.shape == forced.shape:
            raise GraphStructureError(f"edge arrays of shapes {source.shape}, {target.shape}, {forced.shape}")

        # Stable, so a repeat sorts after its first occurrence. Only out-of-range keys collide,
        # and one sorted between a repeat and its first occurrence is an earlier offender.
        edge_keys = source * max(n, 1) + target
        order = np.argsort(edge_keys, kind="stable")
        edge_keys = edge_keys[order]
        s, t = source[order], target[order]
        repeat = np.zeros(source.size, dtype=bool)
        repeat[order[1:][(s[1:] == s[:-1]) & (t[1:] == t[:-1])]] = True
        # The first offending edge in input order decides the message.
        for kind, (u, v), dup in (("directed", (source, target), repeat), ("bidirected", pairs.T, False)):
            out = (u < 0) | (u >= n) | (v < 0) | (v >= n)
            for i in np.flatnonzero(out | (u == v) | dup)[:1]:
                x, y = int(u[i]) + 1, int(v[i]) + 1
                if out[i]:
                    raise GraphStructureError(f"{kind} edge ({x}, {y}) out of range for n={n}")
                if x == y:
                    raise GraphStructureError(f"self-loop ({x}, {y}) not allowed")
                raise GraphStructureError(f"duplicate directed edge ({x}, {y})")

        span = max(n, 1)
        keys = _unique(pairs.min(axis=1) * span + pairs.max(axis=1))
        self.n = n
        self.source, self.target, self.forced = s, t, forced[order]
        self.edge_keys = edge_keys  # source * n + target, ascending
        self.pairs = np.stack([keys // span, keys % span], axis=1)
        for a in (self.source, self.target, self.forced, self.edge_keys, self.pairs):
            a.flags.writeable = False  # the cached adjacency and layering depend on them

    def __eq__(self, other):
        if not isinstance(other, MixedGraph):
            return NotImplemented
        return (
            self.n == other.n
            and np.array_equal(self.source, other.source)
            and np.array_equal(self.target, other.target)
            and np.array_equal(self.forced, other.forced, equal_nan=True)
            and np.array_equal(self.pairs, other.pairs)
        )

    def __hash__(self):
        return hash((self.n, self.source.tobytes(), self.target.tobytes(), self.pairs.tobytes()))

    @cached_property
    def directed(self) -> tuple[DirectedEdge, ...]:
        """The directed edges as objects, built on first read. Nothing in the
        package reads them; the benchmark harness does."""
        weights = [None if math.isnan(w) else w for w in self.forced.tolist()]
        return tuple(map(DirectedEdge, self.source.tolist(), self.target.tolist(), weights))

    # -- adjacency ----------------------------------------------------------
    # One CSR index, built on first use and read-only: v's in-edges are
    # _in_order[_in_ptr[v]:_in_ptr[v + 1]], by ascending parent, _in_degree[v]
    # of them, and its out-edges _out_ptr[v]:_out_ptr[v + 1], as the edges are
    # sorted by source.

    @cached_property
    def _in_order(self) -> np.ndarray:
        """Edge indices sorted by (target, source); narrow keys make the stable sort numpy's radix sort."""
        return _read_only(np.argsort(self.target.astype(np.min_scalar_type(self.n)), kind="stable"))

    @cached_property
    def _in_ptr(self) -> np.ndarray:
        return _read_only(_row_pointers(self.target, self.n))

    @cached_property
    def _out_ptr(self) -> np.ndarray:
        return _read_only(_row_pointers(self.source, self.n))

    @cached_property
    def _in_degree(self) -> np.ndarray:
        return _read_only(np.diff(self._in_ptr))

    def parents(self, v) -> tuple[int, ...]:
        """v's parents, ascending."""
        if not 0 <= v < self.n:
            raise GraphStructureError(f"vertex {v + 1} out of range for n={self.n}")
        lo, hi = self._in_ptr[v : v + 2].tolist()
        return tuple(self.source[self._in_order[lo:hi]].tolist())

    def max_degree(self) -> int:
        """Largest directed in- or out-degree over all vertices (0 for empty graphs)."""
        return int(max(self._in_degree.max(initial=0), np.diff(self._out_ptr).max(initial=0)))

    def edge_weights(self, weights: np.ndarray, u, v) -> np.ndarray:
        """The weights of the edges u -> v (broadcast), 0 where the graph has
        none, as the n x n matrix would read them: ``weights[..., e]`` is edge
        e's, found by a search of the sorted edge_keys."""
        want = u * max(self.n, 1) + v
        pos = np.minimum(np.searchsorted(self.edge_keys, want), self.edge_keys.size - 1)
        return np.where(self.edge_keys[pos] == want, weights[..., pos], 0.0)

    # -- structural algorithms ----------------------------------------------

    @cached_property
    def _bows(self) -> tuple[tuple[int, int], ...]:
        # A bow's (min, max) key is both an undirected edge key and a pair key;
        # each set is duplicate-free, so it shows as a repeat in their union.
        span = max(self.n, 1)
        edges = _unique(np.minimum(self.source, self.target) * span + np.maximum(self.source, self.target))
        keys = np.sort(np.concatenate([edges, self.pairs[:, 0] * span + self.pairs[:, 1]]))
        bows = keys[1:][keys[1:] == keys[:-1]]
        return tuple(zip((bows // span).tolist(), (bows % span).tolist()))

    def bow_violations(self) -> list[tuple[int, int]]:
        """Vertex pairs carrying both a directed and a bidirected edge, sorted."""
        return list(self._bows)

    def require_bow_free(self):
        violations = self.bow_violations()
        if violations:
            raise BowViolationError(violations)

    def topological_order(self) -> list[int]:
        """Kahn order with ties broken by ascending vertex index.

        Raises CycleError naming one directed cycle when none exists.
        """
        children, ptr = self.target.tolist(), self._out_ptr.tolist()
        indeg = self._in_degree.tolist()
        heap = [v for v in range(self.n) if indeg[v] == 0]
        heapq.heapify(heap)
        order = []
        while heap:
            v = heapq.heappop(heap)
            order.append(v)
            for c in children[ptr[v] : ptr[v + 1]]:
                indeg[c] -= 1
                if indeg[c] == 0:
                    heapq.heappush(heap, c)
        if len(order) < self.n:
            # Each vertex left behind has a parent left behind, so walking
            # such parents from one of them closes a cycle.
            seen, v = {}, next(v for v in range(self.n) if indeg[v])
            while v not in seen:
                seen[v] = len(seen)
                v = next(p for p in self.parents(v) if indeg[p])
            cycle = list(seen)[seen[v]:][::-1]
            raise CycleError(cycle + cycle[:1])
        return order

    def layer_decomposition(self) -> np.ndarray:
        """Longest-path layering as a read-only int64 array: layer[v] = 1 +
        max over parents of layer[parent], 1 if parentless. Computed once:
        every call returns the same array."""
        return self._layering

    @cached_property
    def _layering(self) -> np.ndarray:
        # Kahn frontier rounds: the vertices freed by round d are exactly
        # longest-path layer d, so each layer costs one numpy step.
        indeg, out_ptr = self._in_degree.copy(), self._out_ptr
        out_degree = np.diff(out_ptr)
        layer = np.zeros(self.n, dtype=np.int64)
        slot = np.empty(self.n, dtype=np.int64)  # scratch: one position in kids per child
        frontier = np.flatnonzero(indeg == 0)
        depth = 0
        while frontier.size:  # each round costs the frontier's out-edges, not n
            depth += 1
            layer[frontier] = depth
            kids = self.target[_runs(out_ptr[frontier], out_degree[frontier])]  # the frontier's out-edges
            slot[kids] = np.arange(kids.size)  # one writer wins per distinct child
            hits = np.bincount(slot[kids])  # nonzero at the winners only: each child's in-edges from the frontier
            first = np.flatnonzero(hits)
            child = kids[first]
            indeg[child] -= hits[first]
            frontier = child[indeg[child] == 0]
        if (layer == 0).any():
            self.topological_order()  # raises CycleError
        return _read_only(layer)

    def is_k_layered(self) -> bool:
        """True iff every directed edge goes from layer i to layer i + 1."""
        layer = self.layer_decomposition()
        return bool(np.all(layer[self.target] == layer[self.source] + 1))


def graph_to_dict(g: MixedGraph) -> dict:
    """JSON form: 1-based vertices, forced weights as optional third element."""
    directed = [
        [u, v] if math.isnan(w) else [u, v, w]
        for u, v, w in zip((g.source + 1).tolist(), (g.target + 1).tolist(), g.forced.tolist())
    ]
    return {"n": g.n, "directed": directed, "bidirected": (g.pairs + 1).tolist()}


def _integer(x, what: str) -> int:
    # int() would read 2.7 as 2 and true as 1; neither is a count or a vertex.
    if type(x) is not int:
        raise ValueError(f"{what} must be an integer, got {x!r}")
    return x


def _vertex(x) -> int:
    return _integer(x, "vertex") - 1


def _weight(x) -> float:
    w = float(x)
    if not math.isfinite(w):  # NaN would read as a free edge
        raise ValueError(f"forced weight must be finite, got {x!r}")
    return w


def graph_from_dict(data: dict) -> MixedGraph:
    try:
        n = _integer(data["n"], "n")
        rows = [
            (_vertex(e[0]), _vertex(e[1]), _weight(e[2]) if len(e) > 2 else math.nan)
            for e in data.get("directed", [])
        ]
        bidirected = [(_vertex(u), _vertex(v)) for u, v in data.get("bidirected", [])]
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise GraphStructureError(f"malformed graph document: {exc}") from exc
    source, target, forced = zip(*rows) if rows else ((), (), ())
    return MixedGraph.from_arrays(n, source, target, forced, bidirected)


def load_graph(path) -> MixedGraph:
    with open(path, encoding="utf-8") as fh:
        try:
            return graph_from_dict(json.load(fh))
        except json.JSONDecodeError as exc:
            raise GraphStructureError(f"{path}: not valid JSON: {exc}") from exc
