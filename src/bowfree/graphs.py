"""Mixed causal graphs: directed acyclic edges plus bidirected noise edges.

Vertices are dense 0-based indices internally; the JSON interchange format
is 1-based. Directed edges may carry a *forced* weight, used by the layered
reduction to mark edges whose value is an input to recovery rather than an
unknown.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType

from .errors import BowViolationError, CycleError, GraphStructureError


@dataclass(frozen=True)
class DirectedEdge:
    source: int
    target: int
    forced_weight: float | None = None


@dataclass(frozen=True)
class LayerDecomposition:
    """Longest-path layering: layer(v) = length of the longest directed
    path ending at v, counted so that parentless vertices sit in layer 1."""

    layer_of: tuple[int, ...]
    layers: MappingProxyType[int, tuple[int, ...]]

    @property
    def depth(self) -> int:
        return max(self.layers) if self.layers else 0


@dataclass(frozen=True)
class MixedGraph:
    """Immutable mixed graph G = (V, E, F).

    Parameters
    ----------
    n : vertex count; vertices are 0..n-1.
    directed : iterable of (u, v) or (u, v, weight) or DirectedEdge.
    bidirected : iterable of unordered vertex pairs.

    Construction validates indices, self-loops and duplicates; acyclicity
    and bow-freeness are checked by the dedicated operations so that
    diagnostic reports can name the offending structure.
    """

    n: int
    directed: tuple[DirectedEdge, ...]
    bidirected: frozenset[tuple[int, int]]

    def __init__(self, n, directed=(), bidirected=()):
        if n < 0:
            raise GraphStructureError(f"vertex count must be nonnegative, got {n}")
        edges = []
        seen = set()
        for e in directed:
            if isinstance(e, DirectedEdge):
                u, v, w = e.source, e.target, e.forced_weight
            else:
                u, v = e[0], e[1]
                w = float(e[2]) if len(e) > 2 and e[2] is not None else None
            self._check_pair(n, u, v, "directed")
            if (u, v) in seen:
                raise GraphStructureError(f"duplicate directed edge ({u}, {v})")
            seen.add((u, v))
            edges.append(DirectedEdge(u, v, w))
        edges.sort(key=lambda e: (e.source, e.target))

        pairs = set()
        for u, v in bidirected:
            self._check_pair(n, u, v, "bidirected")
            pairs.add((min(u, v), max(u, v)))

        object.__setattr__(self, "n", n)
        object.__setattr__(self, "directed", tuple(edges))
        object.__setattr__(self, "bidirected", frozenset(pairs))

    @staticmethod
    def _check_pair(n, u, v, kind):
        for x in (u, v):
            if not (0 <= x < n):
                raise GraphStructureError(f"{kind} edge ({u}, {v}) out of range for n={n}")
        if u == v:
            raise GraphStructureError(f"self-loop ({u}, {v}) not allowed")

    # -- cached adjacency -------------------------------------------------

    @cached_property
    def _parents(self) -> tuple[tuple[int, ...], ...]:
        out = [[] for _ in range(self.n)]
        for e in self.directed:
            out[e.target].append(e.source)
        return tuple(tuple(sorted(p)) for p in out)

    @cached_property
    def _children(self) -> tuple[tuple[int, ...], ...]:
        out = [[] for _ in range(self.n)]
        for e in self.directed:
            out[e.source].append(e.target)
        return tuple(tuple(sorted(c)) for c in out)

    @cached_property
    def _bidirected_neighbors(self) -> tuple[tuple[int, ...], ...]:
        out = [[] for _ in range(self.n)]
        for u, v in self.bidirected:
            out[u].append(v)
            out[v].append(u)
        return tuple(tuple(sorted(b)) for b in out)

    @cached_property
    def forced_weights(self) -> dict[tuple[int, int], float]:
        return {
            (e.source, e.target): e.forced_weight
            for e in self.directed
            if e.forced_weight is not None
        }

    # -- basic accessors ---------------------------------------------------

    def _check_vertex(self, v):
        if not (0 <= v < self.n):
            raise GraphStructureError(f"vertex {v} out of range for n={self.n}")

    def parents(self, v) -> tuple[int, ...]:
        self._check_vertex(v)
        return self._parents[v]

    def children(self, v) -> tuple[int, ...]:
        self._check_vertex(v)
        return self._children[v]

    def spa(self, v) -> tuple[int, ...]:
        """Second parents: union of parents of parents of v."""
        self._check_vertex(v)
        out = set()
        for p in self._parents[v]:
            out.update(self._parents[p])
        return tuple(sorted(out))

    def bidirected_neighbors(self, v) -> tuple[int, ...]:
        self._check_vertex(v)
        return self._bidirected_neighbors[v]

    def max_degree(self) -> int:
        """Largest directed in- or out-degree over all vertices (0 for empty graphs)."""
        if self.n == 0:
            return 0
        return max(max(len(self._parents[v]), len(self._children[v])) for v in range(self.n))

    # -- structural algorithms ----------------------------------------------

    @cached_property
    def _bows(self) -> tuple[tuple[int, int], ...]:
        par = self._parents  # bidirected pairs are stored (min, max)
        return tuple(sorted((u, v) for u, v in self.bidirected if u in par[v] or v in par[u]))

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
        import heapq

        indeg = [len(self._parents[v]) for v in range(self.n)]
        heap = [v for v in range(self.n) if indeg[v] == 0]
        heapq.heapify(heap)
        order = []
        while heap:
            v = heapq.heappop(heap)
            order.append(v)
            for c in self._children[v]:
                indeg[c] -= 1
                if indeg[c] == 0:
                    heapq.heappush(heap, c)
        if len(order) < self.n:
            raise CycleError(self._find_cycle())
        return order

    def _find_cycle(self) -> list[int]:
        color = [0] * self.n  # 0 unseen, 1 on stack, 2 done
        stack: list[int] = []

        def dfs(v):
            color[v] = 1
            stack.append(v)
            for c in self._children[v]:
                if color[c] == 1:
                    return stack[stack.index(c):] + [c]
                if color[c] == 0:
                    found = dfs(c)
                    if found:
                        return found
            stack.pop()
            color[v] = 2
            return None

        for v in range(self.n):
            if color[v] == 0:
                cycle = dfs(v)
                if cycle:
                    return cycle
        raise AssertionError("cycle reported but not found")

    def layer_decomposition(self) -> LayerDecomposition:
        """layer(v) = 1 + max over parents of layer(parent); 1 if parentless.
        Computed once: every call returns the same object."""
        return self._layering

    @cached_property
    def _layering(self) -> LayerDecomposition:
        order = self.topological_order()
        layer = [1] * self.n
        for v in order:
            for p in self._parents[v]:
                layer[v] = max(layer[v], layer[p] + 1)
        groups: dict[int, list[int]] = {}
        for v in range(self.n):
            groups.setdefault(layer[v], []).append(v)
        layers = MappingProxyType({i: tuple(sorted(vs)) for i, vs in sorted(groups.items())})
        return LayerDecomposition(tuple(layer), layers)

    def is_k_layered(self) -> bool:
        """True iff every directed edge goes from layer i to layer i + 1."""
        layer = self.layer_decomposition().layer_of
        return all(layer[e.target] == layer[e.source] + 1 for e in self.directed)


def graph_to_dict(g: MixedGraph) -> dict:
    """JSON form: 1-based vertices, forced weights as optional third element."""
    directed = []
    for e in g.directed:
        if e.forced_weight is None:
            directed.append([e.source + 1, e.target + 1])
        else:
            directed.append([e.source + 1, e.target + 1, e.forced_weight])
    bidirected = [[u + 1, v + 1] for u, v in sorted(g.bidirected)]
    return {"n": g.n, "directed": directed, "bidirected": bidirected}


def _integer(x, what: str) -> int:
    # int() would read 2.7 as 2 and true as 1; neither is a count or a vertex.
    if type(x) is not int:
        raise ValueError(f"{what} must be an integer, got {x!r}")
    return x


def _vertex(x) -> int:
    return _integer(x, "vertex") - 1


def graph_from_dict(data: dict) -> MixedGraph:
    try:
        n = _integer(data["n"], "n")
        directed = [(_vertex(e[0]), _vertex(e[1]), *map(float, e[2:3])) for e in data.get("directed", [])]
        bidirected = [(_vertex(u), _vertex(v)) for u, v in data.get("bidirected", [])]
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise GraphStructureError(f"malformed graph document: {exc}") from exc
    return MixedGraph(n, directed, bidirected)


def load_graph(path) -> MixedGraph:
    with open(path, encoding="utf-8") as fh:
        try:
            return graph_from_dict(json.load(fh))
        except json.JSONDecodeError as exc:
            raise GraphStructureError(f"{path}: not valid JSON: {exc}") from exc
