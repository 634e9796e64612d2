import heapq
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bowfree.errors import BowViolationError, CycleError, GraphStructureError
from bowfree.generators import RandomGraphConfig, gen_random_bowfree_graph
from bowfree.experiments import write_report
from bowfree.graphs import MixedGraph, graph_from_dict, graph_to_dict, load_graph
from bowfree.recovery import recovery_plan

from helpers import in_edges, spa


def test_bow_violation_detected():
    g = MixedGraph(2, [(0, 1)], [(0, 1)])
    assert g.bow_violations() == [(0, 1)]
    with pytest.raises(BowViolationError):
        g.require_bow_free()


def test_bow_free_on_distinct_pairs():
    g = MixedGraph(3, [(0, 1)], [(0, 2)])
    assert g.bow_violations() == []


def test_structural_errors():
    with pytest.raises(GraphStructureError):
        MixedGraph(2, [(0, 2)])
    with pytest.raises(GraphStructureError):
        MixedGraph(2, [(1, 1)])
    with pytest.raises(GraphStructureError):
        MixedGraph(2, [], [(0, 0)])
    with pytest.raises(GraphStructureError):
        MixedGraph(3, [(0, 1), (0, 1)])


def test_topological_order_chain(chain3):
    assert chain3.topological_order() == [0, 1, 2]


def test_topological_order_tie_breaks():
    assert MixedGraph(3).topological_order() == [0, 1, 2]
    assert MixedGraph(3, [(0, 2), (1, 2)]).topological_order() == [0, 1, 2]


def test_cycle_error_names_a_cycle():
    g = MixedGraph(3, [(0, 1), (1, 2), (2, 0)])
    with pytest.raises(CycleError) as err:
        g.topological_order()
    cycle = err.value.cycle
    assert cycle[0] == cycle[-1]
    assert set(cycle) <= {0, 1, 2}
    assert len(cycle) >= 3


def test_layer_decomposition_chain(chain3):
    assert chain3.layer_decomposition().tolist() == [1, 2, 3]


def test_layer_decomposition_longest_path_wins():
    g = MixedGraph(3, [(0, 1), (1, 2), (0, 2)])
    assert g.layer_decomposition()[2] == 3


def test_layer_decomposition_no_edges():
    assert MixedGraph(4).layer_decomposition().tolist() == [1, 1, 1, 1]
    assert MixedGraph(0).layer_decomposition().tolist() == []


def test_parents_spa_children(chain3):
    assert chain3.parents(2) == (1,)
    assert spa(chain3, 2) == (0,)
    assert chain3.target[chain3.source == 0].tolist() == [1]  # children, as out-edges sort by source
    assert chain3.parents(0) == ()
    assert spa(chain3, 0) == ()


def test_spa_diamond():
    g = MixedGraph(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    assert spa(g, 3) == (0,)


def test_vertex_range_error(chain3):
    with pytest.raises(GraphStructureError):
        chain3.parents(7)


def test_max_degree():
    assert MixedGraph(3, [(0, 1), (1, 2)]).max_degree() == 1
    assert MixedGraph(4, [(0, 1), (0, 2), (0, 3)]).max_degree() == 3
    assert MixedGraph(3).max_degree() == 0
    assert MixedGraph(0).max_degree() == 0


def test_k_layered():
    assert MixedGraph(3, [(0, 1), (1, 2)]).is_k_layered()
    assert not MixedGraph(3, [(0, 1), (1, 2), (0, 2)]).is_k_layered()


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 10), st.floats(0.0, 1.0), st.integers(0, 10_000))
def test_layers_consistent_with_edges(n, p, seed):
    rng = np.random.default_rng(seed)
    directed = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    g = MixedGraph(n, directed)
    layer = g.layer_decomposition()
    order = g.topological_order()
    position = {v: i for i, v in enumerate(order)}
    for e in g.directed:
        assert layer[e.source] < layer[e.target]
        assert position[e.source] < position[e.target]


def test_determinism_same_input_same_output():
    cfg = RandomGraphConfig(12, 0.4, seed=9)
    a, b = gen_random_bowfree_graph(cfg), gen_random_bowfree_graph(cfg)
    assert a == b
    assert graph_to_dict(a) == graph_to_dict(b)


def test_json_round_trip(tmp_path, chain3):
    g = chain3
    doc = graph_to_dict(g)
    assert doc["n"] == 3
    assert doc["directed"] == [[1, 2], [2, 3]]  # 1-based
    assert doc["bidirected"] == [[1, 3]]
    assert graph_from_dict(doc) == g

    path = tmp_path / "g.json"
    write_report(graph_to_dict(g), path)
    assert load_graph(path) == g
    # forced weights survive as the optional third element
    forced = MixedGraph(2, [(0, 1, 0.5)])
    doc = graph_to_dict(forced)
    assert doc["directed"] == [[1, 2, 0.5]]
    assert graph_from_dict(doc).forced.tolist() == [0.5]


def test_malformed_json_document():
    with pytest.raises(GraphStructureError):
        graph_from_dict({"directed": [[1, 2]]})
    with pytest.raises(GraphStructureError):
        graph_from_dict({"n": 2, "directed": [["a", 2]]})


def test_layering_and_bow_check_are_computed_once():
    g = gen_random_bowfree_graph(RandomGraphConfig(12, 0.5, seed=4))
    layer = g.layer_decomposition()
    assert g.layer_decomposition() is layer
    assert layer.dtype == np.int64
    with pytest.raises(ValueError):
        layer[0] = 2  # shared by every caller, so read-only

    bow = MixedGraph(3, [(0, 1), (1, 2)], [(0, 1), (0, 2)])
    found = bow.bow_violations()
    found.append((1, 2))
    found.clear()
    assert bow.bow_violations() == [(0, 1)]
    assert bow.bow_violations() is not bow.bow_violations()


def test_edge_keys_are_kept_sorted_and_read_only():
    graphs = [gen_random_bowfree_graph(RandomGraphConfig(9, 0.5, seed=s)) for s in range(4)]
    graphs += [MixedGraph(0), MixedGraph(3, [(2, 0), (0, 1), (1, 2)])]
    for g in graphs:
        np.testing.assert_array_equal(g.edge_keys, g.source * g.n + g.target)
        assert (np.diff(g.edge_keys) > 0).all() and not g.edge_keys.flags.writeable


def test_adjacency_index_is_read_only_and_matches_the_edges():
    graphs = [gen_random_bowfree_graph(RandomGraphConfig(9, 0.5, seed=s)) for s in range(4)]
    graphs += [MixedGraph(0), MixedGraph(3), MixedGraph(3, [(2, 0), (0, 1), (1, 2)])]
    for g in graphs:
        for v in range(g.n):
            np.testing.assert_array_equal(g._in_order[g._in_ptr[v] : g._in_ptr[v + 1]], in_edges(g, v))
            assert g._in_degree[v] == len(in_edges(g, v))
            np.testing.assert_array_equal(np.arange(g._out_ptr[v], g._out_ptr[v + 1]), np.flatnonzero(g.source == v))
        assert g._in_ptr[-1] == g._out_ptr[-1] == g.source.size
        for a in (g._in_order, g._in_ptr, g._in_degree, g._out_ptr):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[...] = 0


def _bow_outcome(graph):
    try:
        graph.require_bow_free()
    except BowViolationError as exc:
        return exc.pairs
    return None


def test_cached_structure_agrees_with_a_fresh_graph():
    graphs = [gen_random_bowfree_graph(RandomGraphConfig(9, 0.5, seed=s)) for s in range(6)]
    graphs += [MixedGraph(3, [(0, 1), (1, 2)], [(0, 2)]), MixedGraph(3, [(0, 1), (1, 2)], [(1, 2)])]
    for g in graphs:
        g.layer_decomposition(), g.bow_violations()  # fill the caches
        fresh = MixedGraph.from_arrays(g.n, g.source, g.target, g.forced, g.pairs)
        assert g.is_k_layered() == fresh.is_k_layered()
        np.testing.assert_array_equal(g.layer_decomposition(), fresh.layer_decomposition())
        assert _bow_outcome(g) == _bow_outcome(fresh)
    assert any(g.is_k_layered() for g in graphs) and not all(g.is_k_layered() for g in graphs)
    assert _bow_outcome(graphs[-1]) == [(1, 2)]


# -- the array core against a per-edge reference ----------------------------


def _reference(n, directed, bidirected):
    """The per-edge Python graph core that the arrays replaced, kept as the
    reference: validation in input order, then sorted adjacency, Kahn order
    by a heap, longest-path layers, bows. Raises what MixedGraph must raise."""
    if n < 0:
        raise GraphStructureError(f"vertex count must be nonnegative, got {n}")

    def check_pair(u, v, kind):  # messages name vertices 1-based
        if not (0 <= u < n and 0 <= v < n):
            raise GraphStructureError(f"{kind} edge ({u + 1}, {v + 1}) out of range for n={n}")
        if u == v:
            raise GraphStructureError(f"self-loop ({u + 1}, {v + 1}) not allowed")

    weights = {}
    for u, v, w in directed:
        check_pair(u, v, "directed")
        if (u, v) in weights:
            raise GraphStructureError(f"duplicate directed edge ({u + 1}, {v + 1})")
        weights[u, v] = w
    pairs = set()
    for u, v in bidirected:
        check_pair(u, v, "bidirected")
        pairs.add((min(u, v), max(u, v)))

    edges = sorted(weights)
    parents = [tuple(u for u, v in edges if v == x) for x in range(n)]
    children = [tuple(v for u, v in edges if u == x) for x in range(n)]
    indeg = [len(p) for p in parents]
    heap = [v for v in range(n) if not indeg[v]]
    heapq.heapify(heap)
    order = []
    while heap:
        v = heapq.heappop(heap)
        order.append(v)
        for c in children[v]:
            indeg[c] -= 1
            if not indeg[c]:
                heapq.heappush(heap, c)
    acyclic = len(order) == n
    layer = [1] * n
    for v in order:
        for p in parents[v]:
            layer[v] = max(layer[v], layer[p] + 1)
    free = {v for (u, v), w in weights.items() if w is None}
    return {
        "parents": parents,
        "children": children,
        "order": order if acyclic else None,
        "layer_of": tuple(layer) if acyclic else None,
        "k_layered": all(layer[v] == layer[u] + 1 for u, v in edges) if acyclic else None,
        "free_vertices": sorted(free, key=lambda v: (layer[v], v)) if acyclic else None,
        "max_degree": max(map(len, parents + children), default=0),
        "bows": sorted(p for p in pairs if p in weights or p[::-1] in weights),
        "forced": {e: w for e, w in weights.items() if w is not None},
        "doc": {
            "n": n,
            "directed": [[u + 1, v + 1] + ([] if weights[u, v] is None else [weights[u, v]]) for u, v in edges],
            "bidirected": [[u + 1, v + 1] for u, v in sorted(pairs)],
        },
    }


def _observed(g):
    try:
        order = g.topological_order()
    except CycleError as exc:
        cycle = exc.cycle
        assert cycle[0] == cycle[-1] and len(set(cycle)) == len(cycle) - 1
        edges = set(zip(g.source.tolist(), g.target.tolist()))
        assert all((a, b) in edges for a, b in zip(cycle, cycle[1:]))
        with pytest.raises(CycleError):
            g.layer_decomposition()
        order = None
    acyclic = order is not None
    return {
        "parents": [g.parents(v) for v in range(g.n)],
        "children": [tuple(g.target[g.source == v].tolist()) for v in range(g.n)],
        "order": order,
        "layer_of": tuple(g.layer_decomposition().tolist()) if acyclic else None,
        "k_layered": g.is_k_layered() if acyclic else None,
        "free_vertices": list(recovery_plan(g).spans) if acyclic else None,
        "max_degree": g.max_degree(),
        "bows": g.bow_violations(),
        "forced": {
            (u, v): w for u, v, w in zip(g.source.tolist(), g.target.tolist(), g.forced.tolist()) if not np.isnan(w)
        },
        "doc": graph_to_dict(g),
    }


_DEFECTS = ("out of range", "self-loop", "duplicate", "bidirected out of range", "bidirected self-loop")


@st.composite
def _graph_inputs(draw):
    """Directed edges with and without forced weights, cyclic or not,
    bidirected pairs in both orientations and repeated, and up to two
    malformed edges at random positions."""
    n = draw(st.integers(0, 8))
    vertex = st.integers(0, max(n - 1, 0))
    pair = st.tuples(vertex, vertex).filter(lambda e: e[0] != e[1])
    weight = st.one_of(st.none(), st.floats(-2, 2))
    ends = draw(st.lists(pair, max_size=14, unique=True)) if n > 1 else []
    if draw(st.booleans()):  # acyclic: orient every edge upward
        ends = list({(min(e), max(e)) for e in ends})
    directed = [(u, v, draw(weight)) for u, v in ends]
    bidirected = draw(st.lists(pair, max_size=10)) if n > 1 else []
    for defect in draw(st.lists(st.sampled_from(_DEFECTS), max_size=2)):
        x, outside, flip = draw(vertex), draw(st.sampled_from([-1, n])), draw(st.booleans())
        if defect == "duplicate":
            if not directed:
                continue
            bad = directed[draw(st.integers(0, len(directed) - 1))]
        elif defect == "out of range":
            bad = (outside, x, None) if flip else (x, outside, None)
        elif defect == "self-loop":
            bad = (x, x, None)
        elif defect == "bidirected out of range":
            bad = (outside, x) if flip else (x, outside)
        else:
            bad = (x, x)
        edges = bidirected if defect.startswith("bidirected") else directed
        edges.insert(draw(st.integers(0, len(edges))), bad)
    return n, directed, bidirected


def _outcome(build):
    try:
        return build()
    except GraphStructureError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(_graph_inputs())
def test_array_core_matches_the_per_edge_reference(inputs):
    n, directed, bidirected = inputs
    want = _outcome(lambda: _reference(n, directed, bidirected))
    source, target = (np.array([e[i] for e in directed], dtype=int) for i in (0, 1))
    forced = np.array([np.nan if e[2] is None else e[2] for e in directed], dtype=float)
    pairs = np.array(bidirected, dtype=int).reshape(-1, 2)
    builds = (
        lambda: MixedGraph(n, directed, bidirected),
        lambda: MixedGraph.from_arrays(n, source, target, forced, pairs),
    )
    for build in builds:
        got = _outcome(build)
        if isinstance(want, str):
            assert got == want
            continue
        assert _observed(got) == want
        assert got == MixedGraph.from_arrays(n, got.source, got.target, got.forced, got.pairs)
        assert graph_from_dict(graph_to_dict(got)) == got
        assert hash(graph_from_dict(graph_to_dict(got))) == hash(got)
