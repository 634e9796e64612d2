import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bowfree.errors import BowViolationError, CycleError, GraphStructureError
from bowfree.generators import RandomGraphConfig, gen_random_bowfree_graph
from bowfree.experiments import write_report
from bowfree.graphs import MixedGraph, graph_from_dict, graph_to_dict, load_graph


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
    dec = chain3.layer_decomposition()
    assert dec.layers == {1: (0,), 2: (1,), 3: (2,)}


def test_layer_decomposition_longest_path_wins():
    g = MixedGraph(3, [(0, 1), (1, 2), (0, 2)])
    assert g.layer_decomposition().layer_of[2] == 3


def test_layer_decomposition_no_edges():
    dec = MixedGraph(4).layer_decomposition()
    assert dec.layers == {1: (0, 1, 2, 3)}


def test_parents_spa_children(chain3):
    assert chain3.parents(2) == (1,)
    assert chain3.spa(2) == (0,)
    assert chain3.children(0) == (1,)
    assert chain3.parents(0) == ()
    assert chain3.spa(0) == ()


def test_spa_diamond():
    g = MixedGraph(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    assert g.spa(3) == (0,)


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
    layer = g.layer_decomposition().layer_of
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
    assert graph_from_dict(doc).forced_weights == {(0, 1): 0.5}


def test_malformed_json_document():
    with pytest.raises(GraphStructureError):
        graph_from_dict({"directed": [[1, 2]]})
    with pytest.raises(GraphStructureError):
        graph_from_dict({"n": 2, "directed": [["a", 2]]})


def test_layering_and_bow_check_are_computed_once():
    g = gen_random_bowfree_graph(RandomGraphConfig(12, 0.5, seed=4))
    dec = g.layer_decomposition()
    assert g.layer_decomposition() is dec
    with pytest.raises(TypeError):
        dec.layers[0] = ()  # shared by every caller, so read-only

    bow = MixedGraph(3, [(0, 1), (1, 2)], [(0, 1), (0, 2)])
    found = bow.bow_violations()
    found.append((1, 2))
    found.clear()
    assert bow.bow_violations() == [(0, 1)]
    assert bow.bow_violations() is not bow.bow_violations()


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
        fresh = MixedGraph(g.n, g.directed, g.bidirected)
        assert g.is_k_layered() == fresh.is_k_layered()
        assert g.layer_decomposition() == fresh.layer_decomposition()
        assert _bow_outcome(g) == _bow_outcome(fresh)
    assert any(g.is_k_layered() for g in graphs) and not all(g.is_k_layered() for g in graphs)
    assert _bow_outcome(graphs[-1]) == [(1, 2)]
