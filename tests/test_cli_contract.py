"""The CLI contract, fuzzed: ``bowfree recover`` on a mutated valid input
exits 0, 1 or 2, never with a traceback; a failure prints one ``bowfree:``
line and leaves no ``--out``; a success writes recover_all's weights.

Hypothesis mutates one small valid instance: the graph document (keys,
types, vertex ids, arity, forced weights, duplicates, self-loops, bows,
cycles, ``n`` up to 10**20) and the covariance CSV bytes (BOM, separators,
ragged rows, non-finite cells, asymmetric, indefinite or singular matrices). The run is
derandomized, so Tier-1 sees the same examples every time. ``n`` is never
drawn between 10**8 and 2**62: before recover_all checked the covariance
first, such a graph allocated gigabytes for its recovery plan.
"""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bowfree.cli import main
from bowfree.graphs import MixedGraph, load_graph
from bowfree.lsem import ParamSet, forward_map, load_covariance_csv, save_matrix_csv
from bowfree.recovery import recover_all

_GRAPH = {"n": 5, "directed": [[1, 3], [2, 3], [3, 4], [1, 5], [4, 5]], "bidirected": [[1, 2], [3, 5]]}


def _sigma() -> np.ndarray:
    g = MixedGraph(5, [(u - 1, v - 1) for u, v in _GRAPH["directed"]], [(0, 1), (2, 4)])
    lam, omega = np.zeros((5, 5)), np.eye(5)
    for (u, v), w in zip(_GRAPH["directed"], (0.7, -0.4, 0.6, 0.3, -0.5)):
        lam[u - 1, v - 1] = w
    omega[0, 1] = omega[1, 0] = omega[2, 4] = omega[4, 2] = 0.3
    return forward_map(g, ParamSet(lam, omega))


_SIGMA = _sigma()
_JUNK = [None, "x", "2", 2.0, True, [], {}, [[1, 2]], 7]
_IDS = [1, 2, 4, 5, 0, -1, 6, 2.0, "2", True, None, 2**62, 10**20]
_WEIGHTS = [0.5, -2.0, 0, 10**400, "0.5", True, None, math.nan, math.inf]
_N = [0, 1, 2, 3, 4, 5, 6, 7, 2**62, 10**20, -1]  # never 10**8 to 2**62


@st.composite
def _graph_bytes(draw) -> bytes:
    doc = json.loads(json.dumps(_GRAPH))
    for _ in range(draw(st.integers(1, 3))):
        edges = draw(st.sampled_from([doc.get("directed"), doc.get("bidirected")]))
        edges = edges if isinstance(edges, list) and edges and all(isinstance(e, list) for e in edges) else None
        kind = draw(st.sampled_from(["drop", "retype", "n", "n", "id", "id", "arity", "forced", "forced", "duplicate",
                                     "self-loop", "bow", "cycle"]))
        i = draw(st.integers(0, len(edges) - 1)) if edges else 0
        if kind == "drop":
            doc.pop(draw(st.sampled_from(["n", "directed", "bidirected"])), None)
        elif kind == "retype":
            doc[draw(st.sampled_from(["n", "directed", "bidirected"]))] = draw(st.sampled_from(_JUNK))
        elif kind == "n":
            doc["n"] = draw(st.sampled_from(_N))
        elif edges is None:
            continue
        elif kind == "id" and len(edges[i]) >= 2:
            edges[i][draw(st.integers(0, 1))] = draw(st.sampled_from(_IDS))
        elif kind == "arity":
            edges[i] = edges[i][:1] if draw(st.booleans()) else edges[i] + [0.5, 9]
        elif kind == "forced" and len(edges[i]) >= 2:
            edges[i] = edges[i][:2] + [draw(st.sampled_from(_WEIGHTS))]
        elif kind == "duplicate":
            edges.append(list(edges[i]) if draw(st.booleans()) else edges[i][::-1])
        elif kind == "self-loop":
            edges.append([draw(st.integers(1, 5))] * 2)
        elif kind == "bow" and isinstance(doc.get("bidirected"), list) and len(edges[i]) >= 2:
            doc["bidirected"].append(edges[i][:2])
        elif kind == "cycle" and isinstance(doc.get("directed"), list):
            doc["directed"].append(draw(st.sampled_from([[4, 1], [3, 2], [5, 3]])))
    data = json.dumps(draw(st.sampled_from([doc] * 9 + [[doc], 3, "graph", None]))).encode()
    how = draw(st.sampled_from(["as-is"] * 8 + ["truncate", "not-utf8"]))
    if how == "truncate":
        return data[: draw(st.integers(0, len(data) - 1))]
    return b"\xff\xfe" + data if how == "not-utf8" else data


@st.composite
def _csv_bytes(draw) -> bytes:
    sigma = _SIGMA.copy()
    i, j = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    matrix = draw(st.sampled_from(["valid"] * 4 + ["scaled", "singular", "asymmetric", "indefinite", "drop-row",
                                                    "drop-all"]))
    if matrix == "scaled":
        sigma *= 2.0 ** draw(st.integers(-60, 60))
    elif matrix == "singular":
        sigma = np.ones((5, 5))  # positive semidefinite, so it loads; its systems are singular
    elif matrix == "asymmetric":
        sigma[i, (i + 1) % 5] += draw(st.sampled_from([1e-14, 1e-3, 0.5]))
    elif matrix == "indefinite":
        sigma[i, i] = -1.0
    elif matrix == "drop-row":
        sigma = np.delete(sigma, i, axis=0)
    elif matrix == "drop-all":
        sigma = np.delete(np.delete(sigma, i, axis=0), i, axis=1)  # square, of another size
    fh = io.BytesIO()
    save_matrix_csv(sigma, fh)
    rows = [row.split(",") for row in fh.getvalue().decode().splitlines()]
    for _ in range(draw(st.integers(0, 1))):
        r = min(i, len(rows) - 1)
        kind = draw(st.sampled_from(["cell", "ragged", "header"]))
        if kind == "cell":
            rows[r][min(j, len(rows[r]) - 1)] = draw(st.sampled_from(["nan", "inf", "-inf", "", "abc", "1e999"]))
        elif kind == "ragged" and len(rows[r]) > 1:
            rows[r].pop()
        elif kind == "header":
            rows.insert(0, [f"x{c}" for c in range(len(rows[0]))])
    sep = draw(st.sampled_from([","] * 12 + [";", "\t", " ", ", "]))
    text = "\n".join(sep.join(row) for row in rows) + "\n"
    bom = draw(st.sampled_from([""] * 4 + ["\ufeff"]))
    return b"" if draw(st.integers(0, 19)) == 19 else (bom + text).encode()


def _recover(directory: Path, graph: bytes, csv: bytes):
    """Run ``bowfree recover`` in-process: (exit code, stderr, paths)."""
    paths = {name: directory / name for name in ("g.json", "s.csv", "o.json")}
    paths["g.json"].write_bytes(graph)
    paths["s.csv"].write_bytes(csv)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["recover", "--graph", str(paths["g.json"]), "--sigma", str(paths["s.csv"]),
                     "--out", str(paths["o.json"])])
    return code, err.getvalue(), paths


@settings(max_examples=250, deadline=None, derandomize=True, database=None)
@given(graph=st.one_of(st.just(None), _graph_bytes()), csv=st.one_of(st.just(None), _csv_bytes()))
# Both ended in tracebacks: a recovery plan of length 2**62 was compiled before the
# covariance check, and the edge keys source * 10**20 + target overflowed int64.
@example(graph=json.dumps({**_GRAPH, "n": 2**62}).encode(), csv=None)
@example(graph=json.dumps({**_GRAPH, "n": 10**20}).encode(), csv=None)
def test_recover_on_a_mutated_input_keeps_the_cli_contract(graph, csv):
    if graph is None:  # the valid document
        graph = json.dumps(_GRAPH).encode()
    if csv is None:  # the valid covariance
        fh = io.BytesIO()
        save_matrix_csv(_SIGMA, fh)
        csv = fh.getvalue()
    with tempfile.TemporaryDirectory() as tmp:
        code, err, paths = _recover(Path(tmp), graph, csv)  # an exception here is a traceback on the CLI
        assert code in (0, 1, 2), (code, err)
        if code:
            assert len(err.splitlines()) == 1 and err.startswith("bowfree: "), err
            assert not paths["o.json"].exists()
            return
        assert err == ""
        report = json.loads(paths["o.json"].read_bytes())
        want = recover_all(load_graph(paths["g.json"]), load_covariance_csv(paths["s.csv"])).weights
        got = np.array([w for _, _, w in report["weights"]], dtype=float)
        assert got.tobytes() == want.tobytes()
