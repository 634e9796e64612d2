"""The CLI contract, fuzzed: ``bowfree recover`` on a mutated valid input
exits 0, 1 or 2, never with a traceback; a failure prints one ``bowfree:``
line and leaves no ``--out``; a success writes recover_all's weights.
``bowfree check --params`` on a mutated parameter document exits 0 or 1
under the same contract, and a success writes strict JSON, without NaN
or Infinity. ``bowfree reduce`` on the mutated graph and covariance keeps
the contract too, leaves ``--out-dir`` empty on failure, and on success
writes strict JSON whose reduced graph is layered.

Hypothesis mutates one small valid instance: the graph document (keys,
types, vertex ids, arity, forced weights, duplicates, self-loops, bows,
cycles, ``n`` up to 10**20) and the covariance CSV bytes (BOM, separators,
ragged rows, non-finite cells, asymmetric, indefinite or singular matrices). The run is
derandomized, so Tier-1 sees the same examples every time. ``n`` is never
drawn between 10**8 and 2**62: before recover_all checked the covariance
first, such a graph allocated gigabytes for its recovery plan. The
parameter document loses or retypes a key, gets ragged rows, another
shape, weight off the graph's pattern or non-finite cells, or is replaced
by another JSON value.
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
from bowfree.lsem import ParamSet, forward_map, load_covariance_csv, params_bytes, save_matrix_csv
from bowfree.recovery import recover_all

_GRAPH = {"n": 5, "directed": [[1, 3], [2, 3], [3, 4], [1, 5], [4, 5]], "bidirected": [[1, 2], [3, 5]]}


def _params() -> ParamSet:
    lam, omega = np.zeros((5, 5)), np.eye(5)
    for (u, v), w in zip(_GRAPH["directed"], (0.7, -0.4, 0.6, 0.3, -0.5)):
        lam[u - 1, v - 1] = w
    omega[0, 1] = omega[1, 0] = omega[2, 4] = omega[4, 2] = 0.3
    return ParamSet(lam, omega)


_PARAMS = _params()
_SIGMA = forward_map(MixedGraph(5, [(u - 1, v - 1) for u, v in _GRAPH["directed"]], [(0, 1), (2, 4)]), _PARAMS)
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
    return _truncated_or_not_utf8(draw, data)


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


def _truncated_or_not_utf8(draw, data: bytes) -> bytes:
    how = draw(st.sampled_from(["as-is"] * 8 + ["truncate", "not-utf8"]))
    if how == "truncate":
        return data[: draw(st.integers(0, len(data) - 1))]
    return b"\xff\xfe" + data if how == "not-utf8" else data


_CELLS = [0.5, -2.0, 0, 10**400, "0.5", True, None, [1.0], math.nan, math.inf, -math.inf]


@st.composite
def _params_bytes(draw) -> bytes:
    doc = json.loads(params_bytes(_PARAMS))
    for _ in range(draw(st.integers(1, 2))):
        key = draw(st.sampled_from(["lambda", "omega"]))
        kind = draw(st.sampled_from(["drop", "retype", "ragged", "shape", "off-pattern", "off-pattern", "cell",
                                     "cell"]))
        rows = doc.get(key)
        i, j = draw(st.integers(0, 4)), draw(st.integers(0, 4))
        if kind == "drop":
            doc.pop(key, None)
        elif kind == "retype":
            doc[key] = draw(st.sampled_from(_JUNK))
        elif not (isinstance(rows, list) and len(rows) == 5 and all(isinstance(r, list) and r for r in rows)):
            continue
        elif kind == "ragged":
            rows[i].pop()
        elif kind == "shape":  # 4 x 4 or 6 x 6
            doc[key] = [r[:4] for r in rows[:4]] if draw(st.booleans()) else [r + [0.0] for r in rows + [rows[0]]]
        elif kind == "off-pattern":  # 1e-12 is within the pattern tolerance
            rows[i][min(j, len(rows[i]) - 1)] = draw(st.sampled_from([0.5, 1e-12]))
        elif kind == "cell":
            rows[i][min(j, len(rows[i]) - 1)] = draw(st.sampled_from(_CELLS))
    data = json.dumps(draw(st.sampled_from([doc] * 9 + [[doc], 3, "params", None]))).encode()
    return _truncated_or_not_utf8(draw, data)


def _run(directory: Path, files: dict, argv: list):
    """Write ``files`` into ``directory`` and run ``bowfree`` in-process on
    ``argv``, in which a file's name stands for its path, as ``o.json``
    does for the output: (exit code, stderr, paths)."""
    paths = {name: directory / name for name in (*files, "o.json")}
    for name, data in files.items():
        paths[name].write_bytes(data)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main([str(paths.get(a, a)) for a in argv])
    return code, err.getvalue(), paths


def _valid_csv() -> bytes:
    fh = io.BytesIO()
    save_matrix_csv(_SIGMA, fh)
    return fh.getvalue()


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
        csv = _valid_csv()
    with tempfile.TemporaryDirectory() as tmp:  # an exception in _run is a traceback on the CLI
        code, err, paths = _run(Path(tmp), {"g.json": graph, "s.csv": csv},
                                ["recover", "--graph", "g.json", "--sigma", "s.csv", "--out", "o.json"])
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


def _reject_constant(name):
    raise ValueError(f"{name} in a report")


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(params=st.one_of(st.just(None), _params_bytes()))
def test_check_on_a_mutated_params_file_keeps_the_cli_contract(params):
    if params is None:  # the valid document
        params = params_bytes(_PARAMS)
    files = {"g.json": json.dumps(_GRAPH).encode(), "s.csv": _valid_csv(), "p.json": params}
    with tempfile.TemporaryDirectory() as tmp:
        code, err, paths = _run(Path(tmp), files, ["check", "--graph", "g.json", "--sigma", "s.csv",
                                                   "--params", "p.json", "--out", "o.json"])
        assert code in (0, 1), (code, err)
        if code:
            assert len(err.splitlines()) == 1 and err.startswith("bowfree: "), err
            assert not paths["o.json"].exists()
            return
        assert err == ""
        json.loads(paths["o.json"].read_bytes(), parse_constant=_reject_constant)


@settings(max_examples=250, deadline=None, derandomize=True, database=None)
@given(graph=st.one_of(st.just(None), _graph_bytes()), csv=st.one_of(st.just(None), _csv_bytes()))
@example(graph=json.dumps({**_GRAPH, "directed": _GRAPH["directed"] + [[4, 1]]}).encode(), csv=None)  # a cycle
def test_reduce_on_a_mutated_input_keeps_the_cli_contract(graph, csv):
    files = {"g.json": json.dumps(_GRAPH).encode() if graph is None else graph,
             "s.csv": _valid_csv() if csv is None else csv}
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "red"
        code, err, _ = _run(Path(tmp), files, ["reduce", "--graph", "g.json", "--sigma", "s.csv",
                                               "--out-dir", str(out)])
        assert code in (0, 1, 2), (code, err)  # 64, the usage exit, needs a malformed command line
        if code:
            assert len(err.splitlines()) == 1 and err.startswith("bowfree: "), err
            assert not out.exists() or not any(out.iterdir())
            return
        assert err == ""
        for name in ("g_prime.json", "manifest.json"):
            json.loads((out / name).read_bytes(), parse_constant=_reject_constant)
        assert load_graph(out / "g_prime.json").is_k_layered()
