"""Outside-in tracing of the package's public functions.

The tracer swaps each function in ``TARGETS`` for a timing wrapper at
every name it is bound to in a loaded ``bowfree`` module, because the
package binds names with ``from .x import f``: ``recover_all`` inside
``robustness`` is a different name from ``recover_all`` inside
``recovery``. ``restore`` puts the originals back. No file of the package
changes, and the wrappers leave arguments and results untouched, so
reports are byte-identical with and without them.

A span is ``(op, name, parent, start, end)``; all spans of one op share
the op id and ``parent`` is the index of the enclosing span (-1 at the
top). Spans stay in memory until ``dump``.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
from time import perf_counter

# (span name, defining module, attribute); "Class.method" names a method.
TARGETS = (
    ("cli.main", "bowfree.cli", "main"),
    ("cli.load_graph", "bowfree.graphs", "load_graph"),
    ("cli.load_matrix_csv", "bowfree.lsem", "load_matrix_csv"),
    ("graphs.layer_decomposition", "bowfree.graphs", "MixedGraph.layer_decomposition"),
    ("generators.gen_random_bowfree_graph", "bowfree.generators", "gen_random_bowfree_graph"),
    ("generators.gen_layered_bowfree_graph", "bowfree.generators", "gen_layered_bowfree_graph"),
    ("generators.gen_lambda_range", "bowfree.generators", "gen_lambda_range"),
    ("generators.gen_omega_sdd", "bowfree.generators", "gen_omega_sdd"),
    ("generators.sample_observations", "bowfree.generators", "sample_observations"),
    ("lsem.forward_map", "bowfree.lsem", "forward_map"),
    ("lsem.sample_covariance", "bowfree.lsem", "sample_covariance"),
    ("linalg.snorm", "bowfree.linalg", "snorm"),
    ("recovery.recover_all", "bowfree.recovery", "recover_all"),
    ("recovery.build_system", "bowfree.recovery", "build_system"),
    ("recovery.recover_vertex", "bowfree.recovery", "recover_vertex"),
    ("recovery.recover_first_layers", "bowfree.recovery", "recover_first_layers"),
    ("robustness.estimate_condition_number", "bowfree.robustness", "estimate_condition_number"),
    ("robustness.sample_perturbation", "bowfree.robustness", "sample_perturbation"),
    ("robustness.relative_distance", "bowfree.robustness", "relative_distance"),
    ("robustness.check_assumptions", "bowfree.robustness", "check_assumptions"),
    ("robustness.eta_bound", "bowfree.robustness", "eta_bound"),
    ("reduction.reduce_instance", "bowfree.reduction", "reduce_instance"),
    ("reduction.reduce_graph", "bowfree.reduction", "reduce_graph"),
    ("reduction.reduce_covariance", "bowfree.reduction", "reduce_covariance"),
    ("reduction.verify_reduction", "bowfree.reduction", "verify_reduction"),
    ("experiments.run_simulated", "bowfree.experiments", "run_simulated"),
    ("experiments.report_bytes", "bowfree.experiments", "report_bytes"),
)

# Calls whose arguments name a graph vertex, for the per-DAG-layer split:
# span name -> function of the positional arguments giving (graph or None,
# vertex); recover_all gives its graph to the recover_vertex calls inside.
VERTEX_OF = {
    "recovery.build_system": lambda a: (a[0], a[3]),
    "recovery.recover_first_layers": lambda a: (a[0], a[2]),
    "recovery.recover_vertex": lambda a: (None, a[0].vertex),
    "recovery.recover_all": lambda a: (a[0], None),
}

ROOT = "bench.op"


def _lookup(owner, attr):
    for part in attr.split(".")[:-1]:
        owner = getattr(owner, part)
    return owner, attr.split(".")[-1]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []
        self.notes: dict[int, tuple] = {}
        self.op = -1
        self.recording = True  # False passes calls straight through
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def span(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span called ``name``."""
        return self._run(self._name_id(name), VERTEX_OF.get(name), fn, args, kwargs)

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _run(self, name_id, vertex_of, fn, args, kwargs):
        if not self.recording:
            return fn(*args, **kwargs)
        spans, stack = self.spans, self._stack
        idx = len(spans)
        spans.append(None)
        parent = stack[-1] if stack else -1
        stack.append(idx)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            spans[idx] = (self.op, name_id, parent, start, end)
            if vertex_of is not None:
                try:
                    self.notes[idx] = vertex_of(args)
                except (IndexError, AttributeError):
                    pass  # a changed signature loses the layer split, never the call

    def _wrap(self, name: str, fn):
        name_id, vertex_of, run = self._name_id(name), VERTEX_OF.get(name), self._run

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return run(name_id, vertex_of, fn, args, kwargs)

        return wrapper

    def install(self):
        """Wrap every target at every name bound to it; absent targets are skipped."""
        modules = [m for key, m in sorted(sys.modules.items()) if key == "bowfree" or key.startswith("bowfree.")]
        for name, module_name, attr in TARGETS:
            try:
                owner, leaf = _lookup(importlib.import_module(module_name), attr)
                original = getattr(owner, leaf)
            except (ImportError, AttributeError):
                continue
            wrapper = self._wrap(name, original)
            if isinstance(owner, type):
                self._patches.append((owner, leaf, original))
                setattr(owner, leaf, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original))
                        setattr(module, key, wrapper)

    def restore(self):
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def dump(self, path, meta: dict):
        ops, names, parents, starts, ends = (list(col) for col in zip(*self.spans)) if self.spans else ([],) * 5
        payload = {
            "meta": meta,
            "names": self.names,
            "op": ops,
            "name": names,
            "parent": parents,
            "start": starts,
            "end": ends,
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(payload, fh)


def self_times(spans, first: int = 0):
    """Self time of each span from index ``first`` on: its duration minus
    the durations of its direct children (children nest inside parents)."""
    out = {i: s[4] - s[3] for i, s in enumerate(spans[first:], first)}
    for i in range(first, len(spans)):
        parent = spans[i][2]
        if parent >= first:
            out[parent] -= spans[i][4] - spans[i][3]
    return out
