"""bowfree benchmark driver.

    python3 perfbench/run.py --workload mc-condition --seed 0 --seconds 35 --trace 0

One client runs one workload's ops in a closed loop in this process for
``--seconds`` (ending on a whole input rotation), checking every op's
output. The last stdout line is the result object; the line before it
records the machine and the sample counts. ``--trace 0`` reports the
end-to-end metrics with no wrapper installed. ``--trace 1`` runs half the
time untraced and half traced, reports the per-layer metrics, the raw op
times of the untraced half and the tracing overhead, and writes the spans
under ``perfbench/out/``.

Op times are reported in units of a fixed reference kernel (``ref``),
timed just before and just after every op on the same thread. A shared
two-CPU host ran at speeds up to 1.9x apart for tens of seconds at a time,
which moved raw op times by more than any bound, but moved the op and the
kernel together (README.md).
"""

from __future__ import annotations

import time

T0 = time.perf_counter()  # process start, as far as the benchmark can see it

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
# One BLAS thread: on a two-CPU host a second OpenBLAS thread competes with
# anything else that runs, and the reference kernel tracks a one-thread op.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

try:
    import bowfree
except ImportError as exc:
    sys.exit(f"perfbench: cannot import bowfree from {ROOT / 'src'}: {exc}")
if Path(bowfree.__file__).resolve().parent.parent != (ROOT / "src").resolve():
    sys.exit(f"perfbench: bowfree was imported from {bowfree.__file__}, not from this checkout")

import numpy as np  # noqa: E402

import oracle  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 7  # this process plus six fresh ones; setup_s is their median

# The reference kernel: fixed inputs that belong to the benchmark, not to
# the package, and a mix of the kinds of work the ops are made of: an
# interpreter loop, JSON and string handling, small dense solves and
# products, many tiny numpy calls, least squares on submatrices picked by
# index lists, and a pass over 8 MB arrays. It takes about 12 ms on the
# machine in README.md, where this mix tracked the host's speed better
# than any one part alone.
_REF_RNG = np.random.default_rng(20070686)
_REF_M = _REF_RNG.standard_normal((160, 160))
_REF_M = _REF_M @ _REF_M.T + 160 * np.eye(160)
_REF_V = _REF_RNG.standard_normal((160, 40))
_REF_SMALL = [_REF_RNG.standard_normal((8, 8)) + 8 * np.eye(8) for _ in range(50)]
_REF_INDEX = [np.sort(_REF_RNG.choice(160, size=6, replace=False)) for _ in range(80)]
_REF_BIG = np.ones(1_000_000)
_REF_OUT = np.empty_like(_REF_BIG)
_REF_DOC = {"nodes": [{"id": i, "name": f"v{i}", "w": [i * 0.5, i / 3], "tags": ["a", str(i)]} for i in range(300)]}


def reference() -> float:
    """Wall time of one run of the reference kernel."""
    t = time.perf_counter()
    s = 0
    for i in range(25_000):
        s += i * i
    doc = json.loads(json.dumps(_REF_DOC))
    sorted((n["w"][1], n["name"]) for n in doc["nodes"])
    "".join(f"{n['id']:05d}{n['w'][0]:.3f}" for n in doc["nodes"])
    for _ in range(2):
        np.linalg.solve(_REF_M, _REF_V)
        _REF_M @ _REF_M
    for _ in range(5):
        for a in _REF_SMALL:
            np.linalg.solve(a, a[:, 0])
    for v, idx in enumerate(_REF_INDEX):
        np.linalg.lstsq(_REF_M[np.ix_(idx, idx)], _REF_M[idx, v], rcond=None)
    np.copyto(_REF_OUT, _REF_BIG)
    _REF_OUT.sum()
    return time.perf_counter() - t


# Per-layer metrics taken from spans, per traced op: span name -> kinds.
SPAN_METRICS = {
    "graphs.layer_decomposition": ("calls", "self_s"),
    "generators.gen_layered_bowfree_graph": ("self_s",),
    "generators.sample_observations": ("self_s",),
    "lsem.forward_map": ("calls", "self_s"),
    "lsem.sample_covariance": ("self_s",),
    "recovery.recover_all": ("calls", "self_s"),
    "recovery.build_system": ("calls", "self_s"),
    "recovery.recover_vertex": ("calls", "self_s"),
    "recovery.recover_first_layers": ("calls", "self_s"),
    "robustness.estimate_condition_number": ("self_s",),
    "robustness.sample_perturbation": ("calls", "self_s"),
    "robustness.relative_distance": ("self_s",),
    "robustness.check_assumptions": ("self_s",),
    "linalg.snorm": ("calls", "self_s"),
    "reduction.reduce_graph": ("self_s",),
    "reduction.reduce_covariance": ("self_s",),
    "reduction.verify_reduction": ("self_s",),
    "experiments.run_simulated": ("self_s",),
    "experiments.report_bytes": ("self_s",),
    "cli.load_graph": ("self_s",),
    "cli.load_matrix_csv": ("self_s",),
}
# Spans whose duration is split by the DAG layer of the vertex they solve for.
DAG_SPANS = ("recovery.build_system", "recovery.recover_vertex", "recovery.recover_first_layers")


def machine() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(BLAS_THREADS),
        "platform": platform.platform(),
    }


class Loop:
    """One closed-loop client: op times, failures, check facts and, when
    traced, per-span-name and per-DAG-layer totals."""

    def __init__(self, workload, tracer=None):
        self.workload, self.tracer = workload, tracer
        self.times: list[float] = []
        self.refs: list[float] = []  # reference time around each timed op
        self.attempted = 0
        self.failed = 0
        self.near_singular = 0
        self.facts: list[dict] = []
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.layer_s: Counter = Counter()

    def run(self, seconds: float, first: int) -> int:
        """Run ops first, first+1, ... until ``seconds`` have passed and the
        input rotation is whole (at least one rotation); returns the next
        op index."""
        i, start = first, time.perf_counter()
        while True:
            self.one(i)
            i += 1
            if (i - first) % self.workload.cycle == 0 and time.perf_counter() - start >= seconds:
                return i

    def one(self, i):
        wl, tracer = self.workload, self.tracer
        mark = len(tracer.spans) if tracer else 0
        self.attempted += 1
        try:
            before = reference()
            t = time.perf_counter()
            self.op(i)
            self.times.append(time.perf_counter() - t)
            self.refs.append((before + reference()) / 2)
            self.facts.append(wl.check(i))
        except workloads.CheckFailed as exc:
            self.fail(i, exc)
            self.near_singular += exc.near_singular
        except Exception as exc:  # an op that raises is a failed op; the run goes on
            self.fail(i, exc)
        if tracer:
            self.summarise(mark)

    def op(self, i):
        """Run op i, traced when there is a tracer; checks are never traced."""
        tracer = self.tracer
        if tracer is None:
            return self.workload.op(i)
        tracer.op, tracer.recording = i, True
        try:
            tracer.span(tracing.ROOT, self.workload.op, i)
        finally:
            tracer.recording = False

    def fail(self, i, exc):
        self.failed += 1
        print(f"perfbench: {self.workload.name} op {i} failed: {exc}", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)

    def summarise(self, first: int):
        """Fold the spans from index ``first`` on into the totals."""
        spans, names, notes = self.tracer.spans, self.tracer.names, self.tracer.notes
        for i, self_time in tracing.self_times(spans, first).items():
            self.calls[names[spans[i][1]]] += 1
            self.self_s[names[spans[i][1]]] += self_time
        layers = {}
        for i, (g, v) in notes.items():
            if v is None or names[spans[i][1]] not in DAG_SPANS:
                continue
            g = g if g is not None else self._graph_of(i, first)
            if g is None:
                continue
            if id(g) not in layers:
                layers[id(g)] = (g, oracle.layer_of([list(g.parents(u)) for u in range(g.n)]))
            self.layer_s[layers[id(g)][1][v]] += spans[i][4] - spans[i][3]
        notes.clear()

    def _graph_of(self, i: int, first: int):
        """Graph of the recover_all span enclosing span i."""
        spans, notes = self.tracer.spans, self.tracer.notes
        p = spans[i][2]
        while p >= first:
            note = notes.get(p)
            if note is not None and note[1] is None:
                return note[0]
            p = spans[p][2]
        return None


def child_setup(args) -> float:
    """Set-up time of a fresh process running the same workload and seed."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def _metric(value, unit):
    return {"value": value, "unit": unit}


def p50_p75(times):
    if len(times) < 2:
        return times[0], times[0]
    return statistics.median(times), statistics.quantiles(times, n=4)[2]


def relative(loop: Loop) -> list[float]:
    """Each op's wall time over the reference time around it."""
    return [t / r for t, r in zip(loop.times, loop.refs)]


def beyond_p75(values) -> int:
    if not values:
        return 0
    p75 = p50_p75(values)[1]
    return sum(v > p75 for v in values)


def end_to_end(loop: Loop, setup_s: float) -> dict:
    if not loop.times:
        sys.exit("perfbench: no op completed")
    rel = relative(loop)
    p50, p75 = p50_p75(rel)
    return {
        "setup_s": _metric(setup_s, "s"),
        "op_ref.p50": _metric(p50, "ref"),
        "op_ref.p75": _metric(p75, "ref"),
        "op_ref.mean": _metric(statistics.fmean(rel), "ref"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_ratio": _metric((loop.attempted - loop.failed) / loop.attempted, "ratio"),
    }


def layer_metrics(setup: Loop, plain: Loop, traced: Loop) -> dict:
    """Raw op times of the untraced half, per-op means over the traced ops,
    the set-up's generator time, and whole-run counts over both halves."""
    ops = max(len(traced.times), 1)
    out = {}
    p50, p75 = p50_p75(plain.times) if plain.times else (0.0, 0.0)
    out["op_s.p50"] = _metric(p50, "s")
    out["op_s.p75"] = _metric(p75, "s")
    out["ops_per_s"] = _metric(len(plain.times) / sum(plain.times) if plain.times else 0.0, "1/s")
    out["ref_s.p50"] = _metric(statistics.median(plain.refs) if plain.refs else 0.0, "s")
    for name, kinds in SPAN_METRICS.items():
        if "calls" in kinds:
            out[f"{name}.calls"] = _metric(traced.calls[name] / ops, "count")
        if "self_s" in kinds:
            out[f"{name}.self_s"] = _metric(traced.self_s[name] / ops, "s")
    # Graph generation happens once, in set-up.
    out["generators.gen_random_bowfree_graph.self_s"] = _metric(
        setup.self_s["generators.gen_random_bowfree_graph"], "s"
    )
    layer_s = [t / ops for t in traced.layer_s.values()]
    out["recovery.dag_layers"] = _metric(len(layer_s), "count")
    out["recovery.dag_layer_s.p50"] = _metric(statistics.median(layer_s) if layer_s else 0.0, "s")
    out["recovery.dag_layer_s.max"] = _metric(max(layer_s, default=0.0), "s")
    facts = plain.facts + traced.facts
    out["recovery.condition.max"] = _metric(max((f.get("condition_max", 0.0) for f in facts), default=0.0), "ratio")
    out["recovery.near_singular"] = _metric(plain.near_singular + traced.near_singular, "count")
    n_prime = max((f.get("n_prime", 0) for f in facts), default=0)
    out["reduction.n_prime"] = _metric(n_prime, "count")
    out["reduction.sigma_prime_mb_computed"] = _metric(n_prime**2 * 8 / 2**20, "MB")
    out["fail_ratio"] = _metric((plain.failed + traced.failed) / (plain.attempted + traced.attempted), "ratio")
    overhead = 0.0
    if plain.times and traced.times:
        overhead = statistics.median(relative(traced)) / statistics.median(relative(plain)) - 1
    out["trace.overhead"] = _metric(overhead, "ratio")
    return out


def run(args, work: Path) -> int:
    wl = workloads.WORKLOADS[args.workload](work, args.seed)
    tracer = tracing.Tracer() if args.trace else None
    setup = Loop(wl, tracer)
    if tracer:
        tracer.install()
    wl.setup()
    setup_s = time.perf_counter() - T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    reference()  # first LAPACK call of the process, outside any op's reference

    if tracer:
        tracer.restore()
        setup.summarise(0)
        plain = Loop(wl)
        nxt = plain.run(args.seconds / 2, 0)
        traced = Loop(wl, tracer)
        tracer.install()
        try:
            traced.run(args.seconds / 2, nxt)
        finally:
            tracer.restore()
        loops = (plain, traced)
        metrics = layer_metrics(setup, plain, traced)
    else:
        plain = Loop(wl)
        plain.run(args.seconds, 0)
        loops = (plain,)
        setups = [setup_s] + [child_setup(args) for _ in range(SETUP_SAMPLES - 1)]
        metrics = end_to_end(plain, statistics.median(setups))

    info = {
        "machine": machine(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "ops_timed": [len(lp.times) for lp in loops],
        "ops_beyond_p75": [beyond_p75(relative(lp)) for lp in loops],
    }
    if tracer:
        path = OUT / f"trace-{args.workload}-seed{args.seed}.json.gz"
        info["spans"] = str(path.relative_to(ROOT))
        tracer.dump(path, info)
    print(json.dumps(info, sort_keys=True))
    failed = sum(lp.failed for lp in loops)
    attempted = sum(lp.attempted for lp in loops)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help="set up, print the set-up time and exit")
    args = parser.parse_args(argv)
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT))
    try:
        return run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
