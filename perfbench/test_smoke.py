"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest -q perfbench/test_smoke.py

One op per workload passes its checks; traced spans nest; reports are
byte-identical with the tracer's wrappers installed and without them; the
metric names printed match BENCHMARK.json.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import run  # puts the checkout's src/ first on sys.path and imports bowfree from it
from run import Loop, end_to_end, layer_metrics, tracing, workloads

BENCHMARK = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text(encoding="utf-8"))

TINY = {
    "mc-condition": dict(n=20, k=2, p=0.6, trials=3),
    "sim-sweep": dict(n=30, k=3, p=0.6, runs=2, samples=200),
    "reduce-verify": dict(n=9, p=0.4),
}

# Values printed by the package at the commit that added the benchmark, for
# op 0 of each tiny workload at seed 0. They pin the seeded input streams
# (generators, perturbation and sampling seeds) within the checks' tolerances.
SEED_COMMIT = {
    "mc-condition": 6.482990454200333,
    "sim-sweep": [0.017370896576888634, 0.033794405068782986],
}


def tiny(name, tmp_path, seed=0):
    wl = workloads.WORKLOADS[name](tmp_path, seed, **TINY[name])
    wl.setup()
    return wl


@pytest.mark.parametrize("name", sorted(TINY))
def test_one_op_passes_its_checks(name, tmp_path):
    wl = tiny(name, tmp_path)
    loop = Loop(wl)
    loop.run(0.0, 0)
    assert loop.attempted == wl.cycle
    assert loop.failed == 0
    assert len(loop.refs) == len(loop.times) == wl.cycle
    assert all(r > 0 for r in loop.refs)
    metrics = end_to_end(loop, setup_s=1.0)
    assert list(metrics) == [m["name"] for m in BENCHMARK["end_to_end"]]
    for m in BENCHMARK["end_to_end"]:
        assert metrics[m["name"]]["unit"] == m["unit"]
        assert metrics[m["name"]]["value"] > 0


def test_reports_match_the_seed_commit(tmp_path):
    wl = tiny("mc-condition", tmp_path / "mc")
    wl.op(0)
    report = json.loads((wl.work / "report.json").read_text(encoding="utf-8"))
    assert report["kappa_hat"] == pytest.approx(SEED_COMMIT["mc-condition"], rel=workloads.KAPPA_RTOL)
    wl = tiny("sim-sweep", tmp_path / "sim")
    wl.op(0)
    report = json.loads((wl.work / "report.json").read_text(encoding="utf-8"))
    assert report["records"][0]["ratios"] == pytest.approx(SEED_COMMIT["sim-sweep"], rel=workloads.RATIO_RTOL)


def test_check_rejects_a_wrong_report(tmp_path):
    wl = tiny("mc-condition", tmp_path)
    wl.op(0)
    path = wl.work / "report.json"
    report = json.loads(path.read_text(encoding="utf-8"))
    report["kappa_hat"] *= 1.01
    path.write_text(json.dumps(report), encoding="utf-8")
    with pytest.raises(workloads.CheckFailed):
        wl.check(0)


def test_traced_spans_nest_and_cover_every_layer_metric(tmp_path):
    setups, plains, traceds = [], [], []
    for name in sorted(TINY):
        wl = workloads.WORKLOADS[name](tmp_path / name, 0, **TINY[name])
        setup_tracer = tracing.Tracer()
        setup = Loop(wl, setup_tracer)
        setup_tracer.install()
        try:
            wl.setup()
        finally:
            setup_tracer.restore()
        setup.summarise(0)
        tracer = tracing.Tracer()
        traced = Loop(wl, tracer)
        tracer.install()
        try:
            traced.run(0.0, 0)
        finally:
            tracer.restore()
        assert traced.failed == 0
        spans = tracer.spans
        assert spans and all(s is not None for s in spans)
        for op, _, parent, start, end in spans:
            assert start <= end
            if parent == -1:
                continue
            p_op, _, _, p_start, p_end = spans[parent]
            assert p_op == op
            assert p_start <= start and end <= p_end
        roots = [s for s in spans if s[2] == -1]
        assert {tracer.names[s[1]] for s in roots} == {tracing.ROOT}
        assert all(t >= 0 for t in tracing.self_times(spans).values())
        setups.append(setup)
        plains.append(Loop(wl))
        plains[-1].run(0.0, 0)
        traceds.append(traced)
    names = set()
    for setup, plain, traced in zip(setups, plains, traceds):
        metrics = layer_metrics(setup, plain, traced)
        assert list(metrics) == [m["name"] for m in BENCHMARK["per_layer"]]
        names |= {k for k, v in metrics.items() if v["value"]}
    # Every per-layer metric except the ones that must stay 0 is exercised
    # by some workload.
    assert names >= {m["name"] for m in BENCHMARK["per_layer"]} - {"recovery.near_singular", "fail_ratio"}


def test_wrappers_leave_report_bytes_unchanged_and_are_restored(tmp_path):
    import bowfree.cli
    import bowfree.recovery

    originals = (bowfree.cli.main, bowfree.recovery.build_system, bowfree.graphs.MixedGraph.layer_decomposition)

    def reports(tag, tracer=None):
        mc = tiny("mc-condition", tmp_path / f"mc-{tag}")
        sim = tiny("sim-sweep", tmp_path / f"sim-{tag}")
        if tracer:
            tracer.install()
        try:
            mc.op(0)
            sim.op(1)
        finally:
            if tracer:
                tracer.restore()
        return [(wl.work / "report.json").read_bytes() for wl in (mc, sim)]

    plain = reports("plain")
    tracer = tracing.Tracer()
    traced = reports("traced", tracer)
    assert traced == plain
    assert len(tracer.spans) > 100
    assert (bowfree.cli.main, bowfree.recovery.build_system, bowfree.graphs.MixedGraph.layer_decomposition) == originals
