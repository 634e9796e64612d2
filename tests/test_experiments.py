import argparse
import json
import subprocess
import sys
import warnings
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np
import pytest

from bowfree import cli, recovery
from bowfree.cli import build_parser, main
from bowfree.errors import ConfigError, IngestionError
from bowfree.experiments import (
    ExperimentConfig,
    gene_standin_dataset,
    load_dataset,
    report_bytes,
    run_assumption_survey,
    run_experiment,
    run_gene_style,
    run_simulated,
    summarise,
    summary_csv_lines,
)
from bowfree.graphs import load_graph
from bowfree.lsem import load_covariance_csv
from bowfree.robustness import estimate_condition_number


def test_config_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig(mode="nope", seed=0).validate()
    with pytest.raises(ConfigError):
        ExperimentConfig(mode="gene", seed=0, p_grid=(1.5,)).validate()


def test_standin_dataset_shape_and_determinism():
    a = gene_standin_dataset(seed=3)
    b = gene_standin_dataset(seed=3)
    assert a.shape == (118, 13)
    np.testing.assert_array_equal(a, b)


def test_load_dataset_errors(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("1,2\n3\n")
    with pytest.raises(IngestionError):
        load_dataset(bad)
    small = tmp_path / "small.csv"
    small.write_text("1,2\n3,4\n")
    with pytest.raises(IngestionError):
        load_dataset(small)


def test_gene_degenerate_noise_is_flagged():
    cfg = ExperimentConfig(mode="gene", seed=1, p_grid=(0.2,), graphs=2, runs_per_graph=2, noise_eps=0.0)
    report = run_gene_style(cfg)
    assert report["degenerate_perturbation"] is True
    assert all(rec["ratios"] == [] for rec in report["records"])


def test_gene_accepts_full_probability_sweep():
    sweep = (0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
    cfg = ExperimentConfig(mode="gene", seed=1, p_grid=sweep, graphs=1, runs_per_graph=0)
    report = run_gene_style(cfg)
    assert tuple(report["config"]["p_grid"]) == sweep
    assert set(report["summary"]) == {f"p={p:g}" for p in sweep}


def test_simulated_accepts_wide_grid():
    cfg = ExperimentConfig(
        mode="simulated", seed=1, p_grid=(0.2, 0.8), k=7,
        n_grid=(14, 21, 35, 49), range_grid=(1.0 / 7.0, 1.0),
        graphs=1, runs_per_graph=0,
    )
    report = run_simulated(cfg)
    assert report["config"]["k"] == 7
    assert len(report["summary"]) == 4 * 2 * 2


def test_gene_dense_exceeds_sparse():
    cfg = ExperimentConfig(
        mode="gene", seed=0, p_grid=(0.2, 0.8), graphs=5, runs_per_graph=5, noise_eps=0.1
    )
    report = run_gene_style(cfg)
    assert report["summary"]["p=0.8"]["mean"] > report["summary"]["p=0.2"]["mean"]


def test_simulated_grid_echo_and_range_ordering():
    cfg = ExperimentConfig(
        mode="simulated",
        seed=0,
        p_grid=(0.8,),
        k=2,
        n_grid=(20,),
        range_grid=(1.0 / 7.0, 1.0),
        graphs=6,
        runs_per_graph=6,
        samples=50,
    )
    report = run_simulated(cfg)
    small = report["summary"][f"n=20,p=0.8,range={1/7:g}"]["mean"]
    large = report["summary"]["n=20,p=0.8,range=1"]["mean"]
    assert small < large


def test_simulated_more_samples_shrinks_ratio():
    base = ExperimentConfig(
        mode="simulated", seed=5, p_grid=(0.5,), k=2, n_grid=(14,),
        range_grid=(0.5,), graphs=4, runs_per_graph=4,
    )
    coarse = run_simulated(replace(base, samples=50))
    fine = run_simulated(replace(base, samples=20_000))
    key = "n=14,p=0.5,range=0.5"
    assert fine["summary"][key]["mean"] < coarse["summary"][key]["mean"]


def test_survey_on_standin_mostly_passes():
    cfg = ExperimentConfig(mode="survey", seed=0, p_grid=(0.05,), graphs=20)
    report = run_assumption_survey(cfg)
    summary = report["summary"]
    assert summary["evaluated"] >= 19
    assert summary["all_pass"] >= 0.95 * summary["evaluated"] - 1e-9
    assert summary["pass_a1"] == summary["evaluated"]


def test_survey_adversarial_covariance_fails_a1(tmp_path):
    # near-collinear columns push the parent-block condition number sky high
    rng = np.random.default_rng(0)
    base = rng.standard_normal((80, 1))
    x = np.hstack([base + 1e-9 * rng.standard_normal((80, 1)) for _ in range(4)])
    path = tmp_path / "data.csv"
    np.savetxt(path, x, delimiter=",")
    cfg = ExperimentConfig(
        mode="survey", seed=1, p_grid=(0.9,), graphs=6, dataset_path=str(path)
    )
    report = run_assumption_survey(cfg)
    evaluated = report["summary"]["evaluated"]
    assert report["summary"]["all_pass"] < max(evaluated, 1)


def test_reports_are_byte_identical():
    cfg = ExperimentConfig(mode="simulated", seed=9, p_grid=(0.4,), n_grid=(10,), graphs=2, runs_per_graph=2)
    a = report_bytes(run_experiment(cfg))
    b = report_bytes(run_experiment(cfg))
    assert a == b


def merge_reports(first: dict, second: dict) -> dict:
    """Merge two reports produced from disjoint graph ranges of one config."""
    for key in ("schema", "mode"):
        if first.get(key) != second.get(key):
            raise ConfigError(f"cannot merge reports with different {key}")
    merged = dict(first)
    merged["records"] = first["records"] + second["records"]
    merged["config"] = dict(first["config"], graphs=first["config"]["graphs"] + second["config"]["graphs"])
    return summarise(merged)


def test_merge_matches_single_run():
    # 0.55555555 prints as "p=0.555556" in the summary keys; the merge must
    # still find its records.
    for mode, p in (("simulated", 0.5), ("simulated", 0.55555555), ("gene", 0.55555555)):
        whole = ExperimentConfig(mode=mode, seed=4, p_grid=(p,), n_grid=(12,), graphs=4, runs_per_graph=3)
        first = replace(whole, graphs=2)
        second = replace(whole, graphs=2, graph_offset=2)
        merged = merge_reports(run_experiment(first), run_experiment(second))
        single = run_experiment(whole)
        assert sum(cell["count"] for cell in single["summary"].values()) > 0
        assert report_bytes(merged) == report_bytes(single)


def test_merge_survey_reports():
    whole = ExperimentConfig(mode="survey", seed=4, p_grid=(0.1,), graphs=6)
    first = replace(whole, graphs=3)
    second = replace(whole, graphs=3, graph_offset=3)
    merged = merge_reports(run_experiment(first), run_experiment(second))
    assert report_bytes(merged) == report_bytes(run_experiment(whole))


def test_summary_csv_lines():
    cfg = ExperimentConfig(mode="simulated", seed=9, p_grid=(0.4,), n_grid=(10,), graphs=2, runs_per_graph=2)
    lines = summary_csv_lines(run_experiment(cfg))
    assert lines[0] == "cell,count,mean,median,max"
    assert len(lines) == 2


# -- command line ---------------------------------------------------------------


def _read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _recovered(path) -> dict:
    """A recover report's weights by their 1-based edge (source, target)."""
    return {(u, v): w for u, v, w in _read_json(path)["weights"]}


def test_cli_generate_recover_round_trip(tmp_path):
    out = tmp_path / "inst"
    assert main([
        "generate", "--kind", "generative", "--n", "12", "--k", "2",
        "--p", "0.7", "--d", "64", "--seed", "3", "--out-dir", str(out),
    ]) == 0
    assert (out / "graph.json").exists()
    assert (out / "sigma.csv").exists()
    result = tmp_path / "lambda.json"
    assert main([
        "recover", "--graph", str(out / "graph.json"),
        "--sigma", str(out / "sigma.csv"), "--out", str(result),
    ]) == 0
    truth = np.array(_read_json(out / "params.json")["lambda"])
    lam = np.zeros_like(truth)
    for (u, v), w in _recovered(result).items():
        lam[u - 1, v - 1] = w
    assert np.max(np.abs(lam - truth)) <= 1e-8


def test_cli_generate_sdd_matches_gen_sdd_instance(tmp_path):
    from bowfree.generators import gen_sdd_instance
    from bowfree.graphs import graph_to_dict
    from bowfree.lsem import params_bytes, save_matrix_csv

    assert main([
        "generate", "--kind", "sdd", "--n", "15", "--k", "3", "--p", "0.6", "--range", "0.7",
        "--extra-bidirected-p", "0.3", "--seed", "5", "--out-dir", str(tmp_path / "cli"),
    ]) == 0
    inst = gen_sdd_instance(15, 3, 0.6, 0.7, 5, extra_bidirected_p=0.3)
    want = tmp_path / "direct"
    want.mkdir()
    (want / "graph.json").write_bytes(report_bytes(graph_to_dict(inst.graph)))
    (want / "params.json").write_bytes(params_bytes(inst.params))
    with open(want / "sigma.csv", "wb") as fh:
        save_matrix_csv(inst.sigma, fh)
    for name in ("graph.json", "params.json", "sigma.csv"):
        assert (tmp_path / "cli" / name).read_bytes() == (want / name).read_bytes()
    # the flag reaches the graph: the default 0.1 gives other bidirected edges
    assert graph_to_dict(gen_sdd_instance(15, 3, 0.6, 0.7, 5).graph) != _read_json(want / "graph.json")


def test_cli_reduce_writes_artifacts(tmp_path):
    graph = tmp_path / "g.json"
    sigma = tmp_path / "s.csv"
    graph.write_text(json.dumps({
        "n": 4,
        "directed": [[1, 2], [2, 3], [3, 4], [1, 4]],
        "bidirected": [[1, 3]],
    }))
    lam = np.zeros((4, 4))
    lam[0, 1], lam[1, 2], lam[2, 3], lam[0, 3] = 0.5, 0.4, -0.3, 0.25
    from bowfree.graphs import load_graph
    from bowfree.lsem import ParamSet, forward_map, save_matrix_csv

    g = load_graph(graph)
    omega = np.eye(4)
    omega[0, 2] = omega[2, 0] = 0.2
    with open(sigma, "wb") as fh:
        save_matrix_csv(forward_map(g, ParamSet(lam, omega)), fh)
    out = tmp_path / "red"
    assert main(["reduce", "--graph", str(graph), "--sigma", str(sigma), "--out-dir", str(out)]) == 0
    for name in ("g_prime.json", "sigma_prime.csv", "manifest.json"):
        assert (out / name).exists()
    manifest = _read_json(out / "manifest.json")
    assert manifest["n_prime"] <= 4**6


def test_cli_condition_and_check(tmp_path):
    out = tmp_path / "inst"
    main(["generate", "--kind", "generative", "--n", "12", "--k", "2",
          "--p", "0.7", "--seed", "5", "--out-dir", str(out)])
    report = tmp_path / "cond.json"
    csv = tmp_path / "trials.csv"
    code = main([
        "condition", "--graph", str(out / "graph.json"), "--sigma", str(out / "sigma.csv"),
        "--trials", "4", "--seed", "1", "--out", str(report), "--trials-csv", str(csv),
    ])
    assert code == 0
    payload = _read_json(report)
    for key in ("kappa_hat", "gamma_grid", "trials", "failures", "profile", "premise", "eta", "bound"):
        assert key in payload
    assert payload["premise"]["holds"] is True
    assert payload["kappa_hat"] <= payload["bound"]
    assert csv.read_text().splitlines()[0].startswith("gamma,trial")

    check_out = tmp_path / "profile.json"
    assert main([
        "check", "--graph", str(out / "graph.json"), "--sigma", str(out / "sigma.csv"),
        "--params", str(out / "params.json"), "--out", str(check_out),
    ]) == 0
    profile = _read_json(check_out)
    assert profile["all_pass"] is True


_TOP_LEVEL = {"top-level-null": None, "top-level-number": 3, "top-level-boolean": True, "top-level-string": "x"}


@pytest.mark.parametrize("bad", ["nan-weight", "wrong-shape", "graph-json", "off-pattern", "empty", "top-level-list",
                                 *_TOP_LEVEL, "string-omega", "ragged-omega"])
def test_cli_check_rejects_a_bad_params_file(tmp_path, capsys, bad):
    # The first three ended in a LinAlgError, IndexError or KeyError traceback;
    # a weight on a non-edge was read as if it were not there.
    out = tmp_path / "inst"
    assert main(["generate", "--kind", "sdd", "--n", "8", "--k", "2", "--p", "0.9", "--seed", "1",
                 "--out-dir", str(out)]) == 0
    params = _read_json(out / "params.json")
    lam = np.array(params["lambda"])
    if bad == "nan-weight":
        params["lambda"] = np.where(lam != 0, np.nan, 0.0).tolist()
    elif bad == "wrong-shape":
        params = {"lambda": np.zeros((2, 2)).tolist(), "omega": np.eye(2).tolist()}
    elif bad == "graph-json":
        params = _read_json(out / "graph.json")
    elif bad == "off-pattern":
        lam[7, 0] = 0.5
        params["lambda"] = lam.tolist()
    elif bad == "top-level-list":
        params = [params["lambda"], params["omega"]]
    elif bad in _TOP_LEVEL:
        params = _TOP_LEVEL[bad]
    elif bad != "empty":
        params["omega"] = "omega" if bad == "string-omega" else [[1.0, 0.0], [1.0]]
    path = tmp_path / "params.json"
    path.write_text("" if bad == "empty" else json.dumps(params))  # NaN is written as the JSON extension NaN
    report = tmp_path / "check.json"
    capsys.readouterr()
    assert main(["check", "--graph", str(out / "graph.json"), "--sigma", str(out / "sigma.csv"),
                 "--params", str(path), "--out", str(report)]) == 1
    assert capsys.readouterr().err.splitlines() == [{
        "nan-weight": f"bowfree: {path}: parameters have non-finite entries",
        "wrong-shape": "bowfree: parameter shapes (2, 2), (2, 2) do not match n=8",
        "graph-json": f'bowfree: {path}: missing key "lambda"',
        "off-pattern": "bowfree: lambda has weight on non-edges, e.g. (8, 1)",
        "empty": f"bowfree: {path}: not valid JSON: Expecting value: line 1 column 1 (char 0)",
        "top-level-list": f'bowfree: {path}: expected an object with "lambda" and "omega", got array',
        "top-level-null": f'bowfree: {path}: expected an object with "lambda" and "omega", got null',
        "top-level-number": f'bowfree: {path}: expected an object with "lambda" and "omega", got number',
        "top-level-boolean": f'bowfree: {path}: expected an object with "lambda" and "omega", got boolean',
        "top-level-string": f'bowfree: {path}: expected an object with "lambda" and "omega", got string',
        "string-omega": f'bowfree: {path}: "omega" must be a 2-d array of numbers',
        "ragged-omega": f'bowfree: {path}: "omega" must be a 2-d array of numbers',
    }[bad]]
    assert not report.exists()


def test_cli_trials_csv_names_the_vertex_of_failed_draws(tmp_path, monkeypatch):
    out = tmp_path / "inst"
    main(["generate", "--kind", "generative", "--n", "12", "--k", "2",
          "--p", "0.7", "--seed", "41", "--out-dir", str(out)])
    g, sigma = load_graph(out / "graph.json"), load_covariance_csv(out / "sigma.csv")
    base = recovery.recover_all(g, sigma)
    worst = max(base.per_vertex, key=lambda v: base.per_vertex[v].condition)
    # As in test_condition_estimate_records_the_vertex_of_failed_draws: some draws fail.
    monkeypatch.setattr(recovery, "SING_TOL", (1 - 1e-9) / base.per_vertex[worst].condition)
    csv = tmp_path / "trials.csv"
    assert main([
        "condition", "--graph", str(out / "graph.json"), "--sigma", str(out / "sigma.csv"),
        "--trials", "12", "--gammas", "1e-4", "--no-strict", "--seed", "3",
        "--out", str(tmp_path / "cond.json"), "--trials-csv", str(csv),
    ]) == 0
    header, *rows = [line.split(",") for line in csv.read_text().splitlines()]
    assert header == ["gamma", "trial", "ratio", "rel_sigma", "rel_lambda", "failed", "vertex"]
    est = estimate_condition_number(g, sigma, 12, [1e-4], seed=3, strict=False)
    assert [row[5:] for row in rows] == [
        [str(int(rec.failed)), "" if rec.vertex is None else str(rec.vertex + 1)] for rec in est.records
    ]
    assert {row[6] for row in rows if row[5] == "1"} == {str(worst + 1)}
    assert {row[5] for row in rows} == {"0", "1"}


def test_cli_generate_refuses_a_sphere_matrix_above_the_bound(tmp_path, capsys):
    # --kind generative is the default; d_min(3, 500) = 9,786,447.
    assert main(["generate", "--n", "500", "--k", "3", "--seed", "3", "--out-dir", str(tmp_path)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "bowfree: n=500 unit vectors of dimension d=9786447 need 36.5 GiB, above the 1 GiB bound"
    ]
    assert not (tmp_path / "sigma.csv").exists()


def test_cli_condition_rejects_fewer_than_one_trial(tmp_path, capsys):
    out = tmp_path / "inst"
    main(["generate", "--kind", "generative", "--n", "12", "--k", "2",
          "--p", "0.7", "--seed", "5", "--out-dir", str(out)])
    capsys.readouterr()
    report = tmp_path / "cond.json"
    with pytest.raises(SystemExit) as exc:
        main([
            "condition", "--graph", str(out / "graph.json"), "--sigma", str(out / "sigma.csv"),
            "--trials", "0", "--seed", "1", "--out", str(report),
        ])
    assert exc.value.code == 64
    last_line = capsys.readouterr().err.splitlines()[-1]
    assert last_line == "bowfree condition: error: argument --trials: must be at least 1, got 0"
    assert not report.exists()


def test_cli_experiment_determinism(tmp_path):
    args = [
        "experiment", "--mode", "simulated", "--k", "2", "--p", "0.8", "--n", "20",
        "--graphs", "2", "--runs-per-graph", "2", "--seed", "7",
    ]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_cli_usage_error_is_64():
    assert_code_64 = False
    try:
        main(["frobnicate"])
    except SystemExit as exc:
        assert_code_64 = exc.code == 64
    assert assert_code_64
    try:
        main(["recover", "--graph", "g.json"])  # missing required flags
    except SystemExit as exc:
        assert exc.code == 64


def test_cli_validation_error_is_1(tmp_path):
    graph = tmp_path / "bow.json"
    graph.write_text(json.dumps({"n": 2, "directed": [[1, 2]], "bidirected": [[1, 2]]}))
    sigma = tmp_path / "s.csv"
    np.savetxt(sigma, np.eye(2), delimiter=",")
    assert main(["recover", "--graph", str(graph), "--sigma", str(sigma),
                 "--out", str(tmp_path / "o.json")]) == 1
    assert main(["recover", "--graph", str(tmp_path / "missing.json"),
                 "--sigma", str(sigma), "--out", str(tmp_path / "o.json")]) == 1


def test_cli_experiment_rejects_grid_values_that_print_alike(tmp_path, capsys):
    # both print as 0.555556, the key of their summary cell
    out = tmp_path / "r.json"
    code = main(["experiment", "--mode", "simulated", "--p", "0.55555555", "0.5555556", "--n", "12",
                 "--graphs", "2", "--runs-per-graph", "3", "--seed", "4", "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [
        "bowfree: p_grid values [0.55555555, 0.5555556] print alike under {:g}: ['0.555556', '0.555556']"
    ]
    assert main(["experiment", "--mode", "gene", "--range", "1", "1.0000001", "--graphs", "1",
                 "--seed", "4", "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("bowfree: range_grid values [1.0, 1.0000001] print alike")
    assert not out.exists()


@pytest.mark.parametrize("mode", ["simulated", "survey"])
def test_cli_experiment_rejects_a_model_without_vertices(tmp_path, capsys, mode):
    out = tmp_path / "r.json"
    code = main(["experiment", "--mode", mode, "--n", "12", "0", "--graphs", "2", "--runs-per-graph", "2",
                 "--seed", "1", "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err.splitlines() == ["bowfree: vertex count n=0 must be at least 1"]
    assert not out.exists()


def test_cli_survey_rejects_more_than_one_p(tmp_path, capsys):
    out = tmp_path / "r.json"
    code = main(["experiment", "--mode", "survey", "--p", "0.2", "0.7", "--graphs", "2",
                 "--seed", "1", "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [
        "bowfree: survey mode takes one edge probability, got p_grid=[0.2, 0.7]"
    ]
    assert not out.exists()


def test_cli_numerical_error_is_2(tmp_path):
    graph = tmp_path / "g.json"
    graph.write_text(json.dumps({"n": 3, "directed": [[1, 3], [2, 3]], "bidirected": []}))
    sigma = tmp_path / "s.csv"
    np.savetxt(sigma, np.ones((3, 3)), delimiter=",")  # singular parent block
    assert main(["recover", "--graph", str(graph), "--sigma", str(sigma),
                 "--out", str(tmp_path / "o.json")]) == 2


def test_cli_condition_singular_base_beats_strict_gamma(tmp_path, capsys):
    graph = tmp_path / "g.json"
    graph.write_text(json.dumps({"n": 3, "directed": [[1, 3], [2, 3]], "bidirected": []}))
    sigma = tmp_path / "s.csv"
    np.savetxt(sigma, np.ones((3, 3)), delimiter=",")  # singular parent block
    # gamma=0.5 also breaks the strict bound n^-4; the singular input wins.
    code = main(["condition", "--graph", str(graph), "--sigma", str(sigma), "--gammas", "0.5",
                 "--seed", "1", "--out", str(tmp_path / "o.json")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("bowfree: numerical failure: vertex 3: system is numerically singular (sigma_min=")


@pytest.mark.parametrize("command", ["recover", "condition", "reduce"])
def test_cli_rejects_non_finite_or_non_square_covariance(tmp_path, capsys, command):
    graph = tmp_path / "g.json"
    graph.write_text(json.dumps({"n": 3, "directed": [[1, 2], [2, 3]], "bidirected": []}))
    nan, wide, text = tmp_path / "nan.csv", tmp_path / "wide.csv", tmp_path / "text.csv"
    nan.write_text("2,0,0\n0,2,nan\n0,nan,2\n")
    wide.write_text("2,0,0\n0,2,0\n")
    text.write_text("2,0,0\n0,2,a\n0,0,2\n")
    tail = {"recover": ["--out", str(tmp_path / "o.json")],
            "condition": ["--seed", "1", "--out", str(tmp_path / "o.json")],
            "reduce": ["--out-dir", str(tmp_path / "red")]}[command]
    for sigma, message in ((nan, "matrix has non-finite entries"),
                           (wide, "matrix of shape (2, 3) is not square"),
                           (text, "not a numeric CSV matrix: ")):
        assert main([command, "--graph", str(graph), "--sigma", str(sigma)] + tail) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith(f"bowfree: {sigma}: {message}")
    assert not (tmp_path / "o.json").exists() and not (tmp_path / "red").exists()


@pytest.mark.parametrize("command", ["recover", "condition"])
def test_cli_non_finite_solve_exits_2(tmp_path, capsys, command):
    # Finite positive semidefinite inputs whose solves overflow: weight
    # 1e-10 / 1e-320 of vertex 2, and of vertex 3, whose grandparent has
    # weight 0. Unchecked, such solves put Infinity or NaN into the report
    # and exited 0.
    graph = tmp_path / "g.json"
    graph.write_text(json.dumps({"n": 3, "directed": [[1, 2], [2, 3]], "bidirected": []}))
    sigma = tmp_path / "s.csv"
    out = tmp_path / "o.json"
    extra = ["--seed", "1"] if command == "condition" else []
    for text, vertex in (("1e-320,1e-10,0\n1e-10,1e301,0\n0,0,1\n", 2), ("1,0,0\n0,1e-320,1e-10\n0,1e-10,1e301\n", 3)):
        sigma.write_text(text)
        assert main([command, "--graph", str(graph), "--sigma", str(sigma), "--out", str(out)] + extra) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"bowfree: numerical failure: vertex {vertex}: solve gave non-finite values"
        ]
        assert not out.exists()


@pytest.mark.parametrize("command", ["recover", "condition"])
def test_cli_rejects_a_covariance_that_is_not_positive_semidefinite(tmp_path, capsys, command):
    # The negative definite matrix was recovered and exited 0; the two
    # indefinite ones overflowed in the solve and exited 2.
    graph = tmp_path / "g.json"
    graph.write_text(json.dumps({"n": 3, "directed": [[1, 2], [2, 3]], "bidirected": []}))
    sigma = tmp_path / "s.csv"
    out = tmp_path / "o.json"
    extra = ["--seed", "1"] if command == "condition" else []
    for text, smallest in (("-2,-0.5,0\n-0.5,-2,-0.3\n0,-0.3,-2\n", "-2.58"),
                           ("1e-300,1e10,0\n1e10,1,0\n0,0,1\n", "-1e+10"),
                           ("1e-10,1e150,0\n1e150,1,0\n0,0,1\n", "-1e+150")):
        sigma.write_text(text)
        assert main([command, "--graph", str(graph), "--sigma", str(sigma), "--out", str(out)] + extra) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"bowfree: {sigma}: covariance is not positive semidefinite (smallest eigenvalue {smallest})"
        ]
        assert not out.exists()


def test_cli_recover_reads_a_saved_reduction(tmp_path):
    # sigma_prime.csv is singular, so only the eigenvalue test can accept it.
    graph = tmp_path / "g.json"
    graph.write_text(json.dumps({"n": 4, "directed": [[1, 2], [2, 3], [3, 4], [1, 4]], "bidirected": []}))
    sigma = tmp_path / "s.csv"
    sigma.write_text("1,0.5,0.2,0.25\n0.5,1.25,0.5,0.2\n0.2,0.5,1.2,0.3\n0.25,0.2,0.3,1.2\n")
    red = tmp_path / "red"
    assert main(["reduce", "--graph", str(graph), "--sigma", str(sigma), "--out-dir", str(red)]) == 0
    assert np.linalg.matrix_rank(np.loadtxt(red / "sigma_prime.csv", delimiter=",")) == 4
    base, out = tmp_path / "base.json", tmp_path / "o.json"
    assert main(["recover", "--graph", str(graph), "--sigma", str(sigma), "--out", str(base)]) == 0
    assert main(["recover", "--graph", str(red / "g_prime.json"), "--sigma", str(red / "sigma_prime.csv"),
                 "--out", str(out)]) == 0
    (gadget,) = _read_json(red / "manifest.json")["gadgets"]
    want = _recovered(base)[1, 4]
    assert want != 0.0
    assert _recovered(out)[gadget["collector"], 4] == pytest.approx(want, abs=1e-8)


@pytest.mark.parametrize("command", ["recover", "reduce"])
@pytest.mark.parametrize(
    "text, message",
    [
        ('{"n": 3, "directed": [[1, 2], [2', "not valid JSON: Expecting ',' delimiter: line 1 column 33 (char 32)"),
        ('{"n": 2.7, "directed": [[1, 2]]}', "malformed graph document: n must be an integer, got 2.7"),
        ('{"n": 3, "directed": [[true, 2], [2, 3]]}', "malformed graph document: vertex must be an integer, got True"),
        # The next nine gave Python's wording; the last two passed, the 9 dropped and the string read as 0.5.
        ('[[1, 2]]', "malformed graph document: expected an object, got array"),
        ("null", "malformed graph document: expected an object, got null"),
        ("3", "malformed graph document: expected an object, got number"),
        ("true", "malformed graph document: expected an object, got boolean"),
        ('"x"', "malformed graph document: expected an object, got string"),
        ('{"n": 3, "directed": null}', "malformed graph document: directed must be a list of edges, got None"),
        ('{"n": 3, "directed": [[1, 2], [1]]}',
         "malformed graph document: directed edge 2 must have 2 or 3 entries, got [1]"),
        ('{"n": 3, "bidirected": [[1, 2, 3]]}',
         "malformed graph document: bidirected edge 1 must have 2 entries, got [1, 2, 3]"),
        ('{"directed": [[1, 2]]}', "malformed graph document: n must be an integer, got None"),
        ('{"n": 3, "directed": [[1, 2, 0.5, 9]]}',
         "malformed graph document: directed edge 1 must have 2 or 3 entries, got [1, 2, 0.5, 9]"),
        ('{"n": 3, "directed": [[1, 2, "0.5"]]}',
         "malformed graph document: forced weight must be a finite number, got '0.5'"),
    ],
    ids=["truncated", "float_n", "bool_vertex", "top_level_list", "top_level_null", "top_level_number",
         "top_level_boolean", "top_level_string", "null_directed", "short_edge", "long_bidirected",
         "missing_n", "long_directed", "string_weight"],
)
def test_cli_rejects_malformed_graph_json(tmp_path, capsys, command, text, message):
    graph = tmp_path / "g.json"
    graph.write_text(text)
    sigma = tmp_path / "s.csv"
    np.savetxt(sigma, 2.0 * np.eye(3), delimiter=",")
    tail = ["--out", str(tmp_path / "o.json")] if command == "recover" else ["--out-dir", str(tmp_path / "red")]
    assert main([command, "--graph", str(graph), "--sigma", str(sigma)] + tail) == 1
    prefix = f"{graph}: " if message.startswith("not valid") else ""
    assert capsys.readouterr().err.splitlines() == [f"bowfree: {prefix}{message}"]


@pytest.mark.parametrize("document", ["graph", "params"])
def test_cli_rejects_json_nested_past_the_parsers_depth_in_one_line(tmp_path, capsys, document):
    # Both loaders ended in a RecursionError traceback.
    out = tmp_path / "inst"
    assert main(["generate", "--kind", "sdd", "--n", "4", "--k", "1", "--p", "0.9", "--seed", "1",
                 "--out-dir", str(out)]) == 0
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    files = {"graph": out / "graph.json", "params": out / "params.json", document: deep}
    report = tmp_path / "check.json"
    capsys.readouterr()
    assert main(["check", "--graph", str(files["graph"]), "--sigma", str(out / "sigma.csv"),
                 "--params", str(files["params"]), "--out", str(report)]) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith(f"bowfree: {deep}: not valid JSON: ")
    assert not report.exists()


@pytest.mark.parametrize("command", ["recover", "reduce"])
def test_cli_rejects_a_graph_file_that_is_not_utf8_in_one_line(tmp_path, capsys, command):
    # It ended in a UnicodeDecodeError traceback, which load_graph did not catch.
    graph = tmp_path / "g.json"
    graph.write_bytes(b"\xff\xfe" + '{"n": 2, "directed": [[1, 2]]}'.encode("utf-16-le"))
    sigma = tmp_path / "s.csv"
    np.savetxt(sigma, 2.0 * np.eye(2), delimiter=",")
    out = tmp_path / "out"
    tail = ["--out", str(out)] if command == "recover" else ["--out-dir", str(out)]
    assert main([command, "--graph", str(graph), "--sigma", str(sigma)] + tail) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"bowfree: {graph}: not valid JSON: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"
    ]
    assert not out.exists()


def test_cli_condition_with_trials_csv_in_a_missing_directory_writes_no_report(tmp_path, capsys):
    # It exited 1 only after it had written --out.
    inst = tmp_path / "inst"
    assert main(["generate", "--kind", "generative", "--n", "12", "--k", "2", "--p", "0.7", "--seed", "5",
                 "--out-dir", str(inst)]) == 0
    report, csv = tmp_path / "cond.json", tmp_path / "missing" / "trials.csv"
    assert main([
        "condition", "--graph", str(inst / "graph.json"), "--sigma", str(inst / "sigma.csv"),
        "--trials", "2", "--seed", "1", "--out", str(report), "--trials-csv", str(csv),
    ]) == 1
    assert capsys.readouterr().err.splitlines() == [f"bowfree: [Errno 2] No such file or directory: '{csv}'"]
    assert not report.exists() and not csv.parent.exists()


def test_cli_condition_with_out_an_existing_directory_writes_no_trials_csv(tmp_path, capsys, small_instance):
    # It exited 1 only after it had written --trials-csv.
    report, csv = tmp_path / "cond", tmp_path / "t.csv"
    report.mkdir()
    inputs = ["--graph", str(small_instance / "graph.json"), "--sigma", str(small_instance / "sigma.csv")]
    argv = ["condition", *inputs, "--trials", "2", "--seed", "1", "--out", str(report), "--trials-csv", str(csv)]
    assert main(argv) == 1
    assert capsys.readouterr().err.splitlines() == [f"bowfree: [Errno 21] Is a directory: '{report}'"]
    assert not csv.exists()


# Every command line with outputs under {o}, and those outputs, the main one first.
_INSTANCE = ["--graph", "{graph}", "--sigma", "{sigma}"]
_OUTPUTS = {
    "generate": (["--kind", "sdd", "--n", "6", "--seed", "1", "--out-dir", "{o}"],
                 ["graph.json", "manifest.json", "params.json", "sigma.csv"]),
    "recover": ([*_INSTANCE, "--out", "{o}/r.json"], ["r.json"]),
    "condition": ([*_INSTANCE, "--trials", "2", "--seed", "1", "--out", "{o}/c.json", "--trials-csv", "{o}/t.csv"],
                  ["c.json", "t.csv"]),
    "check": ([*_INSTANCE, "--out", "{o}/k.json"], ["k.json"]),
    "reduce": ([*_INSTANCE, "--out-dir", "{o}"], ["g_prime.json", "sigma_prime.csv", "manifest.json"]),
    "experiment": (["--mode", "simulated", "--n", "6", "--graphs", "1", "--runs-per-graph", "1", "--seed", "1",
                    "--out", "{o}/e.json", "--summary-csv", "{o}/s.csv"], ["e.json", "s.csv"]),
}
# A target that is a directory, for every output; a missing directory, for the secondary ones.
_FAILED_WRITES = [(c, name, "directory") for c, (_, names) in _OUTPUTS.items() for name in names] + [
    ("condition", "t.csv", "missing"), ("experiment", "s.csv", "missing")]


def _tree(root):
    return {p.relative_to(root): p.read_bytes() if p.is_file() else None for p in root.rglob("*")}


@pytest.mark.parametrize("command, target, how", _FAILED_WRITES, ids=["-".join(case) for case in _FAILED_WRITES])
def test_cli_a_failed_write_leaves_every_output_as_it_was(tmp_path, capsys, small_instance, command, target, how):
    template, names = _OUTPUTS[command]
    out = tmp_path / "out"
    out.mkdir()
    for name in names:  # outputs of an earlier run
        (out / name).write_bytes(f"earlier {name}".encode())
    if how == "directory":
        (out / target).unlink()
        (out / target).mkdir()
        want = f"[Errno 21] Is a directory: '{out / target}'"
    else:
        template = [arg.replace(target, f"missing/{target}") for arg in template]
        want = f"[Errno 2] No such file or directory: '{out / 'missing' / target}'"
    before = _tree(tmp_path)
    fill = {"o": str(out), "graph": str(small_instance / "graph.json"), "sigma": str(small_instance / "sigma.csv")}
    assert main([command, *(arg.format(**fill) for arg in template)]) == 1
    assert capsys.readouterr().err.splitlines() == [f"bowfree: {want}"]
    assert _tree(tmp_path) == before  # no file changed or added, no temporary sibling left


@pytest.mark.parametrize("spelling", ["{name}", "./{name}", "{cwd}/{name}"], ids=["same", "dot", "absolute"])
@pytest.mark.parametrize("command", ["condition", "experiment"])
def test_cli_two_outputs_that_name_one_file_exit_1(tmp_path, capsys, monkeypatch, small_instance, command, spelling):
    # Both exited 0 and left only the secondary output; experiment even printed "wrote r.json".
    monkeypatch.chdir(tmp_path)
    if command == "condition":
        name, argv = "x.csv", ["condition", "--graph", str(small_instance / "graph.json"), "--sigma",
                               str(small_instance / "sigma.csv"), "--trials", "2", "--seed", "1", "--trials-csv"]
    else:
        name, argv = "r.json", ["experiment", "--mode", "simulated", "--n", "6", "--graphs", "1", "--runs-per-graph",
                                "1", "--seed", "1", "--summary-csv"]
    second = spelling.format(name=name, cwd=tmp_path)
    assert main([*argv, second, "--out", name]) == 1
    assert capsys.readouterr().err.splitlines() == [f"bowfree: two outputs name one file: '{Path(second)}'"]
    assert _tree(tmp_path) == {}  # no output and no temporary sibling


_PATH2 = {"n": 2, "directed": [[1, 2]]}


@pytest.mark.parametrize(
    "graph, params, message",
    [
        ({"n": 2, "directed": [[1, 1]]}, None, "self-loop (1, 1) not allowed"),
        ({"n": 2, "directed": [[0, 2]]}, None, "directed edge (0, 2) out of range for n=2"),
        ({"n": 2, "directed": [[1, 2], [1, 2]]}, None, "duplicate directed edge (1, 2)"),
        ({"n": 2, "bidirected": [[2, 3]]}, None, "bidirected edge (2, 3) out of range for n=2"),
        ({**_PATH2, "bidirected": [[1, 2]]}, None, "graph is not bow-free, violating pairs: [(1, 2)]"),
        ({"n": 3, "directed": [[1, 2], [2, 3], [3, 1]]}, None, "directed edges contain the cycle 2 -> 3 -> 1 -> 2"),
        (_PATH2, {"lambda": [[0, 0.5], [0.5, 0]], "omega": [[1, 0], [0, 1]]},
         "lambda has weight on non-edges, e.g. (2, 1)"),
        (_PATH2, {"lambda": [[0, 0.5], [0, 0]], "omega": [[1, 0.3], [0.3, 1]]},
         "omega is nonzero off the bidirected pattern, e.g. (1, 2)"),
    ],
    ids=["self-loop", "out-of-range", "duplicate", "bidirected-out-of-range", "bow", "cycle", "lambda-pattern",
         "omega-pattern"],
)
def test_cli_messages_name_vertices_1_based(tmp_path, capsys, graph, params, message):
    # The files are 1-based; the messages named the same vertices 0-based.
    graph_path, sigma, out = tmp_path / "g.json", tmp_path / "s.csv", tmp_path / "o.json"
    graph_path.write_text(json.dumps(graph))
    np.savetxt(sigma, 2.0 * np.eye(graph["n"]), delimiter=",")
    argv = ["--graph", str(graph_path), "--sigma", str(sigma), "--out", str(out)]
    if params is None:
        argv = ["recover", *argv]
    else:
        (tmp_path / "p.json").write_text(json.dumps(params))
        argv = ["check", "--params", str(tmp_path / "p.json"), *argv]
    assert main(argv) == 1
    assert capsys.readouterr().err.splitlines() == [f"bowfree: {message}"]
    assert not out.exists()


@pytest.mark.parametrize("command", ["recover", "condition", "check", "reduce"])
def test_cli_rejects_an_asymmetric_covariance(tmp_path, capsys, command):
    # Read as given, the upper triangle of this matrix gave weight 0.25 on 1 -> 2 -> 3.
    graph = tmp_path / "g.json"
    graph.write_text(json.dumps({"n": 3, "directed": [[1, 2], [2, 3]], "bidirected": []}))
    sigma = tmp_path / "s.csv"
    sigma.write_text("2,0.5,0\n0.9,2,0.3\n0,0.3,2\n")
    out = tmp_path / "o.json"
    tail = ["--out-dir", str(out)] if command == "reduce" else ["--out", str(out)]
    if command == "condition":
        tail += ["--seed", "1"]
    assert main([command, "--graph", str(graph), "--sigma", str(sigma)] + tail) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"bowfree: {sigma}: covariance is not symmetric (max |a - a.T| = 0.4)"
    ]
    assert not out.exists()
    # Rounding-level asymmetry, 1e-13 of the largest entry, is accepted.
    sigma.write_text("2,0.5,0\n0.5000000000002,2,0.3\n0,0.3,2\n")
    assert main([command, "--graph", str(graph), "--sigma", str(sigma)] + tail) == 0


@pytest.mark.parametrize(
    "argv, code, last_line",
    [
        (["generate", "--n", "5", "--seed", "-1"], 64,
         "bowfree generate: error: argument --seed: must be at least 0, got -1"),
        (["condition", "--graph", "g.json", "--sigma", "s.csv", "--out", "o.json", "--seed", "-1"], 64,
         "bowfree condition: error: argument --seed: must be at least 0, got -1"),
        (["experiment", "--mode", "simulated", "--seed", "-1"], 64,
         "bowfree experiment: error: argument --seed: must be at least 0, got -1"),
        (["experiment", "--mode", "simulated", "--graph-offset", "-1", "--seed", "1"], 64,
         "bowfree experiment: error: argument --graph-offset: must be at least 0, got -1"),
        (["experiment", "--mode", "gene", "--noise-eps", "-0.1", "--seed", "1"], 1,
         "bowfree: noise_eps must be finite and >= 0, got -0.1"),
        (["experiment", "--mode", "gene", "--noise-eps", "nan", "--seed", "1"], 1,
         "bowfree: noise_eps must be finite and >= 0, got nan"),
        (["experiment", "--mode", "simulated", "--samples", "-1", "--seed", "1"], 1,
         "bowfree: samples must be >= 2, got -1"),
    ],
    ids=["seed-generate", "seed-condition", "seed-experiment", "graph-offset", "noise-eps", "noise-eps-nan",
         "samples"],
)
def test_cli_rejects_negative_seeds_offsets_and_noise(tmp_path, capsys, argv, code, last_line):
    out = tmp_path / "out"
    argv = argv + (["--out-dir", str(out)] if argv[0] == "generate" else [])
    argv = argv + (["--out", str(out)] if argv[0] == "experiment" else [])
    try:
        got = main(argv)
    except SystemExit as exc:
        got = exc.code
    assert got == code
    assert capsys.readouterr().err.splitlines()[-1] == last_line
    assert not out.exists()


@pytest.mark.parametrize("size", [2, 4])
def test_cli_reduce_rejects_a_covariance_of_another_size(tmp_path, capsys, size):
    # reduce: a smaller covariance ended in an IndexError traceback, a larger one was
    # silently cut to its leading block. check --params did the same; condition named
    # its internal trial stack's shape.
    graph = tmp_path / "g.json"
    graph.write_text(json.dumps({"n": 3, "directed": [[1, 2], [2, 3], [1, 3]], "bidirected": []}))
    sigma = tmp_path / "s.csv"
    np.savetxt(sigma, 2.0 * np.eye(size), delimiter=",")
    params = tmp_path / "params.json"
    params.write_text(json.dumps({"lambda": [[0, 0.5, 0.2], [0, 0, 0.3], [0, 0, 0]], "omega": np.eye(3).tolist()}))
    out = tmp_path / "out"
    for command in (["reduce", "--out-dir", str(out)], ["recover", "--out", str(out)],
                    ["condition", "--seed", "1", "--out", str(out)], ["check", "--out", str(out)],
                    ["check", "--params", str(params), "--out", str(out)]):
        assert main(command[:1] + ["--graph", str(graph), "--sigma", str(sigma)] + command[1:]) == 1, command
        assert capsys.readouterr().err.splitlines() == [
            f"bowfree: covariance shape ({size}, {size}) does not match n=3"
        ], command
        assert not out.exists(), command


@pytest.mark.parametrize(
    "gamma, message",
    [("nan", "gamma must be positive and finite, got nan"), ("inf", "gamma must be positive and finite, got inf"),
     ("0", "gamma must be positive and finite, got 0.0"),
     ("0.5", "gamma=0.5 exceeds the strict bound n^-4=4.82253e-05"),
     ("1e308", "gamma=1e+308 exceeds the strict bound n^-4=4.82253e-05"),
     ("1e-320", None)],  # subnormal, positive and within the bound: accepted
    ids=["nan", "inf", "0", "0.5", "1e308", "1e-320"],
)
def test_cli_condition_rejects_a_non_finite_gamma(tmp_path, capsys, gamma, message):
    out = tmp_path / "inst"
    main(["generate", "--kind", "sdd", "--n", "12", "--k", "2", "--p", "0.5", "--seed", "5", "--out-dir", str(out)])
    capsys.readouterr()
    report = tmp_path / "cond.json"
    code = main(["condition", "--graph", str(out / "graph.json"), "--sigma", str(out / "sigma.csv"),
                 "--gammas", gamma, "--seed", "1", "--out", str(report)])
    if message is None:
        assert code == 0 and report.exists()
        return
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [f"bowfree: {message}"]
    assert not report.exists()


@pytest.mark.parametrize(
    "command, n, low",
    [(["generate", "--kind", "sdd"], "-3", 1), (["generate", "--kind", "sdd"], "0", 1),
     (["experiment", "--mode", "simulated"], "-3", 0)],
    ids=["generate", "generate-zero", "experiment"],
)
def test_cli_rejects_a_negative_vertex_count(tmp_path, capsys, command, n, low):
    # generate --n 0 wrote a sigma.csv that every command then rejected
    with pytest.raises(SystemExit) as exc:
        main(command + ["--n", n, "--seed", "1", "--out" if command[0] == "experiment" else "--out-dir",
                        str(tmp_path / "out")])
    assert exc.value.code == 64
    last_line = capsys.readouterr().err.splitlines()[-1]
    assert last_line == f"bowfree {command[0]}: error: argument --n: must be at least {low}, got {n}"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("n", [2**62, 10**20], ids=["2**62", "10**20"])
@pytest.mark.parametrize("command", ["recover", "check"])
def test_cli_rejects_a_vertex_count_beyond_int64_edge_keys_in_one_line(tmp_path, capsys, small_instance, command, n):
    # 2**62 ended in a 25-line "array is too big" traceback from the recovery plan, which
    # recover_all compiled before it compared the covariance with n; 10**20 overflowed the
    # edge keys source * n + target in an OverflowError traceback.
    graph, out = tmp_path / "g.json", tmp_path / "o.json"
    graph.write_text(json.dumps({"n": n, "directed": [], "bidirected": []}))
    assert main([command, "--graph", str(graph), "--sigma", str(small_instance / "sigma.csv"), "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [f"bowfree: vertex count must be at most 3037000499, got {n}"]
    assert not out.exists()


@pytest.mark.parametrize("command", ["recover", "gene"])
def test_cli_reports_an_empty_covariance_file_in_one_line(tmp_path, command):
    graph = tmp_path / "g.json"
    graph.write_text(json.dumps({"n": 2, "directed": [[1, 2]], "bidirected": []}))
    sigma = tmp_path / "empty.csv"
    sigma.write_text("")
    argv = {
        "recover": ["recover", "--graph", str(graph), "--sigma", str(sigma)],
        "gene": ["experiment", "--mode", "gene", "--dataset", str(sigma), "--seed", "1"],
    }[command]
    # a fresh interpreter, so that stderr shows any warning numpy prints
    proc = subprocess.run(
        [sys.executable, "-m", "bowfree.cli", *argv, "--out", str(tmp_path / "o.json")],
        capture_output=True, text=True, check=False,
    )
    assert proc.returncode == 1
    assert proc.stderr.splitlines() == [f"bowfree: {sigma}: no numbers in the CSV file"]


def test_cli_generate_rejects_a_model_whose_covariance_overflows(tmp_path, capsys):
    # Weights up to 1e100 gave a sigma.csv of nan and inf, with exit 0 and a RuntimeWarning.
    out = tmp_path / "inst"
    argv = ["generate", "--kind", "sdd", "--n", "12", "--k", "2", "--p", "0.9", "--seed", "1", "--range", "1e100",
            "--out-dir", str(out)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    assert not caught, [str(w.message) for w in caught]
    assert code == 1
    assert capsys.readouterr().err.splitlines() == ["bowfree: the model's covariance has non-finite entries"]
    assert not out.exists()


def test_cli_experiment_with_subnormal_weights_exits_1_without_a_nan_report(tmp_path, capsys):
    # Subnormal weights overflowed both relative distances: the run exited 0
    # with two RuntimeWarnings and five NaN tokens in its report.
    out = tmp_path / "e.json"
    argv = ["experiment", "--mode", "simulated", "--n", "6", "--graphs", "1", "--runs-per-graph", "2", "--seed", "1",
            "--range", "1e-320", "--out", str(out)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    assert not caught, [str(w.message) for w in caught]
    assert code == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("bowfree: report not written: Out of range float values are not JSON compliant")
    assert not out.exists()
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ConfigError, match="^report not written: "):
            report_bytes({"summary": {"mean": bad}})


def test_cli_gene_experiment_with_huge_noise_normalizes_rows_without_overflow(tmp_path, capsys):
    # The noisy rows' squares overflowed in np.linalg.norm: numpy's warning
    # reached stderr and both runs failed. Rows scaled by powers of two
    # normalize as the same noise at 1e150 does, to the ulp.
    reports = []
    for eps in ("1e300", "1e150"):
        out = tmp_path / f"{eps}.json"
        argv = ["experiment", "--mode", "gene", "--graphs", "1", "--runs-per-graph", "2", "--seed", "1",
                "--noise-eps", eps, "--out", str(out)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv) == 0
        assert not caught, [str(w.message) for w in caught]
        assert [line.split(": wrote")[0] for line in capsys.readouterr().err.splitlines()] == ["experiment gene"]
        reports.append(json.loads(out.read_text())["records"])
    (huge,), (large,) = reports
    assert huge["run_failures"] == 0 and len(huge["ratios"]) == 2
    np.testing.assert_allclose(huge["ratios"], large["ratios"], rtol=1e-14)


@pytest.mark.parametrize("source", ["draw", "base"])
def test_cli_gene_experiment_names_the_covariance_that_is_not_finite(tmp_path, capsys, source):
    # A draw whose noise overflowed was reported as "covariance has non-finite
    # entries", as if the command had read a bad covariance.
    argv = ["experiment", "--mode", "gene", "--graphs", "1", "--runs-per-graph", "2", "--seed", "1"]
    if source == "draw":
        argv += ["--noise-eps", "1e308"]
        message = "bowfree: perturbed covariance of draw 1 has non-finite entries"
    else:  # a dataset whose unnormalized sample covariance overflows
        data = tmp_path / "data.csv"
        np.savetxt(data, np.random.default_rng(0).normal(size=(20, 4)) * 1e200, delimiter=",")
        argv += ["--dataset", str(data), "--no-normalize"]
        message = "bowfree: covariance has non-finite entries"
    out = tmp_path / "e.json"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv + ["--out", str(out)])
    assert not caught, [str(w.message) for w in caught]
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [message]
    assert not out.exists()


def _experiment_config(monkeypatch, argv) -> ExperimentConfig:
    """The config that `bowfree experiment` runs for ``argv``."""
    seen = []
    monkeypatch.setattr(cli, "run_experiment", lambda cfg: seen.append(cfg) or {"summary": {}})
    cli._cmd_experiment(build_parser().parse_args(["experiment", *argv, "--out", "report.json"]))
    return seen[0]


def test_every_experiment_flag_sets_its_config_field(monkeypatch):
    argv = ["--mode", "simulated", "--seed", "7", "--dataset", "x.csv", "--p", "0.3", "0.4", "--k", "3",
            "--n", "5", "6", "--range", "2", "3", "--noise-eps", "0.5", "--graphs", "4", "--runs-per-graph", "5",
            "--samples", "9", "--no-normalize", "--graph-offset", "2"]
    cfg = _experiment_config(monkeypatch, argv)
    assert cfg == ExperimentConfig("simulated", 7, "x.csv", (0.3, 0.4), 3, (5, 6), (2.0, 3.0), 0.5, 4, 5, 9, False, 2)
    default = ExperimentConfig("simulated", 7)
    assert [f.name for f in fields(cfg) if getattr(cfg, f.name) == getattr(default, f.name)] == ["mode", "seed"]


def test_an_omitted_experiment_flag_keeps_the_config_default(monkeypatch):
    cfg = _experiment_config(monkeypatch, ["--mode", "gene", "--seed", "3"])
    assert asdict(cfg) == asdict(ExperimentConfig("gene", 3))


def _float_flags():
    """(subcommand, flag) for every option of type float, read from the parser."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return [(name, a.option_strings[0]) for name, p in sub.choices.items() for a in p._actions if a.type is float]


# A valid command line per subcommand; a flag that one mode alone reads
# gets that mode's line. {out}, {graph} and {sigma} are filled in per test.
_VALID_ARGV = {
    "generate": ["--kind", "sdd", "--n", "6", "--seed", "1", "--out-dir", "{out}"],
    "condition": ["--graph", "{graph}", "--sigma", "{sigma}", "--trials", "2", "--seed", "1", "--out", "{out}/c.json"],
    "experiment": ["--mode", "simulated", "--n", "6", "--graphs", "1", "--runs-per-graph", "1", "--seed", "1",
                   "--out", "{out}/e.json"],
    ("generate", "--mu"): ["--kind", "generative", "--n", "11", "--seed", "1", "--out-dir", "{out}"],
}


@pytest.fixture(scope="module")
def small_instance(tmp_path_factory):
    out = tmp_path_factory.mktemp("inst")
    assert main(["generate", "--kind", "sdd", "--n", "6", "--seed", "2", "--out-dir", str(out)]) == 0
    return out


@pytest.mark.parametrize("command, flag", _float_flags(), ids=lambda x: x)
@pytest.mark.parametrize("value", [None, "nan", "inf", "1e308"], ids=["valid", "nan", "inf", "1e308"])
def test_cli_float_flags_reject_nan_and_inf_in_one_line(tmp_path, capsys, small_instance, command, flag, value):
    # None runs the valid line alone, which must succeed. 1e308 is finite, so
    # a flag may accept it, but never with a traceback or a warning.
    template = _VALID_ARGV.get((command, flag), _VALID_ARGV[command])
    fill = {"out": str(tmp_path / "out"), "graph": str(small_instance / "graph.json"),
            "sigma": str(small_instance / "sigma.csv")}
    argv = [command, *(arg.format(**fill) for arg in template)] + ([] if value is None else [flag, value])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    err = capsys.readouterr().err
    assert not caught, [str(w.message) for w in caught]
    if value is None or (value == "1e308" and code == 0):
        assert code == 0, err
    else:
        assert code in (1, 64)
        assert len(err.splitlines()) == 1, err
