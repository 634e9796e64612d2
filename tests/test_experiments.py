import json
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from bowfree.cli import main
from bowfree.errors import ConfigError, IngestionError
from bowfree.experiments import (
    ExperimentConfig,
    gene_standin_dataset,
    load_dataset,
    merge_reports,
    report_bytes,
    run_assumption_survey,
    run_experiment,
    run_gene_style,
    run_simulated,
    summary_csv_lines,
    write_report,
)


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
    payload = _read_json(result)
    truth = _read_json(out / "params.json")
    assert np.max(np.abs(np.array(payload["lambda"]) - np.array(truth["lambda"]))) <= 1e-8


def test_cli_generate_sdd_matches_gen_sdd_instance(tmp_path):
    from bowfree.generators import gen_sdd_instance
    from bowfree.graphs import graph_to_dict
    from bowfree.lsem import save_matrix_csv, save_params

    assert main([
        "generate", "--kind", "sdd", "--n", "15", "--k", "3", "--p", "0.6", "--range", "0.7",
        "--extra-bidirected-p", "0.3", "--seed", "5", "--out-dir", str(tmp_path / "cli"),
    ]) == 0
    inst = gen_sdd_instance(15, 3, 0.6, 0.7, 5, extra_bidirected_p=0.3)
    want = tmp_path / "direct"
    want.mkdir()
    write_report(graph_to_dict(inst.graph), want / "graph.json")
    save_params(inst.params, want / "params.json")
    save_matrix_csv(inst.sigma.sigma, want / "sigma.csv")
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
    save_matrix_csv(forward_map(g, ParamSet(lam, omega)).sigma, sigma)
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
    assert err.startswith("bowfree: numerical failure: vertex 2: system is numerically singular (sigma_min=")


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
    # Finite inputs whose solves overflow: weight 1e10 / 1e-300 of vertex 1,
    # and a system matrix entry 1 - 1e160 * 1e150 of vertex 2. Unchecked,
    # they put Infinity or NaN into the report and exited 0.
    graph = tmp_path / "g.json"
    graph.write_text(json.dumps({"n": 3, "directed": [[1, 2], [2, 3]], "bidirected": []}))
    sigma = tmp_path / "s.csv"
    out = tmp_path / "o.json"
    extra = ["--seed", "1"] if command == "condition" else []
    for text, vertex in (("1e-300,1e10,0\n1e10,1,0\n0,0,1\n", 1), ("1e-10,1e150,0\n1e150,1,0\n0,0,1\n", 2)):
        sigma.write_text(text)
        assert main([command, "--graph", str(graph), "--sigma", str(sigma), "--out", str(out)] + extra) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"bowfree: numerical failure: vertex {vertex}: solve gave non-finite values"
        ]
        assert not out.exists()


@pytest.mark.parametrize("command", ["recover", "reduce"])
@pytest.mark.parametrize(
    "text, message",
    [
        ('{"n": 3, "directed": [[1, 2], [2', "not valid JSON: Expecting ',' delimiter: line 1 column 33 (char 32)"),
        ('{"n": 2.7, "directed": [[1, 2]]}', "malformed graph document: n must be an integer, got 2.7"),
        ('{"n": 3, "directed": [[true, 2], [2, 3]]}', "malformed graph document: vertex must be an integer, got True"),
    ],
    ids=["truncated", "float_n", "bool_vertex"],
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
         "bowfree: noise_eps must be >= 0, got -0.1"),
        (["experiment", "--mode", "gene", "--noise-eps", "nan", "--seed", "1"], 1,
         "bowfree: noise_eps must be >= 0, got nan"),
    ],
    ids=["seed-generate", "seed-condition", "seed-experiment", "graph-offset", "noise-eps", "noise-eps-nan"],
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
    # A smaller covariance ended in an IndexError traceback, a larger one was
    # silently cut to its leading block.
    graph = tmp_path / "g.json"
    graph.write_text(json.dumps({"n": 3, "directed": [[1, 2], [2, 3], [1, 3]], "bidirected": []}))
    sigma = tmp_path / "s.csv"
    np.savetxt(sigma, 2.0 * np.eye(size), delimiter=",")
    out = tmp_path / "red"
    assert main(["reduce", "--graph", str(graph), "--sigma", str(sigma), "--out-dir", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"bowfree: covariance shape ({size}, {size}) does not match n=3"
    ]
    assert not out.exists()


@pytest.mark.parametrize("gamma", ["nan", "inf"])
def test_cli_condition_rejects_a_non_finite_gamma(tmp_path, capsys, gamma):
    out = tmp_path / "inst"
    main(["generate", "--kind", "sdd", "--n", "12", "--k", "2", "--p", "0.5", "--seed", "5", "--out-dir", str(out)])
    capsys.readouterr()
    report = tmp_path / "cond.json"
    code = main(["condition", "--graph", str(out / "graph.json"), "--sigma", str(out / "sigma.csv"),
                 "--gammas", gamma, "--seed", "1", "--out", str(report)])
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [f"bowfree: gamma must be positive and finite, got {gamma}"]
    assert not report.exists()


@pytest.mark.parametrize("command", [["generate", "--kind", "sdd"], ["experiment", "--mode", "simulated"]],
                         ids=["generate", "experiment"])
def test_cli_rejects_a_negative_vertex_count(tmp_path, capsys, command):
    with pytest.raises(SystemExit) as exc:
        main(command + ["--n", "-3", "--seed", "1", "--out" if command[0] == "experiment" else "--out-dir",
                        str(tmp_path / "out")])
    assert exc.value.code == 64
    last_line = capsys.readouterr().err.splitlines()[-1]
    assert last_line == f"bowfree {command[0]}: error: argument --n: must be at least 0, got -3"
    assert not (tmp_path / "out").exists()


def test_cli_reports_an_empty_covariance_file_in_one_line(tmp_path):
    graph = tmp_path / "g.json"
    graph.write_text(json.dumps({"n": 2, "directed": [[1, 2]], "bidirected": []}))
    sigma = tmp_path / "empty.csv"
    sigma.write_text("")
    # a fresh interpreter, so that stderr shows any warning numpy prints
    proc = subprocess.run(
        [sys.executable, "-m", "bowfree.cli", "recover", "--graph", str(graph), "--sigma", str(sigma),
         "--out", str(tmp_path / "o.json")],
        capture_output=True, text=True, check=False,
    )
    assert proc.returncode == 1
    assert proc.stderr.splitlines() == [f"bowfree: {sigma}: no numbers in the CSV file"]
