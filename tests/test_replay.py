"""Pinned replay: the seeded reports of the Monte Carlo pipelines keep their
exact bytes. The digests were taken before the condition estimate and the
experiment pipelines shared one perturbation-ratio engine, so any change to
the draws, their recovery or their measurement shows here."""

import hashlib

import pytest

from bowfree import recovery, robustness
from bowfree.cli import main

DIGESTS = {
    1: {"condition.json": "51aa180b4e9302866d733f163e185d45a17958e1f3e2c830aedf89174576a351",
        "trials.csv": "116a00142dc0e589d3cc2f18be6bf08b6266708ac14bdb8dad79b7b9595dde48",
        "simulated.json": "acde4c62fb7e69547aa718a5af3e2caf0a0e0f896c5961f7ee9da80e53ecafa9",
        "gene.json": "ac42d2d0c38ddbc92c6ec6e4901a58c625af5fa59a1eeeded6cc74b16e027ae3"},
    2: {"condition.json": "60d0000af42e95584adc355b0f1a533ab115c56963da2922e4a351bc0248447f",
        "trials.csv": "ae314899d4a576439c2699103a372a7b7e14648b35a9c3eda8ffa3fb847c4eae",
        "simulated.json": "fe37994ddda1714d64c76a4175251191a0ce2cd856a7a90bc672c1180527de0e",
        "gene.json": "6dbb82f06fb93e3c8011be7c15eb52e8f621d898caea0a0ac64661394e3d5171"},
    3: {"condition.json": "7f5960a4933acc232ed5b5f5fcea9fb96cac795654cd53951d49c0ca32da3740",
        "trials.csv": "498b708ea6682260f4b364bd4debbc6ccfa8c95c096c20538fb4c511a0f489ad",
        "simulated.json": "587fb54068d76b5f0c76843f8bbdd4ead26b8de785b8538e297210d1793f20ff",
        "gene.json": "2bac9a1bc09ebb26f2a4059ee97ff16973de349c9c94cf7273a245d896039f6e"},
    4: {"condition.json": "1a94bc751800fd95ec4158e8306446d3b9970f56dc9821f992bcacd01ac5d49f",
        "trials.csv": "465801bffcfb6565e0563ec7f4bf6b79e62350500d7a282e4292655efc67b909",
        "simulated.json": "26f90c9b3bc9da438326545065779ac204fb847fdb8f9d166910ac9553b8a7c4",
        "gene.json": "a5636b73e0d3243d54b5f4552bd3806de9c5c258c08ddb25baafab5ef453f13b"},
    5: {"condition.json": "b858c747964b7430aebbf1cf71969aaed37731f8a8a0da44759076457d0089b0",
        "trials.csv": "5d29d899df85f85708967473c1a8d6d93d572abd96dbd80049fdb456373ccbf4",
        "simulated.json": "9a214e8eb505992db590200b778901257580c37c142f518f580621ca730c2468",
        "gene.json": "f76c7fdf70b40b8a4b5d3e6173a54aef4ea1a7f5470e6208b6d99abd6cfed45d"},
}


def _digest(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _experiments(tmp_path, seed: int, graphs: int) -> dict:
    files = {name: tmp_path / name for name in ("simulated.json", "gene.json")}
    assert main(["experiment", "--mode", "simulated", "--n", "12", "--p", "0.3", "0.7", "--graphs", str(graphs),
                 "--runs-per-graph", "4", "--samples", "40", "--seed", str(seed),
                 "--out", str(files["simulated.json"])]) == 0
    assert main(["experiment", "--mode", "gene", "--p", "0.2", "0.6", "--graphs", str(graphs),
                 "--runs-per-graph", "3", "--seed", str(seed), "--out", str(files["gene.json"])]) == 0
    return {name: _digest(path) for name, path in files.items()}


def _replay(tmp_path, seed: int) -> dict:
    inst = tmp_path / "inst"
    assert main(["generate", "--kind", "sdd", "--n", "12", "--k", "2", "--p", "0.6", "--seed", str(seed),
                 "--out-dir", str(inst)]) == 0
    files = {name: tmp_path / name for name in ("condition.json", "trials.csv")}
    assert main(["condition", "--graph", str(inst / "graph.json"), "--sigma", str(inst / "sigma.csv"),
                 "--trials", "6", "--seed", str(seed), "--out", str(files["condition.json"]),
                 "--trials-csv", str(files["trials.csv"])]) == 0
    return {**{name: _digest(path) for name, path in files.items()}, **_experiments(tmp_path, seed, 2)}


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("stack_bytes", [None, 1, 4096], ids=["default", "1-slot", "few-slot"])
def test_seeded_condition_and_experiment_reports_replay_their_pinned_bytes(tmp_path, monkeypatch, seed,
                                                                            stack_bytes):
    if stack_bytes:  # chunks of one or a few covariances give the same bytes
        monkeypatch.setattr(robustness, "STACK_BYTES", stack_bytes)
    assert _replay(tmp_path, seed) == DIGESTS[seed]


def test_a_23_digit_seed_replays_its_bytes(tmp_path):
    # --seed takes any integer of at least 0, one wider than 64 bits included.
    seed = 12345678901234567890123
    runs = []
    for run in (tmp_path / "a", tmp_path / "b"):
        digests = _replay(run, seed)
        runs.append(digests | {f"inst/{path.name}": _digest(path) for path in sorted((run / "inst").iterdir())})
    assert len(runs[0]) == 8 and runs[0] == runs[1]


FAILURE_DIGESTS = {
    1: {"simulated.json": "99a5cb1265a0ad7670d11641872418743de89bfe998fa30e54549a0ce900472a",
        "gene.json": "489c32e52df447ef2d370bc1340e712280d9223050f7f27df5aecf42e3e0060a"},
    2: {"simulated.json": "8888a8d216e960f10d03ea770786789914db81581e17490c2c837d1fc0311286",
        "gene.json": "62ed51a2542df32cda09de54f4655aeaac4aa65602780b3ebe45a5ed3324a734"},
}


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("stack_bytes", [None, 1, 4096], ids=["default", "1-slot", "few-slot"])
def test_experiment_records_of_failed_recoveries_replay_their_pinned_bytes(tmp_path, monkeypatch, seed,
                                                                           stack_bytes):
    # A tolerance this loose fails some bases (recovery_failed) and some
    # draws (run_failures) at both seeds.
    monkeypatch.setattr(recovery, "SING_TOL", 0.1)
    if stack_bytes:
        monkeypatch.setattr(robustness, "STACK_BYTES", stack_bytes)
    assert _experiments(tmp_path, seed, 3) == FAILURE_DIGESTS[seed]
