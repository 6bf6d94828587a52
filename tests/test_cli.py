import json

import numpy as np
import pytest

from ncadhm.cli import run
from ncadhm.monad import ADHMData
from ncadhm.hopf_twist import ClassicalModel


def test_relations_toric_phase(tmp_path, capsys):
    out = tmp_path / "rel.json"
    code = run(["relations", "--model", "toric", "--theta", "0.25",
                "--space", "C4", "--no-calculus", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    # the (z3, z1) rule carries the phase mu with mu-power 1
    rule = next(r for r in doc["rules"] if r["pattern"] == ["z3", "z1"])
    (term,) = rule["rhs"]["terms"]
    assert term["word"] == ["z1", "z3"] and term["mu_pow"] == 1


def test_relations_trivial_limit(tmp_path):
    out = tmp_path / "rel0.json"
    code = run(["relations", "--model", "moyal", "--hbar", "0",
                "--alpha", "1", "--beta", "1", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["rules"] == []  # only default transpositions remain


def test_solve_writes_solution(tmp_path):
    out = tmp_path / "d.json"
    code = run(["solve", "--k", "1", "--model", "moyal", "--hbar", "0.1",
                "--alpha", "1", "--beta", "1", "--seed", "7",
                "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["report"]["complex_residual"] <= 1e-12
    assert doc["report"]["real_residual"] <= 1e-12
    data = ADHMData.from_json_dict(doc)
    assert data.k == 1 and data.model.kind == "moyal"


def test_solve_deterministic_output(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["solve", "--k", "1", "--model", "toric", "--theta", "0.25",
            "--seed", "11"]
    assert run(args + ["--out", str(a)]) == 0
    assert run(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_twistor_checks_pass(capsys):
    assert run(["twistor-checks"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["passed"] is True
    assert len(doc["checks"]) == 5


@pytest.fixture(scope="module")
def solved_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "sol.json"
    assert run(["solve", "--k", "1", "--model", "classical", "--seed", "1",
                "--out", str(path)]) == 0
    return str(path)


def test_verify_monad(solved_file, capsys):
    assert run(["verify-monad", "--data", solved_file]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["passed"] and doc["monad_residual"] <= 1e-10


def test_instanton_subcommand(solved_file, capsys):
    assert run(["instanton", "--data", solved_file, "--points", "10",
                "--seed", "3", "--check-asd"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["max_asd_residual"] <= 1e-6
    assert doc["trace_Q_max_error"] <= 1e-10


def test_charge_subcommand(solved_file, capsys):
    assert run(["charge", "--data", solved_file, "--resolution", "8"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert abs(doc["charge"] - 1.0) < 0.02


def test_moduli_dim_subcommand(solved_file, capsys):
    assert run(["moduli-dim", "--data", solved_file]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["raw_nullity"] == 9 and doc["framed_dimension"] == 8
    assert doc["unframed_dimension"] == 5  # 8k - 3 for k = 1


def test_usage_error_exit_code(capsys):
    assert run(["solve", "--model", "moyal"]) == 2  # missing --k
    assert run(["charge", "--data", "/nonexistent.json"]) == 2


def test_failed_check_exit_code(tmp_path, capsys):
    # an off-shell datum fails verify-monad with exit code 1
    rng = np.random.default_rng(0)
    d = ADHMData(1, ClassicalModel(), rng.standard_normal((1, 1)),
                 rng.standard_normal((1, 1)), rng.standard_normal((1, 2)),
                 rng.standard_normal((2, 1)))
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(d.to_json_dict()))
    assert run(["verify-monad", "--data", str(path)]) == 1



@pytest.mark.parametrize("argv", [
    ["instanton", "--data", "unused.json", "--points", "0"],
    ["charge", "--data", "unused.json", "--resolution", "0"],
    ["relations", "--model", "moyal", "--space", "MonadM", "--k", "0"],
])
def test_nonpositive_count_is_a_usage_error(argv, capsys):
    # rejected while parsing, before the data file is opened
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert f"argument {argv[-2]}: must be at least 1, got 0" in err
