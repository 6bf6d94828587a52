import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from ncadhm import cli
from ncadhm.cli import run
from ncadhm.monad import ADHMData
from ncadhm.hopf_twist import ClassicalModel, MoyalModel, ToricModel

SRC = Path(__file__).resolve().parents[1] / "src"
PINNED = json.loads((Path(__file__).resolve().parents[1] / "perfbench"
                     / "digests.json").read_text())


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


def test_instanton_check_asd_fails_on_a_trace_error(solved_file, capsys,
                                                   monkeypatch):
    # each Q shifted by 1e-8/n times the identity, after its ASD residual
    # was taken: that residual passes, but trace(Q) misses 2k by 1e-8
    samples = cli.curvature_samples

    def off_trace(data, pts):
        return [dataclasses.replace(s, Q=s.Q + 1e-8 / len(s.Q) * np.eye(
            len(s.Q))) for s in samples(data, pts)]

    monkeypatch.setattr(cli, "curvature_samples", off_trace)
    argv = ["instanton", "--data", solved_file, "--points", "10",
            "--seed", "3"]
    assert run(argv + ["--check-asd"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["passed"] is False
    assert doc["max_asd_residual"] <= 1e-6
    assert 1e-10 < doc["trace_Q_max_error"] < 2e-8
    assert run(argv) == 0  # unchecked without --check-asd
    assert json.loads(capsys.readouterr().out)["passed"] is True


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


def _fresh_process(argv):
    """Exit code, stdout and stderr of ``python -m ncadhm argv``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    r = subprocess.run([sys.executable, "-m", "ncadhm", *argv], env=env,
                       capture_output=True, text=True, timeout=60)
    return r.returncode, r.stdout, r.stderr


@pytest.mark.parametrize("hbar, code", [("1e160", 2), ("1e140", 1)])
def test_large_hbar_ends_without_numpy_warnings(hbar, code):
    # a level that overflows the equations at the random starts is a usage
    # error; a large one that does not is an honest failed solve
    code_, out, err = _fresh_process(
        ["solve", "--model", "moyal", "--hbar", hbar, "--alpha", "1",
         "--beta", "1", "--k", "1"])
    assert code_ == code
    if code == 2:
        assert out == ""
        assert err == ("error: argument --hbar: level 2e+160 overflows the "
                       "equations at the random starts\n")
    else:
        assert err == ""
        assert json.loads(out)["error"] == "NoConvergence"


def test_python_dash_m_runs_the_cli():
    code, out, err = _fresh_process(["moduli-dim", "--help"])
    assert code == 0, err
    assert "--data" in out


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
    ["solve", "--k", "1", "--model", "classical", "--max-iterations", "0"],
])
def test_nonpositive_count_is_a_usage_error(argv, capsys):
    # rejected while parsing, before the data file is opened
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert f"argument {argv[-2]}: must be at least 1, got 0" in err


@pytest.mark.parametrize("argv, message", [
    (["solve", "--k", "1", "--model", "classical", "--max-iterations", "-1"],
     "must be at least 1, got -1"),
    (["solve", "--k", "1", "--model", "classical", "--tolerance", "nan"],
     "must be a positive finite number, got nan"),
    (["solve", "--k", "1", "--model", "classical", "--tolerance", "inf"],
     "must be a positive finite number, got inf"),
    (["solve", "--k", "1", "--model", "classical", "--tolerance", "0"],
     "must be a positive finite number, got 0"),
    (["verify-monad", "--data", "unused.json", "--tolerance", "nan"],
     "must be a positive finite number, got nan"),
    (["verify-monad", "--data", "unused.json", "--tolerance", "-1"],
     "must be a positive finite number, got -1"),
    (["solve", "--k", "1", "--model", "moyal", "--hbar", "0.2",
      "--zeta", "nan"],
     "must be a finite number, got nan"),
    (["solve", "--k", "1", "--model", "moyal", "--hbar", "nan"],
     "must be a finite number, got nan"),
    (["relations", "--model", "moyal", "--hbar", "inf"],
     "must be a finite number, got inf"),
    (["solve", "--k", "1", "--model", "moyal", "--hbar", "0.2",
      "--alpha", "nan"],
     "must be a finite number, got nan"),
    (["relations", "--model", "moyal", "--hbar", "0.2", "--beta", "inf"],
     "must be a finite number, got inf"),
    (["relations", "--model", "toric", "--theta", "nan"],
     "must be a finite number, got nan"),
    (["charge", "--data", "unused.json", "--resolution", "29"],
     "5658248 quadrature points exceed 5000000"),
    (["relations", "--model", "toric", "--theta", "1.5"],
     "theta must lie in [0, 1)"),
    (["solve", "--k", "1", "--model", "moyal", "--hbar", "-1"],
     "hbar must be >= 0"),
    (["solve", "--k", "1", "--model", "moyal", "--hbar", "0.1",
      "--beta", "-1"],
     "beta must be nonzero and differ from -alpha"),
    (["solve", "--k", "1", "--model", "classical", "--seed", "-1"],
     "must be at least 0, got -1"),
    (["instanton", "--data", "unused.json", "--seed", "-1"],
     "must be at least 0, got -1"),
    (["solve", "--model", "toric", "--theta", "0.3", "--k", "1",
      "--zeta", "0.5"],
     "zeta 0.5 does not match the model level 0.0"),
    (["solve", "--k", "1", "--model", "moyal", "--hbar", "1e308"],
     "hbar times alpha, beta and alpha + beta must be finite"),
    (["relations", "--model", "moyal", "--alpha", "1e200", "--hbar", "1e200"],
     "hbar times alpha, beta and alpha + beta must be finite"),
    (["instanton", "--data", "moyal.json"],
     "numeric evaluation needs the classical model"),
    (["charge", "--data", "toric.json"],
     "numeric evaluation needs the classical model"),
    (["solve", "--model", "moyal", "--alpha", "1", "--beta", "1", "--k", "1",
      "--hbar", "1e160"],
     "level 2e+160 overflows the equations at the random starts"),
    (["solve", "--model", "moyal", "--alpha", "1", "--beta", "1", "--k", "1",
      "--hbar", "1e300"],
     "level 2e+300 overflows the equations at the random starts"),
])
def test_bad_tolerance_or_iteration_cap_is_a_usage_error(argv, message,
                                                         capsys, tmp_path,
                                                         monkeypatch):
    # rejected while parsing, or for --data when its file is read: no solve
    # runs and no report is emitted
    monkeypatch.chdir(tmp_path)
    for name, model in (("moyal", MoyalModel(0.2, 1.0, 0.5)),
                        ("toric", ToricModel(0.3))):
        Path(f"{name}.json").write_text(
            json.dumps(ADHMData.zero(1, model).to_json_dict()))
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {argv[-2]}: {message}" in captured.err


GOLDEN_MODEL_FLAGS = {
    "classical": ["--model", "classical"],
    "moyal": ["--model", "moyal", "--hbar", "0.2", "--alpha", "1",
              "--beta", "0.5"],
    "toric": ["--model", "toric", "--theta", "0.3"],
}

# SHA-256 of the `solve --seed 3 --out` file and of the `moduli-dim` output
# for that file, recorded with the per-column Jacobian loop (numpy 2.4,
# OpenBLAS 0.3.31, x86-64).  A different BLAS may round differently.
GOLDEN_DIGESTS = {
    ("classical", 1): (
        "3416001bbc3e41e587a727e3978cc407e0c9e7d4a509742c41deff9799ef644c",
        "c8b3a76985d732f2d614da30cda5a7bb0dba4faf2502bb09dc1dcacdbec61e1c"),
    ("moyal", 1): (
        "6a46b14d8ab400a39c738c7517329ec35b5916876555fb50abd0c926dc024106",
        "69b9588d05abb59d0826f5d73f7d95ddb91479a333e492e6b9a6070c1a845ada"),
    ("toric", 1): (
        "14d6ca509378fadf65a2ad40e0012df7c2e964d0659d59ad7aac22a3d2e4c8ff",
        "d66353fda8a307031fa222da7e2d2a1406b079999d6960f400277cf5921ac138"),
    ("classical", 2): (
        "f3aa263a413a852a9aa07885a435a55eeb5d65850152de4a1c6de9a25159f956",
        "c24a2fb99c3fff67097a90370c99d98d98f96967ccb2552f53f89eaf65ccb51f"),
    ("moyal", 2): (
        "d97da1059369203659b5c88394e0902d51f73c38868919bf61bea2c20efce560",
        "c22e6d004d3bd928c5b179c626e1fe7e9f2955c35e9d07f749898cdf4f0eb882"),
    ("toric", 2): (
        "6409de10d2a31339b07fccf9b83fad841e75c161436ad7895911aaa3613f9931",
        "8f310239a97e1a536505be0906573866d05e642ea4f772a160793f56d4630f6d"),
    ("classical", 3): (
        "f0a9b2fe2cc44cc834a1f5c7ebeb5770e7ed73a301b2241a8faecda10375726b",
        "6853b55a988b2b955d187adbc2c005fdf197c4ceb42c4d746984bd530393c480"),
    ("moyal", 3): (
        "7ec5dddd5c682232499b7ab3da1d78d44d363528911476755b28c0c725b76baf",
        "5671780324bc7f059c96745a9cec01e485a598dd20008b5195f2613fbf2a4b27"),
    ("toric", 3): (
        "89706b214bf5f791d8e839e8d5ca03100c604973687d1f95a34196381b615883",
        "2f30a07a528ae1ae57f97afbedbc25cbe2288c54dc727412db81c6617df5d9ff"),
}


# SHA-256 of the `solve --seed {11, 29} --out` file, recorded with the
# Levenberg-Marquardt loop that evaluated the equations twice per accepted
# step and the Jacobian built from batched unit-direction products (numpy
# 2.4, OpenBLAS 0.3.31, x86-64).  Two more seeds pin more of the trajectory.
GOLDEN_SOLVE_SEED_DIGESTS = {
    ("classical", 1, 11):
        "fda4a8c1da6d0908e019afa79f04822c1f9bea5aff6da7ac0396a2623cb628ed",
    ("classical", 2, 11):
        "9ee0a2bba7e6df9baf3900eda2aef70b177ac0bae7fce955ef9cf72d7f2ed715",
    ("classical", 3, 11):
        "627eebddb1599172aacf366e44f8db7447810e6af14e367e621ab4768d137618",
    ("moyal", 1, 11):
        "5c93d79ac9db5f42113d7ce97d4b058ce2bec04e0225e2d331c1f2af168ee869",
    ("moyal", 2, 11):
        "8fbf670ddb6954d87eca0b4261b65ffe183eab879da50fb17666bc48a4779417",
    ("moyal", 3, 11):
        "de7359064ad268666cf2d3f6769f78ff75f1952261d8b26cb0ccd797909046d8",
    ("toric", 1, 11):
        "fdd80fe249a9df6b603ac3c329a268e1f1929a59cd7b7018858e9f03342bc1c0",
    ("toric", 2, 11):
        "5b20eeb6eac8210dcb032869eeafa6926ff41f1b534567725c8c062fb6ef0553",
    ("toric", 3, 11):
        "d467cee19f64675124639bdd51b8ecb19f05cd55472ba25ec986b8b2aa7873a0",
    ("classical", 1, 29):
        "e3bfe9936bafb9cbfddfab51fa4b01b72fa6f969bcf68f0ac200e4ab86a11b04",
    ("classical", 2, 29):
        "a833518982b2e5fc8f094b8d491a620f2ce9e3cb36533d0df0c18662f40d61ec",
    ("classical", 3, 29):
        "3a82672080bb9fc7eb278682984085ebcde1a5170783a14c13a00887bc6b02bd",
    ("moyal", 1, 29):
        "d6b4b6c7754fe98af7463e516ff4a428aa5950b6ea3c93e80cab289f1cf4d145",
    ("moyal", 2, 29):
        "212d7aad35fdb5f431ec88c1062fc9cbef1f8a5e257f2dff77b677e0f0b79e9c",
    ("moyal", 3, 29):
        "89253e17155d248de79fa4bb7241b22d891c7fe3bb104ebe052faf4bd8b7cb6a",
    ("toric", 1, 29):
        "00eaecfb503be9d7d2740736444c59912eb4a199c549592477f9719816cf7ec8",
    ("toric", 2, 29):
        "c1b5a32a9881fb8bda10c2c20def3f121e2365a1e245c066ba47b0ff515470e4",
    ("toric", 3, 29):
        "c702763ff77e9ac49fc6760872b994389742cf771ffdd3c19ae0f0a1a2d3757f",
}


def _golden_solve(model, k, path, seed=3):
    """Write the `solve --seed` file that the golden digests start from."""
    tol = "1e-12" if k == 1 else "1e-10"
    assert run(["solve", "--k", str(k), *GOLDEN_MODEL_FLAGS[model],
                "--seed", str(seed), "--tolerance", tol,
                "--out", str(path)]) == 0


@pytest.mark.parametrize("model, k", list(GOLDEN_DIGESTS))
def test_solve_and_moduli_dim_output_is_byte_identical(model, k, tmp_path,
                                                        capsys):
    path = tmp_path / "sol.json"
    _golden_solve(model, k, path)
    capsys.readouterr()
    assert run(["moduli-dim", "--data", str(path)]) == 0
    moduli_out = capsys.readouterr().out
    solve_digest, moduli_digest = GOLDEN_DIGESTS[model, k]
    assert hashlib.sha256(path.read_bytes()).hexdigest() == solve_digest
    assert hashlib.sha256(moduli_out.encode()).hexdigest() == moduli_digest


@pytest.mark.parametrize("model, k, seed", list(GOLDEN_SOLVE_SEED_DIGESTS))
def test_solve_output_is_byte_identical_for_more_seeds(model, k, seed,
                                                       tmp_path):
    path = tmp_path / "sol.json"
    _golden_solve(model, k, path, seed)
    assert (hashlib.sha256(path.read_bytes()).hexdigest()
            == GOLDEN_SOLVE_SEED_DIGESTS[model, k, seed])


# SHA-256 of `instanton --points 200 --seed 5 --check-asd` and, for k=1, of
# `charge --resolution 6` on the classical golden solutions, recorded with
# the per-point projector rebuilt through vstack'ed monad blocks (numpy 2.4,
# OpenBLAS 0.3.31, x86-64).
GOLDEN_INSTANTON_DIGESTS = {
    1: "ae2c5b90b4f688de8036ec21ee38469de4d387db46339f297c8a923d53b6ae03",
    2: "438bbbeedc98c49c4c70c9c87015a3dfee6d70b0fa761fc974bf378f261eabab",
    3: "3696745f6a5606363e8f870f3d5d18ef920f945f275b45678cae3e99d4214446",
}
GOLDEN_CHARGE_DIGEST = (
    "a0ab70678053b41d1c5eedc51b8bbe72841aa9e1802eb52688a8992e2b21184e")
# SHA-256 of `instanton --points 600 --seed 5 --check-asd` on the classical
# k=2 golden solution: 600 points span several curvature chunks, where the
# 200-point pins above fit in one.
GOLDEN_INSTANTON_600_DIGEST = (
    "d0339c51206f3a2447544c5626a49ec1f56fa070d23414485579628299f7e1bc")


@pytest.mark.parametrize("k", list(GOLDEN_INSTANTON_DIGESTS))
def test_instanton_and_charge_output_is_byte_identical(k, tmp_path, capsys):
    path = tmp_path / "sol.json"
    _golden_solve("classical", k, path)
    assert (hashlib.sha256(path.read_bytes()).hexdigest()
            == GOLDEN_DIGESTS["classical", k][0])
    capsys.readouterr()
    assert run(["instanton", "--data", str(path), "--points", "200",
                "--seed", "5", "--check-asd"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == \
        GOLDEN_INSTANTON_DIGESTS[k]
    if k == 1:
        assert run(["charge", "--data", str(path), "--resolution", "6"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == \
            GOLDEN_CHARGE_DIGEST


def test_instanton_output_across_chunks_is_byte_identical(tmp_path, capsys):
    path = tmp_path / "sol.json"
    _golden_solve("classical", 2, path)
    capsys.readouterr()
    assert run(["instanton", "--data", str(path), "--points", "600",
                "--seed", "5", "--check-asd"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == \
        GOLDEN_INSTANTON_600_DIGEST


# SHA-256 of the `relations` output (stdout) for the two deformed models,
# recorded before the never-set options of the derivation became constants
# (MonadM k=2: before the coaction tables replaced the per-call literals).
GOLDEN_RELATIONS_SPACES = {
    "C4": ["--space", "C4"],
    "C4-no-calculus": ["--space", "C4", "--no-calculus"],
    "R4": ["--space", "R4"],
    "MonadM": ["--space", "MonadM", "--k", "1"],
    "MonadM-k2": ["--space", "MonadM", "--k", "2"],
}
GOLDEN_RELATIONS_DIGESTS = {
    ("moyal", "C4"):
        "84fd9447d55b0cff7cc03535041973b36faf4583dc9926231eb4c76da0df56dd",
    ("moyal", "C4-no-calculus"):
        "97f1b3787e3695a53860fc62c10162cb34d4b314d8320981627fd40a33e3d01d",
    ("moyal", "R4"):
        "6413d6bd3de3a5a8031fbf7133ed8fc3cf22a09c51f2e7c7e5bfcecdac89e152",
    ("moyal", "MonadM"):
        "410e94d7fd6ad060be0a7b7607f099a0e2f741517249fbad3cfce30bbd1bcc5a",
    ("moyal", "MonadM-k2"):
        "3b26fc9222cecf12f328734e5187fd943a85b5b675065301c095d09723c342c4",
    ("toric", "C4"):
        "e568c46953fea275cc775b5d46842e38e0cc6ba87cb5258480bceb18d6f3b2e8",
    ("toric", "C4-no-calculus"):
        "09260af79a389ce1c75b33c6949e10f80ccfc1096ad15c00f6b73455e923eca7",
    ("toric", "R4"):
        "eaa44f5a54b5815c765d55b46839605e83c089b646d570a5986edaada92bde65",
    ("toric", "MonadM"):
        "0b2c6f5b82b58e8add8d498ea1d7bc21e8dff34b6c577b35e84d20e23833e10d",
    ("toric", "MonadM-k2"):
        "2f4ca8f2e8c8b63d182e9c6ee11dbdec89557050c2c864efe7f461c4e0b5b01b",
}


@pytest.mark.parametrize("model, space", list(GOLDEN_RELATIONS_DIGESTS))
def test_relations_output_is_byte_identical(model, space, capsys):
    assert run(["relations", *GOLDEN_MODEL_FLAGS[model],
                *GOLDEN_RELATIONS_SPACES[space]]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == \
        GOLDEN_RELATIONS_DIGESTS[model, space]


def test_twistor_checks_output_is_byte_identical(capsys):
    assert run(["twistor-checks"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "c965f942d3c6510cb705666a5b28724963486a58ec3b0629200ae2b5ae62baea")


# SHA-256 of `verify-monad` without and with `--full` on the k=1 golden
# solutions of the two deformed models.
GOLDEN_VERIFY_DIGESTS = {
    "moyal": (
        "1d7c5bc926c02ff2dfdb0c5ac66fe194158d3fd424d612daf8eb207c3f4d97e0",
        "c9f23b4aa4255950276d2da8e7c30c9467d3a8951896d1895a92ed6c0ebb6001"),
    "toric": (
        "13b080658c5a45521543712ba5618a0ea856a89e0d618b03046f56b8580ed136",
        "46fd0c901dcf379061da04e2b4c9d6fb4c5103d01690a25010c6ffa5d0c8a36f"),
}


@pytest.mark.parametrize("model", list(GOLDEN_VERIFY_DIGESTS))
def test_verify_monad_output_is_byte_identical(model, tmp_path, capsys):
    path = tmp_path / "sol.json"
    _golden_solve(model, 1, path)
    assert (hashlib.sha256(path.read_bytes()).hexdigest()
            == GOLDEN_DIGESTS[model, 1][0])
    capsys.readouterr()
    for flags, digest in zip(([], ["--full"]), GOLDEN_VERIFY_DIGESTS[model]):
        assert run(["verify-monad", "--data", str(path), *flags]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest


# SHA-256 of `verify-monad --full` on the torus k=2 golden solution, the
# one pin on the centrality check for index two.
GOLDEN_VERIFY_FULL_TORIC_K2 = (
    "eb035d745294f9b577c7bf3f81a3d57f7f906849b27b149928c4b0a841a684d8")


def test_verify_monad_full_output_is_byte_identical_for_k2(tmp_path, capsys):
    path = tmp_path / "sol.json"
    _golden_solve("toric", 2, path)
    assert (hashlib.sha256(path.read_bytes()).hexdigest()
            == GOLDEN_DIGESTS["toric", 2][0])
    capsys.readouterr()
    assert run(["verify-monad", "--data", str(path), "--full"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == \
        GOLDEN_VERIFY_FULL_TORIC_K2


def test_verify_monad_full_derives_the_coordinate_rules_once(
        tmp_path, capsys, monkeypatch):
    from ncadhm import hopf_twist
    from ncadhm.star_algebra import C4

    path = tmp_path / "sol.json"
    _golden_solve("toric", 1, path)
    pair_rules = hopf_twist._pair_rules
    coordinate_calls = []

    def counted(model, gens):
        if any(g.space == C4 for g in gens):
            coordinate_calls.append(len(gens))
        return pair_rules(model, gens)

    monkeypatch.setattr(hopf_twist, "_pair_rules", counted)
    assert run(["verify-monad", "--data", str(path), "--full"]) == 0
    assert len(coordinate_calls) == 1


@pytest.mark.parametrize("model", list(GOLDEN_VERIFY_DIGESTS))
def test_verify_monad_full_fills_one_action_table(model, tmp_path, capsys,
                                                  monkeypatch):
    # the four symbolic checks, the formal inverse of rho2 included, run in
    # one relation system, so the engine's table of pair actions is filled
    # once
    from ncadhm.star_algebra import RelationSystem

    path = tmp_path / "sol.json"
    _golden_solve(model, 1, path)
    action = RelationSystem._action
    systems = {}  # kept alive, so no id is reused

    def spy(rel, a, b):
        systems[id(rel)] = rel
        return action(rel, a, b)

    monkeypatch.setattr(RelationSystem, "_action", spy)
    assert run(["verify-monad", "--data", str(path), "--full"]) == 0
    assert len(systems) == 1


def test_moduli_dim_of_data_that_is_no_solution_is_a_usage_error(
        tmp_path, capsys):
    path = tmp_path / "sol.json"
    _golden_solve("moyal", 1, path)
    doc = json.loads(path.read_text())
    doc["I"][0][0][0] += 1e-3
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(["moduli-dim", "--data", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        "error: argument --data: not a solution: residual ")


def _data_with(**changes):
    obj = ADHMData.zero(1, ClassicalModel()).to_json_dict()
    obj.update(changes)
    return obj


@pytest.mark.parametrize("content", [
    None,  # a directory
    "{not json",
    [1, 2],
    {k: v for k, v in _data_with().items() if k != "J"},
    _data_with(B1=[[[0]]]),
    _data_with(B1=[[["a", 0]]]),
    _data_with(model={"model": "moyal", "hbar": "x", "alpha": 1.0,
                      "beta": 1.0}),
    _data_with(model={"model": "toric", "theta": None}),
], ids=["directory", "not-json", "list", "missing-key", "non-pair",
        "string-entry", "string-hbar", "null-theta"])
def test_bad_data_file_is_a_usage_error(content, tmp_path, capsys):
    path = tmp_path / "data.json"
    if content is None:
        path.mkdir()
    elif isinstance(content, str):
        path.write_text(content)
    else:
        path.write_text(json.dumps(content))
    for command in ("moduli-dim", "instanton", "charge", "verify-monad"):
        assert run([command, "--data", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: argument --data: ")


def test_reused_parser_leaks_nothing_between_calls(capsys, monkeypatch):
    # usage text wraps at the terminal width; pin it for both processes
    monkeypatch.setenv("COLUMNS", "80")
    toric = ["relations", "--model", "toric", "--theta", "0.3",
             "--space", "MonadM"]
    moyal = ["solve", "--k", "1", "--model", "moyal", "--hbar", "0.2",
             "--alpha", "1", "--beta", "0.5", "--seed", "3"]
    calls = [
        toric + ["--k", "0"],
        toric + ["--k", "2"],
        toric,  # the default k = 1, not the 2 of the call before
        moyal + ["--zeta", "0.3"],
        moyal,
        ["--version"],
    ]
    parser = cli.build_parser()
    seen = []
    for argv in calls:
        code = run(argv)
        captured = capsys.readouterr()
        seen.append((code, captured.out, captured.err))
    assert cli.build_parser() is parser
    assert [code for code, _, _ in seen] == [2, 0, 0, 0, 0, 0]
    assert hashlib.sha256(seen[2][1].encode()).hexdigest() == PINNED[
        "relations --model toric --theta 0.3 --space MonadM --k 1"]
    for argv, got in zip(calls, seen):
        assert got == _fresh_process(argv), argv


@pytest.mark.parametrize("keys", [
    [f"relations --model moyal --hbar 0.2 --alpha 1.0 --beta {b} "
     "--space MonadM --k 1" for b in ("0.5", "0.625", "0.5")],
    [f"relations --model toric --theta {t} --space MonadM --k 1"
     for t in ("0.3", "0.31", "0.3")],
], ids=["moyal", "toric"])
def test_models_share_no_memo_between_calls(keys, capsys):
    # one process, the parameter changed and changed back: every output
    # is the pinned output of its own parameters
    for key in keys:
        assert run(key.split()) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == PINNED[key], key


def test_relations_expands_each_letters_coaction_once(capsys, monkeypatch):
    from ncadhm import hopf_twist
    from ncadhm.star_algebra import MONAD_M

    expand = hopf_twist.MoyalModel._expand_coaction
    expanded = {}

    def counted(model, g):
        expanded[g] = expanded.get(g, 0) + 1
        return expand(model, g)

    monkeypatch.setattr(hopf_twist.MoyalModel, "_expand_coaction", counted)
    assert run(["relations", "--model", "moyal", "--hbar", "0.2",
                "--space", "MonadM", "--k", "1"]) == 0
    # each letter family's rules are derived on the first two cells and
    # relabelled onto the others, so only the letters of those two cells
    # are expanded
    letters = hopf_twist.MoyalModel(0.2).generators(MONAD_M, k=1)
    assert set(expanded) == {g for g in letters
                             if (g.row, g.col) in ((1, 1), (2, 1))}
    assert len(expanded) == 16
    assert set(expanded.values()) == {1}


def test_streamed_output_keeps_every_byte(tmp_path, capsys):
    # the largest pinned relations object spans many writes, as plain rule
    # dicts (the indented encoder) and as streamed rules (the template)
    from ncadhm.hopf_twist import derive_relations

    rel = derive_relations(ToricModel(0.3), "MonadM", k=2)
    obj = rel.to_json_dict()
    want = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    assert len(want) > 10 * cli._EMIT_CHARS
    path = tmp_path / "rel.json"
    for doc in (obj, rel.streamed_json_dict()):
        cli._emit(doc)
        assert capsys.readouterr().out == want
        cli._emit(doc, str(path))
        assert path.read_text() == want
        assert capsys.readouterr().out == ""


def _relations_documents():
    """Every relation system the CLI builds at k <= 2, by name, and
    hand-built ones with extreme floats, cancelled and empty right sides,
    an empty word, no rules and meta text that needs escaping."""
    from ncadhm.hopf_twist import derive_relations, z
    from ncadhm.star_algebra import C4, MONAD_M, R4, Coefficient
    from ncadhm.star_algebra import RelationSystem

    for name, model in (("classical", ClassicalModel()),
                        ("moyal", MoyalModel(0.1, 1.0, 2.1)),
                        ("toric", ToricModel(0.25))):
        for space, k in ((C4, 1), (R4, 1), (MONAD_M, 1), (MONAD_M, 2)):
            for calculus in (True, False):
                yield (f"{name}-{space}-k{k}-calculus-{calculus}",
                       derive_relations(model, space, k=k,
                                        calculus=calculus))
    big, tiny, inf = 1.7976931348623157e308, 5e-324, float("inf")
    g1, g2, g3 = z(1), z(2), z(3)
    rules = {
        (g2, g1): (((), Coefficient(complex(tiny, -0.0))),  # pruned
                   ((), Coefficient(complex(2.0, 0.0), 0, 2)),
                   ((g1, g2), Coefficient(complex(big, 1.0), 1, 2)),
                   ((g2,), Coefficient(complex(-1.0, -big))),
                   ((g1,), Coefficient(complex(-tiny, -1.5), 3, -4)),
                   ((g3,), Coefficient(complex(inf, float("nan"))))),
        (g3, g1): (((g1, g3), Coefficient(1.0)),
                   ((g1, g3), Coefficient(-1.0))),
        (g3, g2): (),
    }
    meta = {"model": 'a "quoted\\" \u00e9\n\u2028 \x00 name', "k": 2}
    yield "hand-built", RelationSystem([g1, g2, g3], rules, meta=meta)
    yield "no-rules", RelationSystem([g1, g2], {}, meta=meta)


@pytest.mark.parametrize("name,rel", list(_relations_documents()),
                         ids=lambda x: x if isinstance(x, str) else "")
def test_rule_template_writes_the_bytes_of_the_indented_encoder(name, rel,
                                                                capsys):
    # the records written from the template, with the rest of the document
    # through the indented encoder, are the text of json.dumps
    note = {"note": "pairs without an explicit rule commute up to the "
                    "graded sign"}
    cli._emit({**rel.streamed_json_dict(), **note})
    want = json.dumps({**rel.to_json_dict(), **note}, indent=2,
                      sort_keys=True)
    assert capsys.readouterr().out == want + "\n"


def test_template_floats_are_the_floats_of_json():
    # a rule's terms are sums from 0.0, so no signed zero reaches the
    # template through a relation system; the leaf writer sees them here
    big, tiny, inf = 1.7976931348623157e308, 5e-324, float("inf")
    for x in (0.0, -0.0, tiny, -tiny, big, -big, 0.1, 1e16, 1e-7, inf,
              -inf, float("nan")):
        assert cli._json_float(x) == json.dumps(x), x


def test_relations_without_rules_writes_an_empty_array(capsys):
    assert run(["relations", "--model", "classical", "--space", "C4"]) == 0
    out = capsys.readouterr().out
    assert out.endswith('\n  "rules": []\n}\n')
    assert json.loads(out)["rules"] == []


@pytest.mark.parametrize("model", ["moyal", "toric"])
def test_relations_out_file_holds_the_stdout_bytes(model, tmp_path, capsys):
    argv = ["relations", *GOLDEN_MODEL_FLAGS[model],
            *GOLDEN_RELATIONS_SPACES["MonadM-k2"]]
    assert run(argv) == 0
    out = capsys.readouterr().out
    path = tmp_path / "rel.json"
    assert run(argv + ["--out", str(path)]) == 0
    assert capsys.readouterr().out == ""
    assert path.read_bytes() == out.encode()
    assert hashlib.sha256(out.encode()).hexdigest() == \
        GOLDEN_RELATIONS_DIGESTS[model, "MonadM-k2"]


def test_relations_memory_is_bounded(tmp_path):
    # each rule's dict is built when the encoder reaches it; the whole
    # tree of rule dicts peaked at about 3.5 MiB
    from ncadhm.hopf_twist import derive_relations

    derive_relations(ToricModel(0.3), "MonadM", k=2)  # warm-up
    tracemalloc.start()
    try:
        assert run(["relations", "--model", "toric", "--theta", "0.25",
                    "--space", "MonadM", "--k", "2",
                    "--out", str(tmp_path / "rel.json")]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2 ** 20


@pytest.mark.parametrize("target", ["missing/out.json", "."],
                         ids=["missing-directory", "directory"])
def test_unwritable_out_is_a_usage_error(target, tmp_path, capsys):
    out = str(tmp_path / target)
    for argv in (["relations", "--model", "toric", "--theta", "0.3"],
                 ["twistor-checks"]):
        assert run(argv + ["--out", out]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: argument --out: ")


def test_out_may_name_the_data_file(solved_file, tmp_path, capsys):
    # --out is opened when the report is written, after --data is read
    path = tmp_path / "data.json"
    path.write_text(Path(solved_file).read_text())
    assert run(["moduli-dim", "--data", str(path), "--out", str(path)]) == 0
    assert json.loads(path.read_text())["unframed_dimension"] == 5
    assert capsys.readouterr().out == ""
