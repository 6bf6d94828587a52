"""Tests of the benchmark itself: reduced-size runs of every workload, a
fault-injection case that shows the checks can fail, the tracer's clean
uninstall, digest coverage and the refusal to run without sources."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import harness
import oracles
from tracer import Tracer

HERE = Path(__file__).resolve().parent


@pytest.fixture(autouse=True)
def _out_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "OUT_DIR", tmp_path / "out")


@pytest.mark.parametrize("workload", harness.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_run(workload, trace, tmp_path):
    report = harness.run_workload(workload, seed=3, seconds=0, trace=trace, smoke=True)
    env, metrics = report["env"], report["metrics"]
    per_pass = len(harness.build_pass(workload, 3, 0, tmp_path, {}, smoke=True))
    assert env["passes"] == harness.MIN_PASSES
    assert env["attempted"] == harness.MIN_PASSES * per_pass
    assert report["failures"] == []
    if trace:
        assert list(metrics) == [name for name, _ in harness.PER_LAYER]
        assert metrics["trace_overhead"] > 0
        assert metrics["cli.run.self_s"] > 0
        assert Path(env["spans_file"]).is_file()
    else:
        assert list(metrics) == [name for name, _ in harness.END_TO_END]
        assert all(v > 0 for v in metrics.values())
    if trace and workload == "symbolic":
        assert metrics["star_algebra.multiply.calls"] > 0
        assert metrics["hopf_twist.rules_built"] > 0
        assert metrics["instanton.evaluate_projector.calls"] == 0
    if trace and workload == "curvature":
        # one projector rebuild per sample point
        assert metrics["instanton.evaluate_projector.calls"] == 2 * 50
        assert metrics["star_algebra.multiply.calls"] == 0
    if trace and workload == "pipeline":
        assert metrics["adhm_solver.constraint_jacobian.calls"] > 0
        assert metrics["twistor.QuotientContext.reduce.calls"] > 0


def test_perturbed_data_fails_the_checks(tmp_path):
    """I += 1e-3 (as acceptance criterion 05 does) must fail the solve,
    verify-monad and instanton checks; the untouched file passes."""
    ops = harness.build_pass("curvature", 0, 0, tmp_path, {}, smoke=True)
    setup = [op for op in ops if op.kind == "setup"]
    assert all(harness.execute(op).failure is None for op in setup)
    bad = setup[0].data
    obj = json.loads(Path(bad.path).read_text())
    obj["I"] = [[[re + 1e-3, im] for re, im in row] for row in obj["I"]]
    Path(bad.path).write_text(json.dumps(obj))

    assert "input defect" in setup[0].check(0, "")
    assert setup[1].check(0, "") is None
    monad = harness.Op("checks", ["verify-monad", "--data", bad.path],
                       oracles.verify_monad_check(bad, full=False), data=bad)
    results = [harness.execute(op) for op in [monad] + ops[len(setup):]]
    failed = {r.op.argv[0] + ("" if r.op.data is bad else "-good"): r.failure
              for r in results}
    assert failed["verify-monad"] == "exit code 1"
    assert failed["instanton"] is not None
    assert failed["instanton-good"] is None


def test_tracer_uninstall_restores_the_program():
    import ncadhm
    from ncadhm import adhm_solver, cli, monad, star_algebra, twistor

    before = (cli.solve, monad.multiply, star_algebra.multiply,
              twistor.QuotientContext.__dict__["reduce"], ncadhm.multiply)
    tracer = Tracer()
    tracer.install()
    try:
        assert cli.solve is adhm_solver.solve is not before[0]
        assert monad.multiply is star_algebra.multiply is not before[1]
        assert ncadhm.multiply is star_algebra.multiply
    finally:
        tracer.uninstall()
    after = (cli.solve, monad.multiply, star_algebra.multiply,
             twistor.QuotientContext.__dict__["reduce"], ncadhm.multiply)
    assert all(a is b for a, b in zip(after, before))


def test_benchmark_json_names_what_the_runs_report():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert tuple(w["name"] for w in bench["workloads"]) == harness.WORKLOADS
    for key, metrics in (("end_to_end", harness.END_TO_END),
                         ("per_layer", harness.PER_LAYER)):
        assert [(m["name"], m["unit"]) for m in bench[key]] == list(metrics)


def test_every_seed_free_operation_is_pinned(tmp_path):
    pinned = harness.pinned_digests()
    for workload in harness.WORKLOADS:
        for smoke in (False, True):
            for p in range(harness.MAX_PASSES):
                for op in harness.build_pass(workload, 0, p, tmp_path, pinned, smoke):
                    assert op.digest_key is None or op.digest_key in pinned, op.argv


def test_no_two_operations_of_a_run_share_an_argv(tmp_path):
    for workload in harness.WORKLOADS:
        argvs = [tuple(op.argv) for p in range(harness.MAX_PASSES)
                 for op in harness.build_pass(workload, 5, p, tmp_path, {})]
        assert len(set(argvs)) == len(argvs), workload


def test_solve_oracle_matches_a_hand_built_solution(tmp_path):
    # the k = 1 classical instanton: B = 0, I = (rho, 0), J = (0, rho)^T
    f = oracles.DataFile(str(tmp_path / "d.json"), 1, oracles.Model("classical"))
    rho = 1.5
    obj = {"k": 1, "B1": [[[0.0, 0.0]]], "B2": [[[0.0, 0.0]]],
           "I": [[[rho, 0.0], [0.0, 0.0]]], "J": [[[0.0, 0.0]], [[rho, 0.0]]]}
    Path(f.path).write_text(json.dumps(obj))
    assert oracles.adhm_defect(f) == 0.0
    obj["I"][0][0][0] += 1e-3
    Path(f.path).write_text(json.dumps(obj))
    assert oracles.adhm_defect(f) == pytest.approx((rho + 1e-3) ** 2 - rho ** 2)


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pipeline", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={"PATH": "/usr/bin:/bin"})
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
