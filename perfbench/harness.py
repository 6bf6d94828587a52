"""Workloads, the timing loop and the metrics of the ncadhm benchmark.

Every operation is one call of ``ncadhm.cli.run(argv)`` in this process
with its output captured: a closed loop with one client, where each call
starts after the previous one has returned and been checked.  A run repeats
its workload's list of operations (a pass) until the time is up; each pass
draws new solve and sample seeds from the workload seed and the pass number,
and shifts the model parameters of the seed-free operations, so no two
operations of a run share an argv.  A time is the median over passes of
each operation's time, summed over the operations of a pass.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracles
from oracles import DataFile, Model
from tracer import Tracer, summarise

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
DIGESTS = Path(__file__).with_name("digests.json")

WORKLOADS = ("symbolic", "curvature", "pipeline")
MIN_PASSES = 2            # a traced run needs one untraced and one traced pass
MAX_PASSES = 16           # digests are pinned for this many passes
IMPORT_REPEATS = 7

CLASSICAL = Model("classical")

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

# timed operation kinds; set-up solves have kind "setup"
KINDS = ("relations", "verify_full", "checks", "solve", "instanton")

SPAN_STATS = (
    "star_algebra.multiply.calls", "star_algebra.multiply.self_s",
    "star_algebra.multiply.terms_in", "star_algebra.multiply.terms_out",
    "star_algebra.normal_form.calls", "star_algebra.normal_form.self_s",
    "star_algebra.adjoint.calls", "star_algebra.adjoint.self_s",
    "hopf_twist.twist_product.calls", "hopf_twist.twist_product.self_s",
    "hopf_twist.derive_relations.calls", "hopf_twist.derive_relations.self_s",
    "hopf_twist.smash_relations.calls", "hopf_twist.smash_relations.self_s",
    "twistor.verify_embeddings.self_s",
    "twistor.QuotientContext.reduce.calls", "twistor.QuotientContext.reduce.self_s",
    "monad.build_monad.calls", "monad.build_monad.self_s",
    "monad.bosonise_monad.self_s", "monad.bosonise_j_map.self_s",
    "monad.monad_residual.self_s", "monad.PolyMatrix.matmul.self_s",
    "adhm_solver.solve.self_s",
    "adhm_solver.constraint_jacobian.calls", "adhm_solver.constraint_jacobian.self_s",
    "adhm_solver.residual_vector.calls", "adhm_solver.moduli_dimension.self_s",
    "instanton.curvature_samples.self_s", "instanton.evaluate_projector.calls",
    "instanton.symbolic_projector_checks.self_s",
    "cli.run.self_s",
)


def _unit(stat):
    return "s" if stat.endswith("_s") else "count"


PER_LAYER = (tuple((name, _unit(name)) for name in SPAN_STATS) + (
    ("hopf_twist.rules_built", "count"),
    ("adhm_solver.trial_steps_per_jacobian", "ratio"),
    ("trace_overhead", "ratio"),
) + tuple((f"cli.{kind}.wall_s", "s") for kind in KINDS))


# -- operations -----------------------------------------------------------------

@dataclass
class Op:
    kind: str
    argv: list
    check: Callable                # (exit code, output text) -> reason or None
    data: DataFile | None = None
    out_file: str | None = None    # output is read from here, not stdout
    digest_key: str | None = None  # seed-free output pinned by digest


@dataclass
class Result:
    op: Op
    op_id: int
    seconds: float
    failure: str | None
    text: str


@functools.cache
def pinned_digests() -> dict:
    with open(DIGESTS) as fh:
        return json.load(fh)


def _solve(data: DataFile, seed: int, kind="setup") -> Op:
    argv = ["solve", "--k", str(data.k), *data.model.flags(), "--seed", str(seed),
            "--tolerance", repr(data.tolerance), "--out", data.path]
    return Op(kind, argv, oracles.solve_check(data), data=data)


def build_pass(workload: str, seed: int, p: int, work: Path, pinned: dict,
               smoke=False) -> list:
    """The operations of pass ``p``; ``smoke`` shrinks every size for tests."""
    rng = random.Random(f"{workload}/{seed}/{p}")

    def draw():
        return rng.randrange(2 ** 31)

    def data(k, model, tag=""):
        return DataFile(str(work / f"p{p}-{model.kind}{k}{tag}.json"), k, model)

    ops = []
    if workload == "symbolic":
        files = [data(1, Model("moyal", hbar=0.25, alpha=1.0, beta=1.0)),
                 data(1, Model("toric", theta=0.25)),
                 data(2, Model("toric", theta=0.3))]
        if smoke:
            files = files[1:2]
        ops += [_solve(f, draw()) for f in files]
        ops += [Op("verify_full", ["verify-monad", "--data", f.path, "--full"],
                   oracles.verify_monad_check(f, full=True), data=f) for f in files]
        k = "1" if smoke else "2"
        for model in (Model("moyal", hbar=0.1, alpha=1.0, beta=2.0 + p / 8),
                      Model("toric", theta=round(0.25 + p / 100, 2))):
            argv = ["relations", *model.flags(), "--space", "MonadM", "--k", k]
            ops.append(_pinned_op("relations", argv, pinned))
    elif workload == "curvature":
        files = [data(k, CLASSICAL) for k in ((1, 2) if smoke else (1, 2, 3))]
        points = 50 if smoke else 2000
        ops += [_solve(f, draw()) for f in files]
        ops += [Op("instanton", ["instanton", "--data", f.path, "--points", str(points),
                                 "--seed", str(draw()), "--check-asd"],
                   oracles.instanton_check(f, points), data=f) for f in files]
    elif workload == "pipeline":
        for k in ((1,) if smoke else (1, 2, 3)):
            for model in (CLASSICAL, Model("moyal", hbar=0.2, alpha=1.0, beta=0.5),
                          Model("toric", theta=0.3)):
                for rep in range(1 if smoke else 2):
                    f = data(k, model, f"-{rep}")
                    ops.append(_solve(f, draw(), kind="solve"))
                    ops.append(Op("checks", ["moduli-dim", "--data", f.path],
                                  oracles.moduli_check(f), data=f))
                    ops.append(Op("checks", ["verify-monad", "--data", f.path],
                                  oracles.verify_monad_check(f, full=False), data=f))
        out = str(work / f"p{p}-twistor.json")
        ops.append(_pinned_op("checks", ["twistor-checks", "--out", out], pinned,
                              out_file=out, key="twistor-checks"))
        for model in (Model("moyal", hbar=0.2, alpha=1.0, beta=0.5 + p / 8),
                      Model("toric", theta=round(0.3 + p / 100, 2))):
            for space in ("C4", "R4", "MonadM"):
                argv = ["relations", *model.flags(), "--space", space]
                if space == "MonadM":
                    argv += ["--k", "1"]
                ops.append(_pinned_op("relations", argv, pinned))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return ops


def _pinned_op(kind, argv, pinned, out_file=None, key=None) -> Op:
    key = key or " ".join(argv)
    return Op(kind, argv, oracles.digest_check(pinned.get(key)),
              out_file=out_file, digest_key=key)


def execute(op: Op, op_id: int = -1, tracer: Tracer | None = None) -> Result:
    """Run one operation through the CLI and check what it emitted."""
    from ncadhm import cli

    if tracer is not None:
        tracer.op_id = op_id
    gc.collect()
    out, crash = io.StringIO(), None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        t0 = time.perf_counter()
        try:
            rc = cli.run(op.argv)
        except Exception as exc:  # a crash fails this operation, not the run
            rc, crash = None, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
    text = out.getvalue()
    if crash is None and rc == 0 and op.out_file is not None:
        try:
            text = Path(op.out_file).read_text()
        except OSError as exc:
            crash = f"no output file: {exc}"
    failure = crash
    if failure is None:
        try:
            failure = op.check(rc, text)
        except (KeyError, TypeError, ValueError) as exc:
            failure = f"malformed output: {type(exc).__name__}: {exc}"
    return Result(op, op_id, seconds, failure, text)


# -- runs -------------------------------------------------------------------------

def import_seconds() -> float:
    """Median time of ``import ncadhm`` in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import ncadhm; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(IMPORT_REPEATS):
        done = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                              capture_output=True, text=True, check=True,
                              timeout=120)
        times.append(float(done.stdout))
    return statistics.median(times)


@dataclass
class Pass:
    traced: bool
    results: list = field(default_factory=list)

    def seconds(self) -> float:
        return sum(r.seconds for r in self.results if r.op.kind != "setup")


def median_pass(passes, kinds) -> float:
    """Median over passes of each operation's time, summed over the
    operations of the given kinds.  Passes share their list of operation
    kinds, so this is the time of a typical pass, robust to a slow spell
    that hits one pass."""
    slots = zip(*(p.results for p in passes))
    return sum(statistics.median(r.seconds for r in slot)
               for slot in slots if slot[0].op.kind in kinds)


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 smoke=False) -> dict:
    """Run passes of ``workload`` for ``seconds`` and return the report.

    With ``trace`` the passes alternate untraced and traced, so the report
    can give the tracing overhead; spans are written to ``OUT_DIR``.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    pinned = pinned_digests()
    import ncadhm

    env = {"workload": workload, "seed": seed, "trace": int(trace),
           "nproc": os.cpu_count(), "python": sys.version.split()[0],
           "numpy": np.__version__, "ncadhm": ncadhm.__version__,
           "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}
    imports = None if trace else import_seconds()
    OUT_DIR.mkdir(exist_ok=True)
    work = OUT_DIR / f"work-{workload}-{seed}-{os.getpid()}"
    work.mkdir()
    tracer = Tracer()
    passes, next_id = [], 0
    start = time.perf_counter()
    try:
        while len(passes) < MIN_PASSES or (
                time.perf_counter() - start < seconds and len(passes) < MAX_PASSES):
            p = len(passes)
            this = Pass(traced=trace and p % 2 == 1)
            if this.traced:
                tracer.install()
            try:
                for op in build_pass(workload, seed, p, work, pinned, smoke):
                    this.results.append(execute(op, next_id, tracer if this.traced else None))
                    next_id += 1
            finally:
                tracer.uninstall()
            passes.append(this)
    finally:
        shutil.rmtree(work)

    results = [r for p in passes for r in p.results]
    env.update(passes=len(passes), attempted=len(results),
               failed=sum(r.failure is not None for r in results),
               pass_wall_s=[round(p.seconds(), 4) for p in passes])
    plain = [p for p in passes if not p.traced]
    split = {f"cli.{kind}.wall_s": median_pass(plain, {kind}) for kind in KINDS}
    if trace:
        metrics = {**_layer_metrics(passes, tracer.spans), **split}
        spans_file = OUT_DIR / f"spans-{workload}-seed{seed}.json"
        with open(spans_file, "w") as fh:
            json.dump({"ops": [[r.op_id, i, r.op.argv] for i, p in enumerate(passes)
                               if p.traced for r in p.results],
                       "spans": [s[:5] for s in tracer.spans]}, fh)
        env["spans_file"] = str(spans_file)
    else:
        metrics = {
            "wall_s": median_pass(plain, KINDS),
            "setup_s": imports + median_pass(plain, {"setup"}),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    return {"env": env, "metrics": metrics, "split": split,
            "failures": [(r.op.argv, r.failure) for r in results if r.failure]}


def _layer_metrics(passes, spans) -> dict:
    """Span statistics per traced pass (median over those passes) and the
    tracing overhead."""
    traced = [p for p in passes if p.traced]
    plain = [p for p in passes if not p.traced]
    per_pass = []
    for p in traced:
        stats = summarise(spans, {r.op_id for r in p.results})
        m = {}
        for name in SPAN_STATS:
            fn, stat = name.rsplit(".", 1)
            m[name] = stats[fn][stat]
        m["hopf_twist.rules_built"] = (
            stats["hopf_twist.derive_relations"]["rules_built"]
            + stats["hopf_twist.smash_relations"]["rules_built"])
        jac = m["adhm_solver.constraint_jacobian.calls"]
        m["adhm_solver.trial_steps_per_jacobian"] = (
            m["adhm_solver.residual_vector.calls"] / jac if jac else 0.0)
        per_pass.append(m)
    metrics = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
    metrics["trace_overhead"] = median_pass(traced, KINDS) / median_pass(plain, KINDS)
    return metrics

