"""Command-line entry point.

Subcommands: relations, twistor-checks, solve, verify-monad, instanton,
charge, moduli-dim.  All output is deterministic JSON (sorted keys); exit
codes: 0 all checks passed, 1 a computational check failed (the report is
still emitted), 2 usage or configuration error.

``run()`` may be called many times in one process.  The calls share one
argument parser, built on the first call: parsing reads the fixed spec and
fills a fresh namespace, so no call sees another's arguments.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from json.encoder import encode_basestring_ascii as _json_str

import numpy as np

from . import __version__
from ._report import Check
from .hopf_twist import (
    ClassicalModel, MoyalModel, ToricModel, derive_relations, ModelMismatch,
)
from .adhm_solver import (
    NoConvergence, NotASolution, SolveConfig, moduli_dimension, solve,
)
from .instanton import (
    ASD_TOL, TRACE_TOL, PointR4, QuadratureBudgetExceeded, SingularRho,
    charge, curvature_samples, quadrature_nodes, symbolic_projector_checks,
)
from .monad import ADHMData, adhm_residual, build_monad, monad_residual
from .star_algebra import C4, R4, RelationSystem, StarAlgebraError
from .twistor import RESIDUAL_TOL, j_squared_residual, verify_embeddings


def _emit(obj, path=None):
    """Write ``obj`` as the text of ``json.dumps(obj, indent=2,
    sort_keys=True)`` and a newline, to stdout or to the --out file.

    The text is written chunk by chunk while it is encoded, so it is never
    held whole.  A relation system, as the value of a top-level key, stands
    for its "rules" array (see ``RelationSystem.streamed_json_dict``):
    ``_rule_chunks`` writes it from a template, and the indented encoder
    writes the rest.  The --out file is opened only now, after the work (it
    may be the --data file), and an error from opening or writing it is a
    usage error.
    """
    chunks = _json_chunks(obj)
    if not path:
        sys.stdout.writelines(chunks)
        sys.stdout.write("\n")
        return
    try:
        with open(path, "w") as fh:
            fh.writelines(chunks)
            fh.write("\n")
    except OSError as exc:
        raise ValueError(f"argument --out: {exc}") from exc


def _json_chunks(obj):
    """The text of ``json.dumps(obj, indent=2, sort_keys=True)``, in
    chunks."""
    encode = json.JSONEncoder(indent=2, sort_keys=True).iterencode
    if not (isinstance(obj, dict)
            and any(isinstance(v, RelationSystem) for v in obj.values())):
        yield from encode(obj)
        return
    sep = "{"
    for key, value in sorted(obj.items()):
        yield f"{sep}\n  {_json_str(key)}: "
        sep = ","
        if isinstance(value, RelationSystem):
            yield from _rule_chunks(value)
        else:
            # a JSON string holds no newline, so this indents every line
            yield "".join(encode(value)).replace("\n", "\n  ")
    yield "\n}"


def _json_float(x) -> str:
    """What ``json`` writes for the float ``x``: its repr when finite."""
    return float.__repr__(x) if -math.inf < x < math.inf else json.dumps(x)


# A rule record at depth 2 of a relations document, and one of its terms
# at depth 5: each placeholder is a leaf or an array (see _array).
_RECORD = ('{\n      "pattern": %s,\n      "rhs": {\n        "terms": %s'
           '\n      }\n    }')
_TERM = ('{\n            "hbar_pow": %d,\n            "im": %s,'
         '\n            "mu_pow": %d,\n            "re": %s,'
         '\n            "word": %s\n          }')
_NEWLINE = tuple("\n" + "  " * depth for depth in range(8))


def _array(items, depth) -> str:
    """The indented text of a JSON array of the encoded ``items`` that is
    a value at nesting ``depth``."""
    if not items:
        return "[]"
    inner = _NEWLINE[depth + 1]
    return "[" + inner + ("," + inner).join(items) + _NEWLINE[depth] + "]"


def _rule_chunks(rel):
    """The "rules" array of ``rel``, a value at depth 1 of a document
    indented as ``_emit`` writes it, one record a chunk.

    Every record has the shape of the rule dicts of
    ``RelationSystem.to_json_dict``, keys sorted, so each is filled into a
    fixed template from the C string encoder (each label encoded once) and
    ``_json_float``.
    """
    if not rel.rules:
        yield "[]"
        return
    label = functools.cache(lambda g: _json_str(g.label()))
    sep = "[" + _NEWLINE[2]
    for pattern, rhs in rel.rule_records():
        terms = [_TERM % (h, _json_float(v.imag), mu, _json_float(v.real),
                          _array(list(map(label, w)), 6))
                 for w, v, h, mu in rhs.json_terms()]
        yield sep + _RECORD % (_array(list(map(label, pattern)), 3),
                               _array(terms, 4))
        sep = "," + _NEWLINE[2]
    yield _NEWLINE[1] + "]"


def _model_from_args(args) -> object:
    try:
        if args.model == "classical":
            return ClassicalModel()
        if args.model == "moyal":
            return MoyalModel(args.hbar, args.alpha, args.beta)
        return ToricModel(args.theta)
    except ModelMismatch as exc:
        # a constructor's range error opens with the name of the parameter,
        # which is also the name of its flag
        flag = str(exc).split()[0]
        raise ModelMismatch(f"argument --{flag}: {exc}") from exc


def _int_at_least(text, least) -> int:
    value = int(text)
    if value < least:
        raise argparse.ArgumentTypeError(
            f"must be at least {least}, got {value}")
    return value


def _positive_int(text) -> int:
    """argparse type for counts and sizes that must be at least 1."""
    return _int_at_least(text, 1)


def _nonnegative_int(text) -> int:
    """argparse type for random seeds, which numpy takes only from 0 up."""
    return _int_at_least(text, 0)


def _positive_float(text) -> float:
    """argparse type for tolerances, which must be finite and above 0."""
    value = float(text)
    if not 0 < value < float("inf"):
        raise argparse.ArgumentTypeError(
            f"must be a positive finite number, got {text}")
    return value


def _resolution(text) -> int:
    """argparse type for a charge quadrature resolution within the budget."""
    value = _positive_int(text)
    try:
        quadrature_nodes(value)
    except QuadratureBudgetExceeded as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc
    return value


def _finite_float(text) -> float:
    """argparse type for real parameters that must be finite."""
    value = float(text)
    if not np.isfinite(value):
        raise argparse.ArgumentTypeError(
            f"must be a finite number, got {text}")
    return value


def _add_model_flags(p):
    p.add_argument("--model", required=True,
                   choices=["classical", "moyal", "toric"])
    p.add_argument("--hbar", type=_finite_float, default=0.0)
    p.add_argument("--alpha", type=_finite_float, default=1.0)
    p.add_argument("--beta", type=_finite_float, default=1.0)
    p.add_argument("--theta", type=_finite_float, default=0.0)


def cmd_relations(args) -> int:
    model = _model_from_args(args)
    space = {"C4": C4, "R4": R4, "MonadM": "MonadM"}[args.space]
    rel = derive_relations(model, space, k=args.k,
                           calculus=not args.no_calculus)
    out = rel.streamed_json_dict()
    out["note"] = ("pairs without an explicit rule commute up to the "
                   "graded sign")
    _emit(out, args.out)
    return 0


def cmd_twistor_checks(args) -> int:
    report = verify_embeddings()
    j2 = j_squared_residual()
    report.checks.append(Check("J_squared", j2 <= RESIDUAL_TOL, j2,
                               RESIDUAL_TOL))
    _emit(report.to_json_dict(), args.out)
    return 0 if report.passed else 1


def cmd_solve(args) -> int:
    model = _model_from_args(args)
    cfg = SolveConfig(rng_seed=args.seed, multistarts=args.multistarts,
                      tolerance=args.tolerance,
                      max_iterations=args.max_iterations)
    try:
        data = solve(args.k, model, zeta=args.zeta, cfg=cfg)
    except NoConvergence as exc:
        _emit({"error": "NoConvergence", "best_residual": exc.best_residual},
              args.out)
        return 1
    except StarAlgebraError as exc:
        # before its starts descend, solve checks zeta against the model
        # level and that the level, set by --hbar, does not overflow the
        # equations at the random starts
        flag = {"zeta": "--zeta", "level": "--hbar"}.get(str(exc).split()[0])
        if flag is None:
            raise
        raise ValueError(f"argument {flag}: {exc}") from exc
    c, h = adhm_residual(data)
    out = data.to_json_dict()
    out["report"] = {"complex_residual": c, "real_residual": h,
                     "seed": args.seed, "multistarts": args.multistarts,
                     "tolerance": cfg.tolerance}
    _emit(out, args.out)
    return 0


def cmd_verify_monad(args) -> int:
    data = _load_data(args.data)
    m = build_monad(data)
    if args.full:
        # its monad_orthogonality check is the normal form of tau sigma
        rep = symbolic_projector_checks(data)
        norm = rep["monad_orthogonality"].residual
    else:
        rep = None
        norm = monad_residual(m, data.model).eval_max_norm(data.model.theta)
    c, h = adhm_residual(data)
    out = {
        "reality_residual": m.reality_residual(),
        "monad_residual": norm,
        "complex_residual": c,
        "real_residual": h,
        "tolerance": args.tolerance,
        "passed": norm <= args.tolerance,
    }
    if rep is not None:
        out["symbolic_checks"] = rep.to_json_dict()
        out["passed"] = out["passed"] and rep.passed
    _emit(out, args.out)
    return 0 if out["passed"] else 1


def cmd_instanton(args) -> int:
    data = _load_classical_data(args.data)
    rng = np.random.default_rng(args.seed)
    pts = [PointR4(complex(a, b), complex(c, d))
           for a, b, c, d in rng.standard_normal((args.points, 4)).tolist()]
    residuals, traces = [], []
    for s in curvature_samples(data, pts):
        residuals.append(s.asd_residual)
        traces.append(float(np.trace(s.Q).real))
    worst = max(residuals)
    trace_error = float(max(abs(t - 2 * data.k) for t in traces))
    out = {
        "points": args.points,
        "seed": args.seed,
        "max_asd_residual": worst,
        "asd_tolerance": ASD_TOL,
        "trace_Q_max_error": trace_error,
        "passed": (not args.check_asd) or (worst <= ASD_TOL
                                           and trace_error <= TRACE_TOL),
    }
    _emit(out, args.out)
    return 0 if out["passed"] else 1


def cmd_charge(args) -> int:
    data = _load_classical_data(args.data)
    q = charge(data, args.resolution)
    out = {"charge": q, "resolution": args.resolution,
           "nearest_integer": round(q),
           "deviation": abs(q - round(q))}
    _emit(out, args.out)
    return 0


def cmd_moduli_dim(args) -> int:
    data = _load_data(args.data)
    try:
        ja = moduli_dimension(data)
    except NotASolution as exc:
        raise ValueError(f"argument --data: not a solution: {exc}") from exc
    out = ja.to_json_dict()
    out["unframed_dimension"] = ja.framed_dimension - ja.frame_rotation_rank
    _emit(out, args.out)
    return 0 if not ja.degenerate else 1


def _load_data(path) -> ADHMData:
    """The ADHM data of a --data file; a defect in it is a usage error."""
    try:
        with open(path) as fh:
            return ADHMData.from_json_dict(json.load(fh))
    except (OSError, ValueError, LookupError, TypeError,
            StarAlgebraError) as exc:
        detail = f"missing key {exc}" if isinstance(exc, KeyError) else exc
        raise ValueError(f"argument --data: {detail}") from exc


def _load_classical_data(path) -> ADHMData:
    """The --data file of a numeric subcommand, which needs the classical
    model; a deformed model is a usage error."""
    data = _load_data(path)
    if data.model.kind != "classical":
        raise ValueError("argument --data: numeric evaluation needs the "
                         "classical model")
    return data


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ncadhm",
        description="ADHM instantons on the plane and its two twisted "
                    "deformations")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("relations", help="emit a derived relation system")
    _add_model_flags(p)
    p.add_argument("--space", choices=["C4", "R4", "MonadM"], default="C4")
    p.add_argument("--k", type=_positive_int, default=1,
                   help="index for the MonadM generator family")
    p.add_argument("--no-calculus", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_relations)

    p = sub.add_parser("twistor-checks", help="run the twistor embedding checks")
    p.add_argument("--out")
    p.set_defaults(func=cmd_twistor_checks)

    p = sub.add_parser("solve", help="solve the deformed ADHM equations")
    _add_model_flags(p)
    p.add_argument("--k", type=_positive_int, required=True)
    p.add_argument("--zeta", type=_finite_float, default=None)
    p.add_argument("--seed", type=_nonnegative_int, default=0)
    p.add_argument("--multistarts", type=_positive_int, default=8)
    p.add_argument("--tolerance", type=_positive_float, default=1e-12)
    p.add_argument("--max-iterations", type=_positive_int, default=200)
    p.add_argument("--out")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify-monad", help="symbolic monad residuals for a data file")
    p.add_argument("--data", required=True)
    p.add_argument("--tolerance", type=_positive_float, default=1e-10)
    p.add_argument("--full", action="store_true",
                   help="also run the smash-algebra projector checks")
    p.add_argument("--out")
    p.set_defaults(func=cmd_verify_monad)

    p = sub.add_parser("instanton", help="projector and curvature samples")
    p.add_argument("--data", required=True)
    p.add_argument("--points", type=_positive_int, default=20)
    p.add_argument("--seed", type=_nonnegative_int, default=0)
    p.add_argument("--check-asd", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_instanton)

    p = sub.add_parser("charge", help="topological charge by quadrature")
    p.add_argument("--data", required=True)
    p.add_argument("--resolution", type=_resolution, default=12)
    p.add_argument("--out")
    p.set_defaults(func=cmd_charge)

    p = sub.add_parser("moduli-dim", help="moduli dimension analysis")
    p.add_argument("--data", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_moduli_dim)

    return ap


def run(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (StarAlgebraError, SingularRho, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
