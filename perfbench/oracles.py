"""Independent checks for the output of every benchmark operation.

Each ``*_check`` returns a function ``(exit_code, output_text) -> str | None``
that gives the reason an operation failed, or None when it passed.  The
checks use closed forms, a residual recomputed here from the emitted file,
or a pinned digest; none of them calls back into ``ncadhm``.
"""

from __future__ import annotations

import cmath
import hashlib
import json
from dataclasses import dataclass

import numpy as np

ASD_TOLERANCE = 1e-6
TRACE_Q_TOLERANCE = 1e-10


@dataclass(frozen=True)
class Model:
    """One deformation model, as the benchmark asks the CLI for it."""

    kind: str                 # "classical", "moyal" or "toric"
    hbar: float = 0.0
    alpha: float = 1.0
    beta: float = 1.0
    theta: float = 0.0

    def flags(self) -> list:
        if self.kind == "moyal":
            return ["--model", "moyal", "--hbar", repr(self.hbar),
                    "--alpha", repr(self.alpha), "--beta", repr(self.beta)]
        if self.kind == "toric":
            return ["--model", "toric", "--theta", repr(self.theta)]
        return ["--model", "classical"]

    @property
    def mu(self) -> complex:
        return cmath.exp(1j * cmath.pi * self.theta) if self.kind == "toric" else 1.0

    @property
    def zeta(self) -> float:
        return self.hbar * (self.alpha + self.beta) if self.kind == "moyal" else 0.0


@dataclass(frozen=True)
class DataFile:
    """A solution file with the equations it must solve."""

    path: str
    k: int
    model: Model

    @property
    def tolerance(self) -> float:
        """The solve tolerance: 1e-12 for k = 1, 1e-10 above."""
        return 1e-12 if self.k == 1 else 1e-10


def adhm_defect(data: DataFile) -> float:
    """Complex plus Hermitian ADHM defect of the file, for the requested model.

    Raises OSError or ValueError when the file is missing or malformed.
    """
    with open(data.path) as fh:
        obj = json.load(fh)
    if int(obj["k"]) != data.k:
        raise ValueError(f"file holds k={obj['k']}, expected k={data.k}")

    def mat(name):
        return np.array([[complex(re, im) for re, im in row] for row in obj[name]])

    def dag(a):
        return a.conj().T

    B1, B2, I, J = mat("B1"), mat("B2"), mat("I"), mat("J")
    mu = data.model.mu
    complex_eq = np.conj(mu) * B1 @ B2 - mu * B2 @ B1 + I @ J
    herm = (B1 @ dag(B1) - dag(B1) @ B1 + B2 @ dag(B2) - dag(B2) @ B2
            + I @ dag(I) - dag(J) @ J - data.model.zeta * np.eye(data.k))
    return float(np.linalg.norm(complex_eq) + np.linalg.norm(herm))


def _input_failure(data: DataFile):
    """Reason the input file is not a solution, or None."""
    try:
        defect = adhm_defect(data)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return f"unreadable data file {data.path}: {exc}"
    if not defect <= data.tolerance:
        return f"input defect {defect:.3e} above {data.tolerance:.1e}"
    return None


def _parse(rc: int, text: str):
    """The emitted JSON object, or the reason there is none."""
    if rc != 0:
        return None, f"exit code {rc}"
    try:
        return json.loads(text), None
    except ValueError:
        return None, "output is not JSON"


def solve_check(data: DataFile):
    def check(rc, text):
        if rc != 0:
            return f"exit code {rc}"
        return _input_failure(data)
    return check


def moduli_check(data: DataFile):
    """Closed forms: raw nullity k^2 + 8k, framed 8k, unframed 8k - 3."""
    k = data.k

    def check(rc, text):
        out, why = _parse(rc, text)
        if why:
            return why
        want = {"raw_nullity": k * k + 8 * k, "framed_dimension": 8 * k,
                "unframed_dimension": 8 * k - 3, "degenerate": False}
        got = {key: out.get(key) for key in want}
        if got != want:
            return f"moduli {got} != {want}"
        return _input_failure(data)
    return check


def verify_monad_check(data: DataFile, full: bool):
    def check(rc, text):
        out, why = _parse(rc, text)
        if why:
            return why
        if out.get("passed") is not True:
            return "passed is not true"
        tol = out["tolerance"]
        for key in ("monad_residual", "reality_residual"):
            if not out[key] <= tol:
                return f"{key} {out[key]:.3e} above {tol:.1e}"
        if not out["complex_residual"] + out["real_residual"] <= data.tolerance:
            return "reported ADHM residual above the solve tolerance"
        if full:
            checks = out.get("symbolic_checks", {}).get("checks", [])
            if not checks:
                return "no symbolic checks reported"
            for c in checks:
                if not (c["passed"] and c["residual"] <= c["tolerance"]):
                    return f"symbolic check {c['name']} residual {c['residual']:.3e}"
        return _input_failure(data)
    return check


def instanton_check(data: DataFile, points: int):
    def check(rc, text):
        out, why = _parse(rc, text)
        if why:
            return why
        if out["points"] != points:
            return f"{out['points']} points reported, {points} asked"
        if not out["max_asd_residual"] <= ASD_TOLERANCE:
            return f"ASD residual {out['max_asd_residual']:.3e}"
        if not out["trace_Q_max_error"] <= TRACE_Q_TOLERANCE:
            return f"trace Q error {out['trace_Q_max_error']:.3e}"
        return _input_failure(data)
    return check


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def digest_check(pinned):
    """Byte identity with the pinned digest (None: nothing pinned)."""
    def check(rc, text):
        if rc != 0:
            return f"exit code {rc}"
        if pinned is None:
            return "no pinned digest for this operation"
        if digest(text) != pinned:
            return "output differs from the pinned bytes"
        return None
    return check
