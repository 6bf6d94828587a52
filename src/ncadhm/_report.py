"""Named pass/fail checks with residuals, shared across modules."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class Check:
    name: str
    passed: bool
    residual: float
    tolerance: float

    def to_json_dict(self):
        return {"name": self.name, "passed": bool(self.passed),
                "residual": float(self.residual),
                "tolerance": float(self.tolerance)}


@dataclass
class Report:
    checks: list

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def __getitem__(self, name: str) -> Check:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def to_json_dict(self):
        return {"passed": self.passed,
                "checks": [c.to_json_dict() for c in self.checks]}

    def summary(self) -> str:
        lines = []
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            lines.append(f"{status} {c.name}: residual {c.residual:.3e} "
                         f"(tol {c.tolerance:.1e})")
        return "\n".join(lines)
