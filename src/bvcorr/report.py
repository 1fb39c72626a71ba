"""Check reports shared by every layer: a count of instances and the failures."""

from __future__ import annotations


class Violation:
    """One failed instance: its arity, where it failed and the residual."""

    def __init__(self, arity: int, where: tuple, residual, kind: str = "relation"):
        self.arity = arity
        self.where = where
        self.residual = residual
        self.kind = kind

    def __repr__(self):
        return f"Violation({self.arity!r}, {self.where!r}, {self.residual!r}, {self.kind!r})"


class Report:
    """The number of instances checked and the violations found, in order."""

    def __init__(self):
        self.checks = 0
        self.violations = []

    @property
    def ok(self) -> bool:
        return not self.violations

    def first_failure_arity(self, kind: str | None = None):
        for v in self.violations:
            if kind is None or v.kind == kind:
                return v.arity
        return None

    def has_kind(self, kind: str) -> bool:
        return any(v.kind == kind for v in self.violations)

    def add(self, arity, where, residual, kind: str = "relation") -> None:
        self.violations.append(Violation(arity, where, residual, kind))

    def __repr__(self):
        status = "pass" if self.ok else f"{len(self.violations)} violations"
        return f"Report({self.checks} checks, {status})"
