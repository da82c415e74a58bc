"""Uniform record for a single verified identity or inequality instance."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from numbers import Real
from typing import Any


def _as_float(v) -> float:
    if isinstance(v, complex):
        return abs(v)
    return float(v)


@dataclass(frozen=True)
class IneqCheck:
    """One checked instance, normalized so pass <=> slack >= -tol.

    lhs/rhs/slack keep their exact type (int, Fraction) on exact paths;
    tol == 0 there.  ``detail`` optionally carries a replayable instance.
    """

    name: str
    lhs: Any
    rhs: Any
    slack: Any
    tol: float
    passed: bool
    detail: dict = field(default_factory=dict)

    @classmethod
    def from_le(cls, name: str, lhs, rhs, tol: float = 0.0, detail=None) -> "IneqCheck":
        """Check lhs <= rhs."""
        slack = rhs - lhs
        return cls(name, lhs, rhs, slack, tol, _as_float(slack) >= -tol, detail or {})

    @classmethod
    def from_ge(cls, name: str, lhs, rhs, tol: float = 0.0, detail=None) -> "IneqCheck":
        """Check lhs >= rhs (stored with the normalized orientation)."""
        slack = lhs - rhs
        return cls(name, rhs, lhs, slack, tol, _as_float(slack) >= -tol, detail or {})

    @classmethod
    def from_identity(
        cls, name: str, discrepancy, tol: float = 0.0, detail=None
    ) -> "IneqCheck":
        """Check a two-sided identity via its absolute discrepancy."""
        d = abs(discrepancy)
        return cls(name, d, 0, -d, tol, _as_float(d) <= tol, detail or {})

    def slack_float(self) -> float:
        return _as_float(self.slack)


def _json_number(v):
    if isinstance(v, bool):
        return v
    if isinstance(v, int):
        return v
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, complex):
        return abs(v)
    if isinstance(v, Real):
        return float(v)
    return v
