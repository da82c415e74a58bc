"""Uniform record for a single verified identity or inequality instance."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from numbers import Real
from typing import Any


def _as_float(v) -> float:
    if isinstance(v, complex):
        return abs(v)
    return float(v)


def _within(slack, tol: float) -> bool:
    """slack >= -tol: exactly for an int or a Fraction, whatever its size,
    and through ``_as_float`` for a float or a complex."""
    if isinstance(slack, (int, Fraction)):
        # against the int 0 when tol is 0: a Fraction compares with an int
        # much faster than with the float -0.0
        return slack >= -tol if tol else slack >= 0
    return _as_float(slack) >= -tol


@dataclass(frozen=True, init=False)
class IneqCheck:
    """One checked instance, normalized so pass <=> slack >= -tol.

    lhs/rhs/slack keep their exact type (int, Fraction) on exact paths;
    tol == 0 there, and ``passed`` compares them exactly.  ``detail``
    optionally carries a replayable instance.
    """

    name: str
    lhs: Any
    rhs: Any
    slack: Any
    tol: float
    passed: bool
    detail: dict

    def __init__(self, name, lhs, rhs, slack, tol, passed, detail=None):
        # one dict update: a constructor called for every checked instance
        self.__dict__.update(
            name=name, lhs=lhs, rhs=rhs, slack=slack, tol=tol, passed=passed,
            detail={} if detail is None else detail,
        )

    @classmethod
    def from_le(cls, name: str, lhs, rhs, tol: float = 0.0, detail=None) -> "IneqCheck":
        """Check lhs <= rhs."""
        slack = rhs - lhs
        return cls(name, lhs, rhs, slack, tol, _within(slack, tol), detail)

    @classmethod
    def from_ge(cls, name: str, lhs, rhs, tol: float = 0.0, detail=None) -> "IneqCheck":
        """Check lhs >= rhs (stored with the normalized orientation)."""
        slack = lhs - rhs
        return cls(name, rhs, lhs, slack, tol, _within(slack, tol), detail)

    @classmethod
    def from_identity(
        cls, name: str, discrepancy, tol: float = 0.0, detail=None
    ) -> "IneqCheck":
        """Check a two-sided identity via its absolute discrepancy."""
        d = abs(discrepancy)
        return cls(name, d, 0, -d, tol, _within(-d, tol), detail)

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
