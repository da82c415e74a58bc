"""The check record: exact sides are judged exactly, and the record stays a
frozen value with the dataclass equality and repr."""

import dataclasses
from fractions import Fraction

import pytest

from addcomb.checks import IneqCheck
from addcomb.groups import CyclicGroup, GroupFn, GroupSet
from addcomb.spectral import check_cycle_sums


def test_record_is_a_frozen_value():
    c = IneqCheck("x", 1, 2, 1, 0.0, True)
    assert c == IneqCheck("x", 1, 2, 1, 0.0, True, {})
    assert c != IneqCheck("x", 1, 2, 1, 0.0, True, {"trial": 0})
    assert c.detail == {} and c.detail is not IneqCheck("x", 1, 2, 1, 0.0, True).detail
    assert repr(c) == "IneqCheck(name='x', lhs=1, rhs=2, slack=1, tol=0.0, passed=True, detail={})"
    assert [f.name for f in dataclasses.fields(c)] == [
        "name", "lhs", "rhs", "slack", "tol", "passed", "detail"]
    with pytest.raises(dataclasses.FrozenInstanceError):
        c.passed = False


TINY = Fraction(1, 10 ** 400)  # rounds to 0.0 as a float


# id -> (constructor, arguments after the name, passed)
EXACT_CASES = {
    # a Fraction slack below 0 by less than the smallest float fails
    "le-tiny-negative": ("from_le", (TINY, 0), False),
    "ge-tiny-negative": ("from_ge", (0, TINY), False),
    "identity-tiny": ("from_identity", (TINY,), False),
    "le-tiny-positive": ("from_le", (0, TINY), True),
    "identity-zero-fraction": ("from_identity", (Fraction(0),), True),
    # slacks past the float range compare without OverflowError
    "le-huge-int": ("from_le", (0, 10 ** 400), True),
    "ge-huge-int": ("from_ge", (0, 10 ** 400), False),
    "ge-huge-fraction": ("from_ge", (Fraction(10 ** 400, 3), 1), True),
    "identity-huge-int": ("from_identity", (-(10 ** 400),), False),
    # an exact slack against a nonzero tolerance, and the float paths
    "le-fraction-at-tol": ("from_le", (1, Fraction(1, 2), 0.5), True),
    "le-fraction-past-tol": ("from_le", (1, Fraction(1, 3), 0.5), False),
    "le-float-within-tol": ("from_le", (1.0, 1.0 - 1e-12, 1e-9), True),
    "le-float-past-tol": ("from_le", (1.0, 1.0 - 1e-6, 1e-9), False),
    "identity-complex-within-tol": ("from_identity", (3e-10 + 4e-10j, 1e-9), True),
}


@pytest.mark.parametrize("case", sorted(EXACT_CASES))
def test_exact_slacks_are_decided_exactly(case):
    ctor, args, passed = EXACT_CASES[case]
    assert getattr(IneqCheck, ctor)(case, *args).passed is passed


def test_huge_integer_kernel_cycle_rows_are_reported():
    """h = (2^200, 1, 0, ..., 0) on Z/8 and A = {0, 1, 3}: the cycle sums
    and the Rayleigh powers are exact, far past the float range, and each
    row is judged exactly instead of raising OverflowError."""
    g = CyclicGroup(8)
    a = GroupSet.of(g, [0, 1, 3])
    h = GroupFn(g, [2 ** 200, 1] + [0] * 6)
    rows = check_cycle_sums(a, h)
    assert [c.name for c in rows] == [f"kernel-cycle-bound-k{k}" for k in (3, 4, 5)]
    for c in rows:
        assert type(c.slack) is Fraction and c.slack > 2 ** 1000 and c.passed
