"""The two operand rules every entry applies before any work.

Operands on different moduli raise one ``ValueError`` (``groups._require_same_group``),
and a table or an enumeration that would build more than ``TUPLE_CELL_CAP``
cells raises another (``groups._check_cells``): a dense table over Gr^k
counts its N^k points, a shift system the |A - B|^k candidate cells it
builds.  Either way nothing is computed: no ``autocorrelation`` or shift
profile is cached on an operand.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

import oracle

from addcomb.config import TUPLE_CELL_CAP
from addcomb.energy import (
    check_energy_weight_a,
    check_energy_weight_b,
    check_heart,
    check_katz_koester,
    check_membership_identity,
    check_weight_inequality,
    correlation_counts,
    energy,
    energy_k,
    energy_k_shift_sum,
    shift_spread_sizes,
    weight_counts,
)
from addcomb.groups import (
    CyclicGroup,
    GroupFn,
    GroupSet,
    diag_shift_size,
    intersect_shifts,
    sumset,
    tuple_sumset_with_diagonal,
)
from addcomb.spectral import (
    build_restricted_operator,
    check_cycle_sums,
    check_triangle_inequality,
    cycle_sums,
    first_eigenfunction_bounds,
    rayleigh_indicator,
    triangle_sum,
)
from addcomb.transform import (
    check_commutation,
    convolve,
    correlate,
    correlate_many,
    gen_convolution,
)

MIXED = "operands live on different moduli"
CAP = "cell count exceeds the dense tuple cap"


def _nothing_cached(*operands):
    for x in operands:
        assert "autocorrelation" not in vars(x), x
        assert not vars(x).get("_shift_profiles"), x


def _mixed_operands():
    """A = {1, 2, 4} in Z/7 with B = {1, 3, 9, 12} in Z/13, and functions on
    either modulus: f on Z/7, g and h (a kernel and a kernel factor) on Z/13."""
    z7, z13 = CyclicGroup(7), CyclicGroup(13)
    return {
        "a": GroupSet.of(z7, [1, 2, 4]),
        "b": GroupSet.of(z13, [1, 3, 9, 12]),
        "f": GroupFn(z7, [1, 0, 2, 0, 1, 0, 3]),
        "g": GroupFn(z13, list(range(13))),
        "h": GroupFn(z13, [1, 1, 0, 2] + [0] * 9),
    }


# every public function of groups, transform, energy and spectral that takes
# two or more sets or functions, with operands on Z/7 and Z/13
MIXED_CALLS = {
    "groups.intersect_shifts": lambda o: intersect_shifts(o["a"], o["b"], [1]),
    "groups.sumset": lambda o: sumset(o["a"], o["b"]),
    "groups.tuple_sumset_with_diagonal": lambda o: tuple_sumset_with_diagonal([o["a"], o["a"]], o["b"]),
    "groups.diag_shift_size-l1": lambda o: diag_shift_size(o["a"], o["b"], 1),
    "groups.diag_shift_size-l2": lambda o: diag_shift_size(o["a"], o["b"], 2),
    "groups.GroupFn.dot": lambda o: o["f"].dot(o["g"]),
    "groups.GroupFn.outer": lambda o: o["f"].outer(o["g"]),
    "transform.convolve": lambda o: convolve(o["f"], o["g"]),
    "transform.correlate": lambda o: correlate(o["f"], o["g"]),
    "transform.correlate_many": lambda o: correlate_many([o["f"], o["f"], o["g"]]),
    "transform.gen_convolution": lambda o: gen_convolution([o["f"], o["g"]]),
    "transform.check_commutation": lambda o: check_commutation([[o["f"], o["f"]], [o["f"], o["g"]]]),
    "energy.correlation_counts": lambda o: correlation_counts(o["a"], o["b"]),
    "energy.energy": lambda o: energy(o["a"], o["b"]),
    "energy.energy_k": lambda o: energy_k(o["a"], o["b"], 3),
    "energy.energy_k-real": lambda o: energy_k(o["a"], o["b"], 2.5),
    "energy.energy_k_shift_sum": lambda o: energy_k_shift_sum(o["a"], o["b"], 2),
    "energy.energy_k_shift_sum-k1": lambda o: energy_k_shift_sum(o["a"], o["b"], 1),
    "energy.weight_counts": lambda o: weight_counts(o["a"], o["b"], 1),
    "energy.check_weight_inequality": lambda o: check_weight_inequality(o["a"], o["b"], o["f"]),
    "energy.check_weight_inequality-weight": lambda o: check_weight_inequality(o["a"], o["a"], o["g"]),
    "energy.check_energy_weight_a": lambda o: check_energy_weight_a(o["a"], o["b"]),
    "energy.check_energy_weight_b": lambda o: check_energy_weight_b(o["a"], o["b"]),
    "energy.check_membership_identity": lambda o: check_membership_identity(o["a"], o["b"]),
    "spectral.build_restricted_operator": lambda o: build_restricted_operator(o["a"], o["g"]),
    "spectral.triangle_sum": lambda o: triangle_sum(o["a"], o["g"]),
    "spectral.rayleigh_indicator": lambda o: rayleigh_indicator(o["a"], o["g"]),
    "spectral.check_triangle_inequality": lambda o: check_triangle_inequality(o["a"], o["h"]),
    "spectral.cycle_sums": lambda o: cycle_sums(o["a"], o["g"], (3,)),
    "spectral.check_cycle_sums": lambda o: check_cycle_sums(o["a"], o["h"]),
    "spectral.first_eigenfunction_bounds": lambda o: first_eigenfunction_bounds(o["a"], o["h"]),
}


@pytest.mark.parametrize("name", sorted(MIXED_CALLS))
def test_mixed_moduli_raise_one_error_before_any_work(name):
    ops = _mixed_operands()
    with pytest.raises(ValueError) as err:
        MIXED_CALLS[name](ops)
    assert str(err.value) == MIXED
    _nothing_cached(*ops.values())


N1, N2, N3 = TUPLE_CELL_CAP + 1, 1001, 101
assert N1 > TUPLE_CELL_CAP and N2 ** 2 > TUPLE_CELL_CAP >= (N2 - 1) ** 2
assert N3 ** 3 > TUPLE_CELL_CAP >= (N3 - 1) ** 3


def _dense_operands(n):
    """Z/N and a set A = B with A - A all of Z/N, so a shift system over
    Gr^k has N^k candidate cells: all of Z/N up to N2, else
    [0, s) ∪ s·[0, s) for s = ⌈√N⌉, whose differences i - s j cover
    s^2 >= N consecutive residues."""
    group = CyclicGroup(n)
    s = math.isqrt(n - 1) + 1
    dense = GroupSet.of(group, range(n) if n <= N2 else [*range(s), *range(0, s * s, s)])
    return group, dense, dense


# every entry that builds a table or enumerates cells over Gr^k, at the
# smallest modulus whose N^k passes the cap, on a dense set: its N^k
# candidate cells pass the cap too (for the membership identity, its
# N^(k+l) pairs of a k-cell and an l-cell)
CAP_CALLS = {
    "groups.GroupFn-k1": (N1, lambda g, a, b: GroupFn(g, [0] * N1)),
    "groups.GroupFn-k2": (N2, lambda g, a, b: GroupFn(g, np.zeros((N2, N2), dtype=np.int64))),
    "groups.GroupFn-k3": (N3, lambda g, a, b: GroupFn(g, np.zeros((N3,) * 3, dtype=np.int64))),
    "groups.tuple_sumset_with_diagonal-k2": (N2, lambda g, a, b: tuple_sumset_with_diagonal([a, a], b)),
    "groups.tuple_sumset_with_diagonal-k3": (N3, lambda g, a, b: tuple_sumset_with_diagonal([a] * 3, b)),
    "groups.diag_shift_size-l2": (N2, lambda g, a, b: diag_shift_size(a, b, 2)),
    "energy.shift_spread_sizes": (N1, lambda g, a, b: shift_spread_sizes(a)),
    "energy.check_heart": (N1, lambda g, a, b: check_heart(a)),
    "energy.check_katz_koester": (N1, lambda g, a, b: check_katz_koester(a)),
    "energy.weight_counts-k1": (N1, lambda g, a, b: weight_counts(a, b, 1)),
    "energy.weight_counts-k2": (N2, lambda g, a, b: weight_counts(a, b, 2)),
    "energy.energy_k_shift_sum": (N2, lambda g, a, b: energy_k_shift_sum(a, b, 3)),
    # a weight over Gr^2 is refused as it is built
    "energy.check_weight_inequality": (
        N2, lambda g, a, b: check_weight_inequality(a, b, GroupFn.constant(g).outer(GroupFn.constant(g)), 2)
    ),
    "energy.check_energy_weight_a": (N2, lambda g, a, b: check_energy_weight_a(a, None, 2)),
    "energy.check_energy_weight_b": (N2, lambda g, a, b: check_energy_weight_b(a, b, 2)),
    "energy.check_membership_identity-k1l2": (N3, lambda g, a, b: check_membership_identity(a, b, 1, 2)),
    "energy.check_membership_identity-k2l1": (N3, lambda g, a, b: check_membership_identity(a, b, 2, 1)),
}


@pytest.mark.parametrize("name", sorted(CAP_CALLS))
def test_cell_cap_raises_before_any_work(name):
    n, call = CAP_CALLS[name]
    group, a, b = _dense_operands(n)
    with pytest.raises(ValueError) as err:
        call(group, a, b)
    assert str(err.value) == CAP
    _nothing_cached(a, b)


def _sides(check):
    return check.lhs, check.rhs


def _energy_weight_sides(a, b, n, k):
    """Both sides of check_energy_weight_a and of check_energy_weight_b at
    l = 1 and sign '-', from the oracle's cells over the candidate shifts
    (A - B)^k: every other cell is empty and adds nothing."""
    shifts = sorted({(x - y) % n for x in a for y in b})
    cells = list(oracle.weight_cells_naive(a, b, k, n, "-", shifts).values())
    ra, rb = oracle.correlation(a, a, n), oracle.correlation(b, b, n)
    e_mid = sum(u * v ** k for u, v in zip(rb, ra))  # E_(k+1)(B, A)
    e_high = sum(u * v ** (k + 1) for u, v in zip(rb, ra))  # E_(k+2)(B, A)
    s = sum(d * c * c for c, d in cells)
    quotients = sum((Fraction(c * c, d) for c, d in cells if c), Fraction(0))
    na2 = len(a) ** 2
    return (na2 * e_mid ** 2, e_high * s), (na2 * quotients, e_high)


# the entries that enumerate shift cells, at the same moduli as CAP_CALLS
# on A = {0, 1, 3} and B = {0, 2, 3, 7}: they build at most |A - B|^k cells
# whatever N is, so they run and give the oracle's values
CELL_CALLS = {
    "energy.shift_spread_sizes": (
        N1, lambda a, b: list(shift_spread_sizes(a)),
        lambda a, b, n: oracle.shift_spreads(a, n, "-"),
    ),
    "energy.check_heart": (
        N1, lambda a, b: _sides(check_heart(a)),
        lambda a, b, n: oracle.heart_sides(a, n, "-"),
    ),
    "energy.check_katz_koester": (
        N1, lambda a, b: [(*_sides(c), c.detail["x"]) for s in "+-" for c in check_katz_koester(a, s)],
        lambda a, b, n: [row for s in "+-" for row in oracle.katz_koester_rows(a, n, s)],
    ),
    "energy.energy_k_shift_sum": (
        N2, lambda a, b: energy_k_shift_sum(a, b, 3),
        lambda a, b, n: sum(
            u * v * v for u, v in zip(oracle.correlation(a, a, n), oracle.correlation(b, b, n))
        ),
    ),
    "energy.check_energy_weight_a": (
        N2, lambda a, b: _sides(check_energy_weight_a(a, b, 2)),
        lambda a, b, n: _energy_weight_sides(a, b, n, 2)[0],
    ),
    "energy.check_energy_weight_b": (
        N2, lambda a, b: _sides(check_energy_weight_b(a, b, 2)),
        lambda a, b, n: _energy_weight_sides(a, b, n, 2)[1],
    ),
    # both rows are identities: the oracle's discrepancy is 0
    "energy.check_membership_identity-k1l2": (
        N3, lambda a, b: [(c.lhs, c.passed) for c in check_membership_identity(a, b, 1, 2)],
        lambda a, b, n: [(0, True)] * 2,
    ),
    "energy.check_membership_identity-k2l1": (
        N3, lambda a, b: [(c.lhs, c.passed) for c in check_membership_identity(a, b, 2, 1)],
        lambda a, b, n: [(0, True)] * 2,
    ),
}


@pytest.mark.parametrize("name", sorted(CELL_CALLS))
def test_shift_cells_at_the_cap_moduli_match_the_oracle(name):
    n, call, want = CELL_CALLS[name]
    group = CyclicGroup(n)
    a, b = GroupSet.of(group, [0, 1, 3]), GroupSet.of(group, [0, 2, 3, 7])
    assert call(a, b) == want(a.members, b.members, n)
