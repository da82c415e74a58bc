"""The two operand rules every entry applies before any work.

Operands on different moduli raise one ``ValueError`` (``groups._require_same_group``),
and a table or an enumeration over Gr^k with more than ``TUPLE_CELL_CAP``
points raises another (``groups._check_cell_cap``).  Either way nothing is
computed: no ``autocorrelation`` or shift profile is cached on an operand.
"""

import pytest

from addcomb.config import TUPLE_CELL_CAP
from addcomb.energy import (
    check_energy_weight_a,
    check_energy_weight_b,
    check_heart,
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
CAP = "N^k exceeds the dense tuple cap"


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
    "energy.check_weight_inequality": lambda o: check_weight_inequality(o["a"], o["b"], [1] * 7),
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


def _cap_operands(n):
    group = CyclicGroup(n)
    return group, GroupSet.of(group, [0, 1, 3]), GroupSet.of(group, [0, 2, 3, 7])


# every entry that builds a table or enumerates cells over Gr^k, at the
# smallest modulus whose N^k passes the cap
N1, N2, N3 = TUPLE_CELL_CAP + 1, 1001, 101
assert N1 > TUPLE_CELL_CAP and N2 ** 2 > TUPLE_CELL_CAP >= (N2 - 1) ** 2
assert N3 ** 3 > TUPLE_CELL_CAP >= (N3 - 1) ** 3
CAP_CALLS = {
    "groups.GroupFn-k1": (N1, lambda g, a, b: GroupFn(g, [0] * N1)),
    "groups.GroupFn.of-k2": (N2, lambda g, a, b: GroupFn.of(g, [0] * N2 ** 2, 2)),
    "groups.GroupFn.of-k3": (N3, lambda g, a, b: GroupFn.of(g, [0] * N3 ** 3, 3)),
    "groups.tuple_sumset_with_diagonal-k2": (N2, lambda g, a, b: tuple_sumset_with_diagonal([a, a], b)),
    "groups.tuple_sumset_with_diagonal-k3": (N3, lambda g, a, b: tuple_sumset_with_diagonal([a] * 3, b)),
    "groups.diag_shift_size-l2": (N2, lambda g, a, b: diag_shift_size(a, b, 2)),
    "energy.shift_spread_sizes": (N1, lambda g, a, b: shift_spread_sizes(a)),
    "energy.check_heart": (N1, lambda g, a, b: check_heart(a)),
    "energy.weight_counts-k1": (N1, lambda g, a, b: weight_counts(a, b, 1)),
    "energy.weight_counts-k2": (N2, lambda g, a, b: weight_counts(a, b, 2)),
    "energy.energy_k_shift_sum": (N2, lambda g, a, b: energy_k_shift_sum(a, b, 3)),
    "energy.check_weight_inequality": (N2, lambda g, a, b: check_weight_inequality(a, b, [1] * N2 ** 2, 2)),
    "energy.check_energy_weight_a": (N2, lambda g, a, b: check_energy_weight_a(a, None, 2)),
    "energy.check_energy_weight_b": (N2, lambda g, a, b: check_energy_weight_b(a, b, 2)),
    "energy.check_membership_identity-k1l2": (N3, lambda g, a, b: check_membership_identity(a, b, 1, 2)),
    "energy.check_membership_identity-k2l1": (N3, lambda g, a, b: check_membership_identity(a, b, 2, 1)),
}


@pytest.mark.parametrize("name", sorted(CAP_CALLS))
def test_cell_cap_raises_before_any_work(name):
    n, call = CAP_CALLS[name]
    group, a, b = _cap_operands(n)
    with pytest.raises(ValueError) as err:
        call(group, a, b)
    assert str(err.value) == CAP
    _nothing_cached(a, b)
