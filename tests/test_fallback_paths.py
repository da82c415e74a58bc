"""The bitmask counting kernels agree with plain set enumeration, at small
moduli and at moduli above 4096.

Small moduli use dense random sets; the large ones use sparse sets of 10-20
elements, where the oracles in tests/oracle.py stay cheap.
"""

import importlib
import random

from addcomb.energy import (
    correlation_counts,
    shift_spread_sizes,
    weight_counts,
)
from addcomb.groups import CyclicGroup, GroupSet, intersect_shifts, sumset

import oracle

# the package re-exports a function named `energy`, so fetch the module
# itself through the import system
energy_mod = importlib.import_module("addcomb.energy")

SMALL = (11, 13, 16)
LARGE = (4099, 4201)


def rand_set(rng, n):
    if n in LARGE:
        return GroupSet.of(CyclicGroup(n), rng.sample(range(n), rng.randint(10, 20)))
    return GroupSet.of(
        CyclicGroup(n), [x for x in range(n) if rng.random() < 0.5] or [0]
    )


def instances(seed, per_modulus):
    rng = random.Random(seed)
    for n in SMALL + LARGE:
        for _ in range(per_modulus):
            yield n, rand_set(rng, n), rand_set(rng, n), rng


def test_intersect_shifts_paths_agree():
    for n, a, b, rng in instances(1, 10):
        for m in (1, 2, 3):
            for signs in (["-"] * m, ["+"] * m, [rng.choice("+-") for _ in range(m)]):
                # every shift keeps one element c of B, so the intersection
                # stays nonempty at large N: c in A - s and c in s - A
                c = rng.choice(b.members)
                shifts = [
                    rng.choice(a.members) + (c if sg == "+" else -c) for sg in signs
                ]
                got = intersect_shifts(a, b, shifts, signs)
                assert c in got
                want = oracle.shifted_intersection(a.members, b.members, shifts, signs, n)
                assert set(got.members) == want


def test_sumset_paths_agree():
    for n, a, b, _ in instances(2, 8):
        for sign in "+-":
            got = sumset(a, b, sign)
            assert set(got.members) == oracle.sumset_naive(a.members, b.members, n, sign)


def test_energy_tables_paths_agree():
    for n, a, b, _ in instances(3, 4):
        assert list(correlation_counts(a, b)) == oracle.correlation(a.members, b.members, n)
        # |B ∩ (A - x)| = (B ∘ A)(x)
        want = oracle.correlation(b.members, a.members, n)
        assert weight_counts(a, b, 1) == {(x,): want[x] for x in range(n)}
        for sign in "+-":
            assert list(shift_spread_sizes(a, sign)) == oracle.shift_spreads(a.members, n, sign)


def test_fast_and_slow_checks_match():
    """check_heart and check_energy_weight_b give the oracle's exact sides."""
    for n, a, b, _ in instances(4, 3):
        for sign in "+-":
            heart = energy_mod.check_heart(a, sign)
            assert (heart.lhs, heart.rhs) == oracle.heart_sides(a.members, n, sign)
            wb = energy_mod.check_energy_weight_b(a, b, 1, 1, sign)
            assert (wb.lhs, wb.rhs) == oracle.energy_weight_b_sides(
                a.members, b.members, n, sign
            )
