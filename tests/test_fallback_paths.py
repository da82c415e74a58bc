"""The exact counting kernels agree with plain set enumeration, at small
moduli and at moduli above 4096: the pair-count kernel
``groups.difference_counts`` behind correlations, sumsets and the cached
``GroupSet.autocorrelation``, the shifted-intersection gather, and the
shift-system matrices in ``energy``.

Small moduli use dense random sets; the large ones use sparse sets of 10-20
elements, where the oracles in tests/oracle.py stay cheap.  Edge instances
add empty and one-element sets and N = 1; one dense case at N = 4099 spans
several row blocks of the pair-count kernel.
"""

import importlib
import random

import numpy as np

from addcomb import groups
from addcomb.energy import (
    correlation_counts,
    energy,
    shift_spread_sizes,
    weight_counts,
)
from addcomb.experiments import autocorrelation_np, sumset_size_np
from addcomb.groups import CyclicGroup, GroupFn, GroupSet, intersect_shifts, sumset

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


def edge_instances(seed):
    """Empty and one-element sets against random ones, at N = 1, 2, 11 and
    4099: the kernel then counts no pairs or a single one."""
    rng = random.Random(seed)
    for n in (1, 2, 11, 4099):
        g = CyclicGroup(n)
        empty, single = GroupSet(g, ()), GroupSet.of(g, [rng.randrange(n)])
        other = rand_set(rng, n)
        for a, b in ((empty, other), (other, empty), (empty, empty),
                     (single, other), (other, single), (single, single)):
            yield n, a, b, rng


def test_intersect_shifts_paths_agree():
    for n, a, b, rng in edge_instances(8):
        for signs in (["-"], ["+"], ["+", "-", "+"]):
            shifts = [rng.randint(-2 * n, 2 * n) for _ in signs]
            got = intersect_shifts(a, b, shifts, signs)
            assert set(got.members) == oracle.shifted_intersection(
                a.members, b.members, shifts, signs, n)
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
    for n, a, b, _ in [*instances(2, 8), *edge_instances(9)]:
        for sign in "+-":
            got = sumset(a, b, sign)
            assert set(got.members) == oracle.sumset_naive(a.members, b.members, n, sign)
        want = len(oracle.sumset_naive(a.members, b.members, n, "+"))
        assert sumset_size_np(a.members, b.members, n) == want


def test_energy_tables_paths_agree():
    """Correlations, the cached autocorrelation, energies, cell sizes and
    spreads against enumeration; energy() no longer checks itself, so the
    quadruple count is its only cross-check here."""
    for n, a, b, _ in [*instances(3, 4), *edge_instances(10)]:
        assert list(correlation_counts(a, b)) == oracle.correlation(a.members, b.members, n)
        want_aa = oracle.correlation(a.members, a.members, n)
        assert list(a.autocorrelation.values) == want_aa
        assert autocorrelation_np(a.members, n).tolist() == want_aa
        assert energy(a, b) == oracle.quadruple_energy(a.members, b.members, n)
        # |B ∩ (A - x)| = (B ∘ A)(x)
        want = oracle.correlation(b.members, a.members, n)
        assert weight_counts(a, b, 1).flat == tuple(want)
        for sign in "+-":
            assert list(shift_spread_sizes(a, sign)) == oracle.shift_spreads(a.members, n, sign)


def test_pair_count_row_blocks():
    """Dense sets at N = 4099 whose pair counts span several row blocks of
    difference_counts, the last one ragged."""
    rng = random.Random(11)
    n = 4099
    g = CyclicGroup(n)
    a = GroupSet.of(g, rng.sample(range(n), 2100))
    b = GroupSet.of(g, rng.sample(range(n), 1500))
    for rows, cols in ((a, b), (b, a), (a, a)):
        step = groups._PAIR_BLOCK // len(cols)
        assert len(rows) > step and len(rows) % step
    assert list(correlation_counts(a, b)) == oracle.correlation(a.members, b.members, n)
    want_aa = oracle.correlation(a.members, a.members, n)
    assert list(a.autocorrelation.values) == want_aa
    assert autocorrelation_np(a.members, n).tolist() == want_aa
    for sign in "+-":
        want = oracle.sumset_naive(a.members, b.members, n, sign)
        assert set(sumset(a, b, sign).members) == want
    # 3.15M pairs: below the FFT switch of sumset_size_np, so the kernel runs
    assert sumset_size_np(a.members, b.members, n) == len(
        oracle.sumset_naive(a.members, b.members, n, "+"))


def test_fast_and_slow_checks_match():
    """check_heart, check_energy_weight_b and check_weight_inequality give
    the oracle's exact sides."""
    qrng = random.Random(5)
    for n, a, b, _ in instances(4, 3):
        # about a fifth of the weights are 0: those cells must be skipped
        q = GroupFn(a.group, [qrng.randint(-2, 2) for _ in range(n)])
        for sign in "+-":
            wq = energy_mod.check_weight_inequality(a, b, q, 1, 1, sign)
            assert (wq.lhs, wq.rhs) == oracle.weight_inequality_sides(
                a.members, b.members, q.values, n, sign
            )
            heart = energy_mod.check_heart(a, sign)
            assert (heart.lhs, heart.rhs) == oracle.heart_sides(a.members, n, sign)
            wb = energy_mod.check_energy_weight_b(a, b, 1, 1, sign)
            assert (wb.lhs, wb.rhs) == oracle.energy_weight_b_sides(
                a.members, b.members, n, sign
            )


def weight_sides(a, b, q, k, n, sign):
    """The oracle's exact sides of check_weight_inequality (weight q, flat
    row-major over Gr^k) and of check_energy_weight_a, both at l = 1."""
    cells = oracle.weight_cells_naive(a.members, b.members, k, n, sign).values()
    ra = oracle.correlation(a.members, a.members, n)
    rb = oracle.correlation(b.members, b.members, n)
    e_mid = sum(u * v ** k for u, v in zip(rb, ra))
    e_high = sum(u * v ** (k + 1) for u, v in zip(rb, ra))
    lin = sum(qx * cnt for qx, (cnt, _) in zip(q, cells))
    quad = sum(qx * qx * spread for qx, (_, spread) in zip(q, cells))
    s = sum(spread * cnt * cnt for cnt, spread in cells)
    na2 = len(a) ** 2
    return (na2 * lin * lin, e_high * quad), (na2 * e_mid ** 2, e_high * s)


def test_weight_cells_match_set_enumeration():
    """The shift-system kernel gives the oracle's cell sizes and spreads:
    weight_counts and the exact sides of the weighted and unweighted bounds,
    for k = 1 and 2 at small moduli and k = 1 above 4096, with B != A, a
    weight with zeros, and one-element sets."""
    rng = random.Random(6)
    cases = [(n, k) for n in SMALL for k in (1, 2)] + [(n, 1) for n in LARGE]
    for n, k in cases:
        g = CyclicGroup(n)
        a, b = rand_set(rng, n), rand_set(rng, n)
        assert a != b
        pairs = [(a, b), (GroupSet.of(g, [rng.randrange(n)]), b),
                 (a, GroupSet.of(g, [rng.randrange(n)]))]
        for x, y in pairs:
            q = [rng.randint(-2, 2) for _ in range(n ** k)]
            assert 0 in q
            weight = GroupFn(g, np.array(q).reshape((n,) * k))
            for sign in "+-":
                cells = oracle.weight_cells_naive(x.members, y.members, k, n, sign)
                assert weight_counts(x, y, k).flat == tuple(c for c, _ in cells.values())
                want_q, want_a = weight_sides(x, y, q, k, n, sign)
                wq = energy_mod.check_weight_inequality(x, y, weight, k, 1, sign)
                assert (wq.lhs, wq.rhs) == want_q
                wa = energy_mod.check_energy_weight_a(x, y, k, 1, sign)
                assert (wa.lhs, wa.rhs) == want_a


def _cells_by_row(a, b, k):
    """The kernel's coordinate rows and, on each row, its cell over B."""
    coords, cells, _, inv, _ = energy_mod._shift_cells(energy_mod._pair_batch([(a, b)]), k)
    return coords, cells[0][inv]


def test_shift_duality_counts_match_enumeration():
    """Per-x counts of check_membership_identity: the k-cells met by some
    nonempty l-cell, against tuple enumeration."""
    rng = random.Random(7)
    for n, k, l in ((11, 1, 1), (16, 1, 1), (7, 1, 2), (7, 2, 1), (8, 2, 1)):
        a, b = rand_set(rng, n), rand_set(rng, n)
        want = oracle.shift_duality_counts(a.members, b.members, k, l, n)
        coords, cells_k = _cells_by_row(a, b, k)
        _, cells_l = _cells_by_row(a, b, l)
        counts = energy_mod._hits(cells_k, cells_l.T).sum(1)
        got = dict(zip(map(tuple, coords.tolist()), counts.tolist()))
        assert [got.get(x, 0) for x in want] == list(want.values())
        assert all(c.passed for c in energy_mod.check_membership_identity(a, b, k, l))
