"""Property-based invariants on small random instances."""

import hypothesis.strategies as st
from hypothesis import given, settings

from addcomb.energy import (
    check_heart,
    check_katz_koester,
    correlation_counts,
    energy,
    energy_k,
)
from addcomb.groups import CyclicGroup, GroupSet, intersect_shifts, sumset
from addcomb.transform import GroupFn, convolve, correlate, dft


@st.composite
def group_set(draw, max_n=16, min_size=1):
    n = draw(st.integers(min_value=2, max_value=max_n))
    members = draw(
        st.sets(st.integers(min_value=0, max_value=n - 1), min_size=min_size)
    )
    return GroupSet.of(CyclicGroup(n), members)


@st.composite
def int_fn_pair(draw, max_n=12):
    n = draw(st.integers(min_value=2, max_value=max_n))
    g = CyclicGroup(n)
    f = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    h = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    return GroupFn(g, tuple(f)), GroupFn(g, tuple(h))


@settings(max_examples=60, deadline=None)
@given(int_fn_pair())
def test_correlation_reflection(pair):
    f, g = pair
    n = f.group.modulus
    fg = correlate(f, g).values
    gf = correlate(g, f).values
    assert all(fg[x] == gf[(-x) % n] for x in range(n))


@settings(max_examples=60, deadline=None)
@given(int_fn_pair())
def test_convolution_commutes(pair):
    f, g = pair
    assert convolve(f, g).values == convolve(g, f).values


@settings(max_examples=40, deadline=None)
@given(int_fn_pair())
def test_parseval_rounds_exactly(pair):
    f, _ = pair
    n = f.group.modulus
    fourier = sum(abs(v) ** 2 for v in dft(f).values)
    assert round(fourier) == n * sum(v * v for v in f.values)


@settings(max_examples=60, deadline=None)
@given(group_set(), group_set())
def test_sumset_bounds(a, b):
    if a.group != b.group:
        b = GroupSet.of(a.group, [x % a.group.modulus for x in b.members])
    s = sumset(a, b, "+")
    assert max(len(a), len(b)) <= len(s) <= min(a.group.modulus, len(a) * len(b))


@settings(max_examples=60, deadline=None)
@given(group_set())
def test_energy_bounds_and_symmetry(a):
    e = energy(a)
    assert len(a) ** 2 <= e <= len(a) ** 3
    counts = correlation_counts(a, a)
    n = a.group.modulus
    assert all(counts[x] == counts[(-x) % n] for x in range(n))
    assert sum(counts) == len(a) ** 2


@settings(max_examples=40, deadline=None)
@given(group_set())
def test_higher_energy_monotone(a):
    # E_(k+1) <= |A| E_k: pointwise since each correlation count is <= |A|
    assert energy_k(a, k=3) <= len(a) * energy_k(a, k=2)
    assert energy_k(a, k=2) <= len(a) * energy_k(a, k=1)


@settings(max_examples=40, deadline=None)
@given(group_set(max_n=12))
def test_shift_duality_property(a):
    n = a.group.modulus
    for s in range(n):
        a_s = intersect_shifts(a, a, (s,))
        left = set(sumset(a, a_s, "-").members) if len(a_s) else set()
        for x in range(n):
            a_x = intersect_shifts(a, a, (x,))
            right = set(sumset(a, a_x, "-").members) if len(a_x) else set()
            assert (x in left) == (s in right)


@settings(max_examples=40, deadline=None)
@given(group_set(max_n=12))
def test_heart_and_katz_koester_always_hold(a):
    for sign in "+-":
        assert check_heart(a, sign).passed
        assert all(c.passed for c in check_katz_koester(a, sign))


@settings(max_examples=40, deadline=None)
@given(group_set())
def test_shift_counts_total(a):
    # sum_x |A_x| = |A|^2
    assert sum(a.autocorrelation.values) == len(a) ** 2
