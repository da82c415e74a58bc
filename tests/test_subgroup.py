import cmath
import dataclasses
import importlib
import math
import random

import numpy as np
import pytest

from addcomb.groups import CyclicGroup, GroupSet, indicator
from addcomb.spectral import build_restricted_operator, eigendecompose
from addcomb.subgroup import (
    _check_exact_fourier_c3,
    check_eigenbasis,
    check_exact_fourier,
    check_mu_convolution,
    check_mu_vs_jacobi,
    check_tk_characters,
    check_vinogradov_bounds,
    fn_from_profile,
    gamma_invariant_fn,
    PrimeField,
    make_field,
    mu_alpha_direct,
    mult_energy_k,
    random_invariant_fn,
    subgroup,
    subgroup_autocorrelation,
)
from addcomb.experiments import divisors, primes_up_to
from addcomb.transform import GroupFn
import oracle
from oracle import correlation, mult_tuple_energy, subgroup_stats_naive


def test_make_field_examples():
    assert make_field(7).root == 3
    assert make_field(2).root == 1
    fld = make_field(101)
    g = fld.root
    assert pow(g, 100, 101) == 1
    assert all(pow(g, 100 // q, 101) != 1 for q in (2, 5))
    with pytest.raises(ValueError):
        make_field(8)
    with pytest.raises(ValueError):
        make_field(10 ** 6 + 3)


@pytest.mark.parametrize("p", primes_up_to(500))
def test_power_and_dlog_tables_invert_each_other(p):
    """powers and dlog are read-only int64 inverse permutations."""
    fld = make_field(p)
    powers, dlog = fld.powers, fld.dlog
    assert powers.dtype == np.int64 and not powers.flags.writeable
    assert powers[0] == 1 and len(powers) == p - 1
    assert all(powers[dlog[x - 1]] == x for x in range(1, p))
    assert dlog.dtype == np.int64 and not dlog.flags.writeable
    assert all(dlog[powers[k] - 1] == k for k in range(p - 1))


@pytest.mark.parametrize("p, root", [(13, 0), (13, 1), (13, 13), (13, 3), (2, 0), (2, 2),
                                     (3, 0), (3, 3), (7, 2), (101, 100)])
def test_make_field_rejects_non_generators(p, root):
    with pytest.raises(ValueError, match="not a primitive root"):
        make_field(p, root)


def test_make_field_takes_any_generator():
    for root in (2, 6, 7, 11, 15):
        fld = make_field(13, root)
        assert fld.root == root
        assert fld.powers.tolist() == [pow(root, k, 13) for k in range(12)]
        assert sorted(fld.dlog.tolist()) == list(range(12))
    assert make_field(2, 1).powers.tolist() == [1]
    assert make_field(2, 3).dlog.tolist() == [0]


@pytest.mark.parametrize("p", primes_up_to(101))
def test_make_field_accepts_exactly_the_generators(p):
    """A root is accepted iff its powers g, ..., g^(p-1) cover F_p*, for
    every g from -1 to 2p; the check builds no table."""
    units = set(range(1, p))
    for g in range(-1, 2 * p + 1):
        generates = {pow(g, k, p) for k in range(1, p)} == units
        if generates:
            assert make_field(p, g).root == g
        else:
            with pytest.raises(ValueError, match=f"{g} is not a primitive root mod {p}"):
                make_field(p, g)
    fld = make_field(p)
    assert "powers" not in vars(fld) and "dlog" not in vars(fld)
    assert fld.root == min(g for g in range(1, p + 1) if {pow(g, k, p) for k in range(1, p)} == units)


def test_prime_field_is_its_prime_and_root():
    """Everything else on a field is derived from p and the root."""
    assert [f.name for f in dataclasses.fields(PrimeField)] == ["p", "root"]
    fld = make_field(13)
    assert fld == PrimeField(13, 2) and hash(fld) == hash(PrimeField(13, 2))
    assert fld != make_field(13, 6)


def test_dlog_consistency():
    fld = make_field(13)
    for x in range(1, 13):
        assert pow(fld.root, fld.log(x), 13) == x
    with pytest.raises(ValueError):
        fld.log(0)


def test_subgroup_examples():
    fld = make_field(7)
    assert subgroup(fld, 3).elements == (1, 2, 4)
    assert subgroup(fld, 1).elements == (1,)
    assert subgroup(fld, 6).elements == tuple(range(1, 7))
    with pytest.raises(ValueError):
        subgroup(fld, 4)


def test_subgroup_closed_under_multiplication():
    fld = make_field(31)
    for t in (1, 2, 3, 5, 6, 10, 15, 30):
        g = subgroup(fld, t)
        for a in g.elements:
            for b in g.elements:
                assert (a * b) % 31 in g.as_set


def test_invariance_and_orbit():
    fld = make_field(7)
    g = subgroup(fld, 3)

    def invariant(members):
        return gamma_invariant_fn(g, indicator(GroupSet.of(fld.group, members)))

    assert invariant(g.elements)
    assert invariant([])
    assert invariant([3, 5, 6])  # the orbit 3 Gamma
    assert not invariant([3, 6])


def test_gamma_invariant_set_matches_the_loop():
    """A set is invariant when its indicator is: gamma_invariant_fn on
    indicators agrees with the membership loop of the oracle."""
    rng = random.Random(9)
    for p, t in ((7, 3), (13, 4), (31, 5), (101, 20)):
        fld = make_field(p)
        gamma = subgroup(fld, t)
        for _ in range(20):
            s = GroupSet.of(fld.group, [x for x in range(p) if rng.random() < 0.2])
            closure = GroupSet.of(fld.group, [x * e % p for x in s.members for e in gamma.elements])
            bent = GroupSet.of(fld.group, closure.members[1:])
            for cand in (s, closure, bent):
                got = gamma_invariant_fn(gamma, indicator(cand))
                assert got == oracle.gamma_invariant_set(gamma, cand)
        with pytest.raises(ValueError, match="wrong modulus"):
            gamma_invariant_fn(gamma, indicator(GroupSet.of(CyclicGroup(p + 1), [1])))


def test_invariant_profile_roundtrip():
    rng = random.Random(1)
    fld = make_field(13)
    g = subgroup(fld, 4)
    f = random_invariant_fn(g, rng, 0, 5)
    assert gamma_invariant_fn(g, f)
    reps = {r: f.values[r] for r in fld.powers[:g.index].tolist()}
    back = fn_from_profile(g, f.values[0], reps)
    assert back.values == f.values


def test_fn_from_profile_matches_the_loop():
    """Random profiles with any representative of each coset (some given
    twice, the later one winning) and int, big-int, float and complex values
    give the oracle loop's values in the same kind."""
    rng = random.Random(20)
    draws = (
        lambda: rng.randint(-3, 3),
        lambda: rng.choice((-1, 1)) * 2 ** 70 + rng.randint(0, 9),
        lambda: rng.uniform(-1, 1),
        lambda: complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
    )
    for p in (2, 7, 13, 31, 101):
        fld = make_field(p)
        for t in divisors(p - 1):
            gamma = subgroup(fld, t)
            for draw in draws:
                reps = {}
                for j in range(gamma.index):
                    for _ in range(rng.choice((1, 1, 2))):
                        r = fld.powers[j] * rng.choice(gamma.elements) + p * rng.randint(-1, 1)
                        reps[int(r)] = draw()
                zero = draw()
                f = fn_from_profile(gamma, zero, reps)
                want = GroupFn(fld.group, oracle.fn_from_profile(gamma, zero, reps))
                assert f.values == want.values and f.kind == want.kind, (p, t)
                assert gamma_invariant_fn(gamma, f, tol=1e-12)


def test_fn_from_profile_rejects_zero_and_missing_cosets():
    g = subgroup(make_field(7), 3)
    with pytest.raises(ValueError):
        fn_from_profile(g, 5, {0: 9, 1: 1, 3: 2})
    with pytest.raises(ValueError):
        fn_from_profile(g, 5, {14: 9, 1: 1, 3: 2})  # 14 = 0 mod 7
    with pytest.raises(ValueError, match="every coset"):
        fn_from_profile(g, 5, {1: 1, 2: 2})  # 1 and 2 share the coset {1, 2, 4}
    assert fn_from_profile(g, 5, {1: 1, 3: 2}).values == (5, 1, 1, 2, 1, 2, 2)


def test_random_invariant_fn_needs_a_nonzero_value():
    g = subgroup(make_field(13), 4)
    with pytest.raises(ValueError):
        random_invariant_fn(g, random.Random(0), 0, 0)
    for lo, hi in ((0, 1), (-1, 0), (2, 2), (-2, -2)):
        f = random_invariant_fn(g, random.Random(lo), lo, hi)
        assert any(f.values[1:]) and all(lo <= v <= hi for v in f.values)


@pytest.mark.parametrize("m", [13, 5])
def test_functions_off_z_p_are_refused(m):
    """Every subgroup function that reads a table at field elements raises
    ValueError for a function on Z/m, m != p."""
    fld = make_field(7)
    g = subgroup(fld, 3)
    other = CyclicGroup(m)
    f = GroupFn.constant(other, 1)
    one = GroupFn.constant(fld.group, 1)
    calls = [
        lambda: gamma_invariant_fn(g, f),
        lambda: mu_alpha_direct(g, f),
        lambda: check_eigenbasis(g, f),
        lambda: check_eigenbasis(g, f, coset=3),
        lambda: mult_energy_k(g, GroupFn.delta(other, 1), 2),
        lambda: check_tk_characters(g, GroupFn.delta(other, 1), 2),
        lambda: check_exact_fourier(g, GroupFn.delta(other, 1), 0, [one]),
        lambda: check_vinogradov_bounds(g, GroupSet.of(other, [1, 2])),
        lambda: check_exact_fourier(g, GroupFn.delta(fld.group, 1), 0, [one], v=f),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="wrong modulus"):
            call()


def test_character_orthonormality_and_multiplicativity():
    for p, t in ((7, 3), (13, 4), (31, 6)):
        fld = make_field(p)
        g = subgroup(fld, t)
        chis = [dict(zip(g.elements, col)) for col in g.character_table.T.tolist()]
        for a in range(t):
            for b in range(t):
                ip = sum(
                    chis[a][x] * chis[b][x].conjugate()
                    for x in g.elements
                )
                assert abs(ip - (1 if a == b else 0)) < 1e-10
        # chi(gx) = sqrt(t) chi(g) chi(x) on the subgroup
        for a in range(t):
            chi = chis[a]
            for gm in g.elements:
                for x in g.elements:
                    lhs = chi[(gm * x) % p]
                    rhs = math.sqrt(t) * chi[gm] * chi[x]
                    assert abs(lhs - rhs) < 1e-10


def test_mu_alpha_golden():
    fld = make_field(7)
    g = subgroup(fld, 3)
    mus = mu_alpha_direct(g, subgroup_autocorrelation(g)).values
    got = sorted(m.real for m in mus)
    assert max(abs(a - b) for a, b in zip(got, [2, 2, 5])) < 1e-10
    assert max(abs(m.imag) for m in mus) < 1e-10


def test_mu_alpha_delta_and_constant():
    fld = make_field(7)
    g = subgroup(fld, 3)
    mus = mu_alpha_direct(g, GroupFn.delta(fld.group, 0)).values
    assert max(abs(m - 1) for m in mus) < 1e-12
    op = build_restricted_operator(g.as_set, GroupFn.delta(fld.group, 0))
    assert eigendecompose(op).eigenvalues == (1.0, 1.0, 1.0)
    mus = sorted(
        (m.real for m in mu_alpha_direct(g, GroupFn.constant(fld.group, 1)).values),
        reverse=True,
    )
    assert abs(mus[0] - 3) < 1e-10 and abs(mus[1]) < 1e-10 and abs(mus[2]) < 1e-10


def test_mu_alpha_rejects_noninvariant():
    fld = make_field(7)
    g = subgroup(fld, 3)
    with pytest.raises(ValueError):
        mu_alpha_direct(g, GroupFn.delta(fld.group, 1))


def test_eigenbasis_and_coset():
    fld = make_field(7)
    g = subgroup(fld, 3)
    psi = subgroup_autocorrelation(g)
    assert check_eigenbasis(g, psi).passed
    assert check_eigenbasis(g, psi, coset=3).passed
    rng = random.Random(2)
    for p, t in ((13, 4), (31, 6), (31, 5)):
        fld = make_field(p)
        g = subgroup(fld, t)
        h = random_invariant_fn(g, rng, 0, 3)
        assert check_eigenbasis(g, h).passed
        xi = next(x for x in range(2, p) if x not in g.as_set)
        assert check_eigenbasis(g, h, coset=xi).passed


def test_alpha_zero_eigenvector_is_constant():
    fld = make_field(13)
    g = subgroup(fld, 6)
    psi = subgroup_autocorrelation(g)
    mus = mu_alpha_direct(g, psi).values
    row0 = sum(psi.values[(g.elements[0] - y) % 13] for y in g.elements)
    assert abs(mus[0] - row0) < 1e-9


def test_mu_vs_jacobi_multiset():
    rng = random.Random(3)
    for p, t in ((7, 3), (13, 4), (31, 10), (31, 30)):
        fld = make_field(p)
        g = subgroup(fld, t)
        assert check_mu_vs_jacobi(g, subgroup_autocorrelation(g)).passed
        h = random_invariant_fn(g, rng, 0, 3)
        even = GroupFn(
            fld.group,
            tuple(h.values[x] + h.values[(-x) % p] for x in range(p)),
        )
        assert check_mu_vs_jacobi(g, even).passed


def test_mu_convolution_rules():
    rng = random.Random(4)
    fld = make_field(13)
    g = subgroup(fld, 4)
    psi = subgroup_autocorrelation(g)
    for c in check_mu_convolution(g, psi, psi):
        assert c.passed
    h = random_invariant_fn(g, rng, 0, 3)
    for c in check_mu_convolution(g, psi, h):
        assert c.passed


def test_mu_product_rule_complex_kernels():
    rng = random.Random(21)
    fld = make_field(13)
    g = subgroup(fld, 3)
    n = g.index

    def complex_invariant():
        reps = {
            pow(fld.root, j, 13): complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            for j in range(n)
        }
        return fn_from_profile(g, complex(rng.uniform(-1, 1)), reps)

    a = complex_invariant()
    b = complex_invariant()
    checks = check_mu_convolution(g, a, b)
    assert checks[0].name == "eigenvalue-product-rule"
    assert checks[0].passed


def test_mu_product_rule_alpha0_is_trace_square():
    # alpha = 0, l = 2, g = h: mu_0(g^2) = sum_beta |mu_beta|^2 / t
    fld = make_field(7)
    g = subgroup(fld, 3)
    psi = subgroup_autocorrelation(g)
    mus = mu_alpha_direct(g, psi).values
    assert abs(sum(abs(m) ** 2 for m in mus) - 33) < 1e-9
    mu0_sq = mu_alpha_direct(g, psi.power(2)).values[0]
    assert abs(mu0_sq - 33 / 3) < 1e-9


def test_exact_fourier_golden_cases():
    rng = random.Random(5)
    fld = make_field(7)
    g = subgroup(fld, 3)
    ind = GroupFn(fld.group, tuple(1 if x in g.as_set else 0 for x in range(7)))
    fam = [GroupFn.constant(fld.group, 1), subgroup_autocorrelation(g)]
    checks = check_exact_fourier(g, ind, 0, fam)
    assert all(c.passed for c in checks)
    # u = delta_1: single-point support
    checks = check_exact_fourier(g, GroupFn.delta(fld.group, 1), 3, fam)
    assert all(c.passed for c in checks)
    # complex u plus the three-point variant with random nonnegative v
    u = GroupFn(
        fld.group,
        tuple(
            complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            if x in g.as_set
            else 0j
            for x in range(7)
        ),
    )
    v = GroupFn(fld.group, tuple(rng.randint(0, 3) for _ in range(7)))
    checks = check_exact_fourier(g, u, 2, fam, v=v)
    assert all(c.passed for c in checks)


@pytest.mark.parametrize("p", [7, 13, 31, 101])
def test_exact_fourier_c3_matches_the_loops(p):
    """On every subgroup of p, the Gram-matrix form of the three-point bound
    agrees with the triple loops within 1e-12 relative on each side, for
    int, complex and zero weights h."""
    rng = random.Random(p)
    fld = make_field(p)
    for t in divisors(p - 1):
        gamma = subgroup(fld, t)
        u = GroupFn(fld.group, tuple(
            complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) if x in gamma.as_set else 0j
            for x in range(p)
        ))
        v = GroupFn(fld.group, tuple(rng.uniform(0, 2) if rng.random() < 0.7 else 0 for _ in range(p)))
        h = random_invariant_fn(gamma, rng, -2, 3)
        fam = [GroupFn.constant(fld.group, 1), subgroup_autocorrelation(gamma), h,
               GroupFn(fld.group, tuple(complex(x, -0.5 * x) for x in h.values)),
               GroupFn(fld.group, (0,) * p)]
        got = _check_exact_fourier_c3(gamma, u, fam, v)
        want = oracle.exact_fourier_c3_checks(gamma, u, fam, v)
        assert [c.name for c in got] == [c.name for c in want]
        for c, w in zip(got, want):
            for x, y in ((c.lhs, w.lhs), (c.rhs, w.rhs)):
                assert abs(x - y) <= 1e-12 * max(1.0, abs(y)), (t, c.name)


def test_exact_fourier_c3_rejects_complex_or_negative_weights():
    fld = make_field(7)
    g = subgroup(fld, 3)
    u = GroupFn(fld.group, tuple(1 if x in g.as_set else 0 for x in range(7)))
    fam = [GroupFn.constant(fld.group, 1)]
    for v in ((1j,) * 7, (1 + 0j,) * 7, (1, 0, -1, 0, 0, 0, 0), (0.5, -0.25) + (0.0,) * 5):
        with pytest.raises(ValueError, match="real and nonnegative"):
            check_exact_fourier(g, u, 1, fam, v=GroupFn(fld.group, v))
    assert all(c.passed for c in check_exact_fourier(g, u, 1, fam, v=GroupFn(fld.group, (2,) * 7)))


def test_exact_fourier_rejects_bad_support():
    fld = make_field(7)
    g = subgroup(fld, 3)
    with pytest.raises(ValueError):
        check_exact_fourier(g, GroupFn.delta(fld.group, 3), 0, [GroupFn.constant(fld.group, 1)])


def test_mult_energy_closure_and_identity():
    fld = make_field(7)
    g = subgroup(fld, 3)
    ind = GroupFn(fld.group, tuple(1 if x in g.as_set else 0 for x in range(7)))
    assert mult_energy_k(g, ind, 2) == 27 == mult_tuple_energy(g.elements, 7, 2)
    sub = GroupFn(fld.group, (0, 1, 1, 0, 0, 0, 0))  # {1, 2}
    direct = mult_energy_k(g, sub, 2)
    assert direct == mult_tuple_energy([1, 2], 7, 2) == 6
    assert direct >= 16 / 3
    for c in check_tk_characters(g, sub, 2):
        assert c.passed


def test_mult_energy_matches_oracle_random():
    rng = random.Random(6)
    fld = make_field(31)
    g = subgroup(fld, 6)
    for k in (2, 3):
        sub = [x for x in g.elements if rng.random() < 0.7] or [1]
        f = GroupFn(fld.group, tuple(1 if x in sub else 0 for x in range(31)))
        assert mult_energy_k(g, f, k) == mult_tuple_energy(sub, 31, k)
        for c in check_tk_characters(g, f, k):
            assert c.passed


def test_mult_energy_complex_weights():
    rng = random.Random(7)
    fld = make_field(13)
    g = subgroup(fld, 4)
    f = GroupFn(
        fld.group,
        tuple(
            complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            if x in g.as_set
            else 0j
            for x in range(13)
        ),
    )
    for k in (2, 3):
        for c in check_tk_characters(g, f, k):
            assert c.passed


def test_mult_energy_complex_matches_oracle():
    # the one enumeration of mult_energy_k against the product-class oracle,
    # with the second k-tuple conjugated
    rng = random.Random(9)
    fld = make_field(13)
    g = subgroup(fld, 4)
    w = {x: complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for x in g.elements}
    f = GroupFn(fld.group, tuple(w.get(x, 0j) for x in range(13)))
    for k in (2, 3):
        direct = mult_energy_k(g, f, k)
        want = mult_tuple_energy(g.elements, 13, k, w)
        assert isinstance(direct, complex)
        assert abs(direct - want) <= 1e-12 * max(1.0, abs(want))
        assert abs(direct.imag) <= 1e-12 * max(1.0, abs(want))


def _check_product_classes(p):
    """T^x_k by multiplicative convolution against the product-class oracle
    on every whole subgroup of F_p, with 0/1, Python-int (near 2^40) and
    complex weights; returns the values in turn."""
    rng = random.Random(p)
    fld = make_field(p)
    draws = (
        lambda: 1,
        lambda: rng.choice((-1, 1)) * rng.randint(2 ** 40 - 99, 2 ** 40 + 99),
        lambda: complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
    )
    out = []
    for t in divisors(p - 1):
        g = subgroup(fld, t)
        for k in (2, 3):
            supp = g.elements
            for draw in draws:
                w = {x: draw() for x in supp}
                f = GroupFn(fld.group, tuple(w.get(x, 0) for x in range(p)))
                got = mult_energy_k(g, f, k)
                want = mult_tuple_energy(supp, p, k, w)
                if f.kind == "int":
                    assert type(got) is int and got == want, (t, k)
                else:
                    assert abs(got - want) <= 1e-12 * abs(want), (t, k)
                out.append(got)
    return out


@pytest.mark.parametrize("p", [7, 13, 31])
def test_mult_energy_k_matches_product_classes(p):
    _check_product_classes(p)


@pytest.mark.parametrize("p", [7, 13, 31])
def test_mult_energy_k_row_blocks_match_product_classes(p, monkeypatch):
    """Row blocks of about 50 pairs (1 to 8 rows of the convolution here)
    give the oracle's values, and the unblocked values bit for bit."""
    whole = _check_product_classes(p)
    monkeypatch.setattr(importlib.import_module("addcomb.subgroup"), "_PAIR_BLOCK", 50)
    assert _check_product_classes(p) == whole


def test_mult_energy_counts_whole_subgroups_without_a_cap():
    """T^x_3 of a whole subgroup of order t is t^5."""
    for p, t in ((101, 100), (1009, 504)):
        g = subgroup(make_field(p), t)
        assert mult_energy_k(g, indicator(g.as_set), 3) == t ** 5


def test_vinogradov_bounds():
    rng = random.Random(8)
    fld = make_field(31)
    g = subgroup(fld, 6)
    assert all(c.passed for c in check_vinogradov_bounds(g, g.as_set))
    single = GroupSet.of(fld.group, [g.elements[0]])
    assert all(c.passed for c in check_vinogradov_bounds(g, single))
    for _ in range(100):
        sub = [x for x in g.elements if rng.random() < 0.6] or [1]
        a = GroupSet.of(fld.group, sub)
        assert all(c.passed for c in check_vinogradov_bounds(g, a))


def test_vinogradov_full_subgroup_equality():
    fld = make_field(31)
    g = subgroup(fld, 6)
    checks = {c.name: c for c in check_vinogradov_bounds(g, g.as_set)}
    c = checks["subset-size-bound"]
    assert abs(c.lhs - c.rhs) < 1e-9  # |G| = t^(1/4) (t^3)^(1/4)


def test_root_independence():
    f1 = make_field(13)  # smallest root
    f2 = make_field(13, root=6)
    assert f1.root != f2.root
    for t in (2, 3, 4, 6, 12):
        g1 = subgroup(f1, t)
        g2 = subgroup(f2, t)
        assert g1.elements == g2.elements
        psi1 = subgroup_autocorrelation(g1)
        mus1 = sorted(m.real for m in mu_alpha_direct(g1, psi1).values)
        mus2 = sorted(m.real for m in mu_alpha_direct(g2, psi1).values)
        assert max(abs(a - b) for a, b in zip(mus1, mus2)) < 1e-9


def test_bad_root_rejected():
    with pytest.raises(ValueError):
        make_field(13, root=3)  # 3 has order 3 mod 13


def test_energy_max_attained_at_trivial_character():
    # among the character basis, the subgroup indicator maximizes
    # sum (GoG)^k (f o conj f)
    for p, t, k in ((7, 3, 1), (13, 4, 1), (13, 4, 2)):
        fld = make_field(p)
        g = subgroup(fld, t)
        gg = subgroup_autocorrelation(g).values
        vals = []
        for alpha in range(t):
            chi = dict(zip(g.elements, g.character_table[:, alpha].tolist()))
            corr = [
                sum(chi[y] * chi.get((y + x) % p, 0).conjugate() for y in g.elements)
                for x in range(p)
            ]
            vals.append(t * sum(gg[x] ** k * corr[x] for x in range(p)).real)
        assert max(vals) <= vals[0] + 1e-9
        from addcomb.energy import energy_k

        assert abs(vals[0] - energy_k(g.as_set, k=k + 1)) < 1e-8


def test_subgroup_stats_match_pair_enumeration():
    # every (p, t) with p < 300: t runs over odd and even orders, so both
    # cases of -1 in Gamma reach the |Gamma + Gamma| formula; the elements
    # read from the power table equal the powers g^(n l)
    minus_one_cases = set()
    for p in primes_up_to(299):
        fld = make_field(p)
        for t in divisors(p - 1):
            g = subgroup(fld, t)
            n = (p - 1) // t
            assert g.elements == tuple(
                sorted(pow(fld.root, n * l, p) for l in range(t))
            ), (p, t)
            e2, e3, ssum, diff, corr = subgroup_stats_naive(g.elements, p)
            st = g.stats
            assert (st.E2, st.E3, st.sum, st.diff) == (e2, e3, ssum, diff), (p, t)
            assert list(g.autocorrelation.values) == corr, (p, t)
            psi = subgroup_autocorrelation(g)
            assert psi.kind == "int"
            assert list(psi.values) == correlation(g.elements, g.elements, p), (p, t)
            minus_one_cases.add((p - 1) in g.as_set)
    assert minus_one_cases == {True, False}


def test_mu_tables_memoized_per_kernel(monkeypatch):
    """Equal kernels share one mu table, each distinct kernel is computed
    once per subgroup, and the dilated coset kernel gets its own entry."""
    sub = importlib.import_module("addcomb.subgroup")
    made = []
    real = sub.MuTable
    monkeypatch.setattr(sub, "MuTable", lambda g, mus: made.append(g) or real(g, mus))
    fld = make_field(13)
    g = subgroup(fld, 3)
    psi = subgroup_autocorrelation(g)
    table = mu_alpha_direct(g, psi)
    assert mu_alpha_direct(g, GroupFn(fld.group, tuple(psi.values))) is table
    assert check_mu_vs_jacobi(g, psi).passed and check_eigenbasis(g, psi).passed
    delta = GroupFn.delta(fld.group, 0)
    assert mu_alpha_direct(g, delta) is mu_alpha_direct(g, delta)
    assert made == [psi, delta]
    xi = 2  # not in the subgroup {1, 3, 9}
    assert check_eigenbasis(g, psi, coset=xi).passed
    assert [f.values for f in made[2:]] == [tuple(psi.values[(xi * z) % 13] for z in range(13))]
    assert made[2].values != psi.values and len(g._mu_tables) == 3
    mu_alpha_direct(subgroup(fld, 3), psi)  # another subgroup object: its own table
    assert len(made) == 4
