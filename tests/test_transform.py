import random

import numpy as np
import pytest

import addcomb.transform as transform
import oracle
from addcomb.config import TOL
from addcomb.groups import CyclicGroup, GroupSet, indicator
from addcomb.transform import (
    GroupFn,
    check_commutation,
    convolve,
    correlate,
    dft,
    gen_convolution,
    idft,
    kfold_convolve,
)
from oracle import convolve_fn, correlate_fn, sigma_k_count


def test_dft_delta_and_constant():
    g = CyclicGroup(4)
    d = dft(GroupFn.delta(g, 0))
    assert all(abs(v - 1) < 1e-12 for v in d.values)
    ones = dft(GroupFn.constant(g, 1))
    assert abs(ones.values[0] - 4) < 1e-12
    assert all(abs(v) < 1e-12 for v in ones.values[1:])


def test_parseval_random_int():
    rng = random.Random(2)
    g = CyclicGroup(7)
    for _ in range(20):
        f = GroupFn(g, tuple(rng.randint(-4, 4) for _ in range(7)))
        fourier = sum(abs(v) ** 2 for v in dft(f).values)
        exact = 7 * sum(v * v for v in f.values)
        assert abs(fourier - exact) <= 1e-9 * max(1, exact)
        assert round(fourier) == exact


def test_idft_roundtrip():
    rng = random.Random(3)
    g = CyclicGroup(16)
    f = GroupFn(
        g, tuple(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(16))
    )
    back = idft(dft(f))
    assert max(abs(a - b) for a, b in zip(back.values, f.values)) < 1e-9
    zero = GroupFn.constant(g, 0)
    assert all(abs(v) < 1e-12 for v in idft(dft(zero)).values)
    d = GroupFn.delta(g, 0)
    assert max(abs(a - b) for a, b in zip(idft(dft(d)).values, d.values)) < 1e-12


def test_correlate_example():
    g = CyclicGroup(5)
    a = indicator(GroupSet.of(g, [0, 1]))
    assert correlate(a, a).values == (2, 1, 0, 0, 1)


def test_convolve_identity_element():
    rng = random.Random(4)
    g = CyclicGroup(9)
    f = GroupFn(g, tuple(rng.randint(-3, 3) for _ in range(9)))
    assert convolve(f, GroupFn.delta(g, 0)).values == f.values


def test_convolution_vs_oracle_and_fourier():
    rng = random.Random(5)
    g = CyclicGroup(7)
    f = GroupFn(g, tuple(rng.randint(-3, 3) for _ in range(7)))
    h = GroupFn(g, tuple(rng.randint(-3, 3) for _ in range(7)))
    assert list(convolve(f, h).values) == convolve_fn(f.values, h.values, 7)
    assert list(correlate(f, h).values) == correlate_fn(f.values, h.values, 7)
    fh, hh = dft(f).values, dft(h).values
    ch = dft(convolve(f, h)).values
    assert max(abs(c - a * b) for c, a, b in zip(ch, fh, hh)) < 1e-9 * 100


def test_correlate_reflection_symmetry():
    rng = random.Random(6)
    g = CyclicGroup(11)
    f = GroupFn(g, tuple(rng.randint(-2, 2) for _ in range(11)))
    h = GroupFn(g, tuple(rng.randint(-2, 2) for _ in range(11)))
    fg = correlate(f, h).values
    gf = correlate(h, f).values
    assert all(fg[x] == gf[(-x) % 11] for x in range(11))


def test_kfold_base_cases():
    g = CyclicGroup(5)
    f = GroupFn(g, (1, 2, 0, -1, 3))
    assert kfold_convolve(f, 1).values == f.values


def test_kfold_delta_shifts():
    g = CyclicGroup(5)
    d1 = GroupFn.delta(g, 1)
    assert kfold_convolve(d1, 3).values == GroupFn.delta(g, 3).values


def test_sigma_2_matches_pair_count():
    g = CyclicGroup(7)
    gamma = GroupSet.of(g, [1, 2, 4])
    rep = kfold_convolve(indicator(gamma), 2)
    assert rep.values[0] == sigma_k_count(gamma.members, 7, 2)


def test_gen_convolution_c2_is_correlation():
    rng = random.Random(7)
    g = CyclicGroup(6)
    f = GroupFn(g, tuple(rng.randint(-3, 3) for _ in range(6)))
    h = GroupFn(g, tuple(rng.randint(-3, 3) for _ in range(6)))
    assert gen_convolution([f, h]).flat == correlate(f, h).values


def test_gen_convolution_c3_example():
    g = CyclicGroup(5)
    a = indicator(GroupSet.of(g, [0, 1]))
    table = gen_convolution([a, a, a])
    assert table.table.item(0, 0) == 2
    assert table.table.item(1, 1) == 1
    zero = GroupFn.constant(g, 0)
    assert all(v == 0 for v in gen_convolution([zero, a, a]).flat)


@pytest.mark.parametrize("n", (5, 7, 16))
def test_gen_convolution_matches_enumeration(n):
    rng = random.Random(n)
    g = CyclicGroup(n)
    for k in (2, 3):
        ints = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(k)]
        table = gen_convolution([GroupFn(g, tuple(v)) for v in ints])
        assert table.table.dtype == np.int64 and table.arity == k - 1
        assert table.flat == tuple(oracle.gen_convolution_naive(ints, n).values())
        assert all(type(v) is int for v in table.flat)
        cplx = [
            [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(n)]
            for _ in range(k)
        ]
        table = gen_convolution([GroupFn(g, tuple(v)) for v in cplx])
        assert table.table.dtype == np.complex128
        want = oracle.gen_convolution_naive(cplx, n).values()
        assert max(abs(u - v) for u, v in zip(table.flat, want)) < 1e-12 * n


def test_gen_convolution_exact_beyond_int64():
    # entries near 5 * 2^129 force object tables; sums and identities stay exact
    n = 5
    rng = random.Random(9)
    g = CyclicGroup(n)
    vals = [[rng.randint(-(2 ** 43), 2 ** 43) for _ in range(n)] for _ in range(3)]
    fs = [GroupFn(g, tuple(v)) for v in vals]
    table = gen_convolution(fs)
    want = tuple(oracle.gen_convolution_naive(vals, n).values())
    assert table.table.dtype == object and max(abs(v) for v in want) > 2 ** 63
    assert table.flat == want and all(type(v) is int for v in table.flat)
    assert table.dot(table) == sum(v * v for v in want)
    check = check_commutation([fs, fs[::-1], fs[1:] + fs[:1]], random.Random(1), 4)
    assert check.passed and check.lhs == 0


def test_check_commutation_delta_and_random():
    g = CyclicGroup(5)
    d = GroupFn.delta(g, 0)
    assert check_commutation([[d, d], [d, d]]).passed
    rng = random.Random(8)
    for shape in ((2, 2), (2, 3), (3, 2), (3, 3)):
        rows = [
            [GroupFn(g, tuple(rng.randint(-2, 2) for _ in range(5))) for _ in range(shape[1])]
            for _ in range(shape[0])
        ]
        check = check_commutation(rows, rng, samples=16)
        assert check.passed and check.lhs == 0


def test_check_commutation_rejects_bad_shape():
    g = CyclicGroup(5)
    d = GroupFn.delta(g, 0)
    with pytest.raises(ValueError):
        check_commutation([[d], [d]])


@pytest.mark.parametrize("n", [1, 5, 32, 512])
def test_circulant_products_match_loops(n):
    """convolve and correlate (one gather, one matmul) give the values of
    the direct double loops: exact Python ints for integer input, within
    the complex tolerance for complex input."""
    rng = random.Random(n)
    g = CyclicGroup(n)
    f = GroupFn(g, tuple(rng.randint(-9, 9) for _ in range(n)))
    h = GroupFn(g, tuple(rng.randint(-9, 9) for _ in range(n)))
    fc = GroupFn(g, tuple(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(n)))
    for op, loop in ((convolve, oracle.convolve_loop), (correlate, oracle.correlate_loop)):
        out = op(f, h)
        assert out.kind == "int"
        assert list(out.values) == loop(f.values, h.values, n)
        for x, y in ((fc, h), (f, fc), (fc, fc)):
            got, want = op(x, y).values, loop(x.values, y.values, n)
            scale = max(1.0, max(abs(v) for v in want))
            assert max(abs(u - v) for u, v in zip(got, want)) <= TOL.complex_rel * scale


def test_circulant_products_exact_beyond_int64():
    """Entries near 2**40 at N = 16 break the int64 bound 16 * max|f| * max|g|:
    the products run in Python ints and stay exact."""
    rng = random.Random(40)
    g = CyclicGroup(16)
    f = GroupFn(g, tuple(2 ** 40 - rng.randrange(1000) for _ in range(16)))
    h = GroupFn(g, tuple(rng.choice((-1, 1)) * (2 ** 40 + rng.randrange(1000)) for _ in range(16)))
    assert 16 * 2 ** 80 > 2 ** 63
    for op, loop in ((convolve, oracle.convolve_loop), (correlate, oracle.correlate_loop)):
        out = op(f, h)
        assert out.kind == "int"
        assert list(out.values) == loop(f.values, h.values, 16)


def test_circulant_products_keep_real_input_real():
    g = CyclicGroup(6)
    f = GroupFn(g, (0.5, 1.0, 0.0, -2.0, 0.25, 1.5))
    out = correlate(f, f)
    assert all(type(v) is float for v in out.values)
    want = oracle.correlate_loop(f.values, f.values, 6)
    assert max(abs(u - v) for u, v in zip(out.values, want)) <= 1e-12


def test_transforms_refuse_tables_over_grids():
    """dft, idft and the circulant products take functions on Z/N only: a
    table over Gr^2 is refused, not read as N rows."""
    g = CyclicGroup(3)
    grid = GroupFn(g, np.arange(9).reshape(3, 3))
    line = GroupFn(g, (1, 2, 3))
    for call in (lambda: dft(grid), lambda: idft(grid), lambda: convolve(grid, line),
                 lambda: correlate(line, grid), lambda: gen_convolution([line, grid])):
        with pytest.raises(ValueError, match="functions on Z/N"):
            call()


@pytest.mark.parametrize("l,k", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_commutation_matches_per_point_oracle(l, k):
    """check_commutation (one gather per table for all points) against the
    per-point roll-and-sum oracle on the same points: per-point values of
    each side for integer rows, and the same worst discrepancy for integer
    and complex rows."""
    n, samples = 5, 12
    rng = random.Random(10 * l + k)
    g = CyclicGroup(n)
    int_rows = [[GroupFn(g, tuple(rng.randint(-3, 3) for _ in range(n))) for _ in range(k)]
                for _ in range(l)]
    cplx_rows = [[GroupFn(g, tuple(complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                                   for _ in range(n))) for _ in range(k)] for _ in range(l)]
    for rows in (int_rows, cplx_rows):
        if (l, k) == (2, 2):
            points = [((x,),) for x in range(n)]
        else:
            prng = random.Random(3)
            points = [tuple(tuple(prng.randrange(n) for _ in range(k - 1)) for _ in range(l - 1))
                      for _ in range(samples)]
        check = check_commutation(rows, random.Random(3), samples)
        assert check.lhs == oracle.commutation_worst(rows, points)
    row_tables = [gen_convolution(list(r)) for r in int_rows]
    y = np.array(points).reshape(len(points), l - 1, k - 1)
    got = transform._shifted_dots(row_tables, y)
    assert got == [oracle.shifted_dot(row_tables, p) for p in points]
    assert all(type(v) is int for v in got)
