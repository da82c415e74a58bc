"""The float loops of the transform, character, eigenbasis, product-energy
and eigenvalue-rule checks run on float64 arrays in CPython's own operation
order: every value must have the repr of the direct Python loop that
tests/oracle.py keeps."""

import math
import random

import numpy as np
import pytest

from addcomb.subgroup import (
    check_eigenbasis,
    check_mu_convolution,
    check_tk_characters,
    gamma_invariant_fn,
    make_field,
    mu_alpha_direct,
    random_invariant_fn,
    subgroup,
    subgroup_autocorrelation,
)
from addcomb.transform import GroupFn, _ordered_sums, dft, idft
from addcomb.groups import CyclicGroup
from addcomb.verify import _orthonormality_check
import oracle

SIGNED_ZEROS = (0, -0.0, 0.0, complex(-0.0, -0.0), complex(0.0, -0.0), -1.5, 2, 0.25j)


def _values(kind: str, n: int, rng: random.Random) -> list:
    if kind == "int":
        return [rng.randint(-3, 3) for _ in range(n)]
    if kind == "float":
        return [rng.uniform(-1, 1) for _ in range(n)]
    if kind == "complex":
        return [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(n)]
    if kind == "zero":
        return [0] * n
    return [rng.choice(SIGNED_ZEROS) for _ in range(n)]


@pytest.mark.parametrize("n", [1, 2, 5, 16, 101, 512])
@pytest.mark.parametrize("kind", ["int", "float", "complex", "zero", "signed-zero"])
def test_dft_and_idft_match_the_loop_by_repr(n, kind):
    vals = _values(kind, n, random.Random(n))
    f = GroupFn(CyclicGroup(n), tuple(vals))
    fh = dft(f)
    want = oracle.fourier_sum(vals, -2.0 * math.pi / n)
    assert repr(fh.values) == repr(tuple(want))
    back = [v / n for v in oracle.fourier_sum(want, 2.0 * math.pi / n)]
    assert repr(idft(fh).values) == repr(tuple(back))


def test_ordered_sums_match_python_sum_by_repr():
    rng = random.Random(3)
    for m, cols in ((0, 3), (1, 1), (7, 5), (300, 40)):
        a = [rng.choice((rng.randint(-3, 3), rng.uniform(-2, 2), *SIGNED_ZEROS,
                         complex(rng.gauss(0, 1), rng.gauss(0, 1)))) for _ in range(m)]
        b = [[complex(rng.choice((-0.0, rng.gauss(0, 1))), rng.choice((-0.0, rng.gauss(0, 1))))
              for _ in range(cols)] for _ in range(m)]
        # the sum of no products is int 0; any product makes it complex
        want = [complex(sum(a[i] * b[i][j] for i in range(m))) for j in range(cols)]
        a_arr = np.array([complex(v) for v in a], dtype=np.complex128)
        b_arr = np.array(b, dtype=np.complex128).reshape(m, cols)
        got = _ordered_sums(a_arr, b_arr)
        assert repr(want) == repr(got.tolist())
        # continuing from the row of the first half gives the same sums, and
        # a transposed (non-contiguous) factor array reads the same values
        h = m // 2
        again = _ordered_sums(a_arr[h:], b_arr.T.copy().T[h:], _ordered_sums(a_arr[:h], b_arr[:h]))
        assert repr(got.tolist()) == repr(again.tolist())


def _kernels(gamma, rng):
    """Invariant kernels of each value kind on one subgroup."""
    p = gamma.field.p
    psi = subgroup_autocorrelation(gamma)
    h = random_invariant_fn(gamma, rng, -2, 3)
    real = GroupFn(psi.group, tuple(v * 0.37 - 1.25 for v in h.values))
    cplx = GroupFn(psi.group, tuple(complex(v, -0.5 * v) for v in h.values))
    zero = GroupFn(psi.group, (0,) * p)
    return [psi, h, real, cplx, zero]


CASES = [(7, 3), (13, 4), (13, 12), (31, 5), (31, 6), (101, 20), (101, 100)]


@pytest.mark.parametrize("p,t", CASES)
def test_mu_alpha_and_eigenbasis_match_the_loops_by_repr(p, t):
    rng = random.Random(p * t)
    gamma = subgroup(make_field(p), t)
    xi = next((x for x in range(2, p) if x not in gamma.as_set), None)
    for g in _kernels(gamma, rng):
        mus = mu_alpha_direct(gamma, g).values
        assert repr(mus) == repr(tuple(oracle.mu_alpha_sums(gamma, g)))
        worst = check_eigenbasis(gamma, g).lhs
        assert repr(worst) == repr(oracle.eigenbasis_residual(gamma, g, mus))
        if xi is not None:
            dilated = GroupFn(g.group, tuple(g.values[(xi * z) % p] for z in range(p)))
            dmus = mu_alpha_direct(gamma, dilated).values
            worst = check_eigenbasis(gamma, g, coset=xi).lhs
            assert repr(worst) == repr(oracle.eigenbasis_residual(gamma, g, dmus, xi))


@pytest.mark.parametrize("p,t", CASES)
def test_character_table_matches_the_walked_characters_by_repr(p, t):
    gamma = subgroup(make_field(p), t)
    want = [[chi[x] for chi in oracle.characters(gamma)] for x in gamma.elements]
    assert repr(gamma.character_table.tolist()) == repr(want)


@pytest.mark.parametrize("p,t", CASES)
def test_orthonormality_matches_the_loop_by_repr(p, t):
    gamma = subgroup(make_field(p), t)
    assert repr(_orthonormality_check(gamma).lhs) == repr(oracle.orthonormality_residual(gamma))


@pytest.mark.parametrize("p,t", [(7, 3), (31, 5), (101, 20)])
def test_gamma_invariant_fn_matches_the_loop(p, t):
    rng = random.Random(p + t)
    gamma = subgroup(make_field(p), t)
    els = gamma.elements
    for g in _kernels(gamma, rng):
        bent = list(g.values)
        bent[rng.randrange(1, p)] += 1e-9
        big = tuple(v * 2 ** 70 + 3 for v in g.values) if g.kind == "int" else g.values
        for vals in (g.values, tuple(bent), big):
            f = GroupFn(g.group, vals)
            for tol in (0.0, 1e-12, 1e-6):
                assert gamma_invariant_fn(gamma, f, tol) == oracle.gamma_invariant(els, vals, p, tol)
    assert gamma_invariant_fn(gamma, subgroup_autocorrelation(gamma))
    delta = GroupFn.delta(gamma.field.group, 1, 2 ** 80)  # an object table past int64
    assert delta.table.dtype == object
    assert not gamma_invariant_fn(gamma, delta)
    assert oracle.gamma_invariant(els, delta.values, p) is False


@pytest.mark.parametrize("p,t", CASES)
def test_mu_convolution_matches_the_loops_by_repr(p, t):
    rng = random.Random(p - t)
    gamma = subgroup(make_field(p), t)
    kernels = _kernels(gamma, rng)
    for g in kernels:
        for h in kernels:
            got = check_mu_convolution(gamma, g, h)
            assert repr(got) == repr(oracle.mu_convolution_checks(gamma, g, h))


@pytest.mark.parametrize("p,t", CASES)
def test_tk_characters_match_the_loop_by_repr(p, t):
    """0/1 f as the report draws it, and int, float, complex and zero f it
    never draws; k = 3 only where the direct enumeration stays small."""
    rng = random.Random(p * t + 1)
    gamma = subgroup(make_field(p), t)
    supp = [x for x in gamma.elements if rng.random() < min(1.0, 30 / t)] or [1]
    draws = {
        "indicator": lambda: 1,
        "int": lambda: rng.randint(-3, 3),
        "float": lambda: rng.uniform(-1, 1),
        "complex": lambda: complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
        "zero": lambda: 0,
    }
    for draw in draws.values():
        vals = [0] * p
        for x in supp:
            vals[x] = draw()
        f = GroupFn(gamma.field.group, tuple(vals))
        for k in (2, 3) if len(supp) <= 12 else (2,):
            got = check_tk_characters(gamma, f, k)
            assert repr(got) == repr(oracle.tk_character_checks(gamma, f, k))
