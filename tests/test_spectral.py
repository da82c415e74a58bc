import math
import random
import struct
import warnings

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from addcomb import spectral as spectral_module
from addcomb import verify as verify_module
from addcomb.config import TOL
from addcomb.energy import correlation_counts
from addcomb.groups import (
    CyclicGroup,
    GroupSet,
    _exact_operands,
    indicator,
    restricted_matrix,
    triple_product_sum,
)
from addcomb.spectral import (
    block_kernel_families,
    build_restricted_operator,
    check_cycle_sums,
    check_traces,
    check_triangle_inequality,
    correlation_kernel,
    cycle_sums,
    eigendecompose,
    first_eigenfunction_bounds,
    jacobi_eigh,
    jacobi_eigh_stack,
    rayleigh_indicator,
    top_eigenpair,
    triangle_sum,
)
from addcomb.subgroup import make_field, subgroup
from addcomb.transform import GroupFn
import oracle
from oracle import cycle_enumeration, triangle_enumeration


def gamma_setup():
    g = CyclicGroup(7)
    gamma = GroupSet.of(g, [1, 2, 4])
    psi = GroupFn(g, correlation_counts(gamma, gamma))
    return gamma, psi


def rand_instance(rng, n=16, density=0.5):
    g = CyclicGroup(n)
    a = GroupSet.of(g, [x for x in range(n) if rng.random() < density] or [0])
    h = GroupFn(g, tuple(1 if rng.random() < 0.5 else 0 for _ in range(n)))
    if not any(h.values):
        h = GroupFn.delta(g, 0)
    return a, h


def test_operator_matrix_examples():
    gamma, psi = gamma_setup()
    op = build_restricted_operator(gamma, psi)
    expect = 2 * np.eye(3) + np.ones((3, 3))
    assert np.array_equal(op.matrix, expect)
    g = gamma.group
    ident = build_restricted_operator(gamma, GroupFn.delta(g, 0))
    assert np.array_equal(ident.matrix, np.eye(3))
    ones = build_restricted_operator(gamma, GroupFn.constant(g, 1))
    assert np.array_equal(ones.matrix, np.ones((3, 3)))


def test_eigendecompose_golden():
    gamma, psi = gamma_setup()
    spectrum = eigendecompose(build_restricted_operator(gamma, psi))
    assert max(abs(a - b) for a, b in zip(spectrum.eigenvalues, (5, 2, 2))) < 1e-10
    ident = eigendecompose(
        build_restricted_operator(gamma, GroupFn.delta(gamma.group, 0))
    )
    assert ident.eigenvalues == (1.0, 1.0, 1.0)
    zero = eigendecompose(
        build_restricted_operator(gamma, GroupFn.constant(gamma.group, 0))
    )
    assert zero.eigenvalues == (0.0, 0.0, 0.0)


def test_jacobi_reconstruction_and_orthonormality():
    rng = random.Random(1)
    for n in (3, 8, 20):
        m = np.array([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)], float)
        m = (m + m.T) / 2
        eigs, vecs, off = jacobi_eigh(m)
        assert off <= 1e-10 * max(1.0, float(np.abs(m).max()) * n)
        recon = vecs @ np.diag(eigs) @ vecs.T
        scale = max(1.0, float(np.abs(m).max()))
        assert float(np.abs(recon - m).max()) <= 1e-8 * scale
        gram = vecs.T @ vecs
        assert float(np.abs(gram - np.eye(n)).max()) <= 1e-8
        assert all(a >= b - 1e-12 for a, b in zip(eigs, eigs[1:]))


def test_jacobi_empty_matrix_has_empty_spectrum():
    eigs, vecs, off = jacobi_eigh(np.zeros((0, 0)))
    assert eigs.shape == (0,) and vecs.shape == (0, 0) and off == 0.0


def test_jacobi_rejects_nonsymmetric():
    with pytest.raises(ValueError):
        jacobi_eigh(np.array([[0.0, 1.0], [2.0, 0.0]]))


def test_jacobi_rejects_an_overflowing_norm():
    """Past about 1e154 the squared Frobenius norm overflows, and the sweep
    would return the diagonal unrotated; at 1e150 it still diagonalizes."""
    big = np.array([[0.0, 1e200], [1e200, 0.0]])
    g = CyclicGroup(4)
    op = build_restricted_operator(GroupSet.of(g, [0, 1]), GroupFn(g, (0.0, 1e200, 0.0, 1e200)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the ValueError alone, no overflow warning
        with pytest.raises(ValueError, match="finite Frobenius norm"):
            jacobi_eigh(big)
        with pytest.raises(ValueError, match="finite Frobenius norm"):
            eigendecompose(op)
    eigs, _, _ = jacobi_eigh(big / 1e50)
    assert np.allclose(eigs, [1e150, -1e150], rtol=1e-15, atol=0)


def test_nonsymmetric_operator_rejected():
    g = CyclicGroup(5)
    a = GroupSet.of(g, [0, 1, 3])
    psi = GroupFn(g, (0, 1, 0, 0, 0))  # not even
    op = build_restricted_operator(a, psi)
    assert not op.symmetric
    with pytest.raises(ValueError):
        eigendecompose(op)


def test_real_kernel_gives_a_real_symmetric_operator():
    """psi = h ∘ h of a real, non-integer h is real and even: a float64
    matrix that diagonalizes, with no ComplexWarning on the way."""
    g = CyclicGroup(8)
    a = GroupSet.of(g, [0, 1, 3])
    h = GroupFn(g, (0.5, 1, 0, 0, 0, 0, 0, 0.25))
    psi = correlation_kernel(h)
    assert h.kind == psi.kind == "real" and psi.table.dtype == np.float64
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        op = build_restricted_operator(a, psi)
        assert op.matrix.dtype == np.float64 and op.symmetric
        spectrum = eigendecompose(op)
        report = first_eigenfunction_bounds(a, h)
        tri = check_triangle_inequality(a, h)
        cycles = check_cycle_sums(a, h, spectrum)
        sums = cycle_sums(a, psi, (3, 4, 5))
    ref = np.linalg.eigvalsh(op.matrix)[::-1]
    scale = max(1.0, abs(ref).max())
    assert np.allclose(spectrum.eigenvalues, ref, rtol=0, atol=TOL.spectrum_rel * scale)
    assert abs(report.mu0 - ref[0]) <= TOL.spectrum_rel * max(1.0, ref[0])
    assert all(c.passed for c in report.checks) and tri.passed and tri.tol > 0
    assert abs(tri.rhs - triangle_enumeration(a.members, psi.values, 8)) <= 1e-12 * tri.rhs
    assert len(cycles) == 6 and all(c.passed for c in cycles)
    for k, v in sums.items():
        assert type(v) is float
        assert abs(v - float((ref ** k).sum())) <= TOL.cycle_rel * max(1.0, abs(v))
    odd = GroupFn(g, (0, 0.5, 0, 0, 0, 0, 0, 0.25))  # real but not even
    assert not build_restricted_operator(a, odd).symmetric
    cplx = GroupFn(g, (1, 0.5j, 0, 0, 0, 0, 0, -0.5j))  # even, but complex
    op = build_restricted_operator(a, cplx)
    assert op.matrix.dtype == np.complex128 and not op.symmetric


def test_traces_golden_and_random():
    gamma, psi = gamma_setup()
    op = build_restricted_operator(gamma, psi)
    spectrum = eigendecompose(op)
    assert abs(spectrum.power_sum(1) - 9) < 1e-8
    assert abs(spectrum.power_sum(2) - 33) < 1e-8
    assert all(c.passed for c in check_traces(op, spectrum))
    rng = random.Random(2)
    for _ in range(10):
        a, h = rand_instance(rng)
        op = build_restricted_operator(a, correlation_kernel(h))
        spectrum = eigendecompose(op)
        assert all(c.passed for c in check_traces(op, spectrum))


def test_trace_square_dual_matches_the_loop():
    """The dual side of the squared trace agrees with the generator loop
    within 1e-12 of the identity's scale, for int and real kernels."""
    rng = random.Random(6)
    for n in (5, 16, 33):
        for _ in range(3):
            a, h = rand_instance(rng, n)
            psi = correlation_kernel(h)
            for kernel in (psi, GroupFn(a.group, psi.table * 0.37 + 0.1)):
                op = build_restricted_operator(a, kernel)
                got = check_traces(op, eigendecompose(op))[2]
                aa = a.autocorrelation.values
                exact = sum(kernel.values[z] ** 2 * aa[z] for z in range(n))
                want = abs(oracle.trace_square_dual(a, kernel) - exact) / max(1.0, abs(exact))
                assert got.name == "trace-square-dual"
                assert abs(got.lhs - want) <= 1e-12


def test_traces_delta_kernel():
    rng = random.Random(3)
    a, _ = rand_instance(rng, 12)
    op = build_restricted_operator(a, GroupFn.delta(a.group, 0))
    spectrum = eigendecompose(op)
    assert abs(spectrum.power_sum(1) - len(a)) < 1e-10
    assert abs(spectrum.power_sum(2) - len(a)) < 1e-10


def embed_full_operator(a, psi):
    """The N x N operator psi(x-y) A(x) A(y): zero off A x A, so it has the
    restricted operator's nonzero spectrum."""
    n = a.group.modulus
    mat = np.zeros((n, n))
    mat[np.ix_(a.members, a.members)] = restricted_matrix(a, psi.table)
    return mat


def test_restriction_embedding_same_nonzero_spectrum():
    rng = random.Random(4)
    for _ in range(5):
        a, h = rand_instance(rng, 12)
        psi = correlation_kernel(h)
        restricted = eigendecompose(build_restricted_operator(a, psi)).eigenvalues
        full, _, _ = jacobi_eigh(embed_full_operator(a, psi))
        scale = max(1.0, max(abs(v) for v in full))
        nz_r = sorted(v for v in restricted if abs(v) > 1e-8 * scale)
        nz_f = sorted(float(v) for v in full if abs(v) > 1e-8 * scale)
        assert len(nz_r) == len(nz_f)
        assert all(abs(x - y) <= 1e-7 * scale for x, y in zip(nz_r, nz_f))


def test_kernel_nonnegative_definite_and_rayleigh():
    rng = random.Random(5)
    for _ in range(10):
        a, h = rand_instance(rng)
        psi = correlation_kernel(h)
        spectrum = eigendecompose(build_restricted_operator(a, psi))
        bound = -1e-8 * max(1.0, abs(spectrum.eigenvalues[0]))
        assert all(v >= bound for v in spectrum.eigenvalues)
        assert spectrum.eigenvalues[0] >= float(rayleigh_indicator(a, psi)) - 1e-8


def test_triangle_golden_and_trivial():
    gamma, psi = gamma_setup()
    h = GroupFn(gamma.group, tuple(indicator(gamma).values))
    c = check_triangle_inequality(gamma, h)
    # psi = h∘h is exactly the autocorrelation; lhs = 141 >= 125
    assert c.rhs == 141
    assert float(c.lhs) == 125
    d = GroupFn.delta(gamma.group, 0)
    c2 = check_triangle_inequality(gamma, d)
    assert c2.rhs == len(gamma)
    assert c2.passed


def test_triangle_random_vs_enumeration():
    rng = random.Random(6)
    for _ in range(50):
        a, h = rand_instance(rng)
        psi = correlation_kernel(h)
        assert triangle_sum(a, psi) == triangle_enumeration(
            a.members, psi.values, a.group.modulus
        )
        assert check_triangle_inequality(a, h).passed


def test_triangle_sum_is_the_cube_trace_for_even_kernels():
    """For psi = h ∘ h, psi(-x) = psi(x), so the restricted matrix M is
    symmetric and the triple sum is tr M^3, the value the block kernel
    rows take as both the triangle lhs and the k = 3 cycle sum."""
    rng = random.Random(14)
    for _ in range(30):
        n = rng.choice([5, 8, 13, 16])
        g = CyclicGroup(n)
        a = GroupSet.of(g, rng.sample(range(n), rng.randint(1, n)))
        psi = correlation_kernel(GroupFn(g, np.array([rng.randint(-4, 4) for _ in range(n)])))
        m = restricted_matrix(a, psi.table)
        assert (m == m.T).all()
        assert triangle_sum(a, psi) == triple_product_sum(a, psi.table) == int(np.trace(m @ m @ m))


def _triangle_winner(a, h):
    """Index of the bound ``check_triangle_inequality`` compares against:
    (s1/|A|)^3, |psi(0)|^3 |A| or s2^1.5 / |A|^0.5, the first largest."""
    psi, aa, na = correlation_kernel(h).values, a.autocorrelation.values, len(a)
    s1 = sum(p * c for p, c in zip(psi, aa))
    s2 = sum(p * p * c for p, c in zip(psi, aa))
    keys = [s1 ** 3 / na ** 3, float(abs(psi[0]) ** 3 * na), float(s2) ** 1.5 / math.sqrt(na)]
    return keys.index(max(keys))


def test_block_kernel_families_match_the_per_set_checks_row_by_row():
    """Every kernel family of a block agrees with the per-set checks on
    each instance: the same rows exist, with the same decision, the same
    slack_float() bits and the same record from ``row``.  The blocks hold
    instances where each triangle bound wins, a zero kernel (degenerate
    top eigenvalue) and a mix of instances with and without a spectrum."""
    rng = random.Random(29)
    g = CyclicGroup(5)
    fixed = [([2, 3], [0, 2, 0, 0, 0]), ([1, 2, 3], [0, 0, 2, 0, 1]), ([0, 1, 3], [0] * 5)]
    blocks = [[(GroupSet.of(g, m), GroupFn(g, np.array(h))) for m, h in fixed]]
    for n in (5, 7, 12, 16):
        g = CyclicGroup(n)
        blocks += [[(GroupSet.of(g, rng.sample(range(n), rng.randint(1, n))),
                     GroupFn(g, np.array([rng.choice([0, 0, 1, 2, 3]) for _ in range(n)])))
                    for _ in range(8)] for _ in range(3)]
    winners, degenerate, names = set(), 0, set()
    bits = lambda v: struct.pack("<d", v)  # noqa: E731
    for block in blocks:
        sets, factors = [a for a, _ in block], [h for _, h in block]
        spectral = [rng.random() < 0.5 for _ in block]
        spectra = [eigendecompose(build_restricted_operator(a, correlation_kernel(h)))
                   if flag else None for (a, h), flag in zip(block, spectral)]
        families = block_kernel_families(sets, factors, spectra)
        for i, (a, h) in enumerate(block):
            winners.add(_triangle_winner(a, h))
            report = first_eigenfunction_bounds(a, h)
            degenerate += report.degenerate
            rows = {c.name: c for c in (check_triangle_inequality(a, h),
                                        *check_cycle_sums(a, h, spectra[i]), *report.checks)}
            assert {f.name for f in families if f.slacks[i] is not None} == set(rows)
            for f in families:
                if f.name not in rows:
                    assert f.passed[i] is None
                    continue
                want, got = rows[f.name], f.row(i)
                names.add(f.name)
                assert f.passed[i] == want.passed, (f.name, i)
                assert bits(f.slacks[i]) == bits(want.slack_float()), (f.name, i)
                assert (got.lhs, got.rhs, got.slack, got.passed) == (
                    want.lhs, want.rhs, want.slack, want.passed)
    assert winners == {0, 1, 2} and degenerate and len(names) == 11


def test_triangle_sum_non_even_kernels():
    """Integer kernels with psi(-x) != psi(x), where the triple sum is not
    trace(M^3); the last one sums past 2**63."""
    rng = random.Random(21)
    traces_differ = False
    for n in (7, 12, 19, 31):
        g = CyclicGroup(n)
        a = GroupSet.of(g, rng.sample(range(n), rng.randint(3, n)))
        psi = GroupFn(g, tuple(rng.randint(-5, 5) for _ in range(n)))
        want = triangle_enumeration(a.members, psi.values, n)
        assert triangle_sum(a, psi) == want
        m = np.array([[psi.values[(x - y) % n] for y in a] for x in a], dtype=np.int64)
        traces_differ |= int(np.trace(m @ m @ m)) != want
    assert traces_differ
    g = CyclicGroup(31)
    a = GroupSet.of(g, range(1, 31))
    psi = GroupFn(g, tuple(rng.randint(2 ** 21, 2 ** 22) for _ in range(31)))
    want = triangle_enumeration(a.members, psi.values, 31)
    assert want > 2 ** 63
    assert triangle_sum(a, psi) == want


def test_cycle_sums_golden():
    gamma, psi = gamma_setup()
    h = GroupFn(gamma.group, tuple(indicator(gamma).values))
    spectrum = eigendecompose(build_restricted_operator(gamma, psi))
    assert cycle_sums(gamma, psi, [4])[4] == 657
    assert cycle_sums(gamma, psi, [3])[3] == triangle_sum(gamma, psi) == 141
    assert all(c.passed for c in check_cycle_sums(gamma, h, spectrum))
    d = GroupFn.delta(gamma.group, 0)
    assert cycle_sums(gamma, correlation_kernel(d), [5])[5] == len(gamma)


def test_cycle_sums_vs_enumeration():
    rng = random.Random(7)
    for _ in range(10):
        a, h = rand_instance(rng, 9)
        psi = correlation_kernel(h)
        for k in (3, 4):
            assert cycle_sums(a, psi, [k])[k] == cycle_enumeration(
                a.members, psi.values, 9, k
            )


def test_cycle_sums_large_instance_shape_runs_int64():
    """|A| = 64 in Z/256 with a 0/1 factor h, the spectral shape of the
    large-instances benchmark: the whole k <= 5 chain fits int64 as
    |A|^4 products of five entries, and the traces equal the Python-int
    chain."""
    rng = random.Random(64)
    g = CyclicGroup(256)
    a = GroupSet.of(g, rng.sample(range(256), 64))
    h = GroupFn(g, tuple(rng.randint(0, 1) for _ in range(256)))
    psi = correlation_kernel(h)
    m = restricted_matrix(a, psi.table)
    assert _exact_operands((m,) * 5, 64 ** 4)[0].dtype == np.int64
    assert cycle_sums(a, psi, (3, 4, 5)) == oracle.cycle_chain(a.members, psi.values, 256, (3, 4, 5))


@pytest.mark.parametrize("values, ks", [
    # entries near 2^20: the k = 5 chain and its k = 3 trace pass 2^63
    ([(2 ** 20 - 7 * x) for x in range(31)], (3, 4, 5)),
    # 12^2 * 400000^3 <= INT64_MAX: an int64 chain whose trace does not fit
    ([400_000] * 31, (3,)),
    # every entry of M^3 is 12^2 * 500000^3 > INT64_MAX, though 12 * 500000^3 fits
    ([500_000] * 31, (3,)),
])
def test_cycle_sums_past_int64(values, ks):
    g = CyclicGroup(31)
    a = GroupSet.of(g, range(0, 31, 2)[:12])
    psi = GroupFn(g, tuple(values))
    want = oracle.cycle_chain(a.members, psi.values, 31, ks)
    assert want[3] > 2 ** 63
    assert cycle_sums(a, psi, ks) == want


def test_cycle_k_validation():
    gamma, psi = gamma_setup()
    for ks in ([], [0], [0, 3]):
        with pytest.raises(ValueError):
            cycle_sums(gamma, psi, ks)


def test_check_cycle_sums_one_chain_matches_enumeration():
    """One check_cycle_sums call gives the enumerated closed-cycle sums for
    k = 3, 4, 5, with the bound and eigenvalue rows of each k in order."""
    rng = random.Random(8)
    for _ in range(5):
        a, h = rand_instance(rng, 9)
        psi = correlation_kernel(h)
        spectrum = eigendecompose(build_restricted_operator(a, psi))
        checks = check_cycle_sums(a, h, spectrum)
        assert [c.name for c in checks] == [
            f"kernel-cycle-{kind}-k{k}" for k in (3, 4, 5) for kind in ("bound", "eigen")
        ]
        for k, bound in zip((3, 4, 5), checks[::2]):
            # from_ge keeps the cycle sum on the rhs slot
            assert bound.rhs == cycle_enumeration(a.members, psi.values, 9, k)
        assert all(c.passed for c in checks)


def test_exact_kernel_bounds_compare_without_tolerance(monkeypatch):
    """An integer kernel gives exact sides to the cycle bounds and to the
    triangle bound where an exact bound wins, and those compare with tol 0.
    For h = 1 on Z/64 and A = [0, 8), psi = 64 everywhere and every bound
    is an equality, with Rayleigh quotient 512: a relative tolerance would
    let a sum one below its bound pass, by up to 3.5e6 at k = 5."""
    g = CyclicGroup(64)
    a = GroupSet.of(g, range(8))
    h = GroupFn.constant(g, 1)
    ray = rayleigh_indicator(a, correlation_kernel(h))
    assert ray == 512 and ray ** 5 > 10 ** 8
    exact = [*check_cycle_sums(a, h), check_triangle_inequality(a, h)]
    assert all(c.passed and c.slack == 0 and c.tol == 0 for c in exact)
    below = check_triangle_inequality(a, h).lhs - 1  # from_ge keeps the bound as lhs
    monkeypatch.setattr(spectral_module, "triangle_sum", lambda a, psi: below)
    monkeypatch.setattr(
        spectral_module, "cycle_sums", lambda a, psi, ks: {k: math.ceil(ray ** k) - 1 for k in ks}
    )
    assert not check_triangle_inequality(a, h).passed
    assert [c.passed for c in check_cycle_sums(a, h)] == [False] * 3


def test_first_eigenfunction_subgroup_equality():
    g = CyclicGroup(12)
    a = GroupSet.of(g, range(0, 12, 3))
    h = GroupFn(g, tuple(indicator(a).values))
    rep = first_eigenfunction_bounds(a, h)
    assert all(c.passed for c in rep.checks) and not rep.degenerate
    assert abs(rep.vector_sum ** 2 - len(a)) < 1e-8


def test_first_eigenfunction_golden():
    gamma, psi = gamma_setup()
    h = GroupFn(gamma.group, tuple(indicator(gamma).values))
    rep = first_eigenfunction_bounds(gamma, h)
    assert abs(rep.mu0 - 5) < 1e-8
    assert all(c.passed for c in rep.checks)
    # explicit chain: 3 >= (sum f0)^2 = 3 >= 25/9
    assert rep.vector_sum ** 2 >= 25 / 9 - 1e-8


def test_first_eigenfunction_random():
    rng = random.Random(8)
    for _ in range(100):
        a, h = rand_instance(rng, 32, rng.uniform(0.1, 0.9))
        rep = first_eigenfunction_bounds(a, h)
        assert all(c.passed for c in rep.checks)


def test_first_eigenfunction_degenerate_kernel():
    g = CyclicGroup(8)
    a = GroupSet.of(g, [0, 3])
    rep = first_eigenfunction_bounds(a, GroupFn.constant(g, 0))
    assert rep.degenerate
    assert rep.mu0 == 0.0


def test_first_eigenfunction_rejects_signed_factor():
    g = CyclicGroup(8)
    a = GroupSet.of(g, [0, 3])
    with pytest.raises(ValueError):
        first_eigenfunction_bounds(a, GroupFn(g, (-1,) + (0,) * 7))


@pytest.mark.parametrize("check", [
    first_eigenfunction_bounds, check_triangle_inequality, check_cycle_sums,
])
def test_complex_kernel_factor_rejected(check):
    """Each check on psi = h ∘ h rejects a complex h with one ValueError,
    before any comparison of its values with 0."""
    g = CyclicGroup(8)
    a = GroupSet.of(g, [0, 1, 3])
    h = GroupFn(g, (1, 0.5j, 0, 0, 0, 0, 0, -0.5j))
    with pytest.raises(ValueError, match="kernel factor must be real-valued"):
        check(a, h)


def test_jacobi_residual_meets_its_target():
    """The residual sums the off-diagonal squares directly.  On this
    operator, the spectral shape of the large-instances benchmark,
    sum(m^2) - sum(diag^2) had stalled at 2^-15, far above the target, and
    every sweep of the budget ran."""
    rng = random.Random(1)
    g = CyclicGroup(160)
    a = GroupSet.of(g, rng.sample(range(160), 40))
    h = GroupFn(g, tuple(rng.randint(0, 1) for _ in range(160)))
    m = build_restricted_operator(a, correlation_kernel(h)).matrix
    eigs, _, off = jacobi_eigh(m)
    assert off <= TOL.jacobi_off * np.linalg.norm(m)
    ref = np.linalg.eigvalsh(m)[::-1]
    assert np.allclose(eigs, ref, rtol=0, atol=TOL.spectrum_rel * abs(ref).max())


def test_top_eigenpair_matches_jacobi():
    rng = random.Random(9)
    for _ in range(20):
        a, h = rand_instance(rng, 16)
        op = build_restricted_operator(a, correlation_kernel(h))
        mu, vec = top_eigenpair(op.matrix)
        eigs, _, _ = jacobi_eigh(op.matrix)
        assert abs(mu - eigs[0]) <= 1e-8 * max(1.0, abs(eigs[0]))
        assert float(np.min(vec)) >= -1e-10


@pytest.mark.parametrize("n", [1, 2, 3, 12, 28, 50])
def test_jacobi_bit_identical_to_reference_sweep(n):
    """The one-array sweep gives exactly the eigenvalues, eigenvectors
    (values and memory layout) and residual of the separate row, column and
    vector updates, on symmetric integer and float matrices."""
    rng = np.random.default_rng(n)
    ints = rng.integers(-5, 6, (n, n))
    floats = rng.standard_normal((n, n))
    for m in ((ints + ints.T).astype(float), floats + floats.T):
        _assert_same_sweep(m)


def test_jacobi_bit_identical_on_nearly_symmetric_input():
    """A matrix off symmetry by 1e-15, inside the allclose guard, runs the
    same sweep on the same (unsymmetrized) entries."""
    rng = np.random.default_rng(7)
    a = rng.standard_normal((9, 9))
    m = a + a.T
    m[2, 5] += 1e-15
    assert not np.array_equal(m, m.T)
    _assert_same_sweep(m)


def test_jacobi_bit_identical_on_diagonalized_operators():
    """The operators the library diagonalizes: psi = h ∘ h for a 0/1 h on
    |A| = 64 in Z/256 (the large-instances shape, whose last sweep rotates
    tiny pivots that move near-zero diagonal bits), and Gamma ∘ Gamma on
    Gamma for subgroups of F_101."""
    rng = random.Random(3)
    g = CyclicGroup(256)
    a = GroupSet.of(g, rng.sample(range(256), 64))
    h = GroupFn(g, tuple(rng.randint(0, 1) for _ in range(256)))
    _assert_same_sweep(build_restricted_operator(a, correlation_kernel(h)).matrix)
    fld = make_field(101)
    for t in (20, 50):
        gamma = subgroup(fld, t)
        _assert_same_sweep(build_restricted_operator(gamma.as_set, gamma.autocorrelation).matrix)


def test_jacobi_bit_identical_when_zero_pivots_are_skipped():
    """Two interleaved blocks: every pivot between them is an exact zero
    (a rotation inside one block keeps it zero), so the sweep takes the skip
    branch, which a rotation would turn into a division by zero."""
    rng = np.random.default_rng(5)
    blocks = rng.standard_normal((2, 6, 6))
    m = np.zeros((12, 12))
    for b, idx in zip(blocks, (np.arange(0, 12, 2), np.arange(1, 12, 2))):
        m[np.ix_(idx, idx)] = b + b.T
    _assert_same_sweep(m)
    _, vecs, _ = jacobi_eigh(m)
    assert np.count_nonzero(vecs) == 2 * 6 * 6  # no rotation mixed the blocks


def test_jacobi_bit_identical_at_the_largest_reachable_theta():
    """A pivot just above the skip bound with the diagonal gap far larger
    gives theta = 5e38.  The skip rule keeps |apq| above 1e-40 (|app| +
    |aqq|) >= 1e-40 |aqq - app|, so |theta| stays below about 5e39 for
    every input and the |theta| > 1e100 branch is never taken."""
    m = np.zeros((4, 4))
    m[1, 1] = 1e-250
    m[0, 1] = m[1, 0] = 1e-289
    m[2, 3] = m[3, 2] = 1.0  # keeps the off-diagonal norm above the target
    _assert_same_sweep(m)


def test_top_eigenpair_bit_identical_to_three_product_loop():
    """One product per power step gives the mu and the vector bytes of the
    loop that forms matrix @ v three times per step, including the zero
    matrix and a sign-split spectrum that falls back to Jacobi."""
    rng = random.Random(9)
    mats = [
        build_restricted_operator(a, correlation_kernel(h)).matrix
        for a, h in (rand_instance(rng, 24) for _ in range(5))
    ]
    gamma = subgroup(make_field(101), 20)
    mats.append(build_restricted_operator(gamma.as_set, gamma.autocorrelation).matrix)
    mats += [np.zeros((3, 3)), np.diag([1.0, -1.0])]
    for m in mats:
        mu, vec = top_eigenpair(m)
        want_mu, want_vec = oracle.top_eigenpair(m)
        assert repr(mu) == repr(want_mu)
        assert vec.tobytes() == want_vec.tobytes()


def _assert_same_sweep(m):
    eigs, vecs, off = jacobi_eigh(m)
    want_eigs, want_vecs, want_off = oracle.jacobi_eigh(m)
    assert np.array_equal(eigs, want_eigs)
    assert np.array_equal(vecs, want_vecs)
    assert vecs.strides == want_vecs.strides
    assert off == want_off


def _assert_stack_matches(mats):
    got = jacobi_eigh_stack(mats)
    assert len(got) == len(mats)
    for m, eigs in zip(mats, got):
        want = jacobi_eigh(m)[0]
        assert eigs.dtype == want.dtype and eigs.tobytes() == want.tobytes()


def test_jacobi_stack_bit_identical_on_the_seed_1_battery(monkeypatch):
    """The default seed-1 inequality battery diagonalizes its 56 spectral
    instances (sizes 1 to 32) in one stack, with jacobi_eigh's eigenvalue
    bytes for each."""
    stacks = []
    real = verify_module.jacobi_eigh_stack
    monkeypatch.setattr(verify_module, "jacobi_eigh_stack",
                        lambda mats: stacks.append(mats) or real(mats))
    verify_module.run_inequality_suite(1, 1000)
    (mats,) = stacks
    assert len(mats) == 56 and {len(m) for m in mats} >= {1, 2, 32}
    _assert_stack_matches(mats)


def _stack_members():
    """Members every mixed stack holds: 0 x 0, 1 x 1, all-zero (with -0.0
    entries), diagonal (converged before any sweep), 2 x 2 (one sweep), two
    interleaved blocks whose exact-zero pivots are skipped while other
    members rotate, a matrix off symmetry by 1e-15, and one at scale 1e-30,
    whose own convergence target is far below every other member's."""
    rng = np.random.default_rng(5)
    blocks = rng.standard_normal((2, 6, 6))
    interleaved = np.zeros((12, 12))
    for b, idx in zip(blocks, (np.arange(0, 12, 2), np.arange(1, 12, 2))):
        interleaved[np.ix_(idx, idx)] = b + b.T
    a = rng.standard_normal((9, 9))
    nearly = a + a.T
    nearly[2, 5] += 1e-15
    zero = np.zeros((5, 5))
    zero[1, 2] = zero[2, 1] = zero[3, 3] = -0.0
    tiny = 1e-30 * (a[:4, :4] + a[:4, :4].T)
    return [np.zeros((0, 0)), np.array([[-2.5]]), zero, np.diag([3.0, -1.0, 2.0]),
            np.array([[1.0, 2.0], [2.0, -1.0]]), interleaved, nearly, tiny]


@st.composite
def _symmetric_matrices(draw):
    n = draw(st.integers(0, 12))
    entries = draw(st.sampled_from([st.integers(-4, 4).map(float),
                                    st.floats(-1e3, 1e3, allow_nan=False)]))
    a = np.array(draw(st.lists(entries, min_size=n * n, max_size=n * n)), dtype=float)
    a = a.reshape(n, n)
    return np.where(np.triu(np.ones((n, n), dtype=bool)), a, a.T)  # -0.0 kept


@settings(max_examples=40, deadline=None)
@given(st.lists(_symmetric_matrices(), max_size=6), st.randoms(use_true_random=False))
def test_jacobi_stack_bit_identical_on_mixed_stacks(mats, rnd):
    """Stacks of mixed sizes 0 to 12, in any order, whose members converge
    at different sweeps: each member's eigenvalue bytes are jacobi_eigh's."""
    members = mats + _stack_members()
    rnd.shuffle(members)
    _assert_stack_matches(members)


def test_jacobi_stack_raises_as_jacobi_eigh_does():
    """A non-symmetric member, or one whose Frobenius norm overflows, raises
    jacobi_eigh's ValueError, with no overflow warning on the way."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="symmetric square"):
            jacobi_eigh_stack([np.eye(3), np.array([[0.0, 1.0], [2.0, 0.0]])])
        with pytest.raises(ValueError, match="finite Frobenius norm"):
            jacobi_eigh_stack([np.eye(3), np.array([[0.0, 1e200], [1e200, 0.0]])])
