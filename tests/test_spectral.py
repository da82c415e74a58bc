import math
import random
import warnings

import numpy as np
import pytest

from addcomb import spectral as spectral_module
from addcomb.config import TOL
from addcomb.energy import correlation_counts
from addcomb.groups import CyclicGroup, GroupSet, _exact_operands, indicator, restricted_matrix
from addcomb.spectral import (
    build_restricted_operator,
    check_cycle_sums,
    check_traces,
    check_triangle_inequality,
    correlation_kernel,
    cycle_sums,
    eigendecompose,
    first_eigenfunction_bounds,
    jacobi_eigh,
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
