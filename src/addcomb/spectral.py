"""Restricted kernel operators psi(x - y) on a set, spectra, and bounds.

Diagonalization is a classical cyclic Jacobi sweep (symmetric matrices
only), adequate for the sizes this package targets (n <= 512).  Each
rotation updates one array [m | v^T]: two rows, which also rotates two
eigenvector columns, then two columns of m, taken as two rows of one m.T
view.  Each pair is one ufunc product with R = [[c, -s], [s, c]] into a
preallocated buffer and one sum of its halves; c x + (-s) y equals the
textbook c x - s y exactly, so eigenvalues, eigenvectors and residual are
bit-identical to the separate row, column and vector updates that
tests/oracle.py keeps as the reference.  The pivot and the two diagonal
entries are read as Python floats with ``item``.  ``jacobi_eigh_stack``
runs the same sweeps on many matrices at once, each pair one set of ufunc
calls for every matrix that has it, and returns the same eigenvalue bytes
without eigenvectors; ``verify``'s inequality battery diagonalizes with it.
A kernel with no complex value gives a float64 operator.
Kernels with nonnegative Fourier transform are always *constructed* as
psi = h ∘ h for real h, which forces the hypothesis instead of testing it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .checks import Family, IneqCheck
from .config import TOL
from .groups import (
    GroupFn,
    GroupSet,
    _exact_operands,
    _require_same_group,
    check_nonempty,
    indicator,
    restricted_matrix,
    triple_product_sum,
)
from .transform import correlate, dft


@dataclass(frozen=True)
class SpectralOperator:
    base_set: GroupSet
    kernel: GroupFn
    matrix: np.ndarray
    symmetric: bool


@dataclass(frozen=True)
class Spectrum:
    eigenvalues: tuple[float, ...]  # descending

    def power_sum(self, k: int) -> float:
        return float(sum(mu ** k for mu in self.eigenvalues))


def correlation_kernel(h: GroupFn) -> GroupFn:
    """psi = h ∘ h for real h: symmetric with nonnegative Fourier transform.
    Cached on h, so every check on one h shares one psi."""
    if h.kind == "complex":
        raise ValueError("kernel factor must be real-valued")
    return h.autocorrelation


def build_restricted_operator(a: GroupSet, psi: GroupFn) -> SpectralOperator:
    _require_same_group(a, psi)
    check_nonempty(a)
    table = psi.table
    real = psi.kind != "complex"
    mat = restricted_matrix(a, table).astype(float if real else complex)
    symmetric = real and bool((table == table[-np.arange(len(table)) % len(table)]).all())
    return SpectralOperator(a, psi, mat, symmetric)


def _jacobi_start(matrix) -> tuple[np.ndarray, float | None]:
    """A float copy of a symmetric matrix and the off-diagonal norm that
    ends its sweeps, or None when no rotation is needed: n <= 1, or a zero
    matrix, returned as +0.0 throughout.  Raises on non-symmetric input and
    on a Frobenius norm that overflows."""
    m = np.array(matrix, dtype=float)
    n = m.shape[0]
    if m.shape != (n, n) or not np.allclose(m, m.T, atol=1e-12 * (1 + np.abs(m).max(initial=0))):
        raise ValueError("jacobi_eigh needs a symmetric square matrix")
    if n <= 1:
        return m, None
    with np.errstate(over="ignore"):  # an overflow is the error raised below
        fro = math.sqrt(float((m * m).sum()))
    if not math.isfinite(fro):
        # (m * m) overflows at entries near 1.3e154, and an inf target would
        # end the sweep before any rotation
        raise ValueError("jacobi_eigh needs a matrix with a finite Frobenius norm")
    return (m, TOL.jacobi_off * fro) if fro else (np.zeros((n, n)), None)


def jacobi_eigh(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Cyclic Jacobi diagonalization of a real symmetric matrix.

    Returns (eigenvalues descending, eigenvector columns, off-diagonal
    residual).  Raises on non-symmetric input and on a Frobenius norm that
    overflows; reports the residual if the sweep budget runs out.
    """
    m, target = _jacobi_start(matrix)
    n = m.shape[0]
    if target is None:
        return m.diagonal().copy(), np.eye(n), 0.0
    # the off-diagonal norm sums the off-diagonal squares directly:
    # sum(m^2) - sum(diag^2) cancels down to about sqrt(eps) ||m||
    off_diag = ~np.eye(n, dtype=bool)
    # w = [m | v^T]: rotating rows p and q of w rotates rows p and q of m
    # and columns p and q of the eigenvector matrix v in the same step
    w = np.hstack((m, np.eye(n)))
    m = w[:, :n]
    mt = m.T  # rows p and q of mt are columns p and q of m
    item = w.item  # one entry as a Python float
    rot2 = np.empty((2, 2))  # [[c, -s], [s, c]]
    rot = rot2[:, :, None]  # the same, broadcast along a row
    row_buf = np.empty((2, 2, 2 * n))
    col_buf = row_buf[:, :, :n]
    # the halves R[:, 0] x_p and R[:, 1] x_q of each product
    row_xp, row_xq = row_buf[:, 0], row_buf[:, 1]
    col_xp, col_xq = col_buf[:, 0], col_buf[:, 1]
    multiply, add = np.multiply, np.add  # looked up once, not per rotation
    for _ in range(TOL.jacobi_sweeps):
        if math.sqrt(float(np.square(m[off_diag]).sum())) <= target:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = item(p, q)
                app, aqq = item(p, p), item(q, q)
                if abs(apq) <= 1e-40 * (abs(app) + abs(aqq) + 1e-300):
                    continue
                # the skip rule bounds |theta| by about 5e39, so theta^2
                # cannot overflow
                theta = (aqq - app) / (2.0 * apq)
                t = math.copysign(1.0, theta) / (abs(theta) + math.sqrt(theta * theta + 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                rot2[0, 0] = rot2[1, 1] = c
                rot2[0, 1] = -s
                rot2[1, 0] = s
                # rows p and q, then columns p and q: c x + (-s) y is
                # c x - s y exactly, so each pair is one product and one sum
                rows = w[p:q + 1:q - p]
                multiply(rot, rows, row_buf)
                add(row_xp, row_xq, rows)
                cols = mt[p:q + 1:q - p]
                multiply(rot, cols, col_buf)
                add(col_xp, col_xq, cols)
    off = math.sqrt(float(np.square(m[off_diag]).sum()))
    eigs = m.diagonal().copy()
    order = np.argsort(-eigs, kind="stable")
    return eigs[order], w[order, n:].T, off


def jacobi_eigh_stack(matrices) -> list[np.ndarray]:
    """The eigenvalues, descending, of each real symmetric matrix: the bytes
    ``jacobi_eigh`` returns, from the same sweeps run on one zero-padded
    stack sorted by size, without eigenvectors.

    Pair (p, q) rotates, in one set of ufunc calls, the prefix of matrices
    with n > q; a matrix whose pivot the skip rule passes over is masked
    out of the writes.  Each matrix takes its own convergence test on its
    n x n block and leaves the stack once it passes.  Raises as
    ``jacobi_eigh`` does.
    """
    starts = [_jacobi_start(x) for x in matrices]
    out = [m.diagonal().copy() for m, _ in starts]  # for those needing no rotation
    live = sorted((i for i, (_, t) in enumerate(starts) if t is not None),
                  key=lambda i: -len(starts[i][0]))
    sizes = [len(starts[i][0]) for i in live]
    width = sizes[0] if sizes else 0
    stack = np.zeros((len(live), width, width))
    for j, i in enumerate(live):
        stack[j, :sizes[j], :sizes[j]] = starts[i][0]
    # a skipped pivot's lane, which is never written, may divide by zero
    # or overflow
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for sweep in range(TOL.jacobi_sweeps + 1):
            keep = []
            for j, (i, n) in enumerate(zip(live, sizes)):
                m = stack[j, :n, :n]
                off = math.sqrt(float(np.square(m[~np.eye(n, dtype=bool)]).sum()))
                if sweep == TOL.jacobi_sweeps or off <= starts[i][1]:
                    eigs = m.diagonal().copy()
                    out[i] = eigs[np.argsort(-eigs, kind="stable")]
                else:
                    keep.append(j)
            live, sizes = [live[j] for j in keep], [sizes[j] for j in keep]
            if not live:
                break
            width = sizes[0]
            stack = stack[keep, :width, :width]
            # jacobi_eigh's R = [[c, -s], [s, c]] and product buffer, a lane
            # per matrix; pair (p, q) exists in the first prefix[q] lanes
            rot = np.empty((len(keep), 2, 2, 1))
            buf = np.empty((len(keep), 2, 2, width))
            prefix = [sum(n > q for n in sizes) for q in range(width)]
            for p in range(width - 1):
                for q in range(p + 1, width):
                    k = prefix[q]
                    g = stack[:k, p:q + 1:q - p, p:q + 1:q - p]
                    app, apq, aqq = g[:, 0, 0], g[:, 0, 1], g[:, 1, 1]
                    # the lanes that rotate; True, no mask, when all of them do
                    turn = ~(abs(apq) <= 1e-40 * (abs(app) + abs(aqq) + 1e-300))
                    turn = True if turn.all() else turn[:, None, None]
                    theta = (aqq - app) / (2.0 * apq)
                    t = np.copysign(1.0, theta) / (abs(theta) + np.sqrt(theta * theta + 1.0))
                    r = rot[:k, :, :, 0]
                    r[:, 0, 0] = r[:, 1, 1] = c = 1.0 / np.sqrt(t * t + 1.0)
                    r[:, 1, 0] = s = t * c
                    r[:, 0, 1] = -s
                    for x in (stack, stack.transpose(0, 2, 1)):  # rows, then columns
                        pair = x[:k, p:q + 1:q - p]
                        b = np.multiply(rot[:k], pair[:, None], buf[:k])
                        np.add(b[:, :, 0], b[:, :, 1], pair, where=turn)
    return out


def eigendecompose(op: SpectralOperator) -> Spectrum:
    if not op.symmetric:
        raise ValueError("only symmetric operators are diagonalized")
    eigs, _, _ = jacobi_eigh(op.matrix)
    return Spectrum(tuple(float(x) for x in eigs))


def check_traces(op: SpectralOperator, spectrum: Spectrum) -> list[IneqCheck]:
    """Trace and squared-trace identities for the restricted operator.

    sum mu_j = |A| psi(0);  sum mu_j^2 = sum_z psi(z)^2 (A∘A)(z); the second
    is also cross-checked in its dual-side convolution form.
    """
    a = op.base_set
    psi = op.kernel
    n = a.group.modulus
    aa = a.autocorrelation.values
    tr_exact = len(a) * psi.values[0]
    tr_sq_exact = sum(psi.values[z] ** 2 * aa[z] for z in range(n))
    s1 = spectrum.power_sum(1)
    s2 = spectrum.power_sum(2)
    scale1 = max(1.0, abs(tr_exact))
    scale2 = max(1.0, abs(tr_sq_exact))
    out = [
        IneqCheck.from_identity("trace-linear", abs(s1 - tr_exact) / scale1, TOL.spectrum_rel),
        IneqCheck.from_identity("trace-square", abs(s2 - tr_sq_exact) / scale2, TOL.spectrum_rel),
    ]
    # dual-side form of the squared trace: sum_z (phi ∘ phi)(z) |A^(z)|^2
    # for phi = psi^ / N
    phi = GroupFn(a.group, dft(psi).table / n)
    dual = float((correlate(phi, phi).table * np.abs(dft(indicator(a)).table) ** 2).real.sum())
    out.append(
        IneqCheck.from_identity(
            "trace-square-dual", abs(dual - tr_sq_exact) / scale2, TOL.spectrum_rel
        )
    )
    return out


def triangle_sum(a: GroupSet, psi: GroupFn) -> int | float:
    """sum_{x,y,z in A} psi(x-y) psi(x-z) psi(y-z), exact for integer psi:
    tr M^3 for the restricted matrix M of an even psi, such as the
    battery's kernels h ∘ h."""
    _require_same_group(a, psi)
    check_nonempty(a)
    return triple_product_sum(a, psi.table)


def rayleigh_indicator(a: GroupSet, psi: GroupFn):
    """<T 1_A, 1_A> / |A| = |A|^-1 sum_x psi(x)(A∘A)(x), a lower bound for mu_0."""
    _require_same_group(a, psi)
    check_nonempty(a)
    aa = a.autocorrelation.values
    s = sum(p * c for p, c in zip(psi.values, aa))
    if psi.kind == "int":
        return Fraction(s, len(a))
    return s / len(a)


def check_triangle_inequality(a: GroupSet, h: GroupFn) -> IneqCheck:
    """Triple-product lower bounds for kernels psi = h ∘ h."""
    _require_same_group(a, h)
    check_nonempty(a)
    psi = correlation_kernel(h)
    aa = a.autocorrelation.values
    na = len(a)
    lhs = triangle_sum(a, psi)
    s1 = sum(p * c for p, c in zip(psi.values, aa))
    s2 = sum(p * p * c for p, c in zip(psi.values, aa))
    exact = psi.kind == "int"
    if exact:
        bounds = [
            Fraction(s1 ** 3, na ** 3),
            Fraction(abs(psi.values[0]) ** 3 * na),
            float(s2) ** 1.5 / math.sqrt(na),
        ]
        lhs = Fraction(lhs)
    else:
        bounds = [
            s1 ** 3 / na ** 3,
            abs(psi.values[0]) ** 3 * na,
            s2 ** 1.5 / math.sqrt(na),
        ]
    rhs = max(bounds, key=float)
    # an exact lhs against an exact winning bound compares exactly
    tol = 0.0 if isinstance(rhs, Fraction) else TOL.spectrum_rel * max(1.0, float(rhs))
    return IneqCheck.from_ge("kernel-triangle-bound", lhs, rhs, tol)


def cycle_sums(a: GroupSet, psi: GroupFn, ks) -> dict:
    """Closed k-cycle kernel sums over A^k via matrix power traces: one
    restricted matrix and one chain of powers up to K = max(ks).

    Integer kernels stay exact: the chain takes one dtype, for M^K as a sum
    of |A|^(K-1) products of K entries of M, and the traces, which add |A|
    more terms, are summed in Python ints.
    """
    _require_same_group(a, psi)
    ks = sorted(set(ks))
    if not ks or ks[0] < 1:
        raise ValueError("cycle lengths must be >= 1")
    check_nonempty(a)
    m = _exact_operands((restricted_matrix(a, psi.table),) * ks[-1], len(a) ** (ks[-1] - 1))[0]
    out, power = {}, m
    for k in range(1, ks[-1] + 1):
        if k > 1:
            power = power @ m
        if k in ks:
            out[k] = sum(power.diagonal().tolist()) if psi.kind == "int" else float(power.trace())
    return out


def check_cycle_sums(
    a: GroupSet, h: GroupFn, spectrum: Spectrum | None = None
) -> list[IneqCheck]:
    """Closed-cycle sums for k = 3, 4, 5 from one ``cycle_sums`` chain: each
    at least Rayleigh^k and, given the spectrum, equal to sum_j mu_j^k.
    An integer kernel gives an int sum and a Fraction Rayleigh quotient,
    compared exactly."""
    _require_same_group(a, h)
    psi = correlation_kernel(h)
    ray = rayleigh_indicator(a, psi)
    out = []
    for k, lhs in cycle_sums(a, psi, (3, 4, 5)).items():
        tol = 0.0 if isinstance(ray, Fraction) else TOL.cycle_rel * max(1.0, abs(ray) ** k)
        out.append(IneqCheck.from_ge(f"kernel-cycle-bound-k{k}", lhs, ray ** k, tol))
        if spectrum is not None:
            out.append(IneqCheck.from_identity(
                f"kernel-cycle-eigen-k{k}", _eigen_gap(lhs, spectrum.power_sum(k)), TOL.cycle_rel
            ))
    return out


def _eigen_gap(trace, power_sum: float) -> float:
    """|tr M^k - sum_j mu_j^k|, relative to the larger of 1 and either side."""
    return abs(trace - power_sum) / max(1.0, abs(power_sum), abs(trace))


_POWER_ITERS = 4000  # power-iteration steps before the Jacobi fallback


def top_eigenpair(matrix: np.ndarray) -> tuple[float, np.ndarray]:
    """Largest eigenvalue and a nonnegative unit eigenvector.

    Power iteration from the all-ones vector (the iterates stay entrywise
    nonnegative for nonnegative kernels); falls back to Jacobi plus the
    entrywise absolute value of the top eigenvector if convergence stalls.
    """
    n = matrix.shape[0]
    v = np.ones(n) / math.sqrt(n)
    mu = 0.0
    norm = float(np.abs(matrix).max())
    if norm == 0.0:
        return 0.0, v
    w = matrix @ v
    for _ in range(_POWER_ITERS):
        # each norm is numpy's own 1-D real norm, sqrt(x.dot(x)), without
        # the np.linalg.norm wrapper
        nw = math.sqrt(float(w.dot(w)))
        if nw == 0.0:
            return 0.0, v
        v = w / nw
        # one product per step: w = matrix v gives mu, the residual and
        # the next iterate
        w = matrix @ v
        mu = float(v @ w)
        r = w - mu * v
        if math.sqrt(float(r.dot(r))) <= 1e-12 * max(1.0, abs(mu)):
            return mu, np.abs(v)
    eigs, vecs, _ = jacobi_eigh(matrix)
    mu = float(eigs[0])
    v = np.abs(vecs[:, 0])
    return mu, v


@dataclass(frozen=True)
class EigBoundReport:
    mu0: float
    vector_sum: float
    checks: list[IneqCheck] = field(default_factory=list)
    degenerate: bool = False


def first_eigenfunction_bounds(a: GroupSet, h: GroupFn) -> EigBoundReport:
    """Size and sup-norm bounds for the top eigenfunction of psi = h ∘ h.

    Requires h >= 0 so the kernel is nonnegative and the top eigenfunction
    can be taken nonnegative.  A zero top eigenvalue skips the bounds that
    divide by it and flags the report as degenerate.
    """
    _require_same_group(a, h)
    psi = correlation_kernel(h)  # rejects a complex h next
    if any(v < 0 for v in h.values):
        raise ValueError("kernel factor must be nonnegative")
    op = build_restricted_operator(a, psi)
    mu0, g, degenerate, sides = _top_vector_sides(
        op.matrix, len(a), max(abs(v) for v in psi.values), psi.l2_norm_sq(), h.l2_norm_sq()
    )
    return EigBoundReport(mu0, g, [IneqCheck.from_le(*side) for side in sides], degenerate)


def _top_vector_sides(matrix: np.ndarray, size: int, psi_inf, psi_sq, h_sq):
    """(mu0, g, degenerate, sides) for the top eigenpair (mu0, f0) of the
    float restricted matrix of psi = h ∘ h on a set of ``size`` members,
    g = sum f0, given max |psi|, ||psi||^2 and ||h||^2.  Each side
    (name, lo, hi, tol) is the row ``IneqCheck.from_le(name, lo, hi, tol)``;
    the rows past the first need a nondegenerate top eigenvalue."""
    mu0, f0 = top_eigenpair(matrix)
    g = float(f0.sum())
    sides = [("top-vector-sum-upper", g * g, size, TOL.spectrum_rel * max(1.0, g * g))]
    degenerate = mu0 <= TOL.spectrum_rel * max(1.0, float(np.abs(matrix).max()))
    if not degenerate:
        psi_l2 = math.sqrt(float(psi_sq))
        lower = max(
            mu0 / psi_inf if psi_inf else 0.0,
            mu0 ** 2 / psi_l2 ** 2 if psi_l2 else 0.0,
        )
        f_inf = float(np.abs(f0).max())
        kernel_sup = psi_l2 / mu0
        factor_sup = math.sqrt(float(h_sq)) / math.sqrt(mu0)
        sides += [
            ("top-vector-sum-lower", lower, g * g, TOL.spectrum_rel * max(1.0, lower)),
            ("top-vector-sup-kernel", f_inf, kernel_sup, TOL.spectrum_rel * max(1.0, kernel_sup)),
            ("top-vector-sup-factor", f_inf, factor_sup, TOL.spectrum_rel * max(1.0, factor_sup)),
        ]
    return mu0, g, degenerate, sides


def block_kernel_families(sets, factors, spectra) -> list[Family]:
    """The kernel rows of ``verify``'s inequality battery over a block of
    nonempty sets on one modulus, each with a nonnegative integer kernel
    factor h (psi = h ∘ h) and the ``Spectrum`` of its restricted operator
    or None, as families in record order: the triangle bound; the cycle
    bounds k = 3, 4, 5, each followed by its eigenvalue row on the
    instances with a spectrum; the top-vector rows, all but the first on the instances
    whose top eigenvalue is not degenerate.  A family's ``row`` is the
    per-set check's.

    One zero-padded stack holds every M = psi(a_x - a_y) in the dtype
    ``_exact_operands`` picks for tr M^5.  psi is even, so M is symmetric:
    tr M^3 is the triangle sum, tr M^4 = ||M^2||_F^2, tr M^5 = <M^2, M^3>.
    Each exact row is decided by cross-multiplication and its slack
    num / den rounded once, as ``float`` of the Fraction does; the float
    rows come from each instance's float M, as the per-set checks take it.
    """
    n = _require_same_group(*sets, *factors).modulus
    for a in sets:
        check_nonempty(a)
    if any(h.kind != "int" or h.arity != 1 or h.table.min() < 0 for h in factors):
        raise ValueError("kernel factors must be nonnegative integer tables over Gr")
    count, sizes = len(sets), [len(a) for a in sets]
    width = max(sizes)
    psi = np.stack([correlation_kernel(h).table for h in factors])
    hs = np.stack([h.table for h in factors])
    real = np.arange(width) < np.array(sizes)[:, None]
    mem = np.zeros((count, width), dtype=np.int64)
    mem[real] = list(itertools.chain.from_iterable(a.members for a in sets))
    m = psi[np.arange(count)[:, None, None], (mem[:, :, None] - mem[:, None, :]) % n]
    m *= real[:, :, None] & real[:, None, :]
    m = _exact_operands((m,) * 5, width ** 5)[0]
    m2 = m @ m
    traces = {k: (m2 * x).sum((1, 2)).tolist() for k, x in ((3, m), (4, m2), (5, m2 @ m))}
    s1, s2 = (x.sum((1, 2)).tolist() for x in (m, m * m))
    psi0, psi_inf = psi[:, 0].tolist(), np.abs(psi).max(1).tolist()
    psi_sq, h_sq = ((t * t).sum(1).tolist()
                    for t in (_exact_operands((x,) * 2, n)[0] for x in (psi, hs)))

    names = ["kernel-triangle-bound",
             *(f"kernel-cycle-{r}-k{k}" for k in (3, 4, 5) for r in ("bound", "eigen")),
             "top-vector-sum-upper", "top-vector-sum-lower",
             "top-vector-sup-kernel", "top-vector-sup-factor"]
    passed, slacks = ({name: [None] * count for name in names} for _ in range(2))

    def put(name, i, ok, slack):
        passed[name][i], slacks[name][i] = ok, slack

    for i, (z, ray) in enumerate(zip(sizes, s1)):
        # the triangle bound: of (s1/|A|)^3, |psi(0)|^3 |A| and s2^1.5 / |A|^0.5,
        # the first largest as a float, as max(bounds, key=float) takes it
        tri, third = traces[3][i], float(s2[i]) ** 1.5 / math.sqrt(z)
        keys = [ray ** 3 / z ** 3, float(abs(psi0[i]) ** 3 * z), third]
        win = keys.index(max(keys))
        if win == 2:
            slack = tri - third
            put(names[0], i, slack >= -TOL.spectrum_rel * max(1.0, third), slack)
        else:
            num, den = ((tri * z ** 3 - ray ** 3, z ** 3) if win == 0
                        else (tri - abs(psi0[i]) ** 3 * z, 1))
            put(names[0], i, num >= 0, num / den)
        for k in (3, 4, 5):
            num = traces[k][i] * z ** k - ray ** k  # tr M^k >= (s1 / |A|)^k
            put(f"kernel-cycle-bound-k{k}", i, num >= 0, num / z ** k)
            if spectra[i] is not None:
                gap = _eigen_gap(traces[k][i], spectra[i].power_sum(k))
                put(f"kernel-cycle-eigen-k{k}", i, -gap >= -TOL.cycle_rel, -gap)
        mat = m[i, :z, :z].astype(float)
        for name, lo, hi, tol in _top_vector_sides(mat, z, psi_inf[i], psi_sq[i], h_sq[i])[3]:
            put(name, i, hi - lo >= -tol, hi - lo)

    def row(i, name):
        a, h = sets[i], factors[i]
        if name == names[0]:
            return check_triangle_inequality(a, h)
        if name.startswith("kernel-cycle"):
            rows = check_cycle_sums(a, h, spectra[i] if "eigen" in name else None)
        else:
            rows = first_eigenfunction_bounds(a, h).checks
        return next(c for c in rows if c.name == name)

    return [Family(name, passed[name], slacks[name], lambda i, name=name: row(i, name), "h")
            for name in names]
