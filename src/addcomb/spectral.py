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
entries are read as Python floats with ``item``.  A kernel with no complex
value gives a float64 operator.
Kernels with nonnegative Fourier transform are always *constructed* as
psi = h ∘ h for real h, which forces the hypothesis instead of testing it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .checks import IneqCheck
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


def jacobi_eigh(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Cyclic Jacobi diagonalization of a real symmetric matrix.

    Returns (eigenvalues descending, eigenvector columns, off-diagonal
    residual).  Raises on non-symmetric input and on a Frobenius norm that
    overflows; reports the residual if the sweep budget runs out.
    """
    m = np.array(matrix, dtype=float)
    n = m.shape[0]
    if m.shape != (n, n) or not np.allclose(m, m.T, atol=1e-12 * (1 + np.abs(m).max(initial=0))):
        raise ValueError("jacobi_eigh needs a symmetric square matrix")
    if n <= 1:
        return m.diagonal().copy(), np.eye(n), 0.0
    with np.errstate(over="ignore"):  # an overflow is the error raised below
        fro = math.sqrt(float((m * m).sum()))
    if not math.isfinite(fro):
        # (m * m) overflows at entries near 1.3e154, and an inf target would
        # end the sweep before any rotation
        raise ValueError("jacobi_eigh needs a matrix with a finite Frobenius norm")
    if fro == 0.0:
        return np.zeros(n), np.eye(n), 0.0
    target = TOL.jacobi_off * fro
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
    """sum_{x,y,z in A} psi(x-y) psi(x-z) psi(y-z), exact for integer psi."""
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
            ps = spectrum.power_sum(k)
            scale = max(1.0, abs(ps), abs(lhs))
            out.append(
                IneqCheck.from_identity(
                    f"kernel-cycle-eigen-k{k}", abs(lhs - ps) / scale, TOL.cycle_rel
                )
            )
    return out


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
        nw = float(np.linalg.norm(w))
        if nw == 0.0:
            return 0.0, v
        v = w / nw
        # one product per step: w = matrix v gives mu, the residual and
        # the next iterate
        w = matrix @ v
        mu = float(v @ w)
        if float(np.linalg.norm(w - mu * v)) <= 1e-12 * max(1.0, abs(mu)):
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
    mu0, f0 = top_eigenpair(op.matrix)
    g = float(f0.sum())
    checks = [
        IneqCheck.from_ge(
            "top-vector-sum-upper", len(a), g * g, TOL.spectrum_rel * max(1.0, g * g)
        )
    ]
    degenerate = mu0 <= TOL.spectrum_rel * max(1.0, float(np.abs(op.matrix).max()))
    psi_inf = max(abs(v) for v in psi.values)
    psi_l2 = math.sqrt(float(psi.l2_norm_sq()))
    if not degenerate:
        lower = max(
            mu0 / psi_inf if psi_inf else 0.0,
            mu0 ** 2 / psi_l2 ** 2 if psi_l2 else 0.0,
        )
        checks.append(
            IneqCheck.from_ge(
                "top-vector-sum-lower", g * g, lower, TOL.spectrum_rel * max(1.0, lower)
            )
        )
        f_inf = float(np.abs(f0).max())
        checks.append(
            IneqCheck.from_le(
                "top-vector-sup-kernel",
                f_inf,
                psi_l2 / mu0,
                TOL.spectrum_rel * max(1.0, psi_l2 / mu0),
            )
        )
        h_l2 = math.sqrt(float(h.l2_norm_sq()))
        checks.append(
            IneqCheck.from_le(
                "top-vector-sup-factor",
                f_inf,
                h_l2 / math.sqrt(mu0),
                TOL.spectrum_rel * max(1.0, h_l2 / math.sqrt(mu0)),
            )
        )
    return EigBoundReport(mu0, g, checks, degenerate)
