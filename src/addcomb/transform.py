"""Fourier analysis on Z/N and all convolution flavors.

Convolutions are direct sums, so integer inputs give exact integer outputs:
each is one gather of a circulant matrix and one matmul, in int64 behind
the bound of ``groups._exact_operands`` and in Python ints above it.  The
gather builds two N x N arrays, so a convolution takes O(N^2) memory (about
270 MB at N = 4099) where a loop over y would take O(N).

The DFT is a direct sum over x, used only for statements that are
inherently Fourier-side.  It runs on float64 arrays through
``_ordered_sums``, which performs CPython's complex product and running sum
operation by operation, so every coefficient has the bits of the plain
Python double loop (tests/oracle.py keeps it).  Forward transform:
F(f)(xi) = sum f(x) e(-xi x/N); inversion carries the 1/N.
"""

from __future__ import annotations

import cmath
import math
import random
from typing import Sequence

import numpy as np

from .checks import IneqCheck
from .config import TOL
from .groups import CyclicGroup, GroupFn, _exact_operands, _require_same_group


def _same_group(*fns) -> CyclicGroup:
    """The one Z/N that every function lives on; tables over Gr^k, k > 1,
    are refused."""
    if any(f.arity != 1 for f in fns):
        raise ValueError("expected functions on Z/N, got a table over Gr^k")
    return _require_same_group(*fns)


def dft(f: GroupFn) -> GroupFn:
    """F(f)(xi) = sum_x f(x) e(-xi x / N)."""
    return GroupFn(_same_group(f), _fourier_sum(f.table, -2.0 * math.pi / len(f)))


def idft(coeffs: GroupFn) -> GroupFn:
    """f(x) = N^-1 sum_xi F(f)(xi) e(xi x / N).  The division by N is
    CPython's complex / int, which numpy's complex division does not
    reproduce bit for bit."""
    group = _same_group(coeffs)
    n = group.modulus
    sums = _fourier_sum(coeffs.table, 2.0 * math.pi / n).tolist()
    return GroupFn(group, np.array([v / n for v in sums]))


_BLOCK = 8192  # entries per transient array of the in-order loops here and in subgroup
_SIGNS = np.array([-1.0, 1.0])


def _fourier_sum(table: np.ndarray, w: float) -> np.ndarray:
    """sum_x table[x] exp(i w (y x mod N)) for every y as a complex128 row,
    zero values skipped, in the order and the rounding of the direct double
    loop: each root is ``cmath.exp(1j * w * k)`` for k = y x mod N, taken
    from a table of the N roots, and the sum over x runs through
    ``_ordered_sums`` a block of x at a time, so no transient array holds
    more than O(N) entries."""
    n = len(table)
    xs = np.flatnonzero(table)
    weights = table[xs].astype(np.complex128)  # complex(v), as CPython converts
    roots = np.array([cmath.exp(1j * w * k) for k in range(n)])
    y = np.arange(n, dtype=np.int64)
    step = max(1, _BLOCK // (2 * n))
    acc = np.zeros(n, dtype=np.complex128)  # acc = 0j
    for lo in range(0, len(xs), step):
        at = np.multiply.outer(xs[lo:lo + step], y)
        acc = _ordered_sums(weights[lo:lo + step], roots[np.remainder(at, n, out=at)], acc)
    return acc


def _ordered_sums(a: np.ndarray, b: np.ndarray, acc: np.ndarray | None = None) -> np.ndarray:
    """sum(a[i] * b[i, j] for i) for every column j, as a complex128 row
    with the bits CPython gives that sum of complex products.

    a (m,) and b (m, J) are complex128; an int or float weight is
    complex(v, 0.0), as CPython converts it.  Each product is CPython's
    ``(ar br - ai bi, ar bi + ai br)`` formed by real ufuncs on the float64
    view of b: one product by ar, one by (-ai, ai) on the swapped pairs,
    one sum, with (-ai) bi = -(ai bi) exactly, so nothing is fused or
    reordered.  The sum is an in-order running sum (``np.add.accumulate``,
    that is ``np.cumsum``) down a row of +0.0, as ``sum`` starts from 0 (0j
    turns a leading -0.0 into +0.0), a block of rows at a time with the
    carried row leading each block; ``acc``, the row an earlier call
    returned, continues that sum.  Numpy's complex multiply and its pairwise
    reductions (``sum``, ``@``) round differently and are not used.
    """
    a = np.asarray(a, dtype=np.complex128)
    b = np.ascontiguousarray(b, dtype=np.complex128)
    m, cols = b.shape
    step = max(1, _BLOCK // max(1, 2 * cols))
    signed = np.multiply.outer(a.imag, _SIGNS)  # (-ai, ai): exact negation
    run = np.zeros((min(m, step) + 1, cols), dtype=np.complex128)
    pairs = run.view(np.float64).reshape(len(run), cols, 2)  # (re, im) of each entry
    tmp = np.empty((len(run) - 1, cols, 2))
    if acc is not None:
        run[0] = acc
    for lo in range(0, m, step):
        k = min(step, m - lo)
        bv = b[lo:lo + k].view(np.float64).reshape(k, cols, 2)
        np.multiply(a.real[lo:lo + k, None, None], bv, pairs[1:k + 1])  # (ar br, ar bi)
        np.multiply(signed[lo:lo + k, None], bv[..., ::-1], tmp[:k])  # (-ai bi, ai br)
        np.add(pairs[1:k + 1], tmp[:k], pairs[1:k + 1])
        np.add.accumulate(run[:k + 1], 0, out=run[:k + 1])  # np.cumsum
        run[0] = run[k]
    return run[0].copy()


def convolve(f: GroupFn, g: GroupFn) -> GroupFn:
    """(f * g)(x) = sum_y f(y) g(x - y), direct summation."""
    r = np.arange(_same_group(f, g).modulus)
    return _circulant_product(f, g, (r[:, None] - r) % len(r))


def correlate(f: GroupFn, g: GroupFn) -> GroupFn:
    """(f ∘ g)(x) = sum_y f(y) g(y + x), direct summation."""
    r = np.arange(_same_group(f, g).modulus)
    return _circulant_product(f, g, (r[:, None] + r) % len(r))


def _circulant_product(f: GroupFn, g: GroupFn, at: np.ndarray) -> GroupFn:
    """x -> sum_y f(y) g(at[x, y]): one gather of g into an N x N array and
    one matmul in the dtype of ``_exact_operands``, so exact for integer f
    and g and real unless one is complex."""
    fv, gv = _exact_operands((f.table, g.table), len(f))
    return GroupFn(f.group, gv[at] @ fv)


def correlate_many(fns: Sequence[GroupFn]) -> GroupFn:
    """f_0 ∘ (f_1 ∘ (f_2 ∘ ...)), right-nested."""
    if not fns:
        raise ValueError("need at least one function")
    out = fns[-1]
    for f in reversed(fns[:-1]):
        out = correlate(f, out)
    return out


def kfold_convolve(f: GroupFn, k: int) -> GroupFn:
    """f * f * ... * f with k factors (k >= 1)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    out = f
    for _ in range(k - 1):
        out = convolve(out, f)
    return out


def gen_convolution(fns: Sequence[GroupFn]) -> GroupFn:
    """C_k(f_0,...,f_{k-1})(x_1,..,x_{k-1}) = sum_z f_0(z) f_1(z+x_1) ...,
    as a table over Gr^(k-1) (k in {2, 3})."""
    k = len(fns)
    if k not in (2, 3):
        raise ValueError("k must be 2 or 3")
    if k == 2:  # C_2(f_0, f_1) = f_0 ∘ f_1
        return correlate(*fns)
    group = _same_group(*fns)
    n = group.modulus
    f0, f1, f2 = _exact_operands([f.table for f in fns], n)
    r = np.arange(n)
    at = (r[:, None] + r) % n  # at[x, z] = z + x
    return GroupFn(group, (f1[at] * f0) @ f2[at].T)


def check_commutation(
    rows: Sequence[Sequence[GroupFn]],
    rng: random.Random | None = None,
    samples: int = 64,
) -> IneqCheck:
    """Nested generalized convolutions commute across rows and columns.

    For an l x k matrix of functions, C_l applied to the C_k of the rows
    equals C_k applied to the C_l of the columns, with the (k-1)(l-1)
    argument grid transposed.  Full grid for l = k = 2; random argument
    samples otherwise.
    """
    l = len(rows)
    k = len(rows[0])
    if not (2 <= l <= 3 and 2 <= k <= 3):
        raise ValueError("l and k must be 2 or 3")
    for r in rows:
        if len(r) != k:
            raise ValueError("ragged function matrix")
    n = _same_group(*[f for r in rows for f in r]).modulus
    row_tables = [gen_convolution(list(r)) for r in rows]
    col_tables = [gen_convolution([rows[i][j] for i in range(l)]) for j in range(k)]

    # y[p, i] is the shift of row table i + 1 at sample p; the column side
    # takes the transposed argument grid
    if l == 2 and k == 2:
        y = np.arange(n).reshape(n, 1, 1)
    else:
        if rng is None:
            rng = random.Random(0)
        cells = (l - 1) * (k - 1)
        y = np.array([rng.randrange(n) for _ in range(samples * cells)])
        y = y.reshape(samples, l - 1, k - 1)
    lhs = _shifted_dots(row_tables, y)
    rhs = _shifted_dots(col_tables, y.transpose(0, 2, 1))
    worst = 0
    for u, v in zip(lhs, rhs):
        worst = max(worst, abs(u - v))
    exact = all(f.kind == "int" for r in rows for f in r)
    return IneqCheck.from_identity(
        "nested-convolution-swap", worst, 0 if exact else TOL.complex_rel
    )


def _shifted_dots(tables: Sequence[GroupFn], shifts: np.ndarray) -> list:
    """C_m(T_0, ..., T_{m-1})(s) = sum_z T_0(z) T_1(z + s_1) ... T_{m-1}(z + s_{m-1})
    for each s = shifts[p] of shape (m - 1, d), d the tables' arity: one
    gather per table, the products taken in table order."""
    n = tables[0].group.modulus
    d = tables[0].arity
    first, *rest = _exact_operands([t.table.ravel() for t in tables], n ** d)
    z = np.indices((n,) * d).reshape(d, 1, -1)  # every z of Gr^d, row-major
    out = first
    for t, s in zip(rest, shifts.transpose(1, 2, 0)):  # s[j, p]: coordinate j
        gathered = t[np.ravel_multi_index(z + s[:, :, None], (n,) * d, mode="wrap")]
        out = np.multiply(out, gathered, out=gathered)  # in place: no third array
    return out.sum(axis=1).tolist()
