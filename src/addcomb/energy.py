"""Additive energies, higher moments, and shifted-intersection inequalities.

All counts are exact integers; quotient inequalities use exact rationals.
Terms indexed by an empty intersection A_x = ∅ are dropped: their
numerators vanish, so they contribute nothing to either side.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .checks import IneqCheck
from .config import TOL, TUPLE_CELL_CAP
from .groups import (
    GridFn,
    GroupSet,
    diag_shift_size,
    indicator,
    intersect_shifts,
    mask_shift_minus,
    mask_sumset,
    set_from_mask,
    sumset,
)
from .transform import GroupFn, kfold_convolve


def correlation_counts(a: GroupSet, b: GroupSet) -> tuple[int, ...]:
    """(A ∘ B)(x) = |A ∩ (B - x)| for every x."""
    n = a.group.modulus
    am, bm = a.mask, b.mask
    return tuple((am & mask_shift_minus(bm, x, n)).bit_count() for x in range(n))


def convolution_counts(a: GroupSet, b: GroupSet) -> tuple[int, ...]:
    """(A * B)(x) = number of pairs with a + b = x."""
    n = a.group.modulus
    out = [0] * n
    for x in a.members:
        for y in b.members:
            out[(x + y) % n] += 1
    return tuple(out)


def shift_counts(a: GroupSet) -> tuple[int, ...]:
    """|A_x| for every x (equals the autocorrelation of A)."""
    return correlation_counts(a, a)


def shift_spread_sizes(a: GroupSet, sign: str = "-") -> tuple[int, ...]:
    """|A ∓ A_x| for every x (0 where A_x is empty)."""
    n = a.group.modulus
    am = a.mask
    return tuple(
        _diag_spread_from_mask(a, am & mask_shift_minus(am, x, n), 1, sign)
        for x in range(n)
    )


def energy(a: GroupSet, b: GroupSet | None = None) -> int:
    """Additive energy: quadruples with a1 + b1 = a2 + b2.

    Computes all three convolution forms and insists they agree.
    """
    b = a if b is None else b
    if a.group != b.group:
        raise ValueError("sets live on different moduli")
    conv = sum(v * v for v in convolution_counts(a, b))
    corr = sum(v * v for v in correlation_counts(a, b))
    mixed = sum(
        u * v for u, v in zip(correlation_counts(a, a), correlation_counts(b, b))
    )
    if not (conv == corr == mixed):
        raise AssertionError("energy forms disagree; counting bug")
    return conv


# self-energies double-check against the shift-tuple route up to this grid
_SHIFT_CHECK_CAP = 4096


def energy_k(a: GroupSet, b: GroupSet | None = None, k: float = 2):
    """Higher energy: sum_x (A∘A)(x) (B∘B)(x)^(k-1); exact for integer k.

    Small integer-order self-energies are cross-asserted against the
    independent sum over shift tuples of |A_s|^2.
    """
    same = b is None
    b = a if b is None else b
    if k < 1:
        raise ValueError("k must be >= 1")
    aa = correlation_counts(a, a)
    bb = correlation_counts(b, b)
    if isinstance(k, int) or float(k).is_integer():
        k = int(k)
        out = sum(u * v ** (k - 1) for u, v in zip(aa, bb))
        n = a.group.modulus
        if same and k >= 2 and n ** (k - 1) <= _SHIFT_CHECK_CAP:
            if out != energy_k_shift_sum(a, a, k):
                raise AssertionError("energy routes disagree; counting bug")
        return out
    return float(sum(u * float(v) ** (k - 1) for u, v in zip(aa, bb) if v))


def energy_k_shift_sum(a: GroupSet, b: GroupSet | None = None, k: int = 2) -> int:
    """Dual route for integer k: sum over (k-1)-tuples s of |B^A_s|^2."""
    b = a if b is None else b
    n = a.group.modulus
    if k < 1 or n ** (k - 1) > TUPLE_CELL_CAP:
        raise ValueError("k out of range for direct shift enumeration")
    total = 0
    for s in itertools.product(range(n), repeat=k - 1):
        total += len(intersect_shifts(b, a, s)) ** 2
    return total


def t_k(a: GroupSet, k: int) -> int:
    """Number of 2k-tuples with equal k-fold sums."""
    if k < 2:
        raise ValueError("k must be >= 2")
    rep = kfold_convolve(indicator(a), k)
    return sum(v * v for v in rep.values)


def sigma_k(a: GroupSet, k: int) -> int:
    """Number of k-tuples summing to zero."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return kfold_convolve(indicator(a), k).values[0]


# ---------------------------------------------------------------------------
# shifted-intersection inequalities
# ---------------------------------------------------------------------------


def check_katz_koester(a: GroupSet, sign: str = "+") -> list[IneqCheck]:
    """|(A±A) ∩ (A±A - x)| >= |A ± A_x| for every x with A_x nonempty."""
    n = a.group.modulus
    s2m = sumset(a, a, sign).mask
    spread = shift_spread_sizes(a, sign)
    ax_sizes = shift_counts(a)
    out = []
    for x in range(n):
        if ax_sizes[x] == 0:
            continue
        lhs = (s2m & mask_shift_minus(s2m, x, n)).bit_count()
        out.append(
            IneqCheck.from_ge(
                f"katz-koester{sign}", lhs, spread[x], 0.0, {"x": x}
            )
        )
    return out


def check_heart(a: GroupSet, sign: str = "-") -> IneqCheck:
    """sum_x |A_x|^2 / |A ± A_x|  <=  |A|^-2 sum_x |A_x|^3, exact rationals."""
    if not a.members:
        raise ValueError("A must be nonempty")
    ax = shift_counts(a)
    spread = shift_spread_sizes(a, sign)
    lhs = Fraction(0)
    cube = 0
    for cx, dx in zip(ax, spread):
        if cx:
            lhs += Fraction(cx * cx, dx)
            cube += cx ** 3
    rhs = Fraction(cube, len(a) ** 2)
    return IneqCheck.from_le(f"shift-quotient-bound{sign}", lhs, rhs)


def check_heart_triple(a: GroupSet) -> IneqCheck:
    """sum_{x,y,z in A} |A_{x-y}||A_{x-z}||A_{y-z}| >= E(A)^3 / |A|^3."""
    if not a.members:
        raise ValueError("A must be nonempty")
    n = a.group.modulus
    ax = shift_counts(a)
    lhs = 0
    mem = a.members
    for x in mem:
        for y in mem:
            cxy = ax[(x - y) % n]
            if not cxy:
                continue
            for z in mem:
                lhs += cxy * ax[(x - z) % n] * ax[(y - z) % n]
    e = sum(v * v for v in ax)
    rhs = Fraction(e ** 3, len(a) ** 3)
    return IneqCheck.from_ge("triple-shift-product-bound", Fraction(lhs), rhs)


def weight_counts(a: GroupSet, b: GroupSet, k: int) -> GridFn:
    """|A^B_x| = |B ∩ (A-x_1) ∩ ... ∩ (A-x_k)| for every x in Gr^k."""
    return GridFn.of(a.group, [cm.bit_count() for cm in _system_cells(a, b, k)], k)


def _system_cells(a: GroupSet, b: GroupSet, k: int) -> list[int]:
    """Bitmask of A^B_x for every x in Gr^k, in row-major order."""
    n = a.group.modulus
    if k < 1 or n ** k > TUPLE_CELL_CAP:
        raise ValueError("k out of range")
    am, bm = a.mask, b.mask
    rows = [bm & mask_shift_minus(am, s, n) for s in range(n)]
    cells = rows
    for _ in range(k - 1):
        cells = [c & r for c in cells for r in rows]
    return cells


def _diag_spread_from_mask(a: GroupSet, cmask: int, l: int, sign: str) -> int:
    """|A^l ∓ Δ_l(C)| given C as a bitmask."""
    if l == 1:
        return mask_sumset(a.mask, cmask, a.group.modulus, sign).bit_count()
    return diag_shift_size(a, set_from_mask(a.group, cmask), l, sign)


def _weight_cells(a: GroupSet, b: GroupSet, k: int, l: int, sign: str, used=None):
    """(i, |A^B_x|, |A^l ∓ Δ_l(A^B_x)|) for the i-th x of Gr^k in row-major
    order, for each x with A^B_x nonempty and, when ``used`` is given,
    ``used[i]`` true.

    Empty cells are skipped: every sum over x in the weight bounds has a
    factor |A^B_x| or |A^l ∓ Δ_l(A^B_x)| that vanishes there.  ``used`` lets a
    check skip the cells it would multiply by zero before their spread is
    computed.
    """
    for i, cm in enumerate(_system_cells(a, b, k)):
        if cm and (used is None or used[i]):
            yield i, cm.bit_count(), _diag_spread_from_mask(a, cm, l, sign)


def check_weight_inequality(
    a: GroupSet,
    b: GroupSet,
    q,
    k: int = 1,
    l: int = 1,
    sign: str = "-",
) -> IneqCheck:
    """Weighted shifted-intersection bound.

    |A|^(2l) |sum_x q(x) |A^B_x||^2
        <= E_(k+l+1)(B,A) * sum_x |A^l ∓ Δ_l(A^B_x)| |q(x)|^2,

    with x ranging over Gr^k.  Exact when q is integer-valued.
    """
    if k not in (1, 2) or l not in (1, 2):
        raise ValueError("k, l must be 1 or 2")
    qv = _weight_table(q, a.group, k).flat
    aa = correlation_counts(a, a)
    bb = correlation_counts(b, b)
    e_high = sum(u * v ** (k + l) for u, v in zip(bb, aa))

    lin = 0
    quad = 0
    # cells with q(x) = 0 add q·0 and 0·|q|^2: skip them before their spread
    for i, cnt, spread in _weight_cells(a, b, k, l, sign, used=qv):
        qx = qv[i]
        lin += qx * cnt
        quad += spread * _abs_sq(qx)
    lhs = len(a) ** (2 * l) * _abs_sq(lin)
    rhs = e_high * quad
    exact = all(isinstance(v, int) for v in qv)
    return IneqCheck.from_le(
        f"weighted-shift-bound-k{k}l{l}{sign}", lhs, rhs,
        0.0 if exact else TOL.complex_rel * max(1.0, abs(rhs)),
    )


def _abs_sq(v):
    if isinstance(v, int):
        return v * v
    return abs(v) ** 2


def _weight_table(q, group, k: int) -> GridFn:
    """The weight as a table over Gr^k: a GridFn, a GroupFn (k = 1) or
    row-major values."""
    if isinstance(q, GroupFn):
        q = q.values
    if not isinstance(q, GridFn):
        q = GridFn.of(group, q, k)
    if q.group != group or q.arity != k:
        raise ValueError("weight must be a table over Gr^k")
    return q


def check_energy_weight_a(
    a: GroupSet, b: GroupSet | None = None, k: int = 1, l: int = 1, sign: str = "-"
) -> IneqCheck:
    """Unweighted specialization: |A|^(2l) E_(k+1)(B,A)^2 <= E_(k+l+1)(B,A) * S.

    S = sum_x |A^l ∓ Δ_l(A^B_x)| |A^B_x|^2; integer exact.
    """
    b = a if b is None else b
    aa = correlation_counts(a, a)
    bb = correlation_counts(b, b)
    e_mid = sum(u * v ** k for u, v in zip(bb, aa))
    e_high = sum(u * v ** (k + l) for u, v in zip(bb, aa))
    s = sum(spread * cnt * cnt for _, cnt, spread in _weight_cells(a, b, k, l, sign))
    lhs = len(a) ** (2 * l) * e_mid ** 2
    return IneqCheck.from_le(f"shift-energy-bound-a-k{k}l{l}{sign}", lhs, e_high * s)


def check_energy_weight_b(
    a: GroupSet, b: GroupSet | None = None, k: int = 1, l: int = 1, sign: str = "-"
) -> IneqCheck:
    """Optimal-weight specialization, exact rationals:

    |A|^(2l) sum_x |A^B_x|^2 / |A^l ∓ Δ_l(A^B_x)|  <=  E_(k+l+1)(B,A).
    """
    b = a if b is None else b
    aa = correlation_counts(a, a)
    bb = correlation_counts(b, b)
    e_high = sum(u * v ** (k + l) for u, v in zip(bb, aa))
    acc = Fraction(0)
    for _, cnt, spread in _weight_cells(a, b, k, l, sign):
        acc += Fraction(cnt * cnt, spread)
    lhs = len(a) ** (2 * l) * acc
    return IneqCheck.from_le(f"shift-energy-bound-b-k{k}l{l}{sign}", lhs, Fraction(e_high))


def check_level_thresholds(a: GroupSet, sign: str = "-") -> list[IneqCheck]:
    """Threshold consequences of the optimal-weight bound at k = l = 1."""
    if not a.members:
        raise ValueError("A must be nonempty")
    ax = shift_counts(a)
    spread = shift_spread_sizes(a, sign)
    e2 = sum(v * v for v in ax)
    e3 = sum(v ** 3 for v in ax)
    na = len(a)

    thr1 = Fraction(na ** 2 * e2, 2 * e3)
    big1 = sum(c * c for c, d in zip(ax, spread) if c and d >= thr1)
    out = [
        IneqCheck.from_ge(
            f"level-threshold-energy{sign}", Fraction(big1), Fraction(e2, 2)
        )
    ]

    thr2 = Fraction(na ** 4, 2 * e3)
    big2 = sum(c for c, d in zip(ax, spread) if c and d >= c * thr2)
    out.append(
        IneqCheck.from_ge(
            f"level-threshold-count{sign}", Fraction(big2), Fraction(na ** 2, 2)
        )
    )

    for alpha, p in ((2, 2), (3, 2), (2, 3)):
        out.append(check_ap_bound(a, alpha, p, sign))
    return out


def check_ap_bound(a: GroupSet, alpha: float, p: float, sign: str = "-") -> IneqCheck:
    """Hölder-interpolated shift-moment bound for real alpha and p > 1."""
    ax = shift_counts(a)
    spread = shift_spread_sizes(a, sign)
    e3 = sum(v ** 3 for v in ax)
    lhs = sum(float(c) ** alpha for c in ax if c)
    inner = sum(
        float(d) ** (1.0 / (p - 1)) * float(c) ** ((alpha * p - 2) / (p - 1))
        for c, d in zip(ax, spread)
        if c
    )
    rhs = (e3 / len(a) ** 2) ** (1.0 / p) * inner ** ((p - 1) / p)
    return IneqCheck.from_le(
        f"holder-shift-bound-a{alpha}p{p}{sign}",
        lhs,
        rhs,
        TOL.dft_rel * max(1.0, rhs),
    )


def check_membership_identity(
    a: GroupSet, b: GroupSet, k: int = 1, l: int = 1
) -> list[IneqCheck]:
    """Shift-duality counting identity and its energy aggregate, both exact.

    (1) for all x in Gr^k:
        #{s in Gr^l : A^B_(s,x) nonempty} = |A^l - Δ_l(A^B_x)|
    (2) sum_{s in Gr^l} E(A^k, Δ(A^B_s)) = E_(k+l+1)(B,A).
    """
    if a.group.modulus ** (k + l) > TUPLE_CELL_CAP:
        raise ValueError("k + l too large for direct enumeration")
    cells_l = _system_cells(a, b, l)
    worst = 0
    for xm in _system_cells(a, b, k):
        count = sum(1 for sm in cells_l if xm & sm)
        size = _diag_spread_from_mask(a, xm, l, "-")
        worst = max(worst, abs(count - size))
    checks = [IneqCheck.from_identity(f"shift-duality-k{k}l{l}", worst)]

    aa = correlation_counts(a, a)
    total = 0
    for sm in cells_l:
        c = set_from_mask(a.group, sm)
        cc = correlation_counts(c, c)
        total += sum(u * v ** k for u, v in zip(cc, aa))
    bb = correlation_counts(b, b)
    e_high = sum(u * v ** (k + l) for u, v in zip(bb, aa))
    checks.append(
        IneqCheck.from_identity(f"shift-energy-total-k{k}l{l}", total - e_high)
    )
    return checks
