"""Additive energies, higher moments, and shifted-intersection inequalities.

E(A, B) = sum_x (A∘A)(x) (B∘B)(x), and E_k(A, B) raises the B factor to
the power k - 1 for integer k >= 1.  All counts are exact integers;
quotient inequalities use exact rationals, each sum of quotients one
Fraction over the lcm of its denominators.
Terms indexed by an empty intersection A_x = ∅ are dropped: their
numerators vanish, so they contribute nothing to either side.  A set's
shift profile for each k (its nonempty cells A_x, x in Gr^k, their sizes
and both l = 1 spreads |A ∓ A_x|) is built once and cached on the set.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .checks import IneqCheck
from .config import TOL
from .groups import (
    GroupFn,
    GroupSet,
    _check_cells,
    _check_grid,
    _exact_operands,
    _require_same_group,
    check_nonempty,
    check_sign,
    diag_shift_size,
    difference_counts,
    indicator,
    indicator_vector,
    restricted_matrix,
    sumset,
    triple_product_sum,
)
from .transform import kfold_convolve


def correlation_counts(a: GroupSet, b: GroupSet) -> tuple[int, ...]:
    """(A ∘ B)(x) = |A ∩ (B - x)| for every x."""
    n = _require_same_group(a, b).modulus
    return tuple(difference_counts(a.members, b.members, n).tolist())


def shift_spread_sizes(a: GroupSet, sign: str = "-") -> tuple[int, ...]:
    """|A ∓ A_x| for every x (0 where A_x is empty), from A's shift profile."""
    coords, _, spreads = _weight_cells(a, a, 1, 1, sign)
    out = np.zeros(a.group.modulus, dtype=np.int64)
    out[coords[:, 0]] = spreads
    return tuple(out.tolist())


def energy(a: GroupSet, b: GroupSet | None = None) -> int:
    """Additive energy E(A, B): quadruples with a1 + b1 = a2 + b2, which
    is E_2(A, B) = sum_x (A∘A)(x) (B∘B)(x)."""
    return energy_k(a, b, 2)


def energy_k(a: GroupSet, b: GroupSet | None = None, k: int = 2) -> int:
    """Higher energy E_k(A, B) = sum_x (A∘A)(x) (B∘B)(x)^(k-1), integer k >= 1."""
    b = a if b is None else b
    _require_same_group(a, b)
    if not isinstance(k, int) or k < 1:
        raise ValueError("k must be an integer >= 1")
    aa, bb = a.autocorrelation.values, b.autocorrelation.values
    return sum(u * v ** (k - 1) for u, v in zip(aa, bb))


def energy_k_shift_sum(a: GroupSet, b: GroupSet | None = None, k: int = 2) -> int:
    """Dual route for integer k: sum over (k-1)-tuples s of |B^A_s|^2."""
    b = a if b is None else b
    _require_same_group(a, b)
    if k == 1:
        return len(a) ** 2
    _, cells = _shift_cells(b, a, k - 1)
    return sum(c * c for c in cells.sum(1).tolist())


def t_k(a: GroupSet, k: int) -> int:
    """Number of 2k-tuples with equal k-fold sums."""
    if k < 2:
        raise ValueError("k must be >= 2")
    rep = kfold_convolve(indicator(a), k)
    return sum(v * v for v in rep.values)


# ---------------------------------------------------------------------------
# shifted-intersection inequalities
# ---------------------------------------------------------------------------


def check_katz_koester(a: GroupSet, sign: str = "+") -> list[IneqCheck]:
    """|(A±A) ∩ (A±A - x)| >= |A ± A_x| for every x with A_x nonempty."""
    check_nonempty(a)
    lhs = sumset(a, a, sign).autocorrelation.values
    coords, _, spreads = _weight_cells(a, a, 1, 1, sign)
    return [
        IneqCheck.from_ge(f"katz-koester{sign}", lhs[x], d, 0.0, {"x": x})
        for x, d in zip(coords[:, 0].tolist(), spreads)
    ]


def check_heart(a: GroupSet, sign: str = "-") -> IneqCheck:
    """sum_x |A_x|^2 / |A ± A_x|  <=  |A|^-2 sum_x |A_x|^3, exact rationals."""
    check_nonempty(a)
    _, counts, spreads = _weight_cells(a, a, 1, 1, sign)
    lhs = _quotient_sum([c * c for c in counts], spreads)
    rhs = Fraction(sum(c ** 3 for c in counts), len(a) ** 2)
    return IneqCheck.from_le(f"shift-quotient-bound{sign}", lhs, rhs)


def _quotient_sum(nums, dens) -> Fraction:
    """sum_i nums[i] / dens[i] for ints, as one Fraction over the lcm of
    the (positive) dens."""
    lcm = math.lcm(*dens)
    return Fraction(sum(x * (lcm // d) for x, d in zip(nums, dens)), lcm)


def check_heart_triple(a: GroupSet) -> IneqCheck:
    """sum_{x,y,z in A} |A_{x-y}||A_{x-z}||A_{y-z}| >= E(A)^3 / |A|^3."""
    check_nonempty(a)
    lhs = triple_product_sum(a, a.autocorrelation.table)
    rhs = Fraction(energy(a) ** 3, len(a) ** 3)
    return IneqCheck.from_ge("triple-shift-product-bound", Fraction(lhs), rhs)


def weight_counts(a: GroupSet, b: GroupSet, k: int) -> GroupFn:
    """|A^B_x| = |B ∩ (A-x_1) ∩ ... ∩ (A-x_k)| for every x in Gr^k."""
    n = a.group.modulus
    _check_grid(n, k)
    coords, cells = _shift_cells(a, b, k)
    out = np.zeros((n,) * k, dtype=np.int64)
    out[tuple(coords.T)] = cells.sum(1)
    return GroupFn(a.group, out)


_HIT_BLOCK = 1 << 18  # entries of x @ y per float64 block in _hits


def _hits(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x @ y > 0 for 0/1 matrices x, y, in row blocks of a few MB.

    Runs in float64 BLAS: every product is 0 or 1 and every sum an integer
    at most x.shape[1], exact while that is below 2**53.
    """
    assert x.shape[1] < 2 ** 53
    yf = y.astype(np.float64)
    out = np.empty((x.shape[0], y.shape[1]), dtype=bool)
    step = max(1, _HIT_BLOCK // max(1, y.shape[1]))
    for i in range(0, x.shape[0], step):
        np.greater(x[i:i + step].astype(np.float64) @ yf, 0, out=out[i:i + step])
    return out


def _shift_cells(a: GroupSet, b: GroupSet, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The nonempty cells A^B_x, x in Gr^k, as (coords, cells): row i of
    the int64 array ``coords`` is the i-th such x in row-major order, and
    row i of the boolean matrix ``cells`` is its cell over B's members.

    Only d in A - B gives a nonempty B ∩ (A - d), so the matrices are sized
    by |A| and |B|, not by N: row d is R[d, j] = 1_A(b_j + d), a cell is
    the AND of the rows x_1, ..., x_k, and the cap counts the |A - B|^k
    candidate cells.
    """
    n = _require_same_group(a, b).modulus
    if k < 1:
        raise ValueError("k out of range")
    bm = np.asarray(b.members, dtype=np.int64)
    shifts = np.flatnonzero(difference_counts(bm, a.members, n))
    _check_cells(len(shifts) ** k)
    rows = indicator_vector(a.members, n)[(bm[None, :] + shifts[:, None]) % n]
    coords, cells = shifts[:, None], rows
    for _ in range(k - 1):
        i, j = np.nonzero(_hits(cells, rows.T))
        coords = np.column_stack((coords[i], shifts[j]))
        cells = cells[i] & rows[j]
    return coords, cells


def _spreads(a: GroupSet, b: GroupSet, cells: np.ndarray, l: int, sign: str) -> list[int]:
    """|A^l ∓ Δ_l(C)| for every row C of ``cells`` (0/1 over B's members).

    For l = 1, A - C lies inside A - B and A + C inside A + B, and a target
    t of those is in A ∓ C iff some c in C has t ± c in A.
    """
    s = 1 if sign == "-" else -1
    bm = np.asarray(b.members, dtype=np.int64)
    if l > 1:
        return [
            diag_shift_size(a, GroupSet(a.group, tuple(bm[c].tolist())), l, sign)
            for c in cells
        ]
    n = a.group.modulus
    targets = np.flatnonzero(difference_counts(s * bm, a.members, n))
    member = indicator_vector(a.members, n)[(targets[None, :] + s * bm[:, None]) % n]
    return _hits(cells, member).sum(1).tolist()


def _weight_cells(a: GroupSet, b: GroupSet, k: int, l: int, sign: str):
    """The x of Gr^k with A^B_x nonempty, as the rows of an int64 array
    in row-major order, and the lists of |A^B_x| and |A^l ∓ Δ_l(A^B_x)|.

    Empty cells are skipped: every sum over x in the weight bounds has a
    factor |A^B_x| or |A^l ∓ Δ_l(A^B_x)| that vanishes there.  For B = A
    and l = 1 the lists are A's shift profile over Gr^k: both signs from
    one build of the cells, cached on A by k.  A bad sign raises first.
    """
    check_sign(sign)
    if l == 1 and b == a:
        profiles = a._shift_profiles
        if k not in profiles:
            coords, cells = _shift_cells(a, a, k)
            counts = cells.sum(1).tolist()
            profiles[k] = {s: (coords, counts, _spreads(a, a, cells, 1, s)) for s in "+-"}
        return profiles[k][sign]
    coords, cells = _shift_cells(a, b, k)
    return coords, cells.sum(1).tolist(), _spreads(a, b, cells, l, sign)


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

    with x ranging over Gr^k and q a GroupFn over Gr^k.  Exact when q is
    integer-valued.
    """
    check_nonempty(a)
    if k not in (1, 2) or l not in (1, 2):
        raise ValueError("k, l must be 1 or 2")
    qt = _weight_table(q, a, k)
    coords, counts, spreads = _weight_cells(a, b, k, l, sign)
    qx = qt.table[tuple(coords.T)].tolist()
    lin = sum(v * c for v, c in zip(qx, counts))
    quad = sum(d * abs(v) ** 2 for v, d in zip(qx, spreads))
    lhs = len(a) ** (2 * l) * abs(lin) ** 2
    rhs = energy_k(b, a, k + l + 1) * quad
    exact = qt.kind == "int"
    return IneqCheck.from_le(
        f"weighted-shift-bound-k{k}l{l}{sign}", lhs, rhs,
        0.0 if exact else TOL.complex_rel * max(1.0, abs(rhs)),
    )


def _weight_table(q, a: GroupSet, k: int) -> GroupFn:
    """The weight, a GroupFn over Gr^k on A's group."""
    if not isinstance(q, GroupFn):
        raise TypeError("weight must be a GroupFn")
    _require_same_group(a, q)
    if q.arity != k:
        raise ValueError("weight must be a table over Gr^k")
    return q


def check_energy_weight_a(
    a: GroupSet, b: GroupSet | None = None, k: int = 1, l: int = 1, sign: str = "-"
) -> IneqCheck:
    """Unweighted specialization: |A|^(2l) E_(k+1)(B,A)^2 <= E_(k+l+1)(B,A) * S.

    S = sum_x |A^l ∓ Δ_l(A^B_x)| |A^B_x|^2; integer exact.
    """
    check_nonempty(a)
    b = a if b is None else b
    _, counts, spreads = _weight_cells(a, b, k, l, sign)
    s = sum(spread * cnt * cnt for cnt, spread in zip(counts, spreads))
    lhs = len(a) ** (2 * l) * energy_k(b, a, k + 1) ** 2
    rhs = energy_k(b, a, k + l + 1) * s
    return IneqCheck.from_le(f"shift-energy-bound-a-k{k}l{l}{sign}", lhs, rhs)


def check_energy_weight_b(
    a: GroupSet, b: GroupSet | None = None, k: int = 1, l: int = 1, sign: str = "-"
) -> IneqCheck:
    """Optimal-weight specialization, exact rationals:

    |A|^(2l) sum_x |A^B_x|^2 / |A^l ∓ Δ_l(A^B_x)|  <=  E_(k+l+1)(B,A).
    """
    check_nonempty(a)
    b = a if b is None else b
    _, counts, spreads = _weight_cells(a, b, k, l, sign)
    lhs = len(a) ** (2 * l) * _quotient_sum([c * c for c in counts], spreads)
    e_high = energy_k(b, a, k + l + 1)
    return IneqCheck.from_le(f"shift-energy-bound-b-k{k}l{l}{sign}", lhs, Fraction(e_high))


def check_level_thresholds(a: GroupSet, sign: str = "-") -> list[IneqCheck]:
    """Threshold consequences of the optimal-weight bound at k = l = 1.

    The thresholds d >= |A|^2 E2 / (2 E3) and d >= c |A|^4 / (2 E3) are
    compared in integers, multiplied through by 2 E3 > 0.
    """
    check_nonempty(a)
    _, counts, spreads = _weight_cells(a, a, 1, 1, sign)
    e2 = sum(c * c for c in counts)
    e3 = sum(c ** 3 for c in counts)
    na = len(a)

    thr1 = na ** 2 * e2
    big1 = sum(c * c for c, d in zip(counts, spreads) if 2 * e3 * d >= thr1)
    out = [
        IneqCheck.from_ge(
            f"level-threshold-energy{sign}", Fraction(big1), Fraction(e2, 2)
        )
    ]

    thr2 = na ** 4
    big2 = sum(c for c, d in zip(counts, spreads) if 2 * e3 * d >= c * thr2)
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
    check_nonempty(a)
    _, counts, spreads = _weight_cells(a, a, 1, 1, sign)
    e3 = sum(c ** 3 for c in counts)
    lhs = sum(float(c) ** alpha for c in counts)
    inner = sum(
        float(d) ** (1.0 / (p - 1)) * float(c) ** ((alpha * p - 2) / (p - 1))
        for c, d in zip(counts, spreads)
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
    check_nonempty(a)
    if min(k, l) < 1:
        raise ValueError("k, l out of range for direct enumeration")
    # one build of the higher level: the level-j cell at (x_1, ..., x_j) is
    # the level-m cell at (x_1, ..., x_j, x_j, ..., x_j)
    coords, cells = _shift_cells(a, b, max(k, l))
    cells_k, cells_l = (cells[np.ptp(coords[:, j - 1:], axis=1) == 0] for j in (k, l))
    # empty cells have count 0 and size 0: only the nonempty ones can differ
    _check_cells(len(cells_k) * len(cells_l))
    counts = _hits(cells_k, cells_l.T).sum(1)
    sizes = np.asarray(_spreads(a, b, cells_k, l, "-"), dtype=np.int64)
    worst = int(np.abs(counts - sizes).max(initial=0))
    checks = [IneqCheck.from_identity(f"shift-duality-k{k}l{l}", worst)]

    # E(A^k, Δ(C)) = sum_z (C∘C)(z) (A∘A)(z)^k = c W^k c^T for the 0/1 row c
    # of C and W[j, j'] = (A∘A)(b_j - b_j'): |B|^2 products of k + 2 entries
    w = restricted_matrix(b, a.autocorrelation.table)
    c, w, *_ = _exact_operands((cells_l, *(w,) * k, cells_l), len(b) ** 2)
    total = int(((c @ w ** k) * c).sum())
    checks.append(IneqCheck.from_identity(
        f"shift-energy-total-k{k}l{l}", total - energy_k(b, a, k + l + 1)
    ))
    return checks
