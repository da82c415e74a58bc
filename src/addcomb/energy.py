"""Additive energies, higher moments, and shifted-intersection inequalities.

E(A, B) = sum_x (A∘A)(x) (B∘B)(x), and E_k(A, B) raises the B factor to
the power k - 1 for integer k >= 1.  All counts are exact integers;
quotient inequalities use exact rationals, each sum of quotients one
Fraction over the lcm of its denominators.
Terms indexed by an empty intersection A_x = ∅ are dropped: their
numerators vanish, so they contribute nothing to either side.

One kernel, ``_shift_cells``, builds the cells of shift systems for a
batch of (A, B) pairs on one modulus at once, as padded 0/1 matrices.  A
cell is symmetric in its coordinates, so it is built and spread once for
its sorted coordinates and shared by their permutations.  A set's shift
profile for each k (its nonempty cells A_x, x in Gr^k, their sizes and
both l = 1 spreads |A ∓ A_x|) is cached on the set as read-only int64
arrays; ``build_shift_profiles`` fills it for many sets with one kernel
call, which is how ``verify`` runs its inequality battery, in blocks of 8
sets.  A single-set call is a batch of one.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import NamedTuple

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
    _, sizes, _, _ = _cell_profiles([(b, a)], k - 1, 1, "")
    return sum(c * c for c in sizes.tolist())


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
        for x, d in zip(coords[:, 0].tolist(), spreads.tolist())
    ]


def check_heart(a: GroupSet, sign: str = "-") -> IneqCheck:
    """sum_x |A_x|^2 / |A ± A_x|  <=  |A|^-2 sum_x |A_x|^3, exact rationals."""
    check_nonempty(a)
    _, counts, spreads = _weight_cells(a, a, 1, 1, sign)
    counts = counts.tolist()
    lhs = _quotient_sum([c * c for c in counts], spreads.tolist())
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
    coords, sizes, _, _ = _cell_profiles([(a, b)], k, 1, "")
    out = np.zeros((n,) * k, dtype=np.int64)
    out[tuple(coords.T)] = sizes
    return GroupFn(a.group, out)


_BLOCK_ENTRIES = 1 << 16  # float32 entries per block in _hits and _row_sizes


def _row_block(shape) -> int:
    """Rows (along axis -2) per block of an array of ``shape``."""
    return max(1, _BLOCK_ENTRIES // max(1, math.prod(shape[:-2]) * shape[-1]))


def _hits(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x @ y > 0 for 0/1 matrices x, y, or for stacks of them, a block of
    rows of x at a time.

    Runs in float32 BLAS: every product is 0 or 1 and every sum an integer
    at most x.shape[-1], exact while that is below 2**24.
    """
    assert x.shape[-1] < 2 ** 24
    yf = y.astype(np.float32)
    out = np.empty(x.shape[:-1] + y.shape[-1:], dtype=bool)
    step = _row_block(out.shape)
    for i in range(0, x.shape[-2], step):
        rows = np.s_[..., i:i + step, :]
        np.greater(x[rows].astype(np.float32) @ yf, 0, out=out[rows])
    return out


def _row_sizes(m: np.ndarray) -> np.ndarray:
    """The number of nonzero entries along the last axis of a 0/1 array,
    as int64, a block of rows at a time: float32 products with a ones
    vector, exact below 2**24, and several times faster than a bool sum
    over a short axis."""
    assert m.shape[-1] < 2 ** 24
    ones = np.ones(m.shape[-1], dtype=np.float32)
    out = np.empty(m.shape[:-1], dtype=np.int64)
    step = _row_block(m.shape)
    for i in range(0, m.shape[-2], step):
        out[..., i:i + step] = m[..., i:i + step, :].astype(np.float32) @ ones
    return out


def _padded(seqs) -> tuple[np.ndarray, np.ndarray]:
    """Integer sequences as the zero-padded rows of one int64 matrix, and
    the mask of its real entries."""
    lens = np.fromiter(map(len, seqs), dtype=np.int64, count=len(seqs))
    owner = np.repeat(np.arange(len(seqs)), lens)
    values = np.fromiter(itertools.chain.from_iterable(seqs), dtype=np.int64, count=len(owner))
    (out,) = _regroup(owner, len(seqs), values)
    return out, np.arange(out.shape[1]) < lens[:, None]


def _regroup(owner: np.ndarray, count: int, *arrays: np.ndarray) -> list[np.ndarray]:
    """Each array's rows, grouped by their nondecreasing ``owner`` in
    [0, count), as one zero-padded (count, width, ...) array."""
    per = np.bincount(owner, minlength=count)
    rank = np.arange(len(owner)) - (np.cumsum(per) - per)[owner]
    width = int(per.max(initial=0))
    out = []
    for arr in arrays:
        grouped = np.zeros((count, width) + arr.shape[1:], dtype=arr.dtype)
        grouped[owner, rank] = arr
        out.append(grouped)
    return out


class _Batch(NamedTuple):
    """A batch of (A, B) pairs on one modulus n, as padded arrays: the
    members of the B's as the zero-padded rows of ``bm`` with the mask of
    the real entries, the A's as the boolean rows of the (P, n) matrix
    ``member``, and the shifts A - B of each pair, ascending, padded and
    masked the same way."""

    pairs: list
    n: int
    bm: np.ndarray
    bmask: np.ndarray
    member: np.ndarray
    shifts: np.ndarray
    smask: np.ndarray


def _pair_batch(pairs) -> _Batch:
    n = _require_same_group(*itertools.chain.from_iterable(pairs)).modulus
    bm, bmask = _padded([b.members for _, b in pairs])
    am, amask = _padded([a.members for a, _ in pairs])
    member = np.zeros((len(pairs), n), dtype=bool)
    member[np.nonzero(amask)[0], am[amask]] = True
    shifts, smask = _targets(pairs, n, 1)
    return _Batch(pairs, n, bm, bmask, member, shifts, smask)


def _targets(pairs, n: int, s: int) -> tuple[np.ndarray, np.ndarray]:
    """The residues A - s B of each pair, the support of
    ``difference_counts(s * B, A)``, ascending, as the zero-padded rows of
    an int64 matrix with the mask of its real entries."""
    return _padded([
        np.flatnonzero(difference_counts(np.multiply(s, b.members), a.members, n)).tolist()
        for a, b in pairs
    ])


def _shift_cells(batch: _Batch, k: int):
    """The nonempty cells A^B_x, x in Gr^k, of every pair of ``batch``,
    each cell built once for its sorted coordinates.

    Returns (coords, cells, sizes, inv, bounds).  Rows bounds[p] to
    bounds[p + 1] of the int64 array ``coords`` are the x with A^B_x
    nonempty for pair p, in row-major order.  ``cells`` is a (P, U, max
    |B|) boolean array: row u of cells[p] is a cell over the members of
    pair p's B, one for each sorted x_1 <= ... <= x_k with a nonempty
    cell, and all-zero rows pad; ``sizes`` (P, U) holds their sizes.
    Coordinate row r has the cell cells.reshape(-1, max |B|)[inv[r]] of
    size sizes.ravel()[inv[r]]: a cell is symmetric in its coordinates,
    so it is built once and shared by every permutation.

    Only d in A - B gives a nonempty B ∩ (A - d), so the matrices are sized
    by |A| and |B|, not by N: row d is R[d, j] = 1_A(b_j + d), a cell is
    the AND of the rows x_1, ..., x_k, and the cap counts the |A - B|^k
    candidate cells of each pair.
    """
    if k < 1:
        raise ValueError("k out of range")
    count, n, shifts = len(batch.pairs), batch.n, batch.shifts
    for size in batch.smask.sum(1).tolist():
        _check_cells(size ** k)
    owner = np.arange(count)[:, None, None]
    rows = batch.member[owner, (batch.bm[:, None, :] + shifts[:, :, None]) % n]
    rows &= batch.bmask[:, None, :] & batch.smask[:, :, None]
    width = shifts.shape[1]
    cells, tuples = rows, np.broadcast_to(np.arange(width)[:, None], (count, width, 1))
    for _ in range(k - 1):
        # extend each sorted tuple by a shift at or after its last one
        hit = _hits(cells, rows.transpose(0, 2, 1))
        hit &= np.arange(width) >= tuples[:, :, -1:]
        p, u, j = np.nonzero(hit)
        cells, tuples = _regroup(
            p, count, cells[p, u] & rows[p, j], np.column_stack((tuples[p, u], j))
        )
    # scatter each cell's id to every permutation of its sorted tuple, then
    # read the grid in row-major order
    grid = np.full((count,) + (width,) * k, -1, dtype=np.int64)
    sizes = _row_sizes(cells)
    p, u = np.nonzero(sizes)
    ids, sorted_x = p * cells.shape[1] + u, tuples[p, u]
    for perm in itertools.permutations(range(k)):
        grid[(p, *sorted_x[:, perm].T)] = ids
    p, *x = np.nonzero(grid >= 0)
    coords = np.column_stack([shifts[p, xi] for xi in x])
    bounds = np.concatenate(([0], np.cumsum(np.bincount(p, minlength=count))))
    return coords, cells, sizes, grid[(p, *x)], bounds.tolist()


def _spreads(batch: _Batch, cells: np.ndarray, l: int, sign: str) -> np.ndarray:
    """|A^l ∓ Δ_l(C)| for every row C of cells[p], a 0/1 row over the
    members of the B of pair p of ``batch``, as a (P, U) int64 array; 0 for
    an all-zero row.

    For l = 1, A - C lies inside A - B and A + C inside A + B, and a target
    t of those is in A ∓ C iff some c in C has t ± c in A.
    """
    s = 1 if sign == "-" else -1
    if l > 1:
        out = np.zeros(cells.shape[:2], dtype=np.int64)
        for p, (a, b) in enumerate(batch.pairs):
            bm = np.asarray(b.members, dtype=np.int64)
            for u in np.flatnonzero(cells[p].any(1)).tolist():
                c = GroupSet(a.group, tuple(bm[cells[p, u, :len(bm)]].tolist()))
                out[p, u] = diag_shift_size(a, c, l, sign)
        return out
    n, bm, bmask = batch.n, batch.bm, batch.bmask
    if s == 1:
        targets, tmask = batch.shifts, batch.smask
    else:
        targets, tmask = _targets(batch.pairs, n, s)
    owner = np.arange(len(batch.pairs))[:, None, None]
    hit = batch.member[owner, (targets[:, None, :] + s * bm[:, :, None]) % n]
    hit &= bmask[:, :, None] & tmask[:, None, :]
    return _row_sizes(_hits(cells, hit))


def _cell_profiles(pairs, k: int, l: int, signs: str):
    """(coords, sizes, spreads, bounds) for the nonempty cells A^B_x, x in
    Gr^k, of every (A, B) in ``pairs``: ``coords`` and ``bounds`` as from
    ``_shift_cells``, the int64 sizes |A^B_x| on the same rows, and for
    each sign in ``signs`` the int64 spreads |A^l ∓ Δ_l(A^B_x)|, each
    spread taken once per distinct cell."""
    batch = _pair_batch(pairs)
    coords, cells, sizes, inv, bounds = _shift_cells(batch, k)
    sizes = sizes.ravel()[inv]
    spreads = {s: _spreads(batch, cells, l, s).ravel()[inv] for s in signs}
    return coords, sizes, spreads, bounds


def build_shift_profiles(sets, k: int) -> None:
    """Cache on each set of ``sets`` (one modulus) that lacks it its shift
    profile at k, from one kernel call for all of them: the x of Gr^k with
    A_x nonempty as the rows of an int64 array in row-major order, the
    sizes |A_x| and both l = 1 spreads |A ∓ A_x|, all read-only int64."""
    todo = [a for a in sets if k not in a._shift_profiles]
    if not todo:
        return
    coords, sizes, spreads, bounds = _cell_profiles([(a, a) for a in todo], k, 1, "+-")
    for arr in (coords, sizes, *spreads.values()):
        arr.flags.writeable = False
    for a, lo, hi in zip(todo, bounds, bounds[1:]):
        a._shift_profiles[k] = {
            s: (coords[lo:hi], sizes[lo:hi], spreads[s][lo:hi]) for s in "+-"
        }


def _weight_cells(a: GroupSet, b: GroupSet, k: int, l: int, sign: str):
    """The x of Gr^k with A^B_x nonempty, as the rows of an int64 array
    in row-major order, and the int64 arrays of |A^B_x| and
    |A^l ∓ Δ_l(A^B_x)| on the same rows.

    Empty cells are skipped: every sum over x in the weight bounds has a
    factor |A^B_x| or |A^l ∓ Δ_l(A^B_x)| that vanishes there.  For B = A
    and l = 1 the arrays are A's shift profile over Gr^k, read from the
    cache that ``build_shift_profiles`` fills.  A bad sign raises first.
    """
    check_sign(sign)
    if l == 1 and b == a:
        if k not in a._shift_profiles:
            build_shift_profiles([a], k)
        return a._shift_profiles[k][sign]
    coords, sizes, spreads, _ = _cell_profiles([(a, b)], k, l, sign)
    return coords, sizes, spreads[sign]


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
    qx = qt.table[tuple(coords.T)]
    exact = qt.kind == "int"
    if exact and k == 2:
        # two dots in the dtype _exact_operands picks for their terms; over
        # the k = 1 cells (about 28 in the battery) numpy's fixed cost
        # outweighs the Python sums below
        qv, cv = _exact_operands((qx, counts), len(qx))
        lin = int(qv @ cv)
        qv, _, dv = _exact_operands((qx, qx, spreads), len(qx))
        quad = int((qv * qv) @ dv)
    else:
        qx = qx.tolist()
        lin = sum(v * c for v, c in zip(qx, counts.tolist()))
        quad = sum(d * abs(v) ** 2 for v, d in zip(qx, spreads.tolist()))
    lhs = len(a) ** (2 * l) * abs(lin) ** 2
    rhs = energy_k(b, a, k + l + 1) * quad
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
    s = sum(spread * cnt * cnt for cnt, spread in zip(counts.tolist(), spreads.tolist()))
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
    lhs = len(a) ** (2 * l) * _quotient_sum([c * c for c in counts.tolist()], spreads.tolist())
    e_high = energy_k(b, a, k + l + 1)
    return IneqCheck.from_le(f"shift-energy-bound-b-k{k}l{l}{sign}", lhs, Fraction(e_high))


def check_level_thresholds(a: GroupSet, sign: str = "-") -> list[IneqCheck]:
    """Threshold consequences of the optimal-weight bound at k = l = 1.

    The thresholds d >= |A|^2 E2 / (2 E3) and d >= c |A|^4 / (2 E3) are
    compared in integers, multiplied through by 2 E3 > 0.
    """
    check_nonempty(a)
    _, counts, spreads = _weight_cells(a, a, 1, 1, sign)
    counts, spreads = counts.tolist(), spreads.tolist()
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
    counts, spreads = counts.tolist(), spreads.tolist()
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
    batch = _pair_batch([(a, b)])
    coords, cells, _, inv, _ = _shift_cells(batch, max(k, l))
    cells = cells[0][inv]
    cells_k, cells_l = (cells[np.ptp(coords[:, j - 1:], axis=1) == 0] for j in (k, l))
    # empty cells have count 0 and size 0: only the nonempty ones can differ
    _check_cells(len(cells_k) * len(cells_l))
    counts = _hits(cells_k, cells_l.T).sum(1)
    sizes = _spreads(batch, cells_k[None], l, "-")[0]
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
