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
call and returns their profiles laid end to end.  A single-set call is a
batch of one.

``verify`` runs its inequality battery in blocks of 8 sets through
``block_families``: each exact family is one reduction over the block's
profile rows (``np.add.reduceat`` per set, in the dtype
``_exact_operands`` picks).  Every other quantity comes from the kernel
the per-set checks read: each set's cached A ∘ A (its E_2, E_3, E_4 and
``groups.triple_product_sum``) and ``_sumset_autocorrelation`` for
Katz–Koester.  A family returns every set's exact decision, by
cross-multiplication with no Fraction, and its float slack, bit for bit
the per-set check's; the per-set check builds only the row that is
recorded.  The per-set checks sum through the same helpers, on one set.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from typing import Callable, NamedTuple

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
    _value_table,
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
    aa, bb = a.autocorrelation.table, b.autocorrelation.table
    return _segment_sums([0, len(aa)], aa, *(bb,) * (k - 1))[0]


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


def _sumset_autocorrelation(a: GroupSet, sign: str) -> np.ndarray:
    """(S ∘ S)(x) for every x, S = A ± A, as an int64 vector over Z/N."""
    s = sumset(a, a, sign).members
    return difference_counts(s, s, a.group.modulus)


def check_katz_koester(a: GroupSet, sign: str = "+") -> list[IneqCheck]:
    """|(A±A) ∩ (A±A - x)| >= |A ± A_x| for every x with A_x nonempty."""
    check_nonempty(a)
    coords, _, spreads = _weight_cells(a, a, 1, 1, sign)
    lhs = _sumset_autocorrelation(a, sign)
    xs = coords[:, 0]
    return [
        IneqCheck.from_ge(f"katz-koester{sign}", v, d, 0.0, {"x": x})
        for x, v, d in zip(xs.tolist(), lhs[xs].tolist(), spreads.tolist())
    ]


def check_heart(a: GroupSet, sign: str = "-") -> IneqCheck:
    """sum_x |A_x|^2 / |A ± A_x|  <=  |A|^-2 sum_x |A_x|^3, exact rationals."""
    check_nonempty(a)
    _, counts, spreads = _weight_cells(a, a, 1, 1, sign)
    rows = [0, len(counts)]
    (lhs,), lcm = _quotient_sums(rows, spreads, counts, counts)
    (cubes,) = _segment_sums(rows, counts, counts, counts)
    return IneqCheck.from_le(
        f"shift-quotient-bound{sign}", Fraction(lhs, lcm), Fraction(cubes, len(a) ** 2)
    )


def check_heart_triple(a: GroupSet) -> IneqCheck:
    """sum_{x,y,z in A} |A_{x-y}||A_{x-z}||A_{y-z}| >= E(A)^3 / |A|^3."""
    check_nonempty(a)
    lhs = triple_product_sum(a, a.autocorrelation.table)
    rhs = Fraction(energy(a) ** 3, len(a) ** 3)
    return IneqCheck.from_ge("triple-shift-product-bound", Fraction(lhs), rhs)


def _product(factors, terms: int = 1) -> np.ndarray:
    """The entrywise product of integer arrays in the dtype that
    ``_exact_operands`` picks for a sum of ``terms`` such products."""
    return functools.reduce(np.multiply, _exact_operands(factors, terms))


def _segment_sums(bounds, *factors) -> list:
    """For each run of rows bounds[i] to bounds[i + 1], the exact sum of
    the products of the integer arrays ``factors`` on those rows, as Python
    ints: one ``np.add.reduceat`` when no run is empty."""
    lens = [hi - lo for lo, hi in zip(bounds, bounds[1:])]
    prod = _product(factors, max(1, *lens))
    if min(lens):
        return np.add.reduceat(prod, bounds[:-1]).tolist()
    return [int(prod[lo:hi].sum()) for lo, hi in zip(bounds, bounds[1:])]


def _quotient_sums(bounds, dens, *factors) -> tuple[list, int]:
    """For each run of rows, sum prod(factors) / dens over it exactly: the
    numerators over one denominator, the lcm of the positive ``dens``."""
    present = np.bincount(dens).tolist()
    lcm = math.lcm(*(d for d, c in enumerate(present) if c))
    scale = _value_table([lcm // d if c else 0 for d, c in enumerate(present)])[dens]
    return _segment_sums(bounds, *factors, scale), lcm


def _float_sums(bounds, *factors) -> list:
    """For each run of rows, Python's ``sum`` in row order of the products
    of float(x_r) ** e over the (x, e) in ``factors``, for arrays x of
    positive integers, each power Python's own, taken once per value
    present.  When every power is an integer and every sum is below 2**53,
    no term or partial sum rounds, so one numpy reduction gives the sums."""
    terms, integral = 1.0, True
    for x, e in factors:
        present = np.flatnonzero(np.bincount(x)).tolist()
        table = np.zeros(present[-1] + 1)
        table[present] = powers = [float(v) ** e for v in present]
        terms, integral = terms * table[x], integral and all(v.is_integer() for v in powers)
    sums = np.add.reduceat(terms, bounds[:-1])
    if integral and sums.max() < 2 ** 53:
        return sums.tolist()
    return [sum(terms[lo:hi].tolist()) for lo, hi in zip(bounds, bounds[1:])]


def _level_sums(bounds, owner, counts, spreads, e2, e3, sizes) -> tuple[list, list]:
    """For each run of k = 1 rows of one set, the sums of |A_x|^2 over x
    with 2 E3 d_x >= |A|^2 E2 and of |A_x| over x with 2 E3 d_x >= |A_x| |A|^4,
    every side an exact integer."""
    reach = _product((_value_table(e3)[owner], spreads), 2) * 2
    floor1 = _value_table([s * s * e for s, e in zip(sizes, e2)])[owner]
    floor2 = _product((counts, _value_table([s ** 4 for s in sizes])[owner]))
    return (_segment_sums(bounds, counts, counts, reach >= floor1),
            _segment_sums(bounds, counts, reach >= floor2))


def _holder_sides(bounds, counts, spreads, e3, sizes, alpha, p) -> tuple[list, list]:
    """For each run of k = 1 rows of one set, both float sides of the
    Hölder-interpolated shift-moment bound, each term and sum as the
    Python expressions of the bound take them."""
    lhs = _float_sums(bounds, (counts, alpha))
    inner = _float_sums(bounds, (spreads, 1.0 / (p - 1)), (counts, (alpha * p - 2) / (p - 1)))
    rhs = [(e / s ** 2) ** (1.0 / p) * i ** ((p - 1) / p) for e, s, i in zip(e3, sizes, inner)]
    return lhs, rhs


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


def build_shift_profiles(sets, k: int):
    """Cache on each set of ``sets`` (one modulus) that lacks it its shift
    profile at k, from one kernel call for all of them: the x of Gr^k with
    A_x nonempty as the rows of an int64 array in row-major order, the
    sizes |A_x| and both l = 1 spreads |A ∓ A_x|, all read-only int64.

    Returns the profiles of ``sets`` laid end to end: (coords, sizes,
    {sign: spreads}, bounds, owner), the rows of set i running from
    bounds[i] to bounds[i + 1] and owner[r] the set of row r."""
    todo = [a for a in sets if k not in a._shift_profiles]
    if todo:
        coords, sizes, spreads, bounds = _cell_profiles([(a, a) for a in todo], k, 1, "+-")
        for arr in (coords, sizes, *spreads.values()):
            arr.flags.writeable = False
        for a, lo, hi in zip(todo, bounds, bounds[1:]):
            a._shift_profiles[k] = {
                s: (coords[lo:hi], sizes[lo:hi], spreads[s][lo:hi]) for s in "+-"
            }
    parts = [a._shift_profiles[k] for a in sets]
    lens = [len(part["+"][1]) for part in parts]
    coords, sizes = (np.concatenate([part["+"][j] for part in parts]) for j in (0, 1))
    spreads = {s: np.concatenate([part[s][2] for part in parts]) for s in "+-"}
    return coords, sizes, spreads, np.cumsum([0, *lens]).tolist(), np.repeat(np.arange(len(sets)), lens)


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
    if exact:
        rows = [0, len(qx)]
        (lin,), (quad,) = _segment_sums(rows, qx, counts), _segment_sums(rows, qx, qx, spreads)
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
    (s,) = _segment_sums([0, len(counts)], spreads, counts, counts)
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
    (q,), lcm = _quotient_sums([0, len(counts)], spreads, counts, counts)
    lhs = len(a) ** (2 * l) * Fraction(q, lcm)
    e_high = energy_k(b, a, k + l + 1)
    return IneqCheck.from_le(f"shift-energy-bound-b-k{k}l{l}{sign}", lhs, Fraction(e_high))


def check_level_thresholds(a: GroupSet, sign: str = "-") -> list[IneqCheck]:
    """Threshold consequences of the optimal-weight bound at k = l = 1.

    The thresholds d >= |A|^2 E2 / (2 E3) and d >= c |A|^4 / (2 E3) are
    compared in integers, multiplied through by 2 E3 > 0.
    """
    check_nonempty(a)
    _, counts, spreads = _weight_cells(a, a, 1, 1, sign)
    rows, na = [0, len(counts)], len(a)
    e2, e3 = (_segment_sums(rows, *(counts,) * j) for j in (2, 3))
    (big1,), (big2,) = _level_sums(rows, [0], counts, spreads, e2, e3, [na])
    return [
        IneqCheck.from_ge(f"level-threshold-energy{sign}", Fraction(big1), Fraction(e2[0], 2)),
        IneqCheck.from_ge(f"level-threshold-count{sign}", Fraction(big2), Fraction(na ** 2, 2)),
        *(check_ap_bound(a, alpha, p, sign) for alpha, p in ((2, 2), (3, 2), (2, 3))),
    ]


def check_ap_bound(a: GroupSet, alpha: float, p: float, sign: str = "-") -> IneqCheck:
    """Hölder-interpolated shift-moment bound for real alpha and p > 1."""
    check_nonempty(a)
    _, counts, spreads = _weight_cells(a, a, 1, 1, sign)
    rows = [0, len(counts)]
    e3 = _segment_sums(rows, counts, counts, counts)
    (lhs,), (rhs,) = _holder_sides(rows, counts, spreads, e3, [len(a)], alpha, p)
    return IneqCheck.from_le(
        f"holder-shift-bound-a{alpha}p{p}{sign}", lhs, rhs, TOL.dft_rel * max(1.0, rhs)
    )


class Family(NamedTuple):
    """One family of the inequality battery over a block of sets:
    ``passed[i]`` and ``slacks[i]`` are set i's exact decision and its
    ``slack_float()``, and ``row(i)`` builds set i's record with the
    family's per-set check.  ``weight`` is the arity of the weight the
    family reads (0 for none); an ``equality`` family is recorded for the
    equality cases only."""

    name: str
    passed: list
    slacks: list
    row: Callable
    weight: int = 0
    equality: bool = False


def block_families(sets, weights) -> list[Family]:
    """The exact families of ``verify``'s inequality battery over a block of
    nonempty sets on one modulus, with one integer weight q over Gr per set
    (read as q at k = 1 and q ⊗ q at k = 2), in the order ``verify``
    records them.  Each family is one reduction over the block's shift
    profiles, with each set's cached A ∘ A, its energies E_2, E_3, E_4 and
    its triple sum, and (S ∘ S) for S = A ± A, from the kernels the
    per-set checks call.  An exact slack num / den (den > 0) passes iff
    num >= 0, and num / den rounds it once, as ``float`` of the Fraction
    does.  A family whose slack an equality case must make exactly 0 has
    an ``-equality`` family, placed where ``verify`` records it, whose row
    is built from the family's float slack.
    """
    n = _require_same_group(*sets, *weights).modulus
    for a in sets:
        check_nonempty(a)
    if any(q.kind != "int" or q.arity != 1 for q in weights):
        raise TypeError("block weights must be integer tables over Gr")
    count, sizes, out = len(sets), [len(a) for a in sets], []

    def family(name, nums, dens, row, weight=0):
        out.append(Family(name, [v >= 0 for v in nums], [v / d for v, d in zip(nums, dens)],
                          row, weight))

    def equality(*fams):
        for f in fams:
            name = f.name + "-equality"
            out.append(Family(
                name, [v == 0 for v in f.slacks], [-abs(v) for v in f.slacks],
                lambda i, f=f, name=name: IneqCheck.from_identity(name, f.slacks[i]),
                equality=True,
            ))

    auto = np.concatenate([a.autocorrelation.table for a in sets])
    e2, e3, e4 = (_segment_sums(list(range(0, count * n + 1, n)), *(auto,) * j) for j in (2, 3, 4))
    profiles = {k: build_shift_profiles(sets, k) for k in (1, 2)}
    coords, counts, spreads, bounds, owner = profiles[1]
    quotients = {}  # sum_x |A_x|^2 / d_x = q / lcm, the lhs of both quotient bounds

    for sign in "+-":
        d = spreads[sign]
        q, lcm = quotients[sign] = _quotient_sums(bounds, d, counts, counts)
        family(f"shift-quotient-bound{sign}",
               [e * lcm - z * z * v for e, z, v in zip(e3, sizes, q)],
               [z * z * lcm for z in sizes], lambda i, sign=sign: check_heart(sets[i], sign))
        lhs = np.concatenate([_sumset_autocorrelation(a, sign) for a in sets])
        gaps = lhs[owner * n + coords[:, 0]] - d
        family(f"katz-koester{sign}", np.minimum.reduceat(gaps, bounds[:-1]).tolist(), [1] * count,
               lambda i, sign=sign: min(check_katz_koester(sets[i], sign), key=IneqCheck.slack_float))
        equality(*out[-2:])

    cubes = [z ** 3 for z in sizes]
    triples = [triple_product_sum(a, a.autocorrelation.table) for a in sets]
    family("triple-shift-product-bound",
           [t * c - e ** 3 for t, c, e in zip(triples, cubes, e2)],
           cubes, lambda i: check_heart_triple(sets[i]))
    equality(out[-1])

    qs = np.concatenate([q.table for q in weights])
    for k, e_high in ((1, e3), (2, e4)):
        kcoords, kcounts, kspreads, kbounds, kowner = profiles[k]
        qx = _product([qs[kowner * n + kcoords[:, j]] for j in range(k)])
        lin = _segment_sums(kbounds, qx, kcounts)
        for sign in "+-":
            quad = _segment_sums(kbounds, qx, qx, kspreads[sign])
            family(f"weighted-shift-bound-k{k}l1{sign}",
                   [e * v - z * z * w * w for e, v, z, w in zip(e_high, quad, sizes, lin)],
                   [1] * count,
                   lambda i, k=k, sign=sign: check_weight_inequality(
                       sets[i], sets[i], weights[i] if k == 1 else weights[i].outer(weights[i]),
                       k, 1, sign),
                   k)

    for sign in "+-":
        d, (q, lcm) = spreads[sign], quotients[sign]
        spread_sums = _segment_sums(bounds, d, counts, counts)
        family(f"shift-energy-bound-a-k1l1{sign}",
               [e * t - z * z * f * f for e, t, z, f in zip(e3, spread_sums, sizes, e2)],
               [1] * count, lambda i, sign=sign: check_energy_weight_a(sets[i], None, 1, 1, sign))
        family(f"shift-energy-bound-b-k1l1{sign}",
               [e * lcm - z * z * v for e, z, v in zip(e3, sizes, q)], [lcm] * count,
               lambda i, sign=sign: check_energy_weight_b(sets[i], None, 1, 1, sign))
        equality(*out[-2:])
        big1, big2 = _level_sums(bounds, owner, counts, d, e2, e3, sizes)
        for j, (what, nums) in enumerate((("energy", [2 * b - e for b, e in zip(big1, e2)]),
                                          ("count", [2 * b - z * z for b, z in zip(big2, sizes)]))):
            family(f"level-threshold-{what}{sign}", nums, [2] * count,
                   lambda i, j=j, sign=sign: check_level_thresholds(sets[i], sign)[j])
        for alpha, p in ((2, 2), (3, 2), (2, 3)):
            lhs, rhs = _holder_sides(bounds, counts, d, e3, sizes, alpha, p)
            slacks = [r - v for v, r in zip(lhs, rhs)]
            out.append(Family(
                f"holder-shift-bound-a{alpha}p{p}{sign}",
                [v >= -TOL.dft_rel * max(1.0, r) for v, r in zip(slacks, rhs)], slacks,
                lambda i, alpha=alpha, p=p, sign=sign: check_ap_bound(sets[i], alpha, p, sign),
            ))
    return out


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
