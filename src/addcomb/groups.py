"""Cyclic group Z/N, finite subsets, set algebra and shifted intersections,
and functions on (Z/N)^k as dense tables.

Sets are immutable sorted residue tuples.  Every exact pair count runs
through one kernel, ``difference_counts``: a bincount of y - x over the
member arrays, in row blocks.  The correlation A ∘ B is that count, a sumset
is its support, and A ∘ A is cached on the set.  The cells of a shift
system and their spreads are 0/1 numpy matrices in ``energy``.  A function
on (Z/N)^k is a ``GroupFn``: one read-only ndarray of shape (N,)*k, either
the array the code that computed it hands over or a table that
``_value_table`` builds from values; an exact sum of products takes int64
or Python ints from ``_exact_operands``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .config import TUPLE_CELL_CAP


@dataclass(frozen=True)
class CyclicGroup:
    """The additive group Z/N. Elements are plain ints in [0, N)."""

    modulus: int

    def __post_init__(self) -> None:
        if self.modulus < 1:
            raise ValueError(f"modulus must be >= 1, got {self.modulus}")

    def elements(self) -> range:
        return range(self.modulus)


@dataclass(frozen=True)
class GroupSet:
    """Subset of Z/N: unique sorted residues, frozen after construction."""

    group: CyclicGroup
    members: tuple[int, ...]

    def __post_init__(self) -> None:
        n = self.group.modulus
        for a, b in itertools.pairwise(self.members):
            if a >= b:
                raise ValueError("members must be strictly increasing")
        if self.members and not (0 <= self.members[0] and self.members[-1] < n):
            raise ValueError("members must lie in [0, N)")

    @classmethod
    def of(cls, group: CyclicGroup, elems: Iterable[int]) -> "GroupSet":
        n = group.modulus
        return cls(group, tuple(sorted({x % n for x in elems})))

    @cached_property
    def autocorrelation(self) -> "GroupFn":
        """(A ∘ A)(x) = |A ∩ (A - x)| for every x, counted once per set."""
        counts = difference_counts(self.members, self.members, self.group.modulus)
        return GroupFn(self.group, counts)

    @cached_property
    def _shift_profiles(self) -> dict:
        """The set's shift profile by k and sign: ``energy.build_shift_profiles``
        fills both signs of a k at once, for a batch of sets."""
        return {}

    @cached_property
    def member_set(self) -> frozenset[int]:
        return frozenset(self.members)

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def __contains__(self, x: int) -> bool:
        return x % self.group.modulus in self.member_set


_PAIR_BLOCK = 1 << 21  # pairs per bincount block in difference_counts


def difference_counts(x, y, n: int) -> np.ndarray:
    """int64 vector c over Z/n with c[z] = #{(i, j) : y_j - x_i ≡ z}.

    The one exact pair counter.  int64 is exact: every entry is at most
    len(x) * len(y).  Pairs are bincounted in row blocks of x, so the peak
    footprint stays a few million entries however large the inputs.
    """
    x = np.asarray(x, dtype=np.int64)
    y = np.asarray(y, dtype=np.int64)
    counts = np.zeros(n, dtype=np.int64)
    step = max(1, _PAIR_BLOCK // max(1, len(y)))
    for lo in range(0, len(x), step):
        diffs = y[None, :] - x[lo:lo + step, None]
        counts += np.bincount(np.remainder(diffs, n, out=diffs).ravel(), minlength=n)
    return counts


def indicator_vector(x, n: int) -> np.ndarray:
    """Boolean vector over Z/n marking the residues of the entries of x."""
    out = np.zeros(n, dtype=bool)
    out[np.asarray(x, dtype=np.int64) % n] = True
    return out


def indicator(a: GroupSet) -> "GroupFn":
    return GroupFn(a.group, indicator_vector(a.members, a.group.modulus).astype(np.int64))


def check_sign(sign: str) -> None:
    """Raise ValueError unless sign is '+' or '-'."""
    if sign not in ("+", "-"):
        raise ValueError(f"sign must be '+' or '-', got {sign!r}")


def check_nonempty(a: GroupSet) -> None:
    """Raise ValueError if A is empty."""
    if not a.members:
        raise ValueError("A must be nonempty")


def _require_same_group(*operands) -> CyclicGroup:
    """The one Z/N that every operand, a ``GroupSet`` or a ``GroupFn``,
    lives on: the package's only same-modulus check."""
    g = operands[0].group
    if any(x.group != g for x in operands[1:]):
        raise ValueError("operands live on different moduli")
    return g


def intersect_shifts(
    a: GroupSet,
    b: GroupSet,
    shifts: Sequence[int],
    signs: Sequence[str] | None = None,
) -> GroupSet:
    """B ∩ (A ∓ s_1) ∩ ... ∩ (A ∓ s_m).

    Default signs are all '-', giving the shifted-intersection system
    B ∩ (A - s_1) ∩ ...; a '+' in position i uses (s_i - A) instead.
    Empty shift list returns B itself.
    """
    g = _require_same_group(a, b)
    n = g.modulus
    if signs is None:
        signs = ["-"] * len(shifts)
    if len(signs) != len(shifts):
        raise ValueError("signs and shifts must have equal length")
    member = indicator_vector(a.members, n)
    bm = np.asarray(b.members, dtype=np.int64)
    keep = np.ones(len(bm), dtype=bool)
    for s, sg in zip(shifts, signs):
        s %= n
        if sg == "-":  # b in A - s iff b + s in A
            keep &= member[(bm + s) % n]
        else:  # b in s - A iff s - b in A
            check_sign(sg)
            keep &= member[(s - bm) % n]
    return GroupSet(g, tuple(bm[keep].tolist()))


def sumset(a: GroupSet, b: GroupSet, sign: str = "+") -> GroupSet:
    """{a + b} for sign '+', {a - b} for sign '-': the support of the
    pair count of b + a = b - (-a), or of a - b."""
    g = _require_same_group(a, b)
    check_sign(sign)
    if sign == "+":
        counts = difference_counts(np.negative(a.members), b.members, g.modulus)
    else:
        counts = difference_counts(b.members, a.members, g.modulus)
    return GroupSet(g, tuple(np.flatnonzero(counts).tolist()))


INT64_MAX = 2 ** 63 - 1


def _check_grid(n: int, k: int) -> None:
    """Raise ValueError unless a dense table over (Z/n)^k, 1 <= k <= 3, fits the cap."""
    if not 1 <= k <= 3:
        raise ValueError("arity must be in 1..3")
    _check_cells(n ** k)


def _check_cells(count: int) -> None:
    """Raise ValueError if a table or enumeration would build more than
    TUPLE_CELL_CAP cells."""
    if count > TUPLE_CELL_CAP:
        raise ValueError("cell count exceeds the dense tuple cap")


def _exact_operands(tables: Sequence[np.ndarray], terms: int) -> list[np.ndarray]:
    """``tables`` in one dtype for a sum of ``terms`` products that take one
    entry from each table: the package's one int64-or-Python-int decision.

    complex128 when any table is complex, else float64 when any is real.
    Integer tables become int64 when terms * prod(max |entry|) <= INT64_MAX,
    which bounds every product and partial sum, and Python ints otherwise.
    A repeated table counts once per occurrence but is reduced and cast
    once; a maximum below 1 counts as 1, so every int64 entry fits.
    """
    kinds = {t.dtype.kind for t in tables}
    if "c" in kinds:
        dtype = np.complex128
    elif "f" in kinds:
        dtype = np.float64
    else:
        bound = terms
        peaks = {}  # id -> max(1, max |entry|) of each distinct table
        for t in tables:
            peak = peaks.get(id(t))
            if peak is None:
                peak = peaks[id(t)] = max(1, int(t.max(initial=0)), -int(t.min(initial=0)))
            bound *= peak
        dtype = np.int64 if bound <= INT64_MAX else object
    if all(t.dtype == dtype for t in tables):
        return list(tables)
    cast = {}
    for t in tables:
        if id(t) not in cast:
            cast[id(t)] = t.astype(dtype, copy=False)
    return [cast[id(t)] for t in tables]


def _energy_sums(counts) -> tuple[int, int]:
    """(sum c^2, sum c^3) as Python ints, exact in the dtype chosen for the cubes."""
    c = _exact_operands((np.asarray(counts),) * 3, len(counts))[0]
    return int((c * c).sum()), int((c * c * c).sum())


def _value_table(values) -> np.ndarray:
    """A function's values as one table: the package's one decision of
    their kind.  Ints give int64 when every entry fits and Python ints
    otherwise, other reals float64, anything else complex128.  Numpy's own
    reading is taken only when it is int64, which it gives only for
    integers that fit; it reads some other integer mixes as uint64 or
    float64, so every other input is scanned value by value."""
    arr = np.array(values)
    if arr.dtype == np.int64:
        return _exact_operands((arr,), 1)[0]
    arr = np.array(values, dtype=object)
    if all(isinstance(v, (int, np.integer)) for v in arr.flat):
        return _exact_operands((np.frompyfunc(int, 1, 1)(arr),), 1)[0]
    cplx = any(isinstance(v, (complex, np.complexfloating)) for v in arr.flat)
    return arr.astype(np.complex128 if cplx else np.float64)


def _value_kind(table: np.ndarray) -> str:
    """The value kind, "int", "real" or "complex", of a ``_value_table``."""
    return {"i": "int", "O": "int", "f": "real", "c": "complex"}[table.dtype.kind]


def _scalar(v):
    """A numpy scalar as the Python int, float or complex it holds."""
    return v.item() if isinstance(v, np.generic) else v


@dataclass(frozen=True, eq=False)
class GroupFn:
    """Function (Z/N)^k -> C for k in 1..3, stored as a read-only ndarray of
    shape (N,)*k indexed by residues (row-major, last coordinate fastest).

    The table is int64, object (Python ints), float64 or complex128.  An
    int64, float64 or complex128 array is taken as the table as it is, so a
    function computed as an array keeps it, and the constructor makes that
    array read-only: the caller gives it up, and the table cannot drift from
    the cached ``values``.  Anything else (nested values, or an array of
    another dtype) goes through ``_value_table``.  Everything handed out
    (``values``, ``dot``) is a Python scalar; read one value as
    ``table.item(x)``.  Equality is identity; compare ``values`` to compare
    functions.
    """

    group: CyclicGroup
    table: np.ndarray

    def __post_init__(self) -> None:
        t = self.table
        if not (isinstance(t, np.ndarray) and t.dtype in (np.int64, np.float64, np.complex128)):
            t = _value_table(t)
        _check_grid(self.group.modulus, t.ndim)
        if t.shape != (self.group.modulus,) * t.ndim:
            raise ValueError("table shape must be (N,)*k")
        t.flags.writeable = False
        object.__setattr__(self, "table", t)

    @classmethod
    def delta(cls, group: CyclicGroup, at: int = 0, height=1) -> "GroupFn":
        vals = [0] * group.modulus
        vals[at % group.modulus] = height
        return cls(group, vals)

    @classmethod
    def constant(cls, group: CyclicGroup, c=1) -> "GroupFn":
        return cls(group, [c] * group.modulus)

    @property
    def arity(self) -> int:
        return self.table.ndim

    @property
    def kind(self) -> str:
        return _value_kind(self.table)

    @cached_property
    def values(self) -> tuple:
        """Every value in row-major order, as Python scalars."""
        return tuple(self.table.ravel().tolist())

    @property
    def flat(self) -> tuple:
        """The same tuple as ``values``."""
        return self.values

    @cached_property
    def autocorrelation(self) -> "GroupFn":
        """(f ∘ f)(x) = sum_y f(y) f(y + x), without conjugation; built once
        per function."""
        from .transform import correlate

        return correlate(self, self)

    def __len__(self) -> int:
        return self.group.modulus

    def conjugate(self) -> "GroupFn":
        if self.kind != "complex":
            return self
        return GroupFn(self.group, np.conjugate(self.table))

    def power(self, k: int) -> "GroupFn":
        return GroupFn(self.group, [v ** k for v in self.values])

    def l2_norm_sq(self):
        return sum(abs(v) ** 2 for v in self.values)

    def dot(self, *others: "GroupFn"):
        """sum over x in Gr^k of f(x) g_1(x) ... g_m(x), exact on integers;
        with no others, the sum of the table."""
        _require_same_group(self, *others)
        if any(o.table.shape != self.table.shape for o in others):
            raise ValueError("tables live on different grids")
        arrays = _exact_operands([f.table for f in (self, *others)], self.table.size)
        out = arrays[0]
        for t in arrays[1:]:
            out = out * t
        return _scalar(out.sum())

    def outer(self, other: "GroupFn") -> "GroupFn":
        """(x, y) -> f(x) g(y) on Gr^(k + k')."""
        _require_same_group(self, other)
        f, g = _exact_operands((self.table, other.table), 1)
        return GroupFn(self.group, np.multiply.outer(f, g))


def tuple_sumset_with_diagonal(
    sets: Sequence[GroupSet], b: GroupSet, sign: str = "-"
) -> GroupFn:
    """0/1 table of A_1 x ... x A_k ∓ Δ(B) over Gr^k.

    For sign '-' this is {(a_1 - c, ..., a_k - c) : a_i in A_i, c in B},
    which coincides with {x : B ∩ (A_1 - x_1) ∩ ... ∩ (A_k - x_k) != ∅}.
    """
    if not sets:
        raise ValueError("need at least one factor")
    g = _require_same_group(*sets, b)
    n = g.modulus
    k = len(sets)
    _check_grid(n, k)
    check_sign(sign)
    c = np.asarray(b.members, dtype=np.int64)
    if sign == "-":
        c = -c
    # axis 0 runs over c, axis i + 1 over A_i: one assignment marks every point
    index = []
    for i, s in enumerate(sets):
        shape = [len(c)] + [1] * k
        shape[i + 1] = len(s)
        pts = (np.asarray(s.members, dtype=np.int64)[None, :] + c[:, None]) % n
        index.append(pts.reshape(shape))
    grid = np.zeros((n,) * k, dtype=np.int64)
    grid[tuple(index)] = 1
    return GroupFn(g, grid)


def diag_shift_size(a: GroupSet, c: GroupSet, l: int, sign: str = "-") -> int:
    """|A^l ∓ Δ_l(C)| (l <= 3): the sumset A ∓ C for l = 1, the 0/1 tuple
    table otherwise."""
    if l == 1:
        return len(sumset(a, c, sign))
    return tuple_sumset_with_diagonal([a] * l, c, sign).dot()


def restricted_matrix(a: GroupSet, table: np.ndarray) -> np.ndarray:
    """M[i, j] = table[a_i - a_j] over the members of A, for the N-entry
    table of a kernel, in the table's dtype.  A caller that multiplies M
    passes it through ``_exact_operands`` for its product."""
    mem = np.asarray(a.members, dtype=np.int64)
    return table[(mem[:, None] - mem[None, :]) % a.group.modulus]


def triple_product_sum(a: GroupSet, table: np.ndarray):
    """sum_{x,y,z in A} psi(x-y) psi(x-z) psi(y-z) = ((M @ M) * M).sum() for
    M = restricted_matrix(a, table), exact for an integer table: a sum of
    |A|^3 products of three entries of M.

    Not trace(M^3): that is the same sum only for even psi.
    """
    m = _exact_operands((restricted_matrix(a, table),) * 3, len(a) ** 3)[0]
    return _scalar(((m @ m) * m).sum())
