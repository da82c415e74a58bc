"""Cyclic group Z/N, finite subsets, set algebra and shifted intersections.

Sets are immutable sorted residue tuples with a cached bitmask (one Python
int, bit i = membership of residue i) at every modulus; all set algebra and
counting runs on these masks in exact integer arithmetic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

from .config import TUPLE_CELL_CAP


@dataclass(frozen=True)
class CyclicGroup:
    """The additive group Z/N. Elements are plain ints in [0, N)."""

    modulus: int

    def __post_init__(self) -> None:
        if self.modulus < 1:
            raise ValueError(f"modulus must be >= 1, got {self.modulus}")

    def reduce(self, x: int) -> int:
        return x % self.modulus

    def elements(self) -> range:
        return range(self.modulus)

    def __repr__(self) -> str:
        return f"Z/{self.modulus}"


def make_group(n: int) -> CyclicGroup:
    return CyclicGroup(n)


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
    def mask(self) -> int:
        """Bitmask with bit i set iff i is a member."""
        m = 0
        for x in self.members:
            m |= 1 << x
        return m

    @cached_property
    def member_set(self) -> frozenset[int]:
        return frozenset(self.members)

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def __contains__(self, x: int) -> bool:
        return x % self.group.modulus in self.member_set


def full_mask(n: int) -> int:
    return (1 << n) - 1


def mask_shift_minus(mask: int, s: int, n: int) -> int:
    """Bitmask of A - s given the bitmask of A: bit i set iff i + s in A."""
    s %= n
    return ((mask >> s) | (mask << (n - s))) & full_mask(n) if s else mask


def iter_bits(mask: int):
    """Indices of the set bits of mask, lowest first.

    Each step strips the lowest set bit, so the number of steps is the
    number of set bits, not the bit length.
    """
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_sumset(amask: int, bmask: int, n: int, sign: str = "+") -> int:
    """Bitmask of A + B for sign '+', A - B for sign '-', from their masks."""
    out = 0
    for y in iter_bits(bmask):
        t = -y % n if sign == "-" else y
        # A + t: the right shift wraps the bits pushed past n - 1 round to
        # the bottom; the final mask clears the unwrapped copies
        out |= (amask << t) | (amask >> (n - t))
    return out & full_mask(n)


def mask_reflect(mask: int, n: int) -> int:
    """Bitmask of -A: bit i set iff (-i) mod n in A."""
    out = 0
    for i in iter_bits(mask):
        out |= 1 << (-i % n)
    return out


def set_from_mask(group: CyclicGroup, mask: int) -> GroupSet:
    return GroupSet(group, tuple(iter_bits(mask)))


def indicator(a: GroupSet) -> "GroupFn":
    from .transform import GroupFn

    n = a.group.modulus
    vals = [0] * n
    for x in a.members:
        vals[x] = 1
    return GroupFn(a.group, tuple(vals))


def _require_same_group(*sets: GroupSet) -> CyclicGroup:
    g = sets[0].group
    for s in sets[1:]:
        if s.group != g:
            raise ValueError("sets live on different moduli")
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
    m = b.mask
    amask = a.mask
    reflected = None  # mask of -A, built on the first '+' shift
    for s, sg in zip(shifts, signs):
        if sg == "-":
            m &= mask_shift_minus(amask, s, n)
        elif sg == "+":
            if reflected is None:
                reflected = mask_reflect(amask, n)
            m &= mask_shift_minus(reflected, -s, n)
        else:
            raise ValueError(f"sign must be '+' or '-', got {sg!r}")
        if not m:
            break
    return set_from_mask(g, m)


def shift_set(a: GroupSet, x: int) -> GroupSet:
    """A_x = A ∩ (A - x)."""
    return intersect_shifts(a, a, (x,))


def sumset(a: GroupSet, b: GroupSet, sign: str = "+") -> GroupSet:
    """{a + b} for sign '+', {a - b} for sign '-'."""
    g = _require_same_group(a, b)
    n = g.modulus
    if sign not in "+-":
        raise ValueError(f"sign must be '+' or '-', got {sign!r}")
    return set_from_mask(g, mask_sumset(a.mask, b.mask, n, sign))


def iterated_sumset(a: GroupSet, m: int) -> GroupSet:
    """A + A + ... + A with m summands (m >= 1)."""
    if m < 1:
        raise ValueError("need at least one summand")
    out = a
    for _ in range(m - 1):
        out = sumset(out, a, "+")
    return out


@dataclass(frozen=True)
class TupleSet:
    """Subset of (Z/N)^k for k <= 3, stored as an explicit frozenset."""

    group: CyclicGroup
    arity: int
    members: frozenset[tuple[int, ...]] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        if not (1 <= self.arity <= 3):
            raise ValueError("arity must be in 1..3")
        if self.group.modulus ** self.arity > TUPLE_CELL_CAP:
            raise ValueError("N^k exceeds the dense tuple cap")
        for t in self.members:
            if len(t) != self.arity:
                raise ValueError("tuple arity mismatch")

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, t: tuple[int, ...]) -> bool:
        return tuple(x % self.group.modulus for x in t) in self.members


def tuple_sumset_with_diagonal(
    sets: Sequence[GroupSet], b: GroupSet, sign: str = "-"
) -> TupleSet:
    """A_1 x ... x A_k ∓ Δ(B) built by direct enumeration.

    For sign '-' this is {(a_1 - c, ..., a_k - c) : a_i in A_i, c in B},
    which coincides with {x : B ∩ (A_1 - x_1) ∩ ... ∩ (A_k - x_k) != ∅}.
    """
    if not sets:
        raise ValueError("need at least one factor")
    g = _require_same_group(*sets, b)
    n = g.modulus
    k = len(sets)
    if k > 3 or n ** k > TUPLE_CELL_CAP:
        raise ValueError("tuple arity/size cap exceeded")
    if sign not in "+-":
        raise ValueError(f"sign must be '+' or '-', got {sign!r}")
    out: set[tuple[int, ...]] = set()
    for c in b.members:
        grids = [
            tuple((a - c) % n if sign == "-" else (a + c) % n for a in s.members)
            for s in sets
        ]
        out.update(itertools.product(*grids))
    return TupleSet(g, k, frozenset(out))


def diag_shift_size(a: GroupSet, c: GroupSet, l: int, sign: str = "-") -> int:
    """|A^l ∓ Δ_l(C)| by direct enumeration (l <= 3)."""
    if not c.members:
        return 0
    if l == 1:
        return len(sumset(a, c, "-" if sign == "-" else "+"))
    return len(tuple_sumset_with_diagonal([a] * l, c, sign))
