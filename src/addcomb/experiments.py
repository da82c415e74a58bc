"""Desk-scale experiment scans: subgroup energies and sumsets, dyadic level
profiles, iterated-sumset coverage, expansion ratios, convex sets, and
multiplicative-doubling statistics.

Counts are exact integers (the pair-count kernel ``groups.difference_counts``,
or one ``np.unique`` sort count of the pair values of an integer set), and
sums of their products take int64 or Python ints from
``groups._exact_operands``; asymptotic statements are reported as ratio
columns and never asserted against invented constants.  Rows are emitted in
sorted (p, t) order so CSV output is deterministic.

Subgroup statistics come from the orbit kernel, cached as
``MultSubgroup.stats``: one count per coset g^j Gamma, O(t + n) per
subgroup, by the formulas in the ``subgroup.SubgroupStats`` docstring.  The
pair counts below serve the sets that are not Gamma-invariant (convex sets,
progressions, A + Gamma); iterated sumsets of a whole subgroup are FFT
supports, where pair counting would cost O(p t) per step.
"""

from __future__ import annotations

import csv
import math
import random
from dataclasses import dataclass, fields

import numpy as np

from .config import CONVEX_N_CAP, DOUBLING_SET_CAP, SCAN_PRIME_CAP
from .groups import _energy_sums, _exact_operands, _value_table, difference_counts, indicator_vector
from .subgroup import MultSubgroup, PrimeField, make_field, subgroup


def primes_up_to(n: int) -> list[int]:
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, int(n ** 0.5) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(range(p * p, n + 1, p)))
    return [i for i, v in enumerate(sieve) if v]


def divisors(n: int) -> list[int]:
    out = []
    for d in range(1, int(n ** 0.5) + 1):
        if n % d == 0:
            out.append(d)
            if d * d != n:
                out.append(n // d)
    return sorted(out)


def _scan_orders(p_max: int):
    """(F_p, t) for every odd prime p <= p_max and every t | p - 1, in
    ascending (p, t) order.  The cap is checked at the call; each field is
    built as the iteration reaches it."""
    if p_max > SCAN_PRIME_CAP:
        raise ValueError(f"scan capped at p <= {SCAN_PRIME_CAP}")
    odd_primes = primes_up_to(p_max)[1:]  # drop 2
    return ((fld, t) for fld in map(make_field, odd_primes) for t in divisors(fld.p - 1))


# ---------------------------------------------------------------------------
# exact counting helpers
# ---------------------------------------------------------------------------


def autocorrelation_np(elements, p: int) -> np.ndarray:
    """(S ∘ S)(x) for S inside Z/p as an int64 vector of length p."""
    g = sorted(elements)
    return difference_counts(g, g, p)


def sumset_size_np(a, b, p: int) -> int:
    """|A + B| in Z/p: the support of the pair count, or of an FFT
    convolution of the indicators past 4M pairs."""
    ga = np.asarray(sorted(a), dtype=np.int64)
    gb = np.asarray(sorted(b), dtype=np.int64)
    if len(ga) * len(gb) <= 4_000_000:
        return int(np.count_nonzero(difference_counts(-ga, gb, p)))
    ind_a, ind_b = indicator_vector(ga, p), indicator_vector(gb, p)
    return int(_support_convolve(ind_a.astype(float), ind_b.astype(float)).sum())


def _support_convolve(ind_a: np.ndarray, ind_b: np.ndarray) -> np.ndarray:
    """Support of the cyclic convolution of two 0/1 vectors, exactly.

    Counts are bounded by the vector length, far below float precision,
    so rounding the FFT product at 1/2 is exact.
    """
    conv = np.fft.irfft(np.fft.rfft(ind_a) * np.fft.rfft(ind_b), n=len(ind_a))
    return conv > 0.5


# ---------------------------------------------------------------------------
# subgroup scan
# ---------------------------------------------------------------------------


@dataclass
class SubgroupScanRow:
    p: int
    t: int
    E2: int
    E3: int
    sum: int
    diff: int
    ratio_52: float | None
    ratio_229: float | None
    ratio_sumw: float | None
    lower: float
    fourier_max: float


def subgroup_scan(
    p_max: int,
    t_min: int = 1,
    t_max: int | None = None,
) -> list[SubgroupScanRow]:
    """One row per (prime p <= p_max, t | p-1): exact energies, sumset and
    difference-set sizes, reported ratio columns, and the largest nontrivial
    Fourier coefficient.  E2 * |sum| >= t^4 is asserted on every row.

    The integer columns come from ``gamma.stats`` in O(t + n) per row,
    n = (p-1)/t, by the formulas of ``subgroup.SubgroupStats``.

    ``fourier_max`` is max_j |eta_j| over the n Gauss periods
    eta_j = sum_{l < t} e(g^(j + n l) / p), since Gamma^(xi) = eta_j on the
    coset xi in g^j Gamma.  Each prime takes cos and sin of 2 pi g^k / p
    once, over its power table; for each t the two tables are read as
    (t, n) arrays whose column j holds the coset g^j Gamma, transposed into
    contiguous rows and summed along them (numpy sums a contiguous axis
    pairwise), and |eta_j| is ``np.hypot`` of the two sums.
    """
    rows = []
    p_done = None
    for fld, t in _scan_orders(p_max):
        if t < t_min or (t_max is not None and t > t_max):
            continue
        p = fld.p
        if p != p_done:
            angles = 2 * math.pi * fld.powers / p
            cos_powers, sin_powers = np.cos(angles), np.sin(angles)
            p_done = p
        gamma = subgroup(fld, t)
        stats = gamma.stats
        e2, ssum = stats.E2, stats.sum
        if e2 * ssum < t ** 4:
            raise AssertionError(f"energy lower bound failed at p={p}, t={t}")
        n = gamma.index
        re = np.ascontiguousarray(cos_powers.reshape(t, n).T).sum(axis=1)
        im = np.ascontiguousarray(sin_powers.reshape(t, n).T).sum(axis=1)
        fourier_max = float(np.hypot(re, im).max())
        logt = math.log2(t) if t > 1 else 0.0
        rows.append(
            SubgroupScanRow(
                p=p,
                t=t,
                E2=e2,
                E3=stats.E3,
                sum=ssum,
                diff=stats.diff,
                ratio_52=e2 / t ** 2.5,
                ratio_229=(e2 / (t ** (22 / 9) * logt)) if logt else None,
                ratio_sumw=(e2 / (t ** (4 / 3) * ssum ** (2 / 3) * logt))
                if logt
                else None,
                lower=t ** 4 / ssum,
                fourier_max=fourier_max,
            )
        )
    return rows


# ---------------------------------------------------------------------------
# dyadic level profile
# ---------------------------------------------------------------------------


@dataclass
class LevelSetRow:
    p: int
    t: int
    d: float
    i: int
    size: int
    shape_bound: float | None


def level_set_profile(p: int, t: int) -> list[LevelSetRow]:
    """Dyadic bins S_i = {x != 0 : 2^(i-1) d < psi(x) <= 2^i d} for psi the
    subgroup autocorrelation, with threshold d = E2^2 / (2^4 t^3 sqrt(E3)).

    The bins partition the super-threshold support; the reported shape
    column is t^3 log t / (2^(3i) d^3), never asserted.
    """
    fld = make_field(p)
    gamma = subgroup(fld, t)
    stats = gamma.stats
    d = stats.E2 ** 2 / (2 ** 4 * t ** 3 * math.sqrt(stats.E3))
    psi = gamma.autocorrelation.values
    above = [x for x in range(1, p) if psi[x] > d]
    rows = []
    i = 1
    remaining = set(above)
    maxpsi = max((psi[x] for x in above), default=0)
    while 2 ** (i - 1) * d < maxpsi:
        members = [x for x in above if 2 ** (i - 1) * d < psi[x] <= 2 ** i * d]
        remaining -= set(members)
        logt = math.log2(t) if t > 1 else None
        rows.append(
            LevelSetRow(
                p=p,
                t=t,
                d=d,
                i=i,
                size=len(members),
                shape_bound=(t ** 3 * logt / (2 ** (3 * i) * d ** 3))
                if logt is not None
                else None,
            )
        )
        i += 1
    if remaining:
        raise AssertionError("dyadic bins failed to cover the support")
    if sum(r.size for r in rows) != len(above):
        raise AssertionError("dyadic bins are not a partition")
    return rows


# ---------------------------------------------------------------------------
# iterated-sumset coverage
# ---------------------------------------------------------------------------


@dataclass
class CoverageRow:
    p: int
    t: int
    m: int | None  # smallest m with m*Gamma = F_p, None if cap reached
    covered_by_6: bool
    cap: int


def coverage_scan(p_max: int, cap: int = 12) -> list[CoverageRow]:
    """Smallest m <= cap with the m-fold sumset of each subgroup covering F_p.

    The search stops early once |m Gamma| stops growing: |A + Gamma| = |A|
    makes A + Gamma a translate of A, and then so is every later sumset.
    By Cauchy-Davenport that happens only at t = 1, a single point."""
    orders = _scan_orders(p_max)
    if cap < 2:
        # 0 is not in Gamma, so no single copy of Gamma covers F_p
        raise ValueError(f"cap must be >= 2, got {cap}")
    rows = []
    for fld, t in orders:
        gamma = subgroup(fld, t)
        ind = indicator_vector(gamma.elements, fld.p).astype(float)
        m_found = None
        support = ind
        for m in range(2, cap + 1):
            grown = _support_convolve(support, ind).astype(float)
            if grown.all():
                m_found = m
                break
            if grown.sum() == support.sum():
                break
            support = grown
        rows.append(
            CoverageRow(
                p=fld.p,
                t=t,
                m=m_found,
                covered_by_6=m_found is not None and m_found <= 6,
                cap=cap,
            )
        )
    return rows


# ---------------------------------------------------------------------------
# expansion scan
# ---------------------------------------------------------------------------


@dataclass
class ExpansionRow:
    p: int
    t: int
    kind: str  # full | singleton | random
    size: int
    sumset: int
    ratio: float | None


def expansion_scan(p: int, t: int, trials: int = 100, seed: int = 1) -> list[ExpansionRow]:
    """|A + Gamma| ratios against |A| t^(5/9) / log^(2/3) t for subsets of
    the subgroup: the full subgroup, a singleton, and random subsets."""
    if trials < 0:
        raise ValueError(f"trials must be >= 0, got {trials}")
    fld = make_field(p)
    gamma = subgroup(fld, t)
    rng = random.Random(seed)
    els = gamma.elements
    rows = []

    def add(kind: str, a):
        size = len(a)
        s = sumset_size_np(a, els, p)
        logt = math.log2(t) if t > 1 else 0.0
        ratio = (s * logt ** (2 / 3) / (size * t ** (5 / 9))) if logt else None
        rows.append(ExpansionRow(p=p, t=t, kind=kind, size=size, sumset=s, ratio=ratio))

    add("full", list(els))
    add("singleton", [els[0]])
    for _ in range(trials):
        a = [x for x in els if rng.random() < rng.uniform(0.1, 0.9)] or [els[0]]
        add("random", a)
    return rows


# ---------------------------------------------------------------------------
# convex sets
# ---------------------------------------------------------------------------


def squares_sequence(n: int) -> list[int]:
    return [(i + 1) ** 2 for i in range(n)]


def perturbed_quadratic(n: int, seed: int = 1) -> list[int]:
    rng = random.Random(seed)
    gaps = []
    g = 1
    for _ in range(n - 1):
        gaps.append(g)
        g += 1 + rng.randrange(0, 3)
    out = [1]
    for g in gaps:
        out.append(out[-1] + g)
    return out


def assert_convex(seq) -> None:
    if any(b <= a for a, b in zip(seq, seq[1:])):
        raise ValueError("sequence must be strictly increasing")
    diffs = [b - a for a, b in zip(seq, seq[1:])]
    if any(d2 <= d1 for d1, d2 in zip(diffs, diffs[1:])):
        raise ValueError("consecutive gaps must strictly increase")


@dataclass
class ConvexScanRow:
    n: int
    E2: int
    E3: int
    ratio_8936: float | None
    ratio_E3: float | None
    andrews_max: float


def convex_scan(
    n_list,
    generator: str = "squares",
    seed: int = 1,
) -> list[ConvexScanRow]:
    """Exact additive statistics of strictly convex integer sequences,
    embedded wraparound-free into Z/N with N > 4 max(A)."""
    sizes = sorted(set(n_list))
    if sizes and sizes[0] < 2:
        raise ValueError("need n >= 2")
    if sizes and sizes[-1] > CONVEX_N_CAP:
        raise ValueError(f"convex scan capped at n <= {CONVEX_N_CAP}")
    rows = []
    for n in sizes:
        seq = squares_sequence(n) if generator == "squares" else perturbed_quadratic(n, seed)
        assert_convex(seq)
        modulus = 4 * max(seq) + 1
        counts = autocorrelation_np(seq, modulus)
        e2, e3 = _energy_sums(counts)
        nz = counts.copy()
        nz[0] = 0
        andrews = float(nz.max()) / n ** (2 / 3)
        logn = math.log2(n) if n > 1 else None
        rows.append(
            ConvexScanRow(
                n=n,
                E2=e2,
                E3=e3,
                ratio_8936=(e2 / (n ** (89 / 36) * math.sqrt(logn))) if logn else None,
                ratio_E3=(e3 / (n ** 3 * logn)) if logn else None,
                andrews_max=andrews,
            )
        )
    return rows


# ---------------------------------------------------------------------------
# multiplicative doubling statistics
# ---------------------------------------------------------------------------


@dataclass
class DoublingStatsRow:
    n: int
    prod: int           # |AA|
    shifted_prod: int   # |A(A+a)|
    doubling: float     # |AA| / |A|
    mult_energy: int
    mult_energy_shifted: int
    add_energy: int
    speps_third: int    # |{x != 0 : (A∘A)(x) >= n^(2/3)}|
    speps_quarter: int  # |{x != 0 : (A∘A)(x) >= n^(3/4)}|


def doubling_stats(a, shift: int = 1) -> DoublingStatsRow:
    """Exact product/sum statistics for a finite integer set (0 excluded).

    Each statistic is one sort count (``np.unique``) of an |A| x |A| outer
    array of pair values, in the dtype ``_exact_operands`` picks for it:
    int64 when every pair value fits, Python ints otherwise.
    """
    a = sorted(set(int(x) for x in a))
    if not a or 0 in a:
        raise ValueError("need a nonempty integer set avoiding 0")
    n = len(a)
    if n > DOUBLING_SET_CAP:
        raise ValueError(f"doubling statistics capped at |A| <= {DOUBLING_SET_CAP}, got {n}")
    members = _value_table(a)
    x, y = _exact_operands((members, members), 1)
    _, prods = np.unique(np.multiply.outer(x, y), return_counts=True)
    x, y = _exact_operands((members, _value_table([v + shift for v in a])), 1)
    _, sprods = np.unique(np.multiply.outer(x, y), return_counts=True)
    (x,) = _exact_operands((members,), 2)  # |x ± y| <= 2 max |x|
    _, sums = np.unique(np.add.outer(x, x), return_counts=True)
    diffs, dcounts = np.unique(np.subtract.outer(x, x), return_counts=True)
    off_zero = dcounts[diffs != 0]
    return DoublingStatsRow(
        n=n,
        prod=len(prods),
        shifted_prod=len(sprods),
        doubling=len(prods) / n,
        mult_energy=_energy_sums(prods)[0],
        mult_energy_shifted=_energy_sums(sprods)[0],
        add_energy=_energy_sums(sums)[0],
        speps_third=int(np.count_nonzero(off_zero >= n ** (2 / 3))),
        speps_quarter=int(np.count_nonzero(off_zero >= n ** (3 / 4))),
    )


# ---------------------------------------------------------------------------
# progressions inside subgroups
# ---------------------------------------------------------------------------


@dataclass
class ProgressionRow:
    p: int
    t: int
    ap_len: int
    start: int
    step: int
    ratio_sqrt_t: float
    E_P_G: int
    E3_P_G: int
    tmult2: int
    dirichlet_shape: float | None
    vinogradov_shape: float | None


def longest_progression(gamma: MultSubgroup) -> tuple[int, int, int]:
    """Longest arithmetic progression inside the subgroup: (length, start, step).

    Any progression maps to a run of consecutive residues inside a
    multiplicative coset after dividing by its step, so it suffices to scan
    the cosets when there are few of them; tiny subgroups are scanned by
    extending every start/step pair instead.
    """
    p = gamma.field.p
    t = gamma.order
    n = gamma.index
    if t == 1:
        return 1, gamma.elements[0], 1
    if t == p - 1:
        return p - 1, 1, 1
    mem = gamma.as_set.member_set
    if t * t * max(4, t // 2) < n * p:
        best = (1, gamma.elements[0], 1)
        for x in gamma.elements:
            for y in gamma.elements:
                if x == y:
                    continue
                d = (y - x) % p
                # extend forward from x; skip non-maximal starts
                if (x - d) % p in mem:
                    continue
                length = 1
                cur = x
                while (cur + d) % p in mem:
                    cur = (cur + d) % p
                    length += 1
                if length > best[0]:
                    best = (length, x, d)
        return best
    # x lies in the coset g^i Gamma for i = dlog x mod n; a run of consecutive
    # residues in that coset, times g^-i, is a progression of step g^-i in
    # Gamma, and the first (coset, x) to reach the longest run gives it.  Some
    # run has length 2: x = 1 / (c - 1) and x + 1 share a coset for c != 1 in Gamma.
    fld = gamma.field
    coset = fld.dlog % n  # entry x - 1: the coset of x
    pos = np.arange(p - 1)
    run = pos + 1 - np.maximum.accumulate(np.where(np.diff(coset, prepend=-1) != 0, pos, 0))
    length = int(run.max())
    ends = np.flatnonzero(run == length)
    end = int(ends[np.argmin(coset[ends])])
    step = fld.inv(int(fld.powers[coset[end]]))
    return length, (end + 2 - length) * step % p, step


def _progression_row(fld: PrimeField, t: int) -> ProgressionRow:
    p = fld.p
    gamma = subgroup(fld, t)
    length, start, step = longest_progression(gamma)
    prog = [(start + i * step) % p for i in range(length)]
    if not gamma.as_set.member_set.issuperset(prog):
        raise AssertionError("progression search produced a non-member")
    pc = autocorrelation_np(prog, p)
    gc = gamma.autocorrelation.table
    pc, gc, _ = _exact_operands((pc, gc, gc), p)
    e_pg = int(np.sum(pc * gc))
    e3_pg = int(np.sum(pc * gc * gc))
    # T^x_2(P) = #{x1 y1 = x2 y2}: the additive energy of dlog P in Z/(p-1)
    logs = fld.dlog[np.asarray(prog) - 1]
    tmult2 = _energy_sums(difference_counts(logs, logs, p - 1))[0]
    logp_len = math.log2(length) if length > 1 else None
    dirichlet = length ** 2 * (logp_len / 2) ** 2 if logp_len else None
    delta = 1.0 - math.log(t) / math.log(p) if t > 1 else None
    vshape = None
    if delta and 0 < delta < 1:
        exponent = math.sqrt(math.log2(p) * math.log2(1 / delta) / delta)
        if exponent < 700:  # shape is vacuous once it exceeds float range
            vshape = math.exp(exponent)
    return ProgressionRow(
        p=p,
        t=t,
        ap_len=length,
        start=start,
        step=step,
        ratio_sqrt_t=length / math.sqrt(t),
        E_P_G=e_pg,
        E3_P_G=e3_pg,
        tmult2=tmult2,
        dirichlet_shape=dirichlet,
        vinogradov_shape=vshape,
    )


def progression_batch(p_max: int) -> list[ProgressionRow]:
    return [_progression_row(fld, t) for fld, t in _scan_orders(p_max)]


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def write_csv(path, rows) -> None:
    if not rows:
        raise ValueError("nothing to write")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        write_rows(fh, rows)


def write_rows(fh, rows) -> None:
    """Write a nonempty list of row dataclasses as CSV to a text stream:
    a header of field names, then one line per row."""
    names = [f.name for f in fields(rows[0])]
    writer = csv.writer(fh)
    writer.writerow(names)
    for row in rows:
        writer.writerow([_fmt(getattr(row, n)) for n in names])
