"""Independent brute-force oracles: plain tuple enumeration, no shared code
with the library paths they validate."""

import itertools


def quadruple_energy(a, b, n):
    """|{(a1, b1, a2, b2) : a1 + b1 = a2 + b2 mod n}|"""
    count = 0
    for a1 in a:
        for b1 in b:
            for a2 in a:
                for b2 in b:
                    if (a1 + b1 - a2 - b2) % n == 0:
                        count += 1
    return count


def shift_tuple_energy(a, n, k):
    """E_k via sum over (k-1)-tuples of shifts of |A_s|^2."""
    total = 0
    mem = set(a)
    for s in itertools.product(range(n), repeat=k - 1):
        cur = [x for x in a if all((x + si) % n in mem for si in s)]
        total += len(cur) ** 2
    return total


def t_k_count(a, n, k):
    """|{(x_1..x_k, y_1..y_k) in A^2k : sum x = sum y mod n}|"""
    sums = {}
    for xs in itertools.product(a, repeat=k):
        s = sum(xs) % n
        sums[s] = sums.get(s, 0) + 1
    return sum(v * v for v in sums.values())


def sigma_k_count(a, n, k):
    return sum(1 for xs in itertools.product(a, repeat=k) if sum(xs) % n == 0)


def correlate_fn(f, g, n):
    return [sum(f[y] * g[(y + x) % n] for y in range(n)) for x in range(n)]


def convolve_fn(f, g, n):
    return [sum(f[y] * g[(x - y) % n] for y in range(n)) for x in range(n)]


def triangle_enumeration(a, psi, n):
    total = 0
    for x in a:
        for y in a:
            for z in a:
                total += psi[(x - y) % n] * psi[(x - z) % n] * psi[(y - z) % n]
    return total


def cycle_enumeration(a, psi, n, k):
    total = 0
    for xs in itertools.product(a, repeat=k):
        term = 1
        for i in range(k):
            term *= psi[(xs[i] - xs[(i + 1) % k]) % n]
        total += term
    return total


def mult_tuple_energy(a, p, k):
    """|{x_1...x_k = y_1...y_k mod p}| for a set of units."""
    prods = {}
    for xs in itertools.product(a, repeat=k):
        v = 1
        for x in xs:
            v = (v * x) % p
        prods[v] = prods.get(v, 0) + 1
    return sum(v * v for v in prods.values())


def longest_ap_naive(members, p):
    """Longest arithmetic progression inside a set of residues, O(p^2-ish)."""
    mem = set(members)
    best = 1 if members else 0
    for x in members:
        for d in range(1, p):
            if (x - d) % p in mem:
                continue
            length = 1
            cur = x
            while (cur + d) % p in mem and length < p:
                cur = (cur + d) % p
                length += 1
            best = max(best, length)
    return best


# --- set-enumeration oracles for the counting kernels ----------------------
# Each works on plain Python sets of residues; the pair-difference forms cost
# O(|A|^2) or so, so they stay cheap for sparse sets at large moduli.


def shifted_intersection(a, b, shifts, signs, n):
    """B ∩ (A ∓ s_1) ∩ ...: '-' uses A - s, '+' uses s - A."""
    cur = set(b)
    for s, sg in zip(shifts, signs):
        if sg == "-":
            cur &= {(x - s) % n for x in a}
        else:
            cur &= {(s - x) % n for x in a}
    return cur


def sumset_naive(a, b, n, sign):
    if sign == "+":
        return {(x + y) % n for x in a for y in b}
    return {(x - y) % n for x in a for y in b}


def correlation(a, b, n):
    """(A ∘ B)(x) = |A ∩ (B - x)|, counted over pairs (y, z) with z - y = x."""
    out = [0] * n
    for y in a:
        for z in b:
            out[(z - y) % n] += 1
    return out


def shift_spreads(a, n, sign):
    """|A ∓ A_x| for every x, where A_x = A ∩ (A - x); 0 where A_x is empty."""
    mem = set(a)
    out = [0] * n
    for x in {(z - y) % n for y in a for z in a}:
        ax = {y for y in a if (y + x) % n in mem}
        out[x] = len(sumset_naive(a, ax, n, sign))
    return out


def heart_sides(a, n, sign):
    """(sum_x |A_x|^2 / |A ∓ A_x|, sum_x |A_x|^3 / |A|^2) as Fractions."""
    from fractions import Fraction

    counts = correlation(a, a, n)
    spreads = shift_spreads(a, n, sign)
    lhs = sum(
        (Fraction(c * c, d) for c, d in zip(counts, spreads) if c), Fraction(0)
    )
    rhs = Fraction(sum(c ** 3 for c in counts), len(a) ** 2)
    return lhs, rhs


def energy_weight_b_sides(a, b, n, sign):
    """Both sides of the optimal-weight bound at k = l = 1:

    |A|^2 sum_x |A^B_x|^2 / |A ∓ A^B_x|  and  sum_x (B∘B)(x) (A∘A)(x)^2,
    with A^B_x = B ∩ (A - x).
    """
    from fractions import Fraction

    mem = set(a)
    lhs = Fraction(0)
    for x in sorted({(y - z) % n for y in a for z in b}):
        cell = {z for z in b if (z + x) % n in mem}
        lhs += Fraction(len(cell) ** 2, len(sumset_naive(a, cell, n, sign)))
    ra = correlation(a, a, n)
    rb = correlation(b, b, n)
    return len(a) ** 2 * lhs, sum(u * v * v for u, v in zip(rb, ra))


def weight_inequality_sides(a, b, q, n, sign):
    """Both sides of the weighted bound at k = l = 1 for an integer weight q:

    |A|^2 (sum_x q(x) |A^B_x|)^2  and
    sum_x (B∘B)(x) (A∘A)(x)^2 * sum_x |A ∓ A^B_x| q(x)^2.
    """
    mem = set(a)
    lin = quad = 0
    for x in range(n):
        cell = {z for z in b if (z + x) % n in mem}
        if cell:
            lin += q[x] * len(cell)
            quad += len(sumset_naive(a, cell, n, sign)) * q[x] ** 2
    ra = correlation(a, a, n)
    rb = correlation(b, b, n)
    return len(a) ** 2 * lin * lin, sum(u * v * v for u, v in zip(rb, ra)) * quad


def weight_cells_naive(a, b, k, n, sign):
    """{x: (|A^B_x|, |A ∓ A^B_x|)} over x in (Z/n)^k, keys in row-major
    order, with A^B_x = B ∩ (A - x_1) ∩ ... ∩ (A - x_k)."""
    out = {}
    for xs in itertools.product(range(n), repeat=k):
        cell = shifted_intersection(a, b, xs, "-" * k, n)
        out[xs] = (len(cell), len(sumset_naive(a, cell, n, sign)))
    return out


def shift_duality_counts(a, b, k, l, n):
    """{x: #{s in (Z/n)^l : B ∩ (A - x) ∩ (A - s) nonempty}} over x in
    (Z/n)^k, keys in row-major order, where A - x = ∩_i (A - x_i)."""
    out = {}
    for xs in itertools.product(range(n), repeat=k):
        cell = shifted_intersection(a, b, xs, "-" * k, n)
        out[xs] = sum(
            1
            for ss in itertools.product(range(n), repeat=l)
            if shifted_intersection(a, cell, ss, "-" * l, n)
        )
    return out


def subgroup_stats_naive(elements, p):
    """(E2, E3, |S+S|, |S-S|, S∘S) for a set S of residues mod p, by pair
    enumeration; S∘S is the list of (S∘S)(x) = #{(y, z) : z - y = x}."""
    corr = [0] * p
    sums = set()
    for y in elements:
        for z in elements:
            corr[(z - y) % p] += 1
            sums.add((y + z) % p)
    e2 = sum(v * v for v in corr)
    e3 = sum(v ** 3 for v in corr)
    diff = sum(1 for v in corr if v)
    return e2, e3, len(sums), diff, corr


# --- tuple-enumeration oracles for tables over (Z/n)^k ---------------------


def gen_convolution_naive(fs, n):
    """{x: C_k(f_0, ..., f_{k-1})(x)} over x in (Z/n)^(k-1), keys in
    row-major order: sum over z of f_0(z) f_1(z + x_1) ... f_{k-1}(z + x_{k-1})."""
    out = {}
    for xs in itertools.product(range(n), repeat=len(fs) - 1):
        acc = 0
        for z in range(n):
            term = fs[0][z]
            for f, x in zip(fs[1:], xs):
                term *= f[(z + x) % n]
            acc += term
        out[xs] = acc
    return out


def diag_shift_naive(sets, c, n, sign):
    """A_1 x ... x A_l ∓ Δ_l(C) = {(a_1 ∓ y, ..., a_l ∓ y) : a_i in A_i, y in C}."""
    out = set()
    for y in c:
        for xs in itertools.product(*sets):
            out.add(tuple((x - y) % n if sign == "-" else (x + y) % n for x in xs))
    return out
