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
