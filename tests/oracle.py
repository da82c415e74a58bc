"""Independent brute-force oracles: plain tuple enumeration, no shared code
with the library paths they validate."""

import cmath
import itertools
import math
from fractions import Fraction

import numpy as np

from addcomb.checks import IneqCheck
from addcomb.config import TOL
from addcomb.groups import GroupFn, indicator
from addcomb.spectral import _POWER_ITERS
from addcomb.subgroup import _nonzero_constant, mu_alpha_direct, mult_energy_k
from addcomb.transform import dft


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


def convolve_loop(fv, gv, n):
    """(f * g)(x) = sum_y f(y) g(x - y): the direct double loop, zero f(y)
    skipped, in the order of summation of the first library version."""
    out = []
    for x in range(n):
        acc = 0
        for y in range(n):
            v = fv[y]
            if v:
                acc += v * gv[(x - y) % n]
        out.append(acc)
    return out


def correlate_loop(fv, gv, n):
    """(f ∘ g)(x) = sum_y f(y) g(y + x): the direct double loop, zero f(y)
    skipped, in the order of summation of the first library version."""
    out = []
    for x in range(n):
        acc = 0
        for y in range(n):
            v = fv[y]
            if v:
                acc += v * gv[(y + x) % n]
        out.append(acc)
    return out


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


def cycle_chain(a, psi, n, ks):
    """{k: trace(M^k)} for M[i][j] = psi(a_i - a_j), by a chain of
    list-of-lists products in Python ints."""
    m = [[psi[(x - y) % n] for y in a] for x in a]
    cols = list(zip(*m))
    power, out = m, {}
    for k in range(1, max(ks) + 1):
        if k > 1:
            power = [[sum(u * v for u, v in zip(row, col)) for col in cols] for row in power]
        if k in ks:
            out[k] = sum(power[i][i] for i in range(len(a)))
    return out


def mult_tuple_energy(a, p, k, weights=None):
    """sum w(x_1)...w(x_k) conj(w(y_1)...w(y_k)) over x_1...x_k = y_1...y_k
    mod p, for a set of units a and a map w (default 1, which counts the
    tuples): the squared modulus of each product class's weight, summed."""
    prods = {}
    for xs in itertools.product(a, repeat=k):
        v, w = 1, 1
        for x in xs:
            v = (v * x) % p
            w *= 1 if weights is None else weights[x]
        prods[v] = prods.get(v, 0) + w
    return sum(s * s.conjugate() for s in prods.values())


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


def level_threshold_sums(a, n, sign, spreads=None):
    """(sum of |A_x|^2 over x with |A ∓ A_x| >= |A|^2 E2 / (2 E3),
    sum of |A_x| over x with |A ∓ A_x| >= |A_x| |A|^4 / (2 E3)), the
    thresholds as Fractions; ``spreads`` replaces the |A ∓ A_x| if given."""
    from fractions import Fraction

    counts = correlation(a, a, n)
    if spreads is None:
        spreads = shift_spreads(a, n, sign)
    e2 = sum(c * c for c in counts)
    e3 = sum(c ** 3 for c in counts)
    thr1 = Fraction(len(a) ** 2 * e2, 2 * e3)
    thr2 = Fraction(len(a) ** 4, 2 * e3)
    pairs = [(c, d) for c, d in zip(counts, spreads) if c]
    return (sum(c * c for c, d in pairs if d >= thr1),
            sum(c for c, d in pairs if d >= c * thr2))


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


# --- dict recounts of the experiment scan rows ------------------------------
# Each hashes the pair values of a row's set and returns integer columns of
# the row by name; check_row compares a row with them.


def _pair_counts(xs, ys, op):
    """{v: #{(x, y) : op(x, y) = v}} over xs × ys."""
    counts = {}
    for x in xs:
        for y in ys:
            v = op(x, y)
            counts[v] = counts.get(v, 0) + 1
    return counts


def subgroup_row_recount(elements, p):
    """t, E2 and |S+S| from the pair sums, E3 and |S-S| from the pair
    differences of a subgroup S of F_p*."""
    sums = _pair_counts(elements, elements, lambda a, b: (a + b) % p)
    diffs = _pair_counts(elements, elements, lambda a, b: (b - a) % p)
    return {
        "t": len(elements),
        "E2": sum(v * v for v in sums.values()),
        "sum": len(sums),
        "E3": sum(v ** 3 for v in diffs.values()),
        "diff": len(diffs),
    }


def convex_row_recount(seq):
    """n, E2 from the pair sums and E3 = sum_d |A ∩ (A + d)|^3 from the pair
    differences of an integer sequence, with no modulus."""
    sums = _pair_counts(seq, seq, lambda a, b: a + b)
    diffs = _pair_counts(seq, seq, lambda a, b: a - b)
    return {
        "n": len(seq),
        "E2": sum(v * v for v in sums.values()),
        "E3": sum(v ** 3 for v in diffs.values()),
    }


def doubling_row_recount(a, shift):
    """Every column of a doubling-statistics row of the integer set A."""
    a = sorted(set(a))
    n = len(a)
    prods = _pair_counts(a, a, lambda x, y: x * y)
    sprods = _pair_counts(a, [y + shift for y in a], lambda x, y: x * y)
    sums = _pair_counts(a, a, lambda x, y: x + y)
    diffs = _pair_counts(a, a, lambda x, y: x - y)
    return {
        "n": n,
        "prod": len(prods),
        "shifted_prod": len(sprods),
        "doubling": len(prods) / n,
        "mult_energy": sum(v * v for v in prods.values()),
        "mult_energy_shifted": sum(v * v for v in sprods.values()),
        "add_energy": sum(v * v for v in sums.values()),
        "speps_third": sum(1 for d, v in diffs.items() if d and v >= n ** (2 / 3)),
        "speps_quarter": sum(1 for d, v in diffs.items() if d and v >= n ** (3 / 4)),
    }


def check_row(row, recount):
    """Raise AssertionError naming each column of row that differs from the
    recount."""
    wrong = {k: (getattr(row, k), v) for k, v in recount.items() if getattr(row, k) != v}
    if wrong:
        raise AssertionError(f"row differs from its recount (row, recount): {wrong}")


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


def shifted_dot(tables, shifts):
    """sum_z T_0(z) T_1(z + s_1) ... for one shift tuple per table after the
    first: each table rolled by np.roll, the products taken left to right
    and summed with ndarray.sum, in Python ints unless a table is complex."""
    dtype = complex if any(t.table.dtype == complex for t in tables) else object
    total = tables[0].table.astype(dtype)
    for t, s in zip(tables[1:], shifts):
        rolled = np.roll(t.table, [-x for x in s], axis=tuple(range(t.arity)))
        total = total * rolled.astype(dtype)
    return total.sum()


def commutation_worst(rows, points):
    """max over the points y of |C_l(row tables)(y) - C_k(column tables)(y^T)|,
    one point at a time; rows is an l x k matrix of GroupFns and each y an
    (l-1) x (k-1) grid of shifts."""
    from addcomb.transform import gen_convolution

    l, k = len(rows), len(rows[0])
    row_tables = [gen_convolution(list(r)) for r in rows]
    col_tables = [gen_convolution([rows[i][j] for i in range(l)]) for j in range(k)]
    worst = 0
    for y in points:
        yt = tuple(tuple(y[i][j] for i in range(l - 1)) for j in range(k - 1))
        lhs = shifted_dot(row_tables, y)
        rhs = shifted_dot(col_tables, yt)
        worst = max(worst, abs(lhs - rhs))
    return worst


def jacobi_eigh(matrix):
    """Cyclic Jacobi diagonalization of a real symmetric matrix, with
    separate copies and updates of rows, columns and eigenvector columns:
    the reference the library's one-array sweep must match bit for bit.

    Returns (eigenvalues descending, eigenvector columns, off-diagonal
    residual).
    """
    m = np.array(matrix, dtype=float)
    n = m.shape[0]
    if m.shape != (n, n) or not np.allclose(m, m.T, atol=1e-12 * (1 + np.abs(m).max())):
        raise ValueError("jacobi_eigh needs a symmetric square matrix")
    v = np.eye(n)
    if n == 1:
        return m.diagonal().copy(), v, 0.0
    fro = math.sqrt(float((m * m).sum()))
    if fro == 0.0:
        return np.zeros(n), v, 0.0
    target = TOL.jacobi_off * fro
    off_diag = ~np.eye(n, dtype=bool)  # the off-diagonal squares are summed directly
    for _ in range(TOL.jacobi_sweeps):
        off = math.sqrt(float(np.square(m[off_diag]).sum()))
        if off <= target:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = m[p, q]
                app, aqq = m[p, p], m[q, q]
                if abs(apq) <= 1e-40 * (abs(app) + abs(aqq) + 1e-300):
                    continue
                theta = (aqq - app) / (2.0 * apq)
                if abs(theta) > 1e100:
                    t = 1.0 / (2.0 * theta)
                else:
                    t = math.copysign(1.0, theta) / (
                        abs(theta) + math.sqrt(theta * theta + 1.0)
                    )
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                rp = m[p, :].copy()
                rq = m[q, :].copy()
                m[p, :] = c * rp - s * rq
                m[q, :] = s * rp + c * rq
                cp = m[:, p].copy()
                cq = m[:, q].copy()
                m[:, p] = c * cp - s * cq
                m[:, q] = s * cp + c * cq
                vp = v[:, p].copy()
                vq = v[:, q].copy()
                v[:, p] = c * vp - s * vq
                v[:, q] = s * vp + c * vq
    off = math.sqrt(float(np.square(m[off_diag]).sum()))
    eigs = m.diagonal().copy()
    order = np.argsort(-eigs, kind="stable")
    return eigs[order], v[:, order], off


def top_eigenpair(matrix):
    """Power iteration from the all-ones vector that forms matrix @ v three
    times per step (the new iterate, then twice on the normalized one), with
    the reference Jacobi sweep as fallback: the reference the library's
    one-product step must match bit for bit."""
    n = matrix.shape[0]
    v = np.ones(n) / math.sqrt(n)
    if float(np.abs(matrix).max()) == 0.0:
        return 0.0, v
    for _ in range(_POWER_ITERS):
        w = matrix @ v
        nw = float(np.linalg.norm(w))
        if nw == 0.0:
            return 0.0, v
        v = w / nw
        mu = float(v @ (matrix @ v))
        if float(np.linalg.norm(matrix @ v - mu * v)) <= 1e-12 * max(1.0, abs(mu)):
            return mu, np.abs(v)
    eigs, vecs, _ = jacobi_eigh(matrix)
    return float(eigs[0]), np.abs(vecs[:, 0])


# The float loops below are the library's earlier forms.  The library now
# performs the same IEEE operations in the same order on float64 arrays, and
# Tier-1 compares the two by repr, so every rounding must agree.


def fourier_sum(values, w):
    """sum_x values[x] exp(i w (y x mod N)) for every y: the direct double
    loop over nonzero values."""
    n = len(values)
    out = []
    for y in range(n):
        acc = 0j
        for x, v in enumerate(values):
            if v:
                acc += v * cmath.exp(1j * w * ((y * x) % n))
        out.append(acc)
    return out


def characters(gamma):
    """chi_alpha on F_p for alpha < t, each a list of p values: t^(-1/2)
    e(alpha l / t) at x = (root^index)^l, found by walking the powers, and 0j
    off the subgroup."""
    p, t = gamma.field.p, gamma.order
    gen = pow(gamma.field.root, (p - 1) // t, p)
    scale = 1.0 / math.sqrt(t)
    out = []
    for alpha in range(t):
        vals = [0j] * p
        x = 1
        for l in range(t):
            vals[x] = scale * cmath.exp(2j * math.pi * alpha * l / t)
            x = x * gen % p
        out.append(vals)
    return out


def mu_alpha_sums(gamma, g):
    """mu_alpha(g) = sqrt(t) sum_x g(x) chi_alpha(1 - x), one generator sum
    over the support of g per character."""
    p, t = gamma.field.p, gamma.order
    supp = [(x, g.values[x]) for x in range(p) if g.values[x]]
    return [
        math.sqrt(t) * sum(v * chi[(1 - x) % p] for x, v in supp)
        for chi in characters(gamma)
    ]


def eigenbasis_residual(gamma, g, mus, coset=None):
    """max over characters and points x of the base of
    |sum_y g(x - y) vec(y) - mu vec(x)|, with vec the (translated) character
    on the subgroup or on the coset xi * Gamma."""
    p = gamma.field.p
    if coset is None:
        base = list(gamma.elements)
        xi_inv = 1
    else:
        base = sorted((coset * e) % p for e in gamma.elements)
        xi_inv = pow(coset, p - 2, p)
    worst = 0.0
    for mu, chi in zip(mus, characters(gamma)):
        vec = [chi[(xi_inv * x) % p] for x in base]
        for i, x in enumerate(base):
            acc = sum(g.values[(x - y) % p] * vec[j] for j, y in enumerate(base))
            worst = max(worst, abs(acc - mu * vec[i]))
    return worst


def orthonormality_residual(gamma):
    """max over character pairs of |<chi_a, chi_b> - [a = b]|, each inner
    product a generator sum over the subgroup."""
    t = gamma.order
    chis = characters(gamma)
    worst = 0.0
    for a in range(t):
        for b in range(t):
            ip = sum(chis[a][x] * chis[b][x].conjugate() for x in gamma.elements)
            worst = max(worst, abs(ip - (1 if a == b else 0)))
    return worst


def gamma_invariant(elements, values, p, tol=0.0):
    """|f(x g) - f(x)| <= tol for every x != 0 and g in Gamma, pointwise."""
    for x in range(1, p):
        base = values[x]
        for g in elements:
            if abs(values[(x * g) % p] - base) > tol:
                return False
    return True


def gamma_invariant_set(gamma, s):
    """Is S fixed by multiplication with every subgroup element? (0 is
    fixed): every product x g looked up in the member set."""
    p = gamma.field.p
    mem = s.member_set
    for x in s.members:
        if x == 0:
            continue
        for g in gamma.elements:
            if (x * g) % p not in mem:
                return False
    return True


def fn_from_profile(gamma, zero_value, rep_values):
    """The value list of an invariant function from its profile: every
    product r g of a representative with a subgroup element written in turn
    (a later representative of a coset overwrites), None where no coset
    was given."""
    p = gamma.field.p
    vals = [zero_value] + [None] * (p - 1)
    for r, v in rep_values.items():
        for g in gamma.elements:
            vals[(r * g) % p] = v
    return vals


def tk_character_checks(gamma, f, k):
    """The T^x_k character identity with each <f, chi_alpha> a generator sum
    over the subgroup, and the lower bound for indicator f."""
    t = gamma.order
    direct = mult_energy_k(gamma, f, k)
    fv = f.values
    rhs = 0.0
    table = gamma.character_table
    for alpha in range(t):
        chi = table[:, alpha].tolist()
        c = sum(fv[x] * v.conjugate() for x, v in zip(gamma.elements, chi))
        rhs += abs(c) ** (2 * k)
    rhs *= t ** (k - 1)
    scale = max(1.0, abs(direct), abs(rhs))
    out = [
        IneqCheck.from_identity(
            f"product-energy-character-identity-k{k}",
            abs(direct - rhs) / scale,
            TOL.cycle_rel,
            detail={"direct": direct if f.kind == "int" else abs(direct),
                    "character_side": rhs},
        )
    ]
    if f.kind == "int" and all(v in (0, 1) for v in fv):
        size = sum(fv)
        out.append(
            IneqCheck.from_ge(
                f"product-energy-lower-bound-k{k}",
                Fraction(direct),
                Fraction(size ** (2 * k), t),
            )
        )
    return out


def mu_convolution_checks(gamma, g, h):
    """The eigenvalue product and power rules, each convolution of mu
    tables a generator sum over b per alpha."""
    t = gamma.order
    mug = mu_alpha_direct(gamma, g).values
    muh = mu_alpha_direct(gamma, h).values
    gh = GroupFn(g.group, tuple(gv * hv for gv, hv in zip(g.conjugate().values, h.values)))
    mugh = mu_alpha_direct(gamma, gh).values
    worst = 0.0
    scale = max(1.0, max(abs(v) for v in mugh))
    for a in range(t):
        rhs = sum(
            complex(mug[b]).conjugate() * muh[(a + b) % t] for b in range(t)
        ) / t
        worst = max(worst, abs(mugh[a] - rhs))
    out = [
        IneqCheck.from_identity(
            "eigenvalue-product-rule", worst / scale, TOL.spectrum_rel
        )
    ]
    if g.kind != "complex":
        mu = [complex(v) for v in mug]
        cur = list(mu)
        for l in (2, 3):
            nxt = [
                sum(cur[b] * mu[(a - b) % t] for b in range(t)) / t for a in range(t)
            ]
            gl = g.power(l)
            mugl = mu_alpha_direct(gamma, gl).values
            sc = max(1.0, max(abs(v) for v in mugl))
            w = max(abs(mugl[a] - nxt[a]) for a in range(t))
            out.append(
                IneqCheck.from_identity(
                    f"eigenvalue-power-rule-l{l}", w / sc, TOL.spectrum_rel
                )
            )
            cur = nxt
    return out


def exact_fourier_c3_checks(gamma, u, h_family, v):
    """The three-point restricted Fourier bound by triple loops: the table
    sum_z v(z) u(z + x) conj(u(z + y)) for x, y in Gamma, h ∘ conj(h) and
    the double sum against it."""
    p = gamma.field.p
    t = gamma.order
    mem = gamma.elements
    uv = u.values
    vv = v.values
    table = {}
    for x in mem:
        for y in mem:
            acc = 0j
            for z in range(p):
                w = vv[z]
                if w:
                    acc += w * uv[(z + x) % p] * complex(uv[(z + y) % p]).conjugate()
            table[(x, y)] = acc
    lhs = sum(table.values()).real
    gg = gamma.autocorrelation.values
    out = []
    for idx, h in enumerate(h_family):
        # (h ∘ conj(h))(x) = sum_y h(y) conj(h(y+x))
        hv = h.values
        hcorr = [
            sum(hv[y] * complex(hv[(y + x) % p]).conjugate() for y in range(p))
            for x in range(p)
        ]
        e_h = sum(hcorr[x].real * gg[x] for x in range(p))
        if e_h == 0:
            continue
        s = sum(hcorr[(x - y) % p] * table[(x, y)] for x in mem for y in mem).real
        bound = t * t * s / e_h
        name = f"restricted-fourier-c3-h{idx}"
        if _nonzero_constant(h):
            out.append(
                IneqCheck.from_identity(
                    name + "-equality",
                    abs(lhs - bound) / max(1.0, abs(bound)),
                    TOL.complex_rel,
                )
            )
        else:
            out.append(
                IneqCheck.from_le(name, lhs, bound, TOL.complex_rel * max(1.0, abs(bound)))
            )
    return out


def trace_square_dual(a, psi):
    """sum_z (phi ∘ phi)(z) |A^(z)|^2 for phi = psi^ / N, each correlation
    value a generator sum."""
    n = a.group.modulus
    psihat = dft(psi)
    ahat = dft(indicator(a))
    phi = [v / n for v in psihat.values]
    dual = 0.0
    for z in range(n):
        corr_phi = sum(phi[y] * phi[(y + z) % n] for y in range(n))
        dual += (corr_phi * abs(ahat.values[z]) ** 2).real
    return dual


def fourier_max_fft(elements, p):
    """max |Gamma^(xi)| over xi != 0 from a full length-p FFT of Gamma's
    indicator."""
    ind = np.zeros(p)
    ind[list(elements)] = 1.0
    return float(np.abs(np.fft.fft(ind)[1:]).max())


def fourier_max_fsum(gamma):
    """max_j |eta_j| over the Gauss periods eta_j = sum_{x in g^j Gamma}
    e(x/p), each part summed by math.fsum over the coset."""
    fld = gamma.field
    p = fld.p
    best = 0.0
    for j in range(gamma.index):
        xi = pow(fld.root, j, p)
        coset = [xi * e % p for e in gamma.elements]
        re = math.fsum(math.cos(2 * math.pi * x / p) for x in coset)
        im = math.fsum(math.sin(2 * math.pi * x / p) for x in coset)
        best = max(best, math.hypot(re, im))
    return best
