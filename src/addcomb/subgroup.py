"""Multiplicative subgroups of F_p*: characters, closed-form eigenvalues,
multiplicative energies, and invariant-set utilities.

Only prime fields are implemented; the additive structure of F_p is the
cyclic group Z/p from ``groups``, so every additive tool applies directly.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .checks import IneqCheck
from .config import FIELD_PRIME_CAP, TOL
from .energy import correlation_counts, energy_k
from .groups import (
    CyclicGroup,
    GroupFn,
    GroupSet,
    _PAIR_BLOCK,
    _energy_sums,
    _exact_operands,
    _scalar,
    _value_table,
    indicator,
    indicator_vector,
    restricted_matrix,
)
from .spectral import build_restricted_operator, eigendecompose
from .transform import _BLOCK, _ordered_sums, correlate, dft


def _prime_factors(n: int) -> list[int]:
    """The distinct primes dividing n, ascending, by trial division."""
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1 if f == 2 else 2
    if n > 1:
        out.append(n)
    return out


def _is_prime(n: int) -> bool:
    return n >= 2 and _prime_factors(n) == [n]


@dataclass(frozen=True)
class PrimeField:
    """F_p with a fixed primitive root g, read through two lazily built,
    read-only int64 tables: ``powers`` and ``dlog``."""

    p: int
    root: int

    @cached_property
    def group(self) -> CyclicGroup:
        return CyclicGroup(self.p)

    def log(self, x: int) -> int:
        x %= self.p
        if x == 0:
            raise ValueError("0 has no discrete logarithm")
        return int(self.dlog[x - 1])

    @cached_property
    def powers(self) -> np.ndarray:
        """g^k mod p for k < p - 1, by doubling: once the first f powers are
        known, the next f are those times g^f.  Every product is below p^2,
        which int64 holds for p <= FIELD_PRIME_CAP."""
        p = self.p
        powers = np.empty(p - 1, dtype=np.int64)
        powers[0] = 1
        f = 1
        while f < p - 1:
            m = min(f, p - 1 - f)
            powers[f:f + m] = powers[:m] * pow(self.root, f, p) % p
            f += m
        powers.flags.writeable = False
        return powers

    @cached_property
    def dlog(self) -> np.ndarray:
        """Entry x - 1 is dlog x: ``powers`` scattered back to its indices."""
        dlog = np.empty(self.p - 1, dtype=np.int64)
        dlog[self.powers - 1] = np.arange(self.p - 1)
        dlog.flags.writeable = False
        return dlog

    def inv(self, x: int) -> int:
        x %= self.p
        if x == 0:
            raise ZeroDivisionError("0 is not invertible")
        return pow(x, -1, self.p)


def _generates(g: int, p: int) -> bool:
    """Does g generate F_p* for prime p?  Its order divides p - 1, so it is
    p - 1 unless g^((p-1)/q) = 1 for a prime q | p - 1."""
    return g % p != 0 and all(pow(g, (p - 1) // q, p) != 1 for q in _prime_factors(p - 1))


def primitive_root(p: int) -> int:
    """The least generator of F_p* (1 at p = 2)."""
    return next(g for g in range(1, p) if _generates(g, p))


def make_field(p: int, root: int | None = None) -> PrimeField:
    if p > FIELD_PRIME_CAP:
        raise ValueError(f"field size capped at {FIELD_PRIME_CAP}")
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    if root is None:
        root = primitive_root(p)
    elif not _generates(root, p):
        raise ValueError(f"{root} is not a primitive root mod {p}")
    return PrimeField(p, root)


@dataclass(frozen=True)
class MultSubgroup:
    field: PrimeField
    order: int  # t

    def __post_init__(self) -> None:
        if self.order < 1 or (self.field.p - 1) % self.order != 0:
            raise ValueError("order must divide p - 1")

    @property
    def index(self) -> int:
        return (self.field.p - 1) // self.order

    @cached_property
    def elements(self) -> tuple[int, ...]:
        """g^(n l) for l < t, sorted: every n-th entry of the power table."""
        return tuple(np.sort(self.field.powers[::self.index]).tolist())

    @cached_property
    def as_set(self) -> GroupSet:
        """The subgroup's one membership view; ``elements`` is already sorted."""
        return GroupSet(self.field.group, self.elements)

    @cached_property
    def autocorrelation(self) -> GroupFn:
        """(Gamma ∘ Gamma)(x) for x in Z/p, int64: t at 0 and c_j on the
        coset g^j Gamma, from the cached ``stats``."""
        fld = self.field
        counts = np.empty(fld.p, dtype=np.int64)
        counts[0] = self.order
        counts[1:] = self.stats.coset_counts[fld.dlog % self.index]
        return GroupFn(fld.group, counts)

    @cached_property
    def stats(self) -> SubgroupStats:
        """Gamma ∘ Gamma's coset counts, E2, E3 and |Gamma ± Gamma| from
        the orbit kernel, run once per subgroup."""
        return _orbit_stats(self)

    @cached_property
    def _mu_tables(self) -> dict:
        """``mu_alpha_direct``'s tables by kernel values, each filled on
        first use."""
        return {}

    @cached_property
    def character_table(self) -> np.ndarray:
        """Read-only complex128 X[i, alpha] = chi_alpha(elements[i]) =
        t^(-1/2) e(alpha l / t) for elements[i] = g^(n l); built once per
        subgroup."""
        t = self.order
        scale = 1.0 / math.sqrt(t)
        ls = self.field.dlog[np.asarray(self.elements) - 1] // self.index
        table = np.array([
            [scale * cmath.exp(2j * math.pi * alpha * l / t) for alpha in range(t)]
            for l in ls.tolist()
        ])
        table.flags.writeable = False
        return table

    def __len__(self) -> int:
        return self.order


def subgroup(field: PrimeField, t: int) -> MultSubgroup:
    return MultSubgroup(field, t)


# ---------------------------------------------------------------------------
# invariance utilities
# ---------------------------------------------------------------------------


def _check_on_field(gamma: MultSubgroup, f: GroupFn, off_gamma: str | None = None) -> None:
    """Raise ValueError unless f is on Z/p and, given ``off_gamma``, vanishes off Gamma."""
    p = gamma.field.p
    if f.group.modulus != p or f.arity != 1:
        raise ValueError(f"function on the wrong modulus: not a function on Z/{p}")
    if off_gamma is not None and (f.table[~indicator_vector(gamma.elements, p)] != 0).any():
        raise ValueError(off_gamma)


def gamma_invariant_set(gamma: MultSubgroup, s: GroupSet) -> bool:
    """Is S fixed by multiplication with every subgroup element? (0 is fixed)."""
    return gamma_invariant_fn(gamma, indicator(s))


def orbit_closure(gamma: MultSubgroup, s: GroupSet) -> GroupSet:
    """Smallest invariant superset: union of the orbits x * Gamma."""
    members = np.asarray(s.members, dtype=np.int64)
    orbits = np.multiply.outer(members, gamma.elements) % gamma.field.p
    return GroupSet.of(gamma.field.group, orbits.ravel().tolist())


def gamma_invariant_fn(gamma: MultSubgroup, f: GroupFn, tol: float = 0.0) -> bool:
    """Is |f(x g) - f(x)| <= tol for every x != 0 and g in Gamma?  Compared a
    block of x at a time; int differences are exact (int64 behind the bound
    of ``_exact_operands`` for a sum of two entries), complex ones are
    measured with ``hypot``, as ``abs`` measures a Python complex."""
    _check_on_field(gamma, f)
    p = gamma.field.p
    table = _exact_operands((f.table,), 2)[0]
    els = np.asarray(gamma.elements, dtype=np.int64)
    xs = np.arange(1, p, dtype=np.int64)
    step = max(1, _BLOCK // len(els))
    for lo in range(0, p - 1, step):
        x = xs[lo:lo + step]
        d = table[np.multiply.outer(x, els) % p] - table[x][:, None]
        dist = np.hypot(d.real, d.imag) if f.kind == "complex" else np.abs(d)
        if (dist > tol).any():
            return False
    return True


def invariant_profile(gamma: MultSubgroup, f: GroupFn):
    """Compact storage of an invariant function: value at 0 plus one value
    per multiplicative coset, keyed by coset representative g^j, j < index."""
    _check_on_field(gamma, f)
    reps = gamma.field.powers[:gamma.index].tolist()
    return f.values[0], {r: f.values[r] for r in reps}


def fn_from_profile(gamma: MultSubgroup, zero_value, rep_values: dict) -> GroupFn:
    """The invariant function with ``zero_value`` at 0 and ``rep_values[r]``
    on r Gamma (the later r of a coset wins), gathered by coset dlog x mod n."""
    fld, n = gamma.field, gamma.index
    by_coset = {fld.log(r) % n: v for r, v in rep_values.items()}  # r = 0 raises
    if len(by_coset) < n:
        raise ValueError("profile does not cover every coset")
    vals = _value_table([zero_value] + [by_coset[j] for j in range(n)])
    return GroupFn(fld.group, vals[np.concatenate(([0], 1 + fld.dlog % n))])


def random_invariant_fn(
    gamma: MultSubgroup, rng: random.Random, lo: int = 0, hi: int = 3
) -> GroupFn:
    """Invariant, values in [lo, hi]; coset values redrawn until one is nonzero."""
    if lo == hi == 0:
        raise ValueError("values in [0, 0] give no nonzero function")
    reps = {}
    while not any(reps.values()):
        reps = {r: rng.randint(lo, hi) for r in gamma.field.powers[:gamma.index].tolist()}
    return fn_from_profile(gamma, rng.randint(lo, hi), reps)


@dataclass(frozen=True, eq=False)
class SubgroupStats:
    """Exact Gamma ∘ Gamma and |Gamma ± Gamma|, counted once per coset.

    Both functions are constant on each coset g^j Gamma (j < n = (p-1)/t),
    and dividing a pair (a, b) by a leaves one element gamma = b/a, so
    every count reduces to one pass over Gamma:

    - c_j = (Gamma ∘ Gamma)(g^j) = #{gamma != 1 : dlog(gamma - 1) = j mod n};
    - E2 = t^2 + t sum_j c_j^2 and E3 = t^3 + t sum_j c_j^3;
    - |Gamma - Gamma| = 1 + t #{j : c_j > 0};
    - |Gamma + Gamma| = [-1 in Gamma] + t #{dlog(1 + gamma) mod n : gamma != -1}.
    """

    coset_counts: np.ndarray  # int64 c_j, j < index
    E2: int
    E3: int
    sum: int
    diff: int


def _orbit_stats(gamma: MultSubgroup) -> SubgroupStats:
    """The orbit kernel: every Gamma ∘ Gamma / Gamma + Gamma count in O(t + n)."""
    fld = gamma.field
    p, t, n = fld.p, gamma.order, gamma.index
    dl = fld.dlog
    els = fld.powers[::n]  # Gamma in power order: the counts take no order
    # dlog(gamma - 1) sits at index gamma - 2, dlog(gamma + 1) at index gamma
    counts = np.bincount(dl[els[els != 1] - 2] % n, minlength=n)
    sum_cosets = int(np.count_nonzero(np.bincount(dl[els[els != p - 1]] % n, minlength=n)))
    counts.flags.writeable = False  # cached on the subgroup
    s2, s3 = _energy_sums(counts)
    return SubgroupStats(
        coset_counts=counts,
        E2=t * t + t * s2,
        E3=t ** 3 + t * s3,
        # -1 = g^((p-1)/2) is in Gamma iff t is even (p odd); at p = 2, -1 = 1
        sum=int(p == 2 or t % 2 == 0) + t * sum_cosets,
        diff=1 + t * int(np.count_nonzero(counts)),
    )


def subgroup_autocorrelation(gamma: MultSubgroup) -> GroupFn:
    """(Gamma ∘ Gamma) as an integer function on Z/p (always invariant)."""
    return gamma.autocorrelation


# ---------------------------------------------------------------------------
# closed-form eigenvalues
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MuTable:
    """mu_alpha of one kernel on one subgroup.  It holds no reference to the
    subgroup, which caches it: a cycle would keep the subgroup's character
    table alive until the cyclic garbage collector runs."""

    kernel: GroupFn
    values: tuple  # mu_alpha for alpha in [t]

    def __len__(self) -> int:
        return len(self.values)


def mu_alpha_direct(gamma: MultSubgroup, g: GroupFn) -> MuTable:
    """mu_alpha(g) = sqrt(t) sum_x g(x) chi_alpha(1 - x) for invariant g,
    computed once per subgroup and kernel values."""
    table = gamma._mu_tables.get(g.values)
    if table is not None:
        return table
    if not gamma_invariant_fn(gamma, g, tol=0.0 if g.kind == "int" else 1e-12):
        raise ValueError("kernel must be invariant under the subgroup")
    p, t = gamma.field.p, gamma.order
    if any(g.values):
        # the sum over x in supp(g), in increasing x, of g(x) chi(1 - x):
        # only x in 1 - Gamma meet a nonzero character value, and a 0j term
        # leaves a sum that starts at 0 as it is, so the rest are dropped.
        # The t indices are sorted in Python: the first call of numpy's
        # int64 sort kernels maps about 0.25 MB of their code into memory.
        xs = [(1 - e) % p for e in gamma.elements]
        rows = sorted((i for i in range(t) if g.values[xs[i]]), key=xs.__getitem__)
        weights = np.array([complex(g.values[xs[i]]) for i in rows], dtype=np.complex128)
        sums = _ordered_sums(weights, gamma.character_table[rows]).tolist()
    else:
        sums = [0] * t  # sum() of no terms
    out = tuple(math.sqrt(t) * s for s in sums)
    table = gamma._mu_tables[g.values] = MuTable(g, out)
    return table


def check_eigenbasis(
    gamma: MultSubgroup, g: GroupFn, coset: int | None = None
) -> IneqCheck:
    """Characters are eigenvectors of the restricted kernel matrix.

    With ``coset`` set to xi, checks the translated characters
    chi_alpha(xi^-1 x) on the coset xi * Gamma; differences inside the
    coset are xi times differences inside the subgroup, so the matching
    eigenvalues come from the dilated kernel z -> g(xi z).
    """
    _check_on_field(gamma, g)
    p = gamma.field.p
    if coset is None:
        base = gamma.as_set
        vecs = gamma.character_table
        mus = mu_alpha_direct(gamma, g).values
    else:
        base = GroupSet.of(gamma.field.group, (coset * e for e in gamma.elements))
        # vecs[i] holds the characters at xi^-1 base[i], an element of Gamma
        row = {e: i for i, e in enumerate(gamma.elements)}
        xi_inv = gamma.field.inv(coset)
        vecs = gamma.character_table[[row[xi_inv * x % p] for x in base]]
        dilated = GroupFn(gamma.field.group, g.table[coset * np.arange(p) % p])
        mus = mu_alpha_direct(gamma, dilated).values
    # kt[j, i] = g(x_i - y_j) over the base: acc_i = sum_j g(x_i - y_j) vec_j,
    # summed as the generator over j sums it
    kt = restricted_matrix(base, g.table).T
    worst = 0.0
    for alpha, mu in enumerate(mus):
        vec = vecs[:, alpha].tolist()
        for i, acc in enumerate(_ordered_sums(vecs[:, alpha], kt).tolist()):
            worst = max(worst, abs(acc - mu * vec[i]))
    return IneqCheck.from_identity(
        "subgroup-eigenbasis" + ("" if coset is None else "-coset"),
        worst,
        TOL.eig_residual,
    )


def check_mu_vs_jacobi(gamma: MultSubgroup, g: GroupFn) -> IneqCheck:
    """{mu_alpha} equals the Jacobi spectrum as a multiset."""
    mus = sorted((m.real for m in mu_alpha_direct(gamma, g).values), reverse=True)
    eigs = eigendecompose(build_restricted_operator(gamma.as_set, g)).eigenvalues
    scale = max(1.0, max((abs(v) for v in eigs), default=0.0))
    worst = max(
        (abs(m - e) for m, e in zip(mus, eigs)), default=0.0
    )
    return IneqCheck.from_identity(
        "mu-vs-jacobi", worst / scale, TOL.spectrum_rel
    )


def check_mu_convolution(gamma: MultSubgroup, g: GroupFn, h: GroupFn) -> list[IneqCheck]:
    """Product rule and power rule for the closed-form eigenvalues.

    mu_alpha(conj(g) h) = t^-1 sum_beta conj(mu_beta(g)) mu_(alpha+beta)(h),
    and mu_alpha(g^l) = t^-(l-1) (mu *_(l-1) mu)(alpha) for l in {2, 3}.
    """
    t = gamma.order
    mug = np.array(mu_alpha_direct(gamma, g).values, dtype=np.complex128)
    muh = np.array(mu_alpha_direct(gamma, h).values, dtype=np.complex128)
    gh = GroupFn(g.group, tuple(gv * hv for gv, hv in zip(g.conjugate().values, h.values)))
    mugh = mu_alpha_direct(gamma, gh).values
    # each sum runs over b in order; the division by t is Python's complex / int
    r = np.arange(t)
    rhs = _ordered_sums(mug.conj(), muh[(r[:, None] + r) % t]).tolist()
    worst = max(abs(m - v / t) for m, v in zip(mugh, rhs))
    scale = max(1.0, max(abs(v) for v in mugh))
    out = [
        IneqCheck.from_identity(
            "eigenvalue-product-rule", worst / scale, TOL.spectrum_rel
        )
    ]
    if g.kind != "complex":
        cur = mug
        for l in (2, 3):
            nxt = [v / t for v in _ordered_sums(cur, mug[(r - r[:, None]) % t]).tolist()]
            mugl = mu_alpha_direct(gamma, g.power(l)).values
            sc = max(1.0, max(abs(v) for v in mugl))
            w = max(abs(m - v) for m, v in zip(mugl, nxt))
            out.append(
                IneqCheck.from_identity(
                    f"eigenvalue-power-rule-l{l}", w / sc, TOL.spectrum_rel
                )
            )
            cur = np.array(nxt)
    return out


# ---------------------------------------------------------------------------
# restricted Fourier bound
# ---------------------------------------------------------------------------


def _nonzero_constant(h: GroupFn) -> bool:
    """Does h take one nonzero value everywhere?"""
    t = h.table
    return bool(t.flat[0] != 0 and (t == t.flat[0]).all())


def check_exact_fourier(
    gamma: MultSubgroup,
    u: GroupFn,
    lam: int,
    h_family: list[GroupFn],
    v: GroupFn | None = None,
) -> list[IneqCheck]:
    """|u^(lam)|^2 <= t^2 * (sum |h^|^2 |u^(.+lam)|^2) / (sum |h^|^2 |G^|^2)
    for every invariant h, with equality at h = 1; plus the three-point
    variant weighted by a nonnegative v.
    """
    _check_on_field(gamma, u, "u must be supported on the subgroup")
    p, t = gamma.field.p, gamma.order
    if not any(map(_nonzero_constant, h_family)):
        raise ValueError("family must contain a nonzero constant weight")
    uh = dft(u).values
    ghat = dft(indicator(gamma.as_set)).values
    target = abs(uh[lam % p]) ** 2
    out = []
    for idx, h in enumerate(h_family):
        if not gamma_invariant_fn(gamma, h, tol=1e-12):
            raise ValueError("family members must be invariant")
        hh = dft(h).values
        num = sum(abs(hh[x]) ** 2 * abs(uh[(x + lam) % p]) ** 2 for x in range(p))
        den = sum(abs(hh[x]) ** 2 * abs(ghat[x]) ** 2 for x in range(p))
        if den == 0:
            # degenerate family member: no bound is claimed, flag and move on
            out.append(
                IneqCheck(
                    f"restricted-fourier-bound-h{idx}", target, 0.0, 0.0, 0.0,
                    True, {"zero_denominator": True},
                )
            )
            continue
        bound = t * t * num / den
        if _nonzero_constant(h):
            scale = max(1.0, bound)
            out.append(
                IneqCheck.from_identity(
                    f"restricted-fourier-equality-h{idx}",
                    abs(target - bound) / scale,
                    TOL.complex_rel,
                )
            )
        else:
            out.append(
                IneqCheck.from_le(
                    f"restricted-fourier-bound-h{idx}",
                    target,
                    bound,
                    TOL.complex_rel * max(1.0, bound),
                )
            )
    if v is not None:
        out.extend(_check_exact_fourier_c3(gamma, u, h_family, v))
    return out


def _check_exact_fourier_c3(
    gamma: MultSubgroup, u: GroupFn, h_family: list[GroupFn], v: GroupFn
) -> list[IneqCheck]:
    p = gamma.field.p
    t = gamma.order
    _check_on_field(gamma, v)
    if v.kind == "complex" or (v.table < 0).any():
        raise ValueError("v must be real and nonnegative")
    # U[x, z] = u(z + x) for x in Gamma; the Gram matrix (U v) U^H holds
    # sum_z v(z) u(z + x) conj(u(z + y)) at (x, y)
    els = np.asarray(gamma.elements, dtype=np.int64)
    shifted = u.table.astype(np.complex128)[(els[:, None] + np.arange(p)) % p]
    gram = (shifted * v.table) @ shifted.conj().T
    lhs = gram.sum().real
    out = []
    for idx, h in enumerate(h_family):
        hcorr = correlate(h, h.conjugate()).table  # sum_y h(y) conj(h(y + x))
        e_h = (hcorr.real * gamma.autocorrelation.table).sum()
        if e_h == 0:
            continue
        s = (restricted_matrix(gamma.as_set, hcorr) * gram).sum().real
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


# ---------------------------------------------------------------------------
# multiplicative energies
# ---------------------------------------------------------------------------


def mult_energy_k(gamma: MultSubgroup, f: GroupFn, k: int):
    """T^x_k(f) = sum f(x_1)...f(x_k) conj(f(x'_1)...f(x'_k)) over
    x_1...x_k = x'_1...x'_k in F_p*, as sum_z r_k(z) conj(r_k(z)) for the
    k-fold product count r_k(z) = sum_{x_1...x_k = z} f(x_1)...f(x_k).

    r_k takes k - 1 multiplicative convolutions over the support of f, at
    most (k - 1) t |supp| pair products, added in row blocks of about
    ``_PAIR_BLOCK`` pairs as ``groups.difference_counts`` counts, so memory
    stays bounded at any t.  Integer f gives an exact integer count: int64
    behind the bound of ``_exact_operands`` for the sum of |supp|^(2k-1)
    products of 2k values, Python ints above it.
    """
    if k not in (2, 3):
        raise ValueError("k must be 2 or 3")
    _check_on_field(gamma, f, "f must be supported on the subgroup")
    p = gamma.field.p
    supp = np.flatnonzero(f.table)
    fv = _exact_operands((f.table,) * (2 * k), len(supp) ** (2 * k - 1))[0]
    step = max(1, _PAIR_BLOCK // max(1, len(supp)))
    r = fv
    for _ in range(k - 1):
        nz = np.flatnonzero(r)
        nxt = np.zeros_like(fv)
        for lo in range(0, len(nz), step):
            x = nz[lo:lo + step]
            np.add.at(nxt, np.multiply.outer(x, supp) % p, np.multiply.outer(r[x], fv[supp]))
        r = nxt
    return _scalar((r * r.conj()).sum())


def check_tk_characters(gamma: MultSubgroup, f: GroupFn, k: int) -> list[IneqCheck]:
    """T^x_k(f) = t^(k-1) sum_alpha |<f, chi_alpha>|^(2k); for indicator f
    also T^x_k(A) >= |A|^(2k) / t."""
    t = gamma.order
    direct = mult_energy_k(gamma, f, k)
    fv = f.values
    # <f, chi_alpha> for every alpha, each summed over the elements in order
    inner = _ordered_sums(f.table[list(gamma.elements)], gamma.character_table.conj())
    rhs = t ** (k - 1) * sum(abs(c) ** (2 * k) for c in inner.tolist())
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


def check_vinogradov_bounds(gamma: MultSubgroup, a: GroupSet) -> list[IneqCheck]:
    """Subset-of-subgroup bounds via multiplicative energy.

    |A| <= t^(1/4) E^x(A)^(1/4) and, for l in {2, 3},
    E_l(A, Gamma) <= t^(-1/2) E_(2l-1)(Gamma)^(1/2) E^x(A)^(1/2).
    """
    t = gamma.order
    ind = indicator(a)
    _check_on_field(gamma, ind, "A must be a subset of the subgroup")
    em = mult_energy_k(gamma, ind, 2)
    out = [
        IneqCheck.from_le(
            "subset-size-bound",
            float(len(a)),
            (t * em) ** 0.25,
            TOL.complex_rel * max(1.0, (t * em) ** 0.25),
        )
    ]
    gs = gamma.as_set
    for l in (2, 3):
        lhs = energy_k(a, gs, l)
        bound = math.sqrt(energy_k(gs, gs, 2 * l - 1) * em / t)
        out.append(
            IneqCheck.from_le(
                f"subset-energy-bound-l{l}",
                float(lhs),
                bound,
                TOL.complex_rel * max(1.0, bound),
            )
        )
    return out


def check_stepanov_sum(
    gamma: MultSubgroup, q: GroupSet, q1: GroupSet, q2: GroupSet
) -> dict:
    """Report row for the invariant triple correlation sum.

    ratio = sum_{x in Q} (Q1 ∘ Q2)(x) / (t^(-1/3) (|Q||Q1||Q2|)^(2/3));
    hypothesis flags are reported, never asserted (constants unknown).
    """
    for s in (q, q1, q2):
        if not gamma_invariant_set(gamma, s):
            raise ValueError("all three sets must be invariant")
    p, t = gamma.field.p, gamma.order
    corr = correlation_counts(q1, q2)
    num = sum(corr[x] for x in q.members)
    size_prod = len(q) * len(q1) * len(q2)
    denom = (size_prod ** 2) ** (1.0 / 3.0) / t ** (1.0 / 3.0)
    return {
        "p": p,
        "t": t,
        "q": len(q),
        "q1": len(q1),
        "q2": len(q2),
        "sum": num,
        "ratio": num / denom if denom else None,
        "hyp_size": size_prod <= t ** 5,
        "hyp_field": size_prod * t <= p ** 3,
    }
