"""Battery runner: randomized and structured instances for every identity
and inequality check, aggregated into deterministic machine-readable reports.

A failing check halts its suite and serializes the full instance (modulus,
sets, function tables, seed) so the counterexample can be replayed.
Reports are reproducible byte-for-byte from (version, seed): wall-clock
runtime is printed, never serialized.

The inequality battery decides its exact families and its kernel rows a
block of 8 instances at a time (``energy.block_families`` and
``spectral.block_kernel_families``).  When every row of a block passes,
each family adds the block's trial count and builds its worst row only;
a block with a failing row is replayed instance by instance in the
battery's row order, so a halted report is the one recorded row by row.
"""

from __future__ import annotations

import itertools
import json
import random
import time
from dataclasses import dataclass, field

import numpy as np

from . import __version__ as _version
from .checks import IneqCheck, _json_number
from .config import SCAN_PRIME_CAP, TOL
from .energy import (
    block_families,
    check_membership_identity,
    energy,
    energy_k,
)
from .experiments import divisors
from .groups import CyclicGroup, GroupFn, GroupSet, restricted_matrix
from .spectral import (
    Spectrum,
    block_kernel_families,
    build_restricted_operator,
    correlation_kernel,
    eigendecompose,
    jacobi_eigh_stack,
    triangle_sum,
)
from .subgroup import (
    MultSubgroup,
    _is_prime,
    check_eigenbasis,
    check_exact_fourier,
    check_mu_convolution,
    check_mu_vs_jacobi,
    check_tk_characters,
    check_vinogradov_bounds,
    make_field,
    mu_alpha_direct,
    random_invariant_fn,
    subgroup,
    subgroup_autocorrelation,
)
from .transform import (
    _ordered_sums,
    _shifted_dots,
    check_commutation,
    convolve,
    correlate,
    correlate_many,
    dft,
    gen_convolution,
    idft,
)


class CheckFailure(Exception):
    def __init__(self, check: IneqCheck):
        super().__init__(f"{check.name}: slack {check.slack}")
        self.check = check


@dataclass
class EqStats:
    trials: int = 0
    failures: int = 0
    worst_slack: float | None = None
    worst: IneqCheck | None = None

    def add(self, check: IneqCheck) -> None:
        self.trials += 1
        if not check.passed:
            self.failures += 1
        s = check.slack_float()
        if self.worst_slack is None or s < self.worst_slack:
            self.worst_slack = s
            self.worst = check

    def add_block(self, slacks: list[float], row) -> None:
        """Add passing rows, in order, by their ``slack_float()`` values:
        ``row(i)`` builds row i, and only the row that ends up the worst of
        the block, if it is worse than every earlier one, is built."""
        self.trials += len(slacks)
        worst = None
        for i, s in enumerate(slacks):
            if self.worst_slack is None or s < self.worst_slack:
                self.worst_slack, worst = s, i
        if worst is not None:
            self.worst = row(worst)
            if not (self.worst.passed and self.worst.slack_float() == self.worst_slack):
                raise RuntimeError(f"{self.worst.name}: the built row does not pass at "
                                   f"the block's slack {self.worst_slack}")


@dataclass
class CheckSuite:
    name: str
    params: dict
    stats: dict[str, EqStats] = field(default_factory=dict)
    halted: str | None = None
    runtime: float = 0.0

    def record(self, check: IneqCheck, instance=None, halt_on_failure: bool = True):
        if not check.passed and instance is not None:
            check = IneqCheck(
                check.name, check.lhs, check.rhs, check.slack, check.tol,
                check.passed, dict(check.detail, **instance),
            )
        self.stats.setdefault(check.name, EqStats()).add(check)
        if not check.passed and halt_on_failure:
            self.halted = check.name
            raise CheckFailure(check)
        return check

    @property
    def n_checks(self) -> int:
        return sum(s.trials for s in self.stats.values())

    @property
    def n_failed(self) -> int:
        return sum(s.failures for s in self.stats.values())

    @property
    def passed(self) -> bool:
        return self.n_failed == 0 and self.halted is None

    @property
    def worst_slack(self) -> float | None:
        vals = [s.worst_slack for s in self.stats.values() if s.worst_slack is not None]
        return min(vals) if vals else None

    def to_obj(self) -> dict:
        rows = []
        for eq in sorted(self.stats):
            st = self.stats[eq]
            w = st.worst
            row = {
                "suite": self.name,
                "eq": eq,
                "trials": st.trials,
                "failures": st.failures,
            }
            if w is not None:
                row.update(
                    {
                        "lhs": _json_number(w.lhs),
                        "rhs": _json_number(w.rhs),
                        "slack": _json_number(w.slack),
                        "pass": w.passed,
                    }
                )
                if w.detail:
                    row["instance"] = w.detail
            rows.append(row)
        return {
            "name": self.name,
            "params": self.params,
            "checks": self.n_checks,
            "failed": self.n_failed,
            "pass": self.passed,
            "halted_at": self.halted,
            "worst_slack": self.worst_slack,
            "rows": rows,
        }


@dataclass
class Report:
    suites: list[CheckSuite]

    @property
    def passed(self) -> bool:
        return all(s.passed for s in self.suites)

    def to_json(self) -> str:
        obj = {
            "version": _version,
            "pass": self.passed,
            "suites": [s.to_obj() for s in self.suites],
        }
        return json.dumps(obj, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# instance generators
# ---------------------------------------------------------------------------


def random_subset(rng: random.Random, group: CyclicGroup, density: float) -> GroupSet:
    while True:
        mem = [x for x in group.elements() if rng.random() < density]
        if mem:
            return GroupSet.of(group, mem)


def random_int_fn(rng: random.Random, group: CyclicGroup, lo=-3, hi=3) -> GroupFn:
    draws = [rng.randint(lo, hi) for _ in group.elements()]
    return GroupFn(group, np.array(draws, dtype=np.int64))


def random_complex_fn(rng: random.Random, group: CyclicGroup) -> GroupFn:
    draws = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in group.elements()]
    return GroupFn(group, np.array(draws, dtype=np.complex128))


def additive_subgroups(group: CyclicGroup) -> list[GroupSet]:
    return [GroupSet.of(group, range(0, group.modulus, d)) for d in divisors(group.modulus)]


def _fn_payload(f: GroupFn):
    if f.kind == "int":
        return list(f.values)
    return [[complex(v).real, complex(v).imag] for v in f.values]


# ---------------------------------------------------------------------------
# identity suite
# ---------------------------------------------------------------------------

_IDENTITY_SIZES = (5, 7, 16)
_INEQUALITY_MODULUS = 32  # the inequality suite's Z/N


def _rel_err(approx, exact) -> float:
    return abs(approx - exact) / max(1.0, abs(exact))


def run_identity_suite(seed: int = 1, trials: int = 200) -> CheckSuite:
    """Exact identities: Fourier, convolution, generalized convolution,
    shift-duality. Integer paths must round exactly; complex paths meet
    the relative tolerance."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    suite = CheckSuite("identities", {"seed": seed, "trials": trials})
    rng = random.Random(seed)
    t0 = time.monotonic()
    try:
        for trial in range(trials):
            n = _IDENTITY_SIZES[trial % len(_IDENTITY_SIZES)]
            group = CyclicGroup(n)
            inst = {"N": n, "trial": trial, "seed": seed}

            # Parseval: N sum |f|^2 = sum |f^|^2, exact for integer f
            fi = random_int_fn(rng, group)
            fc = random_complex_fn(rng, group)
            # each transform below is taken once and read by every check
            fh, fc_hat = dft(fi).values, dft(fc)
            for f, f_hat, label in ((fi, fh, "int"), (fc, fc_hat.values, "complex")):
                fourier_side = sum(abs(v) ** 2 for v in f_hat)
                exact = n * sum(abs(v) ** 2 for v in f.values)
                err = _rel_err(fourier_side, exact)
                if label == "int" and round(fourier_side) != exact:
                    err = 1.0
                suite.record(
                    IneqCheck.from_identity(f"parseval-{label}", err, TOL.dft_rel),
                    {**inst, "f": _fn_payload(f)},
                )

            # convolution energy identity:
            # N sum_y |(f*g)(y)|^2 = sum |f^|^2 |g^|^2
            gi = random_int_fn(rng, group)
            conv = convolve(fi, gi)
            spatial = n * sum(v * v for v in conv.values)
            gh = dft(gi).values
            fourier_side = sum(abs(a) ** 2 * abs(b) ** 2 for a, b in zip(fh, gh))
            err = _rel_err(fourier_side, spatial)
            if round(fourier_side) != spatial:
                err = max(err, 1.0)
            suite.record(
                IneqCheck.from_identity("convolution-energy", err, TOL.dft_rel),
                {**inst, "f": _fn_payload(fi), "g": _fn_payload(gi)},
            )

            # inversion round trip
            back = idft(fc_hat)
            err = max(
                abs(a - b) for a, b in zip(back.values, fc.values)
            ) / max(1.0, max(abs(v) for v in fc.values))
            suite.record(
                IneqCheck.from_identity("inverse-roundtrip", err, TOL.dft_rel),
                {**inst, "f": _fn_payload(fc)},
            )

            # transform of * and ∘
            ch = dft(conv).values
            err1 = max(abs(c - a * b) for c, a, b in zip(ch, fh, gh))
            # F(f ∘ g) = conj(F(f̄)) F(g), and f̄ = f for integer f
            oh = dft(correlate(fi, gi)).values
            err2 = max(abs(o - a.conjugate() * b) for o, a, b in zip(oh, fh, gh))
            scale = max(1.0, max(abs(v) for v in ch), max(abs(v) for v in oh))
            suite.record(
                IneqCheck.from_identity(
                    "product-formula", max(err1, err2) / scale, TOL.complex_rel
                ),
                {**inst, "f": _fn_payload(fi), "g": _fn_payload(gi)},
            )

            # nested convolution swap
            l, k = rng.choice(((2, 2), (2, 3), (3, 2), (3, 3))) if n <= 7 else (2, 2)
            rows = [[random_int_fn(rng, group, -2, 2) for _ in range(k)] for _ in range(l)]
            suite.record(
                check_commutation(rows, rng, samples=24),
                {**inst, "l": l, "k": k,
                 "rows": [[_fn_payload(f) for f in r] for r in rows]},
            )

            # scalar product
            l = rng.choice((2, 3))
            fs = [random_int_fn(rng, group, -2, 2) for _ in range(l)]
            gs = [random_int_fn(rng, group, -2, 2) for _ in range(l)]
            suite.record(
                IneqCheck.from_identity(
                    "scalar-product", _scalar_product_discrepancy(fs, gs)
                ),
                {**inst, "fs": [_fn_payload(f) for f in fs],
                 "gs": [_fn_payload(f) for f in gs]},
            )

            # multi-scalar product
            l, k = rng.choice(((2, 2), (2, 3), (3, 2)))
            fs = [random_int_fn(rng, group, -2, 2) for _ in range(k)]
            suite.record(
                IneqCheck.from_identity(
                    "multi-scalar-product", _multi_scalar_discrepancy(fs, l)
                ),
                {**inst, "l": l, "fs": [_fn_payload(f) for f in fs]},
            )

            # power-sum form
            l = rng.choice((2, 3))
            fs = [random_int_fn(rng, group, -2, 2) for _ in range(3)]
            suite.record(
                IneqCheck.from_identity(
                    "correlation-power-sum", _conv_power_discrepancy(fs, l)
                ),
                {**inst, "l": l, "fs": [_fn_payload(f) for f in fs]},
            )

            # shift duality + total energy identity
            a = random_subset(rng, group, rng.uniform(0.2, 0.8))
            b = random_subset(rng, group, rng.uniform(0.2, 0.8))
            k, lsh = ((1, 1) if n == 16 else rng.choice(((1, 1), (1, 2), (2, 1))))
            for c in check_membership_identity(a, b, k, lsh):
                suite.record(
                    c, {**inst, "A": list(a.members), "B": list(b.members)}
                )
    except CheckFailure:
        pass
    suite.runtime = time.monotonic() - t0
    return suite


def _scalar_product_discrepancy(fs, gs) -> int:
    """sum_x C_l(fs)(x) C_l(gs)(x) = sum_z prod_i (f_i ∘ g_i)(z)."""
    lhs = gen_convolution(fs).dot(gen_convolution(gs))
    pairs = [correlate(f, g) for f, g in zip(fs, gs)]
    return abs(lhs - pairs[0].dot(*pairs[1:]))


def _multi_scalar_discrepancy(fs, l: int) -> int:
    """sum_x prod_i C_l(f_i)(x) = sum_y C_k(fs)(y)^l."""
    tables = [gen_convolution([f] * l) for f in fs]
    cross = gen_convolution(fs)
    return abs(tables[0].dot(*tables[1:]) - cross.dot(*[cross] * (l - 1)))


def _conv_power_discrepancy(fs, l: int) -> int:
    """sum_x C_l(f0)(x) (C_l(f1) ∘ C_l(f2))(x) = sum_z (f0∘(f1∘f2))^l(z)."""
    t0, t1, t2 = (gen_convolution([f] * l) for f in fs)
    # (C_l(f1) ∘ C_l(f2))(x) = sum_y C_l(f1)(y) C_l(f2)(y + x), shifted by
    # every x of Gr^(l-1) in row-major order
    xs = np.indices(t1.table.shape).reshape(l - 1, 1, -1).T
    corr = GroupFn(t1.group, np.array(_shifted_dots([t1, t2], xs)).reshape(t1.table.shape))
    rhs = sum(v ** l for v in correlate_many(fs).values)
    return abs(t0.dot(corr) - rhs)


# ---------------------------------------------------------------------------
# inequality suite
# ---------------------------------------------------------------------------


_SPECTRAL_EVERY = 20  # every this many random trials also diagonalize h ∘ h on A
_BLOCK = 8  # instances whose families are decided together
# instances drawn ahead of their blocks: the default battery's 6 + 1000 fit
# one window, so its 56 spectral instances form one Jacobi stack
_WINDOW = 126 * _BLOCK
_DENSITIES = [0.1 + 0.8 * i / 8 for i in range(9)]  # by trial, cyclically


def run_inequality_suite(seed: int = 1, trials: int = 1000) -> CheckSuite:
    """Shifted-intersection and kernel inequalities on random subsets plus
    additive-subgroup equality cases (those must have exactly zero slack on
    every exact-arithmetic check).

    Instances are drawn ``_WINDOW`` at a time, in instance order, and held
    as int8 rows; a window's spectral instances are diagonalized in one
    ``jacobi_eigh_stack`` call.  The window then runs in blocks of
    ``_BLOCK`` whose families are decided together (see
    ``_inequality_block``)."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    suite = CheckSuite(
        "inequalities", {"seed": seed, "trials": trials, "modulus": _INEQUALITY_MODULUS}
    )
    rng = random.Random(seed)
    group = CyclicGroup(_INEQUALITY_MODULUS)
    t0 = time.monotonic()
    subgroups = additive_subgroups(group)
    # (trial, spectral, equality_case) of each instance, in instance order
    insts = itertools.chain(
        ((idx, True, True) for idx in range(len(subgroups))),
        ((trial, trial % _SPECTRAL_EVERY == 0, False) for trial in range(trials)),
    )
    try:
        while window := list(itertools.islice(insts, _WINDOW)):
            rows = _draw_rows(rng, group, subgroups, window)
            spectra = _window_spectra(group, rows, window)
            for lo in range(0, len(window), _BLOCK):
                block = []
                for j in range(lo, min(lo + _BLOCK, len(window))):
                    (trial, _, equality_case), (a, q, h) = window[j], _instance(group, rows[j])
                    block.append((a, trial, spectra[j], equality_case, q, h))
                _inequality_block(suite, block)
    except CheckFailure:
        pass
    suite.runtime = time.monotonic() - t0
    return suite


def _draw_rows(rng: random.Random, group: CyclicGroup, subgroups, window) -> np.ndarray:
    """The int8 rows [1_A, q, h] of a window's instances (trial, spectral,
    equality_case), drawn in instance order: A unless it is a subgroup,
    then q and h."""
    rows = np.zeros((len(window), 3, group.modulus), dtype=np.int8)
    for row, (trial, _, equality_case) in zip(rows, window):
        a = (subgroups[trial] if equality_case
             else random_subset(rng, group, _DENSITIES[trial % len(_DENSITIES)]))
        row[0, list(a.members)] = 1
        row[1:] = [f.table for f in _draw_weights(rng, group)]
    return rows


def _instance(group: CyclicGroup, row: np.ndarray) -> tuple[GroupSet, GroupFn, GroupFn]:
    """A, q and h from an instance's int8 row [1_A, q, h]."""
    q, h = (GroupFn(group, x.astype(np.int64)) for x in row[1:])
    return GroupSet(group, tuple(np.flatnonzero(row[0]).tolist())), q, h


def _window_spectra(group: CyclicGroup, rows: np.ndarray, window) -> list:
    """The ``Spectrum`` of psi = h ∘ h on A for each spectral instance of
    a window, None for the others, from one ``jacobi_eigh_stack`` call."""
    take = [j for j, (_, spectral, _) in enumerate(window) if spectral]
    mats = []
    for j in take:
        a, _, h = _instance(group, rows[j])
        mats.append(restricted_matrix(a, correlation_kernel(h).table))
    spectra = [None] * len(window)
    for j, eigs in zip(take, jacobi_eigh_stack(mats)):
        spectra[j] = Spectrum(tuple(eigs.tolist()))
    return spectra


def _draw_weights(rng: random.Random, group: CyclicGroup) -> tuple[GroupFn, GroupFn]:
    """An instance's weight q and kernel factor h, in this draw order."""
    q = random_int_fn(rng, group, -3, 3)
    draws = [1 if rng.random() < 0.5 else 0 for _ in group.elements()]
    h = GroupFn(group, np.array(draws, dtype=np.int64))
    if not any(h.values):
        h = GroupFn.delta(group, 0)
    return q, h


def _inequality_block(suite: CheckSuite, block: list) -> None:
    """Record a block of instances (A, trial, spectrum, equality_case, q, h),
    the spectrum a ``Spectrum`` or None.

    Every family is decided for the whole block at once: the exact
    families by ``energy.block_families`` and the kernel rows by
    ``spectral.block_kernel_families``.  When all of them pass, each family
    adds its trial count and builds only its worst row, with the per-set
    check, which gives the stats of recording every row in order.
    Otherwise the block is replayed one instance at a time in that order,
    so the suite halts where, and records what, it would row by row."""
    sets = [inst[0] for inst in block]
    families = [*block_families(sets, [inst[4] for inst in block]),
                *block_kernel_families(sets, [inst[5] for inst in block],
                                       [inst[2] for inst in block])]
    # the instances each family records: those that have its row, and for
    # an equality row the equality cases only
    takes = [[i for i, inst in enumerate(block)
              if f.slacks[i] is not None and (inst[3] or not f.equality)] for f in families]
    if all(f.passed[i] for f, take in zip(families, takes) for i in take):
        for f, take in zip(families, takes):
            if take:
                suite.stats.setdefault(f.name, EqStats()).add_block(
                    [f.slacks[i] for i in take], lambda j, f=f, take=take: f.row(take[j]))
        return
    for i, (a, trial, _, equality_case, q, h) in enumerate(block):
        inst = {"N": a.group.modulus, "A": list(a.members), "trial": trial,
                "equality_case": equality_case}
        # payloads built once per instance, read only when a row fails
        payloads = {"": inst, "h": {**inst, "h": list(h.values)},
                    **{f"q{k}": {**inst, "q": list(q.values), "k": k} for k in (1, 2)}}
        for f, take in zip(families, takes):
            if i in take:
                suite.record(f.row(i), payloads[f.reads])


# ---------------------------------------------------------------------------
# subgroup suite
# ---------------------------------------------------------------------------


def validate_suite_primes(p_list) -> list[int]:
    """The subgroup suite's primes as a list: nonempty, each a prime within
    the cap.  Raises ValueError otherwise."""
    p_list = list(p_list)
    if not p_list:
        raise ValueError("p_list must be nonempty")
    if any(p > SCAN_PRIME_CAP for p in p_list):
        raise ValueError(f"suite primes capped at {SCAN_PRIME_CAP}")
    for p in p_list:
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
    return p_list


_TK_ORDER_CAP = 12  # largest t whose T^x_k character identity is checked


def run_subgroup_suite(p_list, seed: int = 1) -> CheckSuite:
    """Spectral and character checks for every subgroup of every listed prime."""
    p_list = validate_suite_primes(p_list)
    suite = CheckSuite("subgroups", {"p": p_list, "seed": seed})
    rng = random.Random(seed)
    t0 = time.monotonic()
    try:
        for p in p_list:
            fld = make_field(p)
            for t in divisors(p - 1):
                gamma = subgroup(fld, t)
                inst = {"p": p, "t": t}
                g = subgroup_autocorrelation(gamma)

                if (p, t) == (7, 3):
                    _golden_instance(suite, gamma, g, inst)

                suite.record(check_eigenbasis(gamma, g), inst)
                suite.record(check_mu_vs_jacobi(gamma, g), inst)
                _mu_trace_checks(suite, gamma, g, inst)

                h = random_invariant_fn(gamma, rng, 0, 3)
                for c in check_mu_convolution(gamma, g, h):
                    suite.record(c, inst)
                # symmetrize: invariant but not even kernels have no
                # symmetric restricted matrix unless -1 is in the subgroup
                h_even = GroupFn(fld.group, h.table + h.table[-np.arange(p) % p])
                suite.record(check_mu_vs_jacobi(gamma, h_even), inst)

                if t > 1:
                    xi = _nonresidue(gamma, rng)
                    suite.record(check_eigenbasis(gamma, g, coset=xi), {**inst, "xi": xi})

                suite.record(_orthonormality_check(gamma), inst)

                if t <= _TK_ORDER_CAP:
                    f = GroupFn(
                        fld.group,
                        tuple(
                            1 if (x in gamma.as_set and rng.random() < 0.7) else 0
                            for x in range(p)
                        ),
                    )
                    if any(f.values):
                        for k in (2, 3):
                            for c in check_tk_characters(gamma, f, k):
                                suite.record(c, {**inst, "f": list(f.values)})

                asub = GroupSet.of(
                    fld.group,
                    [x for x in gamma.elements if rng.random() < 0.6] or [gamma.elements[0]],
                )
                for c in check_vinogradov_bounds(gamma, asub):
                    suite.record(c, {**inst, "A": list(asub.members)})

                u = GroupFn(
                    fld.group,
                    tuple(
                        complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                        if x in gamma.as_set
                        else 0j
                        for x in range(p)
                    ),
                )
                fam = [GroupFn.constant(fld.group, 1), g, random_invariant_fn(gamma, rng, 0, 2)]
                lam = rng.randrange(p)
                for c in check_exact_fourier(gamma, u, lam, fam):
                    suite.record(c, {**inst, "lambda": lam})
    except CheckFailure:
        pass
    suite.runtime = time.monotonic() - t0
    return suite


def _golden_instance(suite, gamma, g, inst) -> None:
    gs = gamma.as_set
    suite.record(
        IneqCheck.from_identity("golden-energy", energy(gs) - 15), inst
    )
    suite.record(
        IneqCheck.from_identity("golden-energy-3", energy_k(gs, k=3) - 33), inst
    )
    mus = sorted(m.real for m in mu_alpha_direct(gamma, g).values)
    err = max(abs(a - b) for a, b in zip(mus, [2.0, 2.0, 5.0]))
    suite.record(IneqCheck.from_identity("golden-mu", err, TOL.spectrum_rel), inst)
    eigs = sorted(eigendecompose(build_restricted_operator(gs, g)).eigenvalues)
    err = max(abs(a - b) for a, b in zip(eigs, [2.0, 2.0, 5.0]))
    suite.record(IneqCheck.from_identity("golden-spectrum", err, TOL.spectrum_rel), inst)
    suite.record(
        IneqCheck.from_identity("golden-triangle", triangle_sum(gs, g) - 141), inst
    )


def _mu_trace_checks(suite, gamma, g, inst) -> None:
    mus = mu_alpha_direct(gamma, g).values
    t = gamma.order
    p = gamma.field.p
    gg = subgroup_autocorrelation(gamma).values
    tr_exact = t * g.values[0]
    trsq_exact = sum(g.values[z] ** 2 * gg[z] for z in range(p))
    s1 = sum(m.real for m in mus)
    s2 = sum(abs(m) ** 2 for m in mus)
    ok1 = round(s1) == tr_exact and abs(s1 - tr_exact) <= TOL.spectrum_rel * max(1, tr_exact)
    ok2 = round(s2) == trsq_exact and abs(s2 - trsq_exact) <= TOL.spectrum_rel * max(1, trsq_exact)
    suite.record(
        IneqCheck.from_identity("mu-trace-int", 0 if ok1 else abs(s1 - tr_exact)), inst
    )
    suite.record(
        IneqCheck.from_identity("mu-trace-square-int", 0 if ok2 else abs(s2 - trsq_exact)),
        inst,
    )


def _orthonormality_check(gamma: MultSubgroup) -> IneqCheck:
    # <chi_a, chi_b> = sum over the subgroup of chi_a(x) conj(chi_b(x)), in
    # the order of the elements, for every b at once
    table = gamma.character_table
    conj = table.conj()
    worst = 0.0
    for a in range(gamma.order):
        for b, ip in enumerate(_ordered_sums(table[:, a], conj).tolist()):
            worst = max(worst, abs(ip - (1 if a == b else 0)))
    return IneqCheck.from_identity("character-orthonormality", worst, TOL.ortho)


def _nonresidue(gamma: MultSubgroup, rng: random.Random) -> int:
    p = gamma.field.p
    for _ in range(64):
        xi = rng.randrange(1, p)
        if xi not in gamma.as_set:
            return xi
    return 1


def run_all(
    seed: int = 1,
    identity_trials: int = 200,
    inequality_trials: int = 1000,
    p_list=(7, 13, 31, 101),
) -> Report:
    return Report(
        [
            run_identity_suite(seed, identity_trials),
            run_inequality_suite(seed, inequality_trials),
            run_subgroup_suite(p_list, seed),
        ]
    )
