"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the pass/fail lines.
"""

import hashlib
import json
import random
import time

import pytest

from addcomb.energy import energy, energy_k
from addcomb.experiments import (
    convex_scan,
    divisors,
    primes_up_to,
    squares_sequence,
    subgroup_scan,
)
from addcomb.groups import CyclicGroup, GroupSet
from addcomb.spectral import build_restricted_operator, eigendecompose, triangle_sum
from addcomb.subgroup import (
    check_exact_fourier,
    check_tk_characters,
    make_field,
    mu_alpha_direct,
    mult_energy_k,
    random_invariant_fn,
    subgroup,
    subgroup_autocorrelation,
)
from addcomb.transform import GroupFn
from addcomb.verify import (
    run_all,
    run_identity_suite,
    run_inequality_suite,
    run_subgroup_suite,
)
from oracle import convex_row_recount, mult_tuple_energy


# sha256 of `addcomb verify --seed 1 --json`: a report byte may change only
# in a deliberate, versioned format change
REPORT_SHA256 = "02e65275997f76372a9403ea9bdc7f56a80ee61afec7bbe796d5490dab58b1a4"
# sha256 of a reduced seed-2 run (run_all below): drift on other seeds
# shows here in seconds, without a full verify run
REPORT_SHA256_SEED2 = "80d3edf5cc775b3341bef65f1035c5e1f684c9516872e49e4c48d7bfd29e467a"


def _report(criterion: str, ok: bool, extra: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {criterion}" + (f" ({extra})" if extra else ""))
    assert ok, criterion


def test_criterion_1_identity_battery():
    t0 = time.monotonic()
    suite = run_identity_suite(seed=1, trials=200)
    elapsed = time.monotonic() - t0
    per_identity = min(
        st.trials for name, st in suite.stats.items()
        if not name.startswith("shift-")
    )
    _report(
        "criterion 1: identity battery, 200 trials/identity over N in {5,7,16}",
        suite.passed and suite.n_failed == 0 and per_identity >= 200 and elapsed < 60,
        f"{suite.n_checks} checks, {elapsed:.1f}s",
    )


def test_criterion_2_inequality_battery():
    suite = run_inequality_suite(seed=1, trials=1000)
    equality_rows = [n for n in suite.stats if n.endswith("-equality")]
    ok = (
        suite.passed
        and suite.n_failed == 0
        and len(equality_rows) >= 5
        and all(suite.stats[n].failures == 0 for n in equality_rows)
    )
    _report(
        "criterion 2: inequality battery, 1000 random subsets of Z/32 + equality cases",
        ok,
        f"{suite.n_checks} checks, {suite.runtime:.1f}s, "
        f"{len(equality_rows)} equality families",
    )


def test_criterion_3_golden_subgroup_instance():
    fld = make_field(7)
    gamma = subgroup(fld, 3)
    gs = gamma.as_set
    assert gamma.elements == (1, 2, 4)
    ok = energy(gs) == 15 and energy_k(gs, k=3) == 33
    psi = subgroup_autocorrelation(gamma)
    spectrum = eigendecompose(build_restricted_operator(gs, psi))
    ok = ok and max(abs(a - b) for a, b in zip(spectrum.eigenvalues, (5, 2, 2))) <= 1e-8
    mus = sorted((m.real for m in mu_alpha_direct(gamma, psi).values), reverse=True)
    ok = ok and max(abs(a - b) for a, b in zip(mus, (5, 2, 2))) <= 1e-8
    tri = triangle_sum(gs, psi)
    ok = ok and tri == 141 and tri >= 125
    _report(
        "criterion 3: golden instance p=7, Gamma={1,2,4}",
        ok,
        f"E=15, E3=33, spectrum={tuple(round(v, 9) for v in spectrum.eigenvalues)}, "
        f"triangle={tri}",
    )


def test_criterion_4_spectral_equivalence():
    t0 = time.monotonic()
    suite = run_subgroup_suite([7, 13, 31, 101], seed=1)
    elapsed = time.monotonic() - t0
    needed = ("mu-vs-jacobi", "mu-trace-int", "mu-trace-square-int",
              "eigenvalue-product-rule")
    ok = (
        suite.passed
        and elapsed < 120
        and all(suite.stats[n].failures == 0 and suite.stats[n].trials > 0
                for n in needed)
    )
    _report(
        "criterion 4: spectral equivalence for p in {7,13,31,101}, all t | p-1",
        ok,
        f"{suite.n_checks} checks, {elapsed:.1f}s",
    )


def test_criterion_5_product_energy_identity():
    rng = random.Random(5)
    instances = 0
    worst = 0.0
    t0 = time.monotonic()
    for p in primes_up_to(101):
        if p == 2:
            continue
        fld = make_field(p)
        for t in divisors(p - 1):
            if t > 16:
                continue
            gamma = subgroup(fld, t)
            for k in (2, 3):
                cap = 16 if k == 2 else 8
                supp = [x for x in gamma.elements if rng.random() < 0.6][:cap]
                if not supp:
                    supp = [gamma.elements[0]]
                f = GroupFn(
                    fld.group, tuple(1 if x in supp else 0 for x in range(p))
                )
                direct = mult_energy_k(gamma, f, k)
                checks = check_tk_characters(gamma, f, k)
                ident = checks[0]
                # exact match: the float character side must round to the count
                if round(ident.detail["character_side"]) != direct or not ident.passed:
                    _report("criterion 5: product-energy character identity", False,
                            f"p={p}, t={t}, k={k}")
                worst = max(worst, float(ident.lhs))
                assert mult_tuple_energy(supp, p, k) == direct
                instances += 1
    # lower bound on 100 random subsets of one subgroup
    fld = make_field(101)
    gamma = subgroup(fld, 20)
    bound_ok = True
    for _ in range(100):
        supp = [x for x in gamma.elements if rng.random() < 0.5] or [gamma.elements[0]]
        f = GroupFn(fld.group, tuple(1 if x in supp else 0 for x in range(101)))
        for k in (2, 3):
            tk = mult_energy_k(gamma, f, k)
            assert tk == mult_tuple_energy(supp, 101, k)
            if tk * gamma.order < len(supp) ** (2 * k):
                bound_ok = False
    _report(
        "criterion 5: product-energy identity exact (k in {2,3}, t <= 16, p <= 101) "
        "+ lower bound on 100 random subsets",
        instances > 100 and worst <= 1e-7 and bound_ok,
        f"{instances} instances in {time.monotonic()-t0:.1f}s, worst rel err {worst:.2e}",
    )


def test_criterion_6_restricted_fourier():
    rng = random.Random(6)
    cases = [(13, 3), (13, 4), (13, 6), (31, 5), (31, 6)]
    count = 0
    ok = True
    while count < 100:
        p, t = cases[count % len(cases)]
        fld = make_field(p)
        gamma = subgroup(fld, t)
        u = GroupFn(
            fld.group,
            tuple(
                complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                if x in gamma.as_set
                else 0j
                for x in range(p)
            ),
        )
        lam = rng.randrange(p)
        fam = [
            GroupFn.constant(fld.group, 1),
            subgroup_autocorrelation(gamma),
            random_invariant_fn(gamma, rng, 0, 2),
        ]
        checks = check_exact_fourier(gamma, u, lam, fam)
        if not all(c.passed for c in checks):
            ok = False
            break
        if not any("equality" in c.name for c in checks):
            ok = False
            break
        count += 1
    _report(
        "criterion 6: restricted Fourier bound on 100 random (u, lambda), "
        "equality at constant weight",
        ok,
        f"{count} instances",
    )


def test_criterion_7_scans():
    t0 = time.monotonic()
    rows = subgroup_scan(2000)
    elapsed = time.monotonic() - t0
    finite = [r.ratio_52 for r in rows if r.ratio_52 is not None]
    import math

    scan_ok = (
        elapsed < 300
        and len(rows) > 1000
        and all(r.E2 * r.sum >= r.t ** 4 for r in rows)
        and all(math.isfinite(v) for v in finite)
    )
    sizes = [4, 8, 16, 32, 64, 128, 256, 512]
    crows = convex_scan(sizes, "squares")
    # the dict recount of the largest row, independent of the pair-count kernel
    largest = convex_row_recount(squares_sequence(512))
    convex_ok = (
        crows[-1].n == 512
        and all(r.E2 >= r.n ** 2 for r in crows)
        and all(getattr(crows[-1], k) == v for k, v in largest.items())
    )
    _report(
        "criterion 7: subgroup scan p <= 2000 (< 5 min, lower bound on every row) "
        "+ convex scan to n = 512",
        scan_ok and convex_ok,
        f"{len(rows)} rows in {elapsed:.1f}s, worst ratio_52 = {max(finite):.4f}",
    )


def test_criterion_8_determinism(tmp_path):
    from addcomb.cli import main

    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["verify", "--seed", "1", "--json", str(a)]) == 0
    assert main(["verify", "--seed", "1", "--json", str(b)]) == 0
    identical = a.read_bytes() == b.read_bytes()
    digest = hashlib.sha256(a.read_bytes()).hexdigest()
    obj = json.loads(a.read_text())
    _report(
        "criterion 8: verify --seed 1 twice, byte-identical JSON report "
        "with the pinned sha256",
        identical and obj["pass"] is True and digest == REPORT_SHA256,
        f"{len(a.read_bytes())} bytes, sha256 {digest}",
    )


def test_criterion_8_second_seed_digest():
    report = run_all(seed=2, identity_trials=40, inequality_trials=200, p_list=(7, 13, 31))
    digest = hashlib.sha256(report.to_json().encode()).hexdigest()
    _report(
        "criterion 8: reduced seed-2 report with the pinned sha256",
        digest == REPORT_SHA256_SEED2,
        f"sha256 {digest}",
    )
