import hashlib
import importlib
import json
import random
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest

import addcomb.transform as transform
from addcomb.groups import CyclicGroup
from addcomb.transform import GroupFn
from addcomb.verify import (
    Report,
    _conv_power_discrepancy,
    run_identity_suite,
    run_inequality_suite,
    run_all,
    run_subgroup_suite,
)


def test_trials_validation():
    with pytest.raises(ValueError):
        run_identity_suite(1, 0)
    with pytest.raises(ValueError):
        run_inequality_suite(1, 0)
    with pytest.raises(ValueError):
        run_subgroup_suite([])


def test_identity_suite_small():
    s = run_identity_suite(seed=7, trials=12)
    assert s.passed
    assert s.n_failed == 0
    # every identity family appears
    names = set(s.stats)
    for expected in (
        "parseval-int",
        "parseval-complex",
        "convolution-energy",
        "inverse-roundtrip",
        "product-formula",
        "nested-convolution-swap",
        "scalar-product",
        "multi-scalar-product",
        "correlation-power-sum",
    ):
        assert expected in names
    assert any(n.startswith("shift-duality") for n in names)
    assert any(n.startswith("shift-energy-total") for n in names)


def test_power_sum_correlation_exact():
    """The power-sum identity holds exactly, also with entries of 10**6,
    where the tables overflow int64 and the correlation runs on Python ints."""
    rng = random.Random(3)
    for n in (5, 7, 16):
        g = CyclicGroup(n)
        for l in (2, 3):
            for hi in (2, 10 ** 6):
                fs = [GroupFn(g, tuple(rng.randint(-hi, hi) for _ in range(n)))
                      for _ in range(3)]
                assert _conv_power_discrepancy(fs, l) == 0


def test_inequality_suite_small():
    s = run_inequality_suite(seed=7, trials=15)
    assert s.passed
    names = set(s.stats)
    for expected in (
        "shift-quotient-bound-",
        "shift-quotient-bound+",
        "triple-shift-product-bound",
        "katz-koester+",
        "katz-koester-",
        "weighted-shift-bound-k1l1-",
        "weighted-shift-bound-k2l1+",
        "shift-energy-bound-a-k1l1-",
        "shift-energy-bound-b-k1l1+",
        "level-threshold-energy-",
        "level-threshold-count+",
        "kernel-triangle-bound",
        "kernel-cycle-bound-k3",
        "kernel-cycle-bound-k5",
        "top-vector-sum-upper",
        "top-vector-sum-lower",
        "top-vector-sup-kernel",
        "top-vector-sup-factor",
    ):
        assert expected in names, expected
    assert any(n.startswith("holder-shift-bound") for n in names)
    # equality-case zero-slack checks ran
    assert any(n.endswith("-equality") for n in names)


def test_subgroup_suite_small():
    s = run_subgroup_suite([7, 13], seed=3)
    assert s.passed
    assert "golden-energy" in s.stats
    assert "golden-spectrum" in s.stats
    assert "mu-vs-jacobi" in s.stats


def test_reports_are_deterministic():
    r1 = Report([run_identity_suite(5, 9), run_inequality_suite(5, 4),
                 run_subgroup_suite([7], 5)])
    r2 = Report([run_identity_suite(5, 9), run_inequality_suite(5, 4),
                 run_subgroup_suite([7], 5)])
    assert r1.to_json() == r2.to_json()
    r3 = Report([run_identity_suite(6, 9)])
    assert r3.to_json() != r1.to_json()


def test_report_json_parses():
    r = Report([run_identity_suite(1, 3)])
    obj = json.loads(r.to_json())
    assert obj["pass"] is True
    assert obj["suites"][0]["name"] == "identities"
    rows = obj["suites"][0]["rows"]
    assert all({"suite", "eq", "lhs", "rhs", "slack", "pass"} <= set(r) for r in rows)
    # no wall-clock data may leak into the serialized report
    assert "runtime" not in json.dumps(obj)


def test_mutation_is_caught(monkeypatch):
    """An injected off-by-one in correlate must produce a counterexample."""
    import addcomb.verify as verify_mod

    real = transform.correlate

    def broken(f, g):
        out = real(f, g)
        shifted = out.values[1:] + out.values[:1]
        return transform.GroupFn(out.group, shifted)

    monkeypatch.setattr(verify_mod, "correlate", broken)
    s = run_identity_suite(seed=2, trials=3)
    assert not s.passed
    assert s.halted == "product-formula"
    bad = s.stats[s.halted].worst
    assert not bad.passed
    assert "f" in bad.detail and "N" in bad.detail  # replayable instance


def test_report_rows_carry_python_scalars():
    """Every worst check's lhs, rhs and slack is a Python int, Fraction or
    float: a numpy scalar would be written by _json_number as a float and
    change the report bytes without an error."""
    report = run_all(seed=1, identity_trials=30, inequality_trials=60, p_list=(7, 13))
    kinds = Counter()
    for suite in report.suites:
        for st in suite.stats.values():
            for v in (st.worst.lhs, st.worst.rhs, st.worst.slack):
                kinds[type(v)] += 1
    assert kinds == {int: 103, Fraction: 42, float: 104}, kinds


# sha256 of Report([run_inequality_suite(2, t)]).to_json(), computed before
# the battery ran in blocks of 8: t = 1, 7, 8 and 9 fall before, at and past
# the first block edge (the six subgroups come first), 17 past the third
BLOCK_PINS = {
    1: "4619db7e18eb122549aa7f2fc49fa1a45b3977d296b943c0e1892a5f599e3c33",
    7: "3761aef543521180f13a309652cbe0fd1d33189c88bce47e83744452e219b6cd",
    8: "c0c5f8495bc29b70bb3089be9e89d5723e22d96ce7ddf22689899a34ea5ab6c9",
    9: "84bf0e8cf6446a62dedcc5f10a3be1c1b985e3cb955eba29bf75e67d2fed8347",
    17: "689ce1cbe4b28d036d7f5558545a1ba6936dd52ac042c032a1f237c6739b259a",
}


@pytest.mark.parametrize("trials", sorted(BLOCK_PINS))
def test_inequality_battery_bytes_at_block_edges(trials):
    """The blocked battery draws every instance in the order and at the
    place it always did: its report bytes are pinned around block edges."""
    digest = hashlib.sha256(Report([run_inequality_suite(2, trials)]).to_json().encode())
    assert digest.hexdigest() == BLOCK_PINS[trials]


def test_inequality_battery_memory_stays_small():
    """Profiles are built a block at a time, not for all instances up
    front: after one warm-up run, the traced peak (numpy reports its
    buffers to tracemalloc) of a 64-trial battery stays at most 2.5 MB."""
    run_inequality_suite(1, 64)
    tracemalloc.start()
    try:
        run_inequality_suite(1, 64)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.5e6, peak


# Halted batteries.  Seed 2, trial 11 is the second instance of the third
# block of 8 (the six subgroups come first).  A planted fault there halts
# the suite; the sha256 of Report([run_inequality_suite(2, 20)]).to_json()
# was computed with the same fault before the battery's families were
# decided a block at a time.
HALT_TRIAL = 11
HALT_PINS = {
    "spreads": "b2cd57fc70b2a8dce7de4009652dcb02567688229418db63026580342701f2f1",
    "spectral": "c763a2f4ae267c8ae4752227ad31db800e68981268b03fed06e776f4abaa0617",
}
# the rows the faulty instance records before it halts, in battery order
HALT_ROWS = {
    "spreads": ("shift-quotient-bound+", "katz-koester+", "shift-quotient-bound-"),
    "spectral": None,  # every exact family, then the triangle bound
}


def _plant_fault(monkeypatch, fault):
    """Plant ``fault`` on the set of trial HALT_TRIAL; return its members.

    "spreads": every |A - A_x| of its k = 1 shift profile reads 1, which
    breaks shift-quotient-bound- (the first row that reads them).
    "spectral": its triangle-bound row reads lhs = rhs + 1."""
    from addcomb.checks import IneqCheck

    energy_mod = importlib.import_module("addcomb.energy")
    verify_mod = importlib.import_module("addcomb.verify")

    drawn = []
    real_subset = verify_mod.random_subset

    def subset(rng, group, density):
        a = real_subset(rng, group, density)
        drawn.append(a)
        if fault == "spreads" and len(drawn) == HALT_TRIAL + 1:
            energy_mod.build_shift_profiles([a], 1)
            profile = a._shift_profiles[1]
            coords, sizes, spreads = profile["-"]
            profile["-"] = (coords, sizes, spreads * 0 + 1)
        return a

    monkeypatch.setattr(verify_mod, "random_subset", subset)
    if fault == "spectral":
        real_triangle = verify_mod.check_triangle_inequality

        def triangle(a, h):
            c = real_triangle(a, h)
            if len(drawn) > HALT_TRIAL and a is drawn[HALT_TRIAL]:
                return IneqCheck.from_le(c.name, c.rhs + 1, c.rhs, c.tol)
            return c

        monkeypatch.setattr(verify_mod, "check_triangle_inequality", triangle)
    return drawn


@pytest.mark.parametrize("fault", sorted(HALT_PINS))
def test_halted_battery_matches_the_row_by_row_report(monkeypatch, fault):
    """A block with a failing row is replayed one instance at a time: the
    halted report is byte for byte the one recorded row by row, it halts
    at the first failing row of the faulty instance, and every family
    counts the instances before it plus the rows the faulty one recorded."""
    complete = run_inequality_suite(2, HALT_TRIAL)  # the instances before the fault
    drawn = _plant_fault(monkeypatch, fault)
    suite = run_inequality_suite(2, 20)
    digest = hashlib.sha256(Report([suite]).to_json().encode()).hexdigest()
    assert digest == HALT_PINS[fault]

    halted = suite.stats[suite.halted]
    expected_halt = HALT_ROWS[fault][-1] if HALT_ROWS[fault] else "kernel-triangle-bound"
    assert suite.halted == expected_halt
    assert (halted.failures, suite.n_failed) == (1, 1)
    detail = halted.worst.detail
    assert (detail["trial"], detail["A"]) == (HALT_TRIAL, list(drawn[HALT_TRIAL].members))
    assert not detail["equality_case"]
    recorded = HALT_ROWS[fault] or [n for n in complete.stats
                                     if not n.endswith("-equality")
                                     and not n.startswith(("kernel-", "top-vector-"))]
    recorded = set(recorded) | ({"kernel-triangle-bound"} if fault == "spectral" else set())
    assert set(suite.stats) == set(complete.stats)
    for name, st in suite.stats.items():
        assert st.trials == complete.stats[name].trials + (name in recorded), name
        assert st.failures == (name == suite.halted), name
