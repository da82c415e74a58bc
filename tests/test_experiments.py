import csv
import dataclasses
import importlib
import math
import time

import numpy as np
import pytest

from addcomb.experiments import (
    assert_convex,
    autocorrelation_np,
    convex_scan,
    coverage_scan,
    divisors,
    doubling_stats,
    expansion_scan,
    level_set_profile,
    longest_progression,
    perturbed_quadratic,
    primes_up_to,
    progression_batch,
    progression_scan,
    squares_sequence,
    subgroup_scan,
    sumset_size_np,
    write_csv,
)
from addcomb.groups import _energy_sums
from addcomb.subgroup import make_field, subgroup
from oracle import (
    check_row,
    convex_row_recount,
    doubling_row_recount,
    fourier_max_fft,
    fourier_max_fsum,
    longest_ap_naive,
    mult_tuple_energy,
    quadruple_energy,
    subgroup_row_recount,
)


def test_primes_and_divisors():
    assert primes_up_to(20) == [2, 3, 5, 7, 11, 13, 17, 19]
    assert divisors(12) == [1, 2, 3, 4, 6, 12]


def test_subgroup_scan_golden_rows():
    rows = subgroup_scan(31)
    by_key = {(r.p, r.t): r for r in rows}
    g = by_key[(7, 3)]
    assert (g.E2, g.E3, g.sum, g.diff) == (15, 33, 6, 7)
    assert g.lower == 81 / 6
    t1 = by_key[(7, 1)]
    assert t1.E2 == 1 and t1.sum == 1 and t1.ratio_229 is None
    for r in rows:
        assert r.E2 * r.sum >= r.t ** 4
    assert [(r.p, r.t) for r in rows] == sorted((r.p, r.t) for r in rows)


def test_subgroup_scan_rows_carry_python_numbers():
    """The integer columns are Python ints, so E2 * sum >= t^4 cannot wrap,
    and the ratio columns Python floats."""
    for row in subgroup_scan(101):
        for name in ("p", "t", "E2", "E3", "sum", "diff"):
            assert type(getattr(row, name)) is int, (row.p, row.t, name)
        for name in ("ratio_52", "ratio_229", "ratio_sumw", "lower", "fourier_max"):
            v = getattr(row, name)
            assert v is None or type(v) is float, (row.p, row.t, name)


def test_subgroup_scan_energy_matches_oracle():
    rows = subgroup_scan(13)
    fld = make_field(13)
    for r in rows:
        if r.p != 13:
            continue
        g = subgroup(fld, r.t)
        assert r.E2 == quadruple_energy(g.elements, g.elements, 13)


def test_subgroup_crosscheck_catches_wrong_columns():
    row = next(r for r in subgroup_scan(13) if (r.p, r.t) == (13, 4))
    recount = subgroup_row_recount(subgroup(make_field(13), 4).elements, 13)
    check_row(row, recount)
    for field in ("t", "E2", "E3", "sum", "diff"):
        bad = dataclasses.replace(row, **{field: getattr(row, field) + 1})
        with pytest.raises(AssertionError, match=field):
            check_row(bad, recount)


def test_subgroup_scan_rows_match_dict_recount():
    rows = subgroup_scan(101)
    assert len(rows) > 100
    fields = {}
    for r in rows:
        if r.p not in fields:
            fields[r.p] = make_field(r.p)
        check_row(r, subgroup_row_recount(subgroup(fields[r.p], r.t).elements, r.p))


def test_subgroup_scan_fourier_max_matches_fft_and_fsum_periods():
    """fourier_max from the Gauss periods agrees, on every row with p <= 500,
    with a full FFT of Gamma's indicator and with periods summed by fsum;
    Gamma = F_p* has every nontrivial coefficient equal to -1."""
    rows = subgroup_scan(500)
    assert len(rows) > 800
    fields = {}
    for r in rows:
        if r.p not in fields:
            fields[r.p] = make_field(r.p)
        gamma = subgroup(fields[r.p], r.t)
        for want in (fourier_max_fft(gamma.elements, r.p), fourier_max_fsum(gamma)):
            assert abs(r.fourier_max - want) <= 1e-12 * want, (r.p, r.t)
        if r.t == r.p - 1:
            assert abs(r.fourier_max - 1) <= 1e-12, r.p


def test_subgroup_scan_full_group_rows_at_the_cap():
    """Every t = p - 1 row up to the scan cap has fourier_max 1 within 1e-12
    (t >= 5001 leaves exactly the rows t = p - 1 of the primes past 5001)."""
    from addcomb.config import SCAN_PRIME_CAP

    rows = subgroup_scan(SCAN_PRIME_CAP, t_min=5001)
    assert len(rows) == len(primes_up_to(SCAN_PRIME_CAP)) - len(primes_up_to(5002))
    for r in rows:
        assert r.t == r.p - 1
        assert abs(r.fourier_max - 1) <= 1e-12, r.p


@pytest.mark.parametrize("generator", ["squares", "perturbed"])
def test_convex_scan_rows_match_dict_recount(generator):
    sizes = list(range(2, 65))
    rows = convex_scan(sizes, generator, seed=5)
    assert [r.n for r in rows] == sizes
    for r in rows:
        seq = squares_sequence(r.n) if generator == "squares" else perturbed_quadratic(r.n, 5)
        check_row(r, convex_row_recount(seq))


def test_progression_batch_rows_match_dict_recount():
    rows = progression_batch(101)
    assert len(rows) > 100
    for r in rows:
        prog = [(r.start + i * r.step) % r.p for i in range(r.ap_len)]
        assert set(prog) <= set(subgroup(make_field(r.p), r.t).elements)
        assert r.tmult2 == mult_tuple_energy(prog, r.p, 2), (r.p, r.t)


def test_progression_batch_builds_one_field_per_prime(monkeypatch):
    import addcomb.experiments as exp_mod

    built = []

    def counting_make_field(p, root=None):
        built.append(p)
        return make_field(p, root)

    monkeypatch.setattr(exp_mod, "make_field", counting_make_field)
    rows = progression_batch(101)
    assert sorted(built) == sorted(set(built)) == sorted({r.p for r in rows})
    fld = make_field(101)
    assert fld.inv(7) * 7 % 101 == 1


def test_scan_arguments_checked_before_any_field(monkeypatch):
    import addcomb.experiments as exp_mod
    from addcomb.config import SCAN_PRIME_CAP

    def must_not_run(*args, **kwargs):
        raise AssertionError("a field was built before the arguments were checked")

    monkeypatch.setattr(exp_mod, "make_field", must_not_run)
    for scan in (subgroup_scan, coverage_scan, progression_batch):
        with pytest.raises(ValueError, match="capped"):
            scan(SCAN_PRIME_CAP + 1)
    with pytest.raises(ValueError, match="capped"):
        coverage_scan(SCAN_PRIME_CAP + 1, cap=1)  # the prime cap comes first
    with pytest.raises(ValueError, match="cap must be"):
        coverage_scan(31, cap=1)


def test_energy_sums_exact_past_int64():
    assert _energy_sums(np.array([3, 1, 0])) == (10, 28)
    assert _energy_sums([2 ** 21]) == (2 ** 42, 2 ** 63)  # (2^21)^3 = 2^63


def test_autocorrelation_np_matches_definition():
    els = [1, 2, 4]
    counts = autocorrelation_np(els, 7)
    assert counts.tolist() == [3, 1, 1, 1, 1, 1, 1]
    assert sumset_size_np(els, els, 7) == 6


def test_level_profile_partition():
    rows = level_set_profile(7, 3)
    assert sum(r.size for r in rows) == 6
    assert sum(1 for r in rows if r.size) == 1
    # full multiplicative group: everything nonzero is in Gamma - Gamma
    rows = level_set_profile(13, 12)
    fld = make_field(13)
    g = subgroup(fld, 12)
    counts = autocorrelation_np(g.elements, 13)
    d = rows[0].d
    above = sum(1 for x in range(1, 13) if counts[x] > d)
    assert sum(r.size for r in rows) == above


def test_level_profile_runs_the_orbit_kernel_once(monkeypatch):
    """A level profile reads E2, E3 and Gamma ∘ Gamma from one orbit-kernel
    run, cached on the subgroup."""
    # the package exports the function ``subgroup``, which shadows the module
    sub_mod = importlib.import_module("addcomb.subgroup")
    runs = []
    kernel = sub_mod._orbit_stats

    def counting_kernel(gamma):
        runs.append((gamma.field.p, gamma.order))
        return kernel(gamma)

    monkeypatch.setattr(sub_mod, "_orbit_stats", counting_kernel)
    rows = level_set_profile(101, 20)
    assert rows
    assert runs == [(101, 20)]


def test_coverage_scan():
    rows = coverage_scan(31)
    by_key = {(r.p, r.t): r for r in rows}
    for p in (3, 5, 7, 13, 31):
        assert by_key[(p, p - 1)].m == 2
        assert by_key[(p, 1)].m is None  # singleton never covers
    # brute force m for p=7, t=3
    cur = {1, 2, 4}
    m = 1
    while cur != set(range(7)):
        cur = {(a + b) % 7 for a in cur for b in (1, 2, 4)}
        m += 1
    assert by_key[(7, 3)].m == m == 3
    assert by_key[(7, 3)].covered_by_6


def test_coverage_scan_stops_when_the_sumset_stops_growing():
    """Only t = 1 stalls (a single point), so a huge cap ends as soon as
    cap = 50 does, with the same rows."""
    t0 = time.process_time()
    rows = coverage_scan(50, cap=10 ** 9)
    assert time.process_time() - t0 < 1.0
    assert [dataclasses.replace(r, cap=50) for r in rows] == coverage_scan(50, cap=50)
    assert [r.t for r in rows if r.m is None] == [1] * len(primes_up_to(50)[1:])


def test_expansion_scan_rows():
    rows = expansion_scan(31, 6, trials=10, seed=3)
    assert rows[0].kind == "full"
    single = rows[1]
    assert single.kind == "singleton" and single.sumset == 6
    assert len(rows) == 12
    fld = make_field(31)
    g = subgroup(fld, 6)
    assert rows[0].sumset == sumset_size_np(g.elements, g.elements, 31)


def test_convex_generators():
    assert squares_sequence(5) == [1, 4, 9, 16, 25]
    assert_convex(squares_sequence(100))
    seq = perturbed_quadratic(50, seed=9)
    assert_convex(seq)
    with pytest.raises(ValueError):
        assert_convex([1, 2, 3, 4])  # constant gaps
    with pytest.raises(ValueError):
        assert_convex([5, 3, 1])


def test_convex_scan_small_values():
    rows = convex_scan([2, 4])
    assert rows[0].n == 2 and rows[0].E2 == 6
    a = squares_sequence(4)
    n_mod = 4 * max(a) + 1
    assert rows[1].E2 == quadruple_energy(a, a, n_mod)


def test_convex_scan_rejects_tiny():
    with pytest.raises(ValueError):
        convex_scan([1])


def test_doubling_stats():
    geo = doubling_stats([2 ** i for i in range(1, 9)])
    assert geo.prod == 2 * 8 - 1
    one = doubling_stats([1])
    assert (one.n, one.prod, one.shifted_prod, one.mult_energy, one.add_energy) == (
        1, 1, 1, 1, 1,
    )
    interval = doubling_stats(list(range(1, 17)))
    assert interval.speps_third >= 1
    with pytest.raises(ValueError):
        doubling_stats([0, 1])
    with pytest.raises(ValueError):
        doubling_stats([])


@pytest.mark.parametrize("a", [
    [-5, -3, -1, 2, 7, 11],                          # negative members
    [1, -1, 2, -2, 4, 9],
    [2 ** 40 + k for k in (-9, -3, 1, 5, 12)],       # products past int64
    [2 ** 62 - 7, 2 ** 62 + 3, -(2 ** 62) + 1, 5],   # sums past int64
    [2 ** 63 - 1, -(2 ** 63 - 1), 1],                # int64 would wrap -2^64 + 2 onto 1 + 1
    [2 ** 63 + 1, -(2 ** 63), 2 ** 64 + 5, 3],       # members past int64
    list(range(1, 41)),
])
@pytest.mark.parametrize("shift", [1, -1, 0, 3, 10 ** 19, -(10 ** 19)])
def test_doubling_stats_match_dict_recount(a, shift):
    # shift -1 with 1 in A puts 0 in A + a; 10^19 lies past int64 alone
    check_row(doubling_stats(a, shift), doubling_row_recount(a, shift))


def test_doubling_stats_size_cap(monkeypatch):
    import addcomb.experiments as exp_mod
    from addcomb.config import DOUBLING_SET_CAP

    def must_not_run(*args, **kwargs):
        raise AssertionError("an array was built before the cap was checked")

    monkeypatch.setattr(exp_mod, "_value_table", must_not_run)
    with pytest.raises(ValueError, match="capped"):
        doubling_stats(range(1, DOUBLING_SET_CAP + 2))
    # duplicates count once against the cap
    monkeypatch.undo()
    row = doubling_stats(list(range(1, 9)) * (DOUBLING_SET_CAP // 4))
    assert row.n == 8


def test_doubling_mult_energy_oracle():
    a = [1, 2, 3, 4, 6]
    row = doubling_stats(a)
    prods = {}
    for x in a:
        for y in a:
            prods[x * y] = prods.get(x * y, 0) + 1
    assert row.mult_energy == sum(v * v for v in prods.values())


def test_longest_progression_examples():
    fld = make_field(7)
    assert longest_progression(subgroup(fld, 3))[0] == 2
    assert longest_progression(subgroup(fld, 6))[0] == 6
    fld = make_field(31)
    for t in (3, 5, 6, 10, 15):
        g = subgroup(fld, t)
        got = longest_progression(g)[0]
        assert got == longest_ap_naive(list(g.elements), 31)


def test_progression_shape_guard_near_full_subgroup():
    # delta -> 0 makes the reported shape exceed float range; it must be
    # dropped, not overflow
    row = progression_scan(1009, 1008)
    assert row.ap_len == 1008
    assert row.vinogradov_shape is None


def test_autocorrelation_chunking_matches_dict_count():
    fld = make_field(499)
    g = subgroup(fld, 498)
    counts = autocorrelation_np(g.elements, 499)
    expect = {}
    for a in g.elements:
        for b in g.elements:
            d = (b - a) % 499
            expect[d] = expect.get(d, 0) + 1
    assert counts.tolist() == [expect.get(x, 0) for x in range(499)]


def test_progression_scan_row():
    row = progression_scan(7, 3)
    assert row.ap_len == 2
    prog = [(row.start + i * row.step) % 7 for i in range(row.ap_len)]
    assert set(prog) <= {1, 2, 4}
    assert row.tmult2 >= row.ap_len ** 4 / 3  # subset lower bound
    rows = progression_batch(31)
    assert [(r.p, r.t) for r in rows] == sorted((r.p, r.t) for r in rows)
    full = next(r for r in rows if (r.p, r.t) == (31, 30))
    assert full.ap_len == 30


def test_write_csv_deterministic(tmp_path):
    rows = convex_scan([2, 4])
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    write_csv(p1, rows)
    write_csv(p2, convex_scan([2, 4]))
    assert p1.read_bytes() == p2.read_bytes()
    with open(p1, newline="") as fh:
        got = list(csv.reader(fh))
    assert got[0] == ["n", "E2", "E3", "ratio_8936", "ratio_E3", "andrews_max"]
    assert got[1][0] == "2" and got[1][1] == "6"


def test_write_csv_empty_rejected(tmp_path):
    with pytest.raises(ValueError):
        write_csv(tmp_path / "x.csv", [])
