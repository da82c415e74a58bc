import importlib
import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from addcomb.checks import IneqCheck
from addcomb.energy import (
    block_families,
    check_ap_bound,
    check_energy_weight_a,
    check_energy_weight_b,
    check_heart,
    check_heart_triple,
    check_katz_koester,
    check_level_thresholds,
    check_membership_identity,
    check_weight_inequality,
    correlation_counts,
    energy,
    energy_k,
    energy_k_shift_sum,
    shift_spread_sizes,
    t_k,
)
from addcomb.groups import (
    CyclicGroup,
    GroupSet,
    diag_shift_size,
    indicator,
    intersect_shifts,
    sumset,
    tuple_sumset_with_diagonal,
)
from addcomb.spectral import (
    build_restricted_operator,
    check_cycle_sums,
    check_triangle_inequality,
    cycle_sums,
    first_eigenfunction_bounds,
    rayleigh_indicator,
    triangle_sum,
)
from addcomb.transform import GroupFn, kfold_convolve
import oracle
from oracle import quadruple_energy, shift_tuple_energy, sigma_k_count, t_k_count


energy_module = importlib.import_module("addcomb.energy")
verify_module = importlib.import_module("addcomb.verify")
EqStats = verify_module.EqStats


def gset(n, elems):
    return GroupSet.of(CyclicGroup(n), elems)


def rand_set(rng, n, density=0.5):
    return GroupSet.of(
        CyclicGroup(n), [x for x in range(n) if rng.random() < density] or [0]
    )


def test_energy_examples():
    assert energy(gset(5, [0, 1])) == 6
    assert energy(gset(6, range(6))) == 6 ** 3
    assert energy(gset(7, [1, 2, 4])) == 15
    assert correlation_counts(gset(7, [1, 2, 4]), gset(7, [1, 2, 4])) == (
        3, 1, 1, 1, 1, 1, 1,
    )


def test_energy_vs_quadruple_oracle():
    rng = random.Random(1)
    for n in (5, 7, 9):
        for _ in range(10):
            a = rand_set(rng, n)
            b = rand_set(rng, n)
            assert energy(a, b) == quadruple_energy(a.members, b.members, n)


def test_energy_k_examples():
    assert energy_k(gset(5, [0, 1]), k=3) == 10
    assert energy_k(gset(7, [1, 2, 4]), k=3) == 33
    a = gset(5, [0, 2, 3])
    assert energy_k(a, k=1) == len(a) ** 2


def test_energy_k_shift_route():
    rng = random.Random(2)
    for _ in range(10):
        a = rand_set(rng, 7)
        for k in (2, 3):
            assert energy_k(a, k=k) == energy_k_shift_sum(a, k=k)
            assert energy_k(a, k=k) == shift_tuple_energy(a.members, 7, k)


def test_energy_k_cross_set():
    rng = random.Random(3)
    a = rand_set(rng, 9)
    b = rand_set(rng, 9)
    aa = correlation_counts(a, a)
    bb = correlation_counts(b, b)
    assert energy_k(a, b, 3) == sum(u * v * v for u, v in zip(aa, bb))
    assert energy_k(a, b, 2) == energy_k_shift_sum(a, b, 2)


def test_energy_k_refuses_non_integer_k():
    a = gset(7, [1, 2, 4])
    for k in (2.5, 3.0, 0, -1):
        with pytest.raises(ValueError, match="^k must be an integer >= 1$"):
            energy_k(a, k=k)
    assert energy(a, a) == energy_k(a, a, 2) == 15


def test_t_k_and_sigma_k():
    a = gset(5, [0, 1])
    assert t_k(a, 2) == energy(a)
    assert t_k(a, 3) == t_k_count(a.members, 5, 3)
    # sigma_k, the number of k-tuples summing to zero, is r_k(0)
    sym = gset(5, [0, 1, 4])
    sigma = {k: kfold_convolve(indicator(sym), k).values[0] for k in (2, 3, 4)}
    assert sigma[2] == len(sym)
    assert sigma[4] == t_k(sym, 2)
    assert sigma[3] == sigma_k_count(sym.members, 5, 3)


def test_katz_koester_examples():
    a = gset(5, [0, 1])
    checks = {c.detail["x"]: c for c in check_katz_koester(a, "+")}
    assert checks[1].rhs == 2 and checks[1].lhs >= 2
    assert checks[0].slack == 0
    rng = random.Random(4)
    for _ in range(100):
        b = rand_set(rng, 32, rng.uniform(0.1, 0.9))
        for sign in "+-":
            assert all(c.passed for c in check_katz_koester(b, sign))


def test_heart_example_exact():
    c = check_heart(gset(5, [0, 1]), "-")
    assert c.lhs == Fraction(7, 3)
    assert c.rhs == Fraction(5, 2)
    assert c.passed


def test_heart_subgroup_equality():
    for n, d in ((8, 2), (9, 3), (16, 4)):
        a = gset(n, range(0, n, d))
        for sign in "+-":
            c = check_heart(a, sign)
            assert c.lhs == c.rhs == Fraction(len(a) ** 2)
            assert c.slack == 0
        c2 = check_heart_triple(a)
        assert c2.slack == 0
        assert c2.rhs == Fraction(len(a) ** 6)


def test_heart_triple_matches_definition():
    rng = random.Random(5)
    for _ in range(10):
        a = rand_set(rng, 9)
        n = 9
        ax = a.autocorrelation.values
        lhs = sum(
            ax[(x - y) % n] * ax[(x - z) % n] * ax[(y - z) % n]
            for x in a for y in a for z in a
        )
        c = check_heart_triple(a)
        assert c.rhs == lhs  # from_ge stores lhs on the rhs slot
        assert c.passed


def test_weight_inequality_zero_weight():
    a = gset(5, [0, 1])
    c = check_weight_inequality(a, a, GroupFn(a.group, [0] * 5), 1, 1, "-")
    assert c.lhs == 0 and c.passed


def test_weight_inequality_random():
    rng = random.Random(6)
    g = CyclicGroup(16)
    for _ in range(30):
        a = rand_set(rng, 16)
        b = rand_set(rng, 16)
        q = GroupFn(g, [rng.randint(-3, 3) for _ in range(16)])
        for sign in "+-":
            assert check_weight_inequality(a, b, q, 1, 1, sign).passed
    for _ in range(5):
        a = rand_set(rng, 16)
        b = rand_set(rng, 16)
        q2 = GroupFn(g, np.array([rng.randint(-2, 2) for _ in range(16 * 16)]).reshape(16, 16))
        q1 = GroupFn(g, [rng.randint(-2, 2) for _ in range(16)])
        for sign in "+-":
            assert check_weight_inequality(a, b, q2, 2, 1, sign).passed
            assert check_weight_inequality(a, b, q1, 1, 2, sign).passed


def test_weight_inequality_complex_weight():
    rng = random.Random(7)
    a = rand_set(rng, 12)
    q = GroupFn(a.group, [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(12)])
    assert check_weight_inequality(a, a, q, 1, 1, "-").passed


def test_weight_inequality_real_weight_keeps_a_tolerance():
    """A real, non-integer weight is a float64 table, not an exact one: the
    check keeps a nonzero tolerance, as for a complex weight.  An integer
    weight stays exact with tol 0.  A weight must be a GroupFn: plain
    values are refused."""
    rng = random.Random(8)
    a = rand_set(rng, 12)
    q = GroupFn(a.group, [rng.choice((0.5, 0.25, -0.75)) for _ in range(12)])
    c = check_weight_inequality(a, a, q, 1, 1, "-")
    assert c.passed and c.tol > 0 and isinstance(c.lhs, float)
    qi = GroupFn(a.group, tuple(rng.randint(-3, 3) for _ in range(12)))
    c = check_weight_inequality(a, a, qi, 1, 1, "+")
    assert c.passed and c.tol == 0 and isinstance(c.lhs, int)
    with pytest.raises(TypeError, match="^weight must be a GroupFn$"):
        check_weight_inequality(a, a, list(qi.values), 1, 1, "+")


def test_energy_weight_specializations():
    rng = random.Random(8)
    for _ in range(40):
        a = rand_set(rng, 16, rng.uniform(0.2, 0.9))
        for sign in "+-":
            assert check_energy_weight_a(a, None, 1, 1, sign).passed
            assert check_energy_weight_b(a, None, 1, 1, sign).passed
    # k=2 variants on a smaller modulus
    for _ in range(5):
        a = rand_set(rng, 9)
        for sign in "+-":
            assert check_energy_weight_a(a, None, 2, 1, sign).passed
            assert check_energy_weight_b(a, None, 1, 2, sign).passed


def test_energy_weight_subgroup_equality():
    a = gset(16, range(0, 16, 4))
    for sign in "+-":
        assert check_energy_weight_a(a, None, 1, 1, sign).slack == 0
        assert check_energy_weight_b(a, None, 1, 1, sign).slack == 0


def test_level_thresholds():
    rng = random.Random(9)
    for _ in range(50):
        a = rand_set(rng, 32, rng.uniform(0.1, 0.9))
        for sign in "+-":
            assert all(c.passed for c in check_level_thresholds(a, sign))


def test_level_thresholds_subgroup_degeneration():
    a = gset(32, range(0, 32, 4))
    for sign in "+-":
        checks = check_level_thresholds(a, sign)
        named = {c.name: c for c in checks}
        thr = named[f"level-threshold-energy{sign}"]
        # all of E(A) survives the threshold, slack is exactly E/2
        assert thr.slack == Fraction(energy(a), 2)


def test_level_thresholds_at_equality():
    """A spread on a threshold counts as reaching it.  Real spreads never land
    there: E2 >= |A|^3 and E3 >= |A|^4 put both thresholds at or below
    |A| / 2 < |A| <= |A ∓ A_x|.  So the spreads are planted in A's k = 1
    shift profile; for the order-8 subgroup of Z/32 both thresholds are
    exactly 4."""
    a = gset(32, range(0, 32, 4))
    planted = [0] * 32
    planted[::4] = [4, 3, 5, 4, 4, 3, 6, 4]
    coords = np.array(a.members)[:, None]
    sizes, spreads = np.full(8, 8), np.array(planted[::4])
    a._shift_profiles[1] = {s: (coords, sizes, spreads) for s in "+-"}
    for sign in "+-":
        levels = {c.name: c for c in check_level_thresholds(a, sign)}
        big = oracle.level_threshold_sums(a.members, 32, sign, planted)
        assert big == (6 * 64, 6 * 8)
        assert levels[f"level-threshold-energy{sign}"].rhs == big[0]
        assert levels[f"level-threshold-count{sign}"].rhs == big[1]


def test_ap_bound_values():
    a = gset(16, [0, 1, 3, 7, 12])
    for alpha, p in ((2, 2), (3, 2), (2, 3)):
        for sign in "+-":
            assert check_ap_bound(a, alpha, p, sign).passed


def test_ap_bound_22_is_cauchy_schwarz_form():
    rng = random.Random(10)
    a = rand_set(rng, 16)
    ax = a.autocorrelation.values
    spread = shift_spread_sizes(a, "-")
    lhs = sum(c * c for c in ax)
    e3 = sum(c ** 3 for c in ax)
    inner = sum(d * c * c for c, d in zip(ax, spread))
    assert lhs <= (e3 / len(a) ** 2) ** 0.5 * inner ** 0.5 + 1e-9
    c = check_ap_bound(a, 2, 2, "-")
    assert abs(c.lhs - lhs) < 1e-9


def test_membership_identity():
    rng = random.Random(11)
    for _ in range(15):
        a = rand_set(rng, 16)
        b = rand_set(rng, 16)
        for c in check_membership_identity(a, b, 1, 1):
            assert c.passed and c.lhs == 0
    for _ in range(3):
        a = rand_set(rng, 8)
        b = rand_set(rng, 8)
        for k, l in ((1, 2), (2, 1)):
            for c in check_membership_identity(a, b, k, l):
                assert c.passed


def test_membership_identity_empty_base():
    a = gset(16, [0, 3])
    b = gset(16, [])
    for c in check_membership_identity(a, b, 1, 1):
        assert c.passed


def test_membership_energy_total_is_higher_energy():
    rng = random.Random(12)
    a = rand_set(rng, 12)
    checks = check_membership_identity(a, a, 1, 1)
    assert checks[1].name == "shift-energy-total-k1l1"
    assert checks[1].passed
    # aggregate equals E_3(A) when B = A, k = l = 1
    assert energy_k(a, k=3) == energy_k_shift_sum(a, k=3)


def test_empty_set_rejected():
    with pytest.raises(ValueError):
        check_heart(gset(5, []), "-")


@pytest.mark.parametrize("sign", ["", "x", "+-"])
def test_bad_signs_rejected_before_any_work(sign):
    """Every entry point that takes a sign raises sumset's error for a sign
    other than '+' or '-', before A ∘ A or any spread is computed."""
    a = gset(11, [0, 1, 3, 7])
    calls = [
        lambda: shift_spread_sizes(a, sign),
        lambda: check_heart(a, sign),
        lambda: check_katz_koester(a, sign),
        lambda: check_level_thresholds(a, sign),
        lambda: check_ap_bound(a, 2, 2, sign),
        lambda: check_energy_weight_a(a, None, 1, 1, sign),
        lambda: check_energy_weight_b(a, None, 1, 1, sign),
        lambda: check_weight_inequality(a, a, GroupFn(a.group, [1] * 11), 1, 1, sign),
        lambda: check_weight_inequality(a, a, GroupFn(a.group, np.ones((11, 11), dtype=np.int64)), 2, 1, sign),
        lambda: sumset(a, a, sign),
        lambda: diag_shift_size(a, a, 2, sign),
        lambda: tuple_sumset_with_diagonal([a, a], a, sign),
        lambda: intersect_shifts(a, a, [1], [sign]),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="sign must be '\\+' or '-'"):
            call()
    assert "autocorrelation" not in vars(a)
    assert a._shift_profiles == {}


EMPTY_A_CHECKS = {
    "check_katz_koester": lambda e, b, h, psi: check_katz_koester(e, "+"),
    "check_heart": lambda e, b, h, psi: check_heart(e, "-"),
    "check_heart_triple": lambda e, b, h, psi: check_heart_triple(e),
    "check_weight_inequality": lambda e, b, h, psi: check_weight_inequality(e, b, h),
    "check_energy_weight_a": lambda e, b, h, psi: check_energy_weight_a(e, b),
    "check_energy_weight_b": lambda e, b, h, psi: check_energy_weight_b(e, b),
    "check_level_thresholds": lambda e, b, h, psi: check_level_thresholds(e, "-"),
    "check_ap_bound": lambda e, b, h, psi: check_ap_bound(e, 2, 2, "-"),
    "check_membership_identity": lambda e, b, h, psi: check_membership_identity(e, b),
    "build_restricted_operator": lambda e, b, h, psi: build_restricted_operator(e, psi),
    "triangle_sum": lambda e, b, h, psi: triangle_sum(e, psi),
    "rayleigh_indicator": lambda e, b, h, psi: rayleigh_indicator(e, psi),
    "cycle_sums": lambda e, b, h, psi: cycle_sums(e, psi, (3, 4, 5)),
    "check_triangle_inequality": lambda e, b, h, psi: check_triangle_inequality(e, h),
    "check_cycle_sums": lambda e, b, h, psi: check_cycle_sums(e, h),
    "first_eigenfunction_bounds": lambda e, b, h, psi: first_eigenfunction_bounds(e, h),
}


@pytest.mark.parametrize("name", sorted(EMPTY_A_CHECKS))
def test_empty_set_rejected_before_any_work(name):
    """Every check that takes a set raises the same ValueError for an empty
    A, before A ∘ A or a shift profile is computed."""
    g = CyclicGroup(8)
    e = GroupSet(g, ())
    b = gset(8, [0, 1, 3])
    h = GroupFn(g, (1, 0, 1, 1, 0, 0, 0, 0))
    psi = GroupFn(g, (3, 1, 0, 2, 0, 2, 0, 1))
    with pytest.raises(ValueError, match="^A must be nonempty$"):
        EMPTY_A_CHECKS[name](e, b, h, psi)
    assert set(vars(e)) == {"group", "members"}


def test_spread_cache_interleaved_signs_and_moduli():
    """The per-set spread cache, called as +, -, + and across two sets with
    equal members on different moduli, gives the oracle's spreads, and the
    checks that read it give the oracle's exact sides, also when B is an
    equal copy of A."""
    for s in (gset(13, [0, 1, 2, 5, 9]), gset(13, [1, 4, 6]), gset(17, [1, 4, 6])):
        n = s.group.modulus
        for sign in "+-+":
            assert list(shift_spread_sizes(s, sign)) == oracle.shift_spreads(s.members, n, sign)
        assert sorted(s._shift_profiles[1]) == ["+", "-"]
    rng = random.Random(12)
    for _ in range(20):
        n = rng.choice((8, 13, 32))
        a = rand_set(rng, n, rng.uniform(0.1, 0.9))
        copy = GroupSet.of(a.group, a.members)
        q = GroupFn(a.group, [rng.randint(-3, 3) for _ in range(n)])
        for sign in "+-+":
            assert (check_heart(a, sign).lhs, check_heart(a, sign).rhs) == oracle.heart_sides(
                a.members, n, sign
            )
            levels = {c.name: c for c in check_level_thresholds(a, sign)}
            big1, big2 = oracle.level_threshold_sums(a.members, n, sign)
            assert levels[f"level-threshold-energy{sign}"].rhs == big1
            assert levels[f"level-threshold-count{sign}"].rhs == big2
            for b in (a, copy):
                wb = check_energy_weight_b(a, b, 1, 1, sign)
                assert (wb.lhs, wb.rhs) == oracle.energy_weight_b_sides(a.members, b.members, n, sign)
                wq = check_weight_inequality(a, b, q, 1, 1, sign)
                assert (wq.lhs, wq.rhs) == oracle.weight_inequality_sides(
                    a.members, b.members, q.values, n, sign
                )
                assert all(type(v) in (int, Fraction) for v in (wb.lhs, wb.rhs, wq.lhs, wq.rhs))
        assert copy._shift_profiles == {}  # an equal B reads A's cache


def test_shift_profiles_build_each_level_once_and_no_level_past_k(monkeypatch):
    """One pass builds levels 1..k and caches each of them; a single-set
    call at k = 1 (the counting queries' path) extends no cell to level 2,
    and a later call at k = 2 keeps the cached level 1.  Each level takes
    one ``_hits`` per sign for its spreads, and each level past 1 one more
    to extend its cells."""
    hits = []
    real = energy_module._hits
    monkeypatch.setattr(energy_module, "_hits", lambda *args: hits.append(1) or real(*args))
    g = CyclicGroup(16)
    a, b = GroupSet.of(g, [0, 1, 3, 7, 8]), GroupSet.of(g, [2, 5, 6, 11])
    energy_module.build_shift_profiles([a], 1)
    assert len(hits) == 2 and list(a._shift_profiles) == [1]
    level1 = a._shift_profiles[1]
    energy_module.build_shift_profiles([a, b], 2)
    assert len(hits) == 2 + 5 and list(b._shift_profiles) == [1, 2]
    assert a._shift_profiles[1] is level1 and sorted(a._shift_profiles) == [1, 2]
    for s in "+-":
        for level in (1, 2):
            lone = GroupSet.of(g, b.members)
            energy_module.build_shift_profiles([lone], level)
            assert all((x == y).all() for x, y in zip(lone._shift_profiles[level][s],
                                                     b._shift_profiles[level][s]))


def test_k2_shift_profile_signs_and_zero_weights(monkeypatch):
    """check_weight_inequality at k = 2, l = 1 on a fresh set, called as
    +, -, + with a weight that vanishes on some nonempty cells, gives the
    oracle's exact sides from one build of the cells, also when B is an
    equal copy of A."""
    rng = random.Random(14)
    n = 11
    a = rand_set(rng, n)
    copy = GroupSet.of(a.group, a.members)
    q = [rng.randint(-2, 2) for _ in range(n * n)]
    weight = GroupFn(a.group, np.array(q).reshape(n, n))
    cells = {s: list(oracle.weight_cells_naive(a.members, a.members, 2, n, s).values())
             for s in "+-"}
    assert any(c and not w for w, (c, _) in zip(q, cells["-"]))
    e4 = sum(v ** 4 for v in oracle.correlation(a.members, a.members, n))  # E_4(A, A)
    builds = []
    real = energy_module._shift_levels
    monkeypatch.setattr(
        energy_module, "_shift_levels",
        lambda batch, k: builds.append((batch.pairs, k)) or real(batch, k),
    )
    for sign in "+-+":
        lin = sum(w * c for w, (c, _) in zip(q, cells[sign]))
        quad = sum(w * w * d for w, (_, d) in zip(q, cells[sign]))
        for b in (a, copy):
            c = check_weight_inequality(a, b, weight, 2, 1, sign)
            assert (c.lhs, c.rhs) == (len(a) ** 2 * lin * lin, e4 * quad)
    # one pass builds level 2 and caches level 1 on the way
    assert builds == [([(a, a)], 2)]
    assert list(a._shift_profiles) == [1, 2] and sorted(a._shift_profiles[2]) == ["+", "-"]
    assert copy._shift_profiles == {}


def _kernel_pairs(rng, n, count):
    """``count`` (A, B) pairs on Z/n: a singleton, the full set, then random
    sets (sparse at n = 101, so the oracle stays quick); B = A on even
    positions and another set on odd ones."""
    lo, hi = (0.05, 0.2) if n > 32 else (0.1, 0.9)

    def draw(i):
        if i % 8 == 0:
            return gset(n, [rng.randrange(n)])
        if i % 8 == 1:
            return gset(n, range(n))
        return rand_set(rng, n, rng.uniform(lo, hi))

    pairs = []
    for i in range(count):
        a = draw(i)
        pairs.append((a, a if i % 2 == 0 else draw(i + 1)))
    return pairs


def _oracle_rows(a, b, k, n):
    """[(x, cell, size, spread+, spread-)] for every x with a nonempty cell,
    by set enumeration over the shifts of A - B in row-major order; each
    distinct cell's sumsets are taken once."""
    shifts = sorted({(x - y) % n for x in a.members for y in b.members})
    spreads, rows = {}, []
    for xs in itertools.product(shifts, repeat=k):
        cell = frozenset(oracle.shifted_intersection(a.members, b.members, xs, "-" * k, n))
        if cell:
            if cell not in spreads:
                spreads[cell] = [len(oracle.sumset_naive(a.members, cell, n, s)) for s in "+-"]
            rows.append((xs, cell, len(cell), *spreads[cell]))
    return rows


@pytest.mark.parametrize("n", [7, 13, 32, 101])
@pytest.mark.parametrize("k", [1, 2])
def test_batched_shift_kernel_matches_the_oracle(n, k):
    """The batched cell kernel, on a batch of 8 pairs and on each pair as a
    batch of one, gives every pair the oracle's nonempty cells in row-major
    order, with their members, sizes and spreads of both signs."""
    rng = random.Random(100 * n + k)
    pairs = _kernel_pairs(rng, n, 8)
    assert any(a == b for a, b in pairs) and any(a != b for a, b in pairs)
    got = {p: [] for p in range(len(pairs))}
    batches = [(pairs, range(len(pairs)))] + [([pair], [p]) for p, pair in enumerate(pairs)]
    for batch, owners in batches:
        coords, cells, _, inv, bounds = energy_module._shift_cells(
            energy_module._pair_batch(batch), k
        )
        _, sizes, spreads, _ = energy_module._cell_profiles(batch, k, 1, "+-")
        flat = cells.reshape(-1, cells.shape[-1])
        for p, ((_, b), owner) in enumerate(zip(batch, owners)):
            got[owner].append([
                (tuple(coords[r].tolist()),
                 frozenset(np.asarray(b.members)[flat[inv[r], :len(b)]].tolist()),
                 int(sizes[r]), int(spreads["+"][r]), int(spreads["-"][r]))
                for r in range(bounds[p], bounds[p + 1])
            ])
    for p, (a, b) in enumerate(pairs):
        want = _oracle_rows(a, b, k, n)
        assert got[p] == [want, want]


# --- the battery's families a block at a time --------------------------------


_EQUALITY_FAMILIES = ("shift-quotient-bound", "katz-koester", "triple-shift-product-bound",
                      "shift-energy-bound-a-k1l1", "shift-energy-bound-b-k1l1")


def _per_set_rows(a, q):
    """{family: row} for set A and weight q from the public per-set checks,
    each family's row as verify records it."""
    rows = {"triple-shift-product-bound": check_heart_triple(a)}
    for sign in "+-":
        rows[f"shift-quotient-bound{sign}"] = check_heart(a, sign)
        rows[f"katz-koester{sign}"] = min(check_katz_koester(a, sign), key=lambda c: c.slack_float())
        rows[f"shift-energy-bound-a-k1l1{sign}"] = check_energy_weight_a(a, None, 1, 1, sign)
        rows[f"shift-energy-bound-b-k1l1{sign}"] = check_energy_weight_b(a, None, 1, 1, sign)
        for k, weight in ((1, q), (2, q.outer(q))):
            rows[f"weighted-shift-bound-k{k}l1{sign}"] = check_weight_inequality(a, a, weight, k, 1, sign)
        rows.update((c.name, c) for c in check_level_thresholds(a, sign))
    for name in list(rows):
        if name.rstrip("+-") in _EQUALITY_FAMILIES:
            rows[name + "-equality"] = IneqCheck.from_identity(name + "-equality", rows[name].slack_float())
    return rows


def _battery_blocks(seed, trials=1000):
    """The inequality battery's (sets, weights) blocks of 8 for ``seed``,
    drawn as verify draws them."""
    rng, group = random.Random(seed), CyclicGroup(32)
    densities = [0.1 + 0.8 * i / 8 for i in range(9)]
    sets = itertools.chain(
        verify_module.additive_subgroups(group),
        (verify_module.random_subset(rng, group, densities[t % 9]) for t in range(trials)),
    )
    insts = [(a, verify_module._draw_weights(rng, group)[0]) for a in sets]
    return [tuple(zip(*insts[lo:lo + 8])) for lo in range(0, len(insts), 8)]


def _assert_block_matches(families, rows_by_set):
    """Every family's block decision and float slack are each set's per-set
    row's, and the row a passing block records is the first minimum by
    float.  (An equality family fails off the equality cases.)"""
    assert {f.name for f in families} == set(rows_by_set[0])
    for f in families:
        rows = [r[f.name] for r in rows_by_set]
        assert f.passed == [r.passed for r in rows], f.name
        assert f.slacks == [r.slack_float() for r in rows], f.name
        if not all(f.passed):
            assert f.equality
            continue
        worst = min(rows, key=lambda c: c.slack_float())
        stats = EqStats()
        stats.add_block(f.slacks, f.row)
        assert (stats.trials, stats.worst_slack) == (len(rows), worst.slack_float())
        assert (stats.worst.name, stats.worst.lhs, stats.worst.rhs, stats.worst.detail) == (
            worst.name, worst.lhs, worst.rhs, worst.detail)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_block_families_match_the_per_set_checks(seed):
    """Over every block of the seed's battery, each family's exact decision
    and float slack is the per-set check's, set by set, and the row the
    block records is min(rows, key=slack_float)."""
    for sets, weights in _battery_blocks(seed):
        families = block_families(list(sets), list(weights))
        _assert_block_matches(families, [_per_set_rows(a, q) for a, q in zip(sets, weights)])


def _hand_blocks():
    """Blocks on Z/32: a singleton alone, the full group alone, and a mix
    with a weight of entries ±2^40, whose k = 2 weight q ⊗ q and sums pass
    the int64 bound."""
    rng = random.Random(26)
    g = CyclicGroup(32)

    def small():
        return GroupFn(g, [rng.randint(-3, 3) for _ in range(32)])

    huge = GroupFn(g, [rng.choice((-1, 1)) * 2 ** 40 for _ in range(32)])
    mixed = [gset(32, [0]), gset(32, range(32)), rand_set(rng, 32, 0.3), rand_set(rng, 32, 0.6)]
    return [
        ([gset(32, [5])], [small()]),
        ([gset(32, range(32))], [small()]),
        (mixed, [huge, small(), huge, small()]),
    ]


@pytest.mark.parametrize("block", range(3))
def test_block_families_match_the_oracle(block):
    """On hand-made blocks every family's decision and float slack agree
    with the set-enumeration oracle's exact slack and with the per-set
    checks, on the Python-int path where a weight passes the int64 bound."""
    sets, weights = _hand_blocks()[block]
    families = block_families(sets, weights)
    _assert_block_matches(families, [_per_set_rows(a, q) for a, q in zip(sets, weights)])
    for i, (a, q) in enumerate(zip(sets, weights)):
        want = oracle.battery_slacks(a.members, q.values, 32)
        for f in families:
            if not f.equality:
                assert f.slacks[i] == float(want[f.name]), (f.name, i)
                assert f.passed[i] == (want[f.name] >= (-1e-9 if "holder" in f.name else 0))
    if block == 2:
        weighted = {f.name: f for f in families}["weighted-shift-bound-k2l1+"]
        assert abs(weighted.row(0).lhs) > 2 ** 63


def test_block_worst_row_is_the_first_minimum_by_float():
    """Two exact slacks that differ but round to the same float: the block
    keeps the first, as adding the rows one by one does."""
    s = Fraction(1, 3)
    rows = [IneqCheck.from_le("x", 0, s), IneqCheck.from_le("x", 0, s + Fraction(1, 10 ** 30)),
            IneqCheck.from_le("x", 0, Fraction(1, 2))]
    assert rows[0].slack != rows[1].slack and rows[0].slack_float() == rows[1].slack_float()
    one_by_one, block = EqStats(), EqStats()
    for r in rows:
        one_by_one.add(r)
    block.add_block([r.slack_float() for r in rows], rows.__getitem__)
    assert one_by_one.worst is block.worst is rows[0]
    assert (one_by_one.trials, one_by_one.worst_slack) == (block.trials, block.worst_slack)
    # a later block adds trials but keeps the earlier worst on a float tie
    block.add_block([r.slack_float() for r in rows[1:]], rows[1:].__getitem__)
    assert block.worst is rows[0] and block.trials == 5


def test_block_worst_row_off_its_slack_raises():
    """The worst row a block builds must pass at the slack it was recorded
    with; a row that fails, or passes at another slack, raises (also under
    ``python -O``)."""
    passing, failing = IneqCheck.from_le("x", 0, 1), IneqCheck.from_le("x", 1, 0)
    for slack, row in ((0.5, passing), (-1.0, failing)):
        with pytest.raises(RuntimeError, match="does not pass"):
            EqStats().add_block([slack], lambda i, row=row: row)


def test_float32_count_guards_raise_from_2_to_the_24_terms():
    """``_hits`` and ``_row_sizes`` sum 0/1 products in float32, exact below
    2**24 terms; a wider operand raises before any product is formed."""
    wide = np.broadcast_to(np.zeros(1, dtype=bool), (1, 2 ** 24))  # no memory
    with pytest.raises(ValueError, match="2\\*\\*24"):
        energy_module._hits(wide, wide.T)
    with pytest.raises(ValueError, match="2\\*\\*24"):
        energy_module._row_sizes(wide)


def test_block_families_read_every_cell_size():
    """Flipping one cell size of one set's cached k = 1 and k = 2 profiles
    moves that set's slack in every family that reads cell sizes, and no
    other: Katz–Koester reads the spreads and the triple bound the
    autocorrelation rows."""
    rng = random.Random(27)
    sets = [rand_set(rng, 32, 0.5) for _ in range(3)]
    weights = [GroupFn(CyclicGroup(32), [rng.randint(1, 3) for _ in range(32)]) for _ in sets]
    clean = block_families(sets, weights)
    for k in (1, 2):
        profile = sets[1]._shift_profiles[k]
        for s in "+-":
            coords, sizes, spreads = profile[s]
            profile[s] = (coords, sizes + (np.arange(len(sizes)) == 0), spreads)
    moved = {f.name for f, g in zip(clean, block_families(sets, weights))
             if f.slacks[1] != g.slacks[1]}
    for f, g in zip(clean, block_families(sets, weights)):
        assert (f.slacks[0], f.slacks[2]) == (g.slacks[0], g.slacks[2])
    assert moved == {f.name for f in clean
                     if not f.name.startswith(("katz-koester", "triple-shift-product-bound"))}


def test_block_families_read_each_sets_autocorrelation():
    """A changed (A ∘ A)(1) planted in one set's cache moves that set's
    triple and quotient bounds, which read A ∘ A, and not its Katz–Koester
    rows, which read (A ± A) ∘ (A ± A); no other set's slack moves."""
    rng = random.Random(28)
    g = CyclicGroup(32)
    sets = [rand_set(rng, 32, 0.5) for _ in range(3)]
    weights = [GroupFn(g, [rng.randint(1, 3) for _ in range(32)]) for _ in sets]
    clean = block_families(sets, weights)
    planted = np.array(sets[1].autocorrelation.table)
    planted[1] += 1
    sets[1].__dict__["autocorrelation"] = GroupFn(g, planted)
    changed = block_families(sets, weights)
    for f, c in zip(changed, clean):
        assert (f.slacks[0], f.slacks[2]) == (c.slacks[0], c.slacks[2]), f.name
    moved = {f.name for f, c in zip(changed, clean) if f.slacks[1] != c.slacks[1]}
    assert {"triple-shift-product-bound", "shift-quotient-bound+", "shift-quotient-bound-"} <= moved
    assert not moved & {"katz-koester+", "katz-koester-"}


@pytest.mark.parametrize("n", [32, 1000, 4200])
def test_perfbench_facing_results_are_python_scalars(n):
    """The per-set results perfbench hashes by repr hold Python ints and
    Fractions only: a numpy scalar would print as np.int64(5)."""
    rng = random.Random(n)
    a = GroupSet.of(CyclicGroup(n), rng.sample(range(n), 20))
    assert type(energy(a)) is int and type(energy_k(a, k=3)) is int
    for sign in "+-":
        assert all(type(v) is int for v in shift_spread_sizes(a, sign))
        for c in check_katz_koester(a, sign):
            assert type(c.lhs) is type(c.rhs) is type(c.slack) is int
            assert type(c.detail["x"]) is int
        c = check_heart(a, sign)
        assert type(c.lhs) is type(c.rhs) is type(c.slack) is Fraction


def test_weighted_bounds_with_an_empty_base_have_zero_sides():
    """An empty B has no cells: the per-set sums over its (empty) rows are
    0, as the Python sums they replace gave."""
    g = CyclicGroup(8)
    a, empty = gset(8, [0, 1, 3]), GroupSet(g, ())
    rows = [check_energy_weight_a(a, empty), check_energy_weight_b(a, empty),
            check_weight_inequality(a, empty, GroupFn(g, [1] * 8))]
    assert [(c.lhs, c.rhs, c.passed) for c in rows] == [(0, 0, True)] * 3
