import itertools
import json
import pathlib
import random
import re

import numpy as np
import pytest

import addcomb.groups as groups
import oracle
from addcomb.groups import (
    CyclicGroup,
    INT64_MAX,
    GroupFn,
    GroupSet,
    _exact_operands,
    diag_shift_size,
    indicator,
    intersect_shifts,
    sumset,
    tuple_sumset_with_diagonal,
)


def gset(n, elems):
    return GroupSet.of(CyclicGroup(n), elems)


def test_cyclic_group():
    assert CyclicGroup(5).modulus == 5
    assert list(CyclicGroup(1).elements()) == [0]
    for n in (0, -3):
        with pytest.raises(ValueError, match="modulus must be >= 1"):
            CyclicGroup(n)


def test_trivial_group_sets():
    g = CyclicGroup(1)
    assert GroupSet.of(g, [0, 0, 0]).members == (0,)


def test_indicator():
    a = gset(5, [0, 1])
    assert indicator(a).values == (1, 1, 0, 0, 0)
    assert indicator(gset(5, [])).values == (0,) * 5
    assert indicator(gset(5, range(5))).values == (1,) * 5


def test_intersect_shifts_examples():
    a = gset(5, [0, 1])
    assert intersect_shifts(a, a, (1,)).members == (0,)
    assert intersect_shifts(a, a, (4,)).members == (1,)
    assert intersect_shifts(a, a, ()).members == a.members


def test_intersect_shifts_signs():
    a = gset(7, [1, 2, 4])
    b = gset(7, [0, 1, 2, 3])
    # '+' coordinate uses s - A instead of A - s
    expect = set(b.members) & {(3 - x) % 7 for x in a.members}
    got = intersect_shifts(a, b, (3,), ("+",))
    assert set(got.members) == expect


def test_intersect_shifts_rejects_mixed_moduli():
    with pytest.raises(ValueError):
        intersect_shifts(gset(5, [0]), gset(7, [0]), (1,))


def test_sumset_examples():
    a = gset(5, [0, 1])
    assert sumset(a, a, "+").members == (0, 1, 2)
    assert sumset(a, a, "-").members == (0, 1, 4)
    assert len(sumset(a, gset(5, []), "+")) == 0


def test_sumset_matches_enumeration():
    rng = random.Random(3)
    for n in (5, 7, 12, 16):
        g = CyclicGroup(n)
        for _ in range(25):
            a = GroupSet.of(g, [x for x in range(n) if rng.random() < 0.4])
            b = GroupSet.of(g, [x for x in range(n) if rng.random() < 0.4])
            for sign, op in (("+", lambda x, y: x + y), ("-", lambda x, y: x - y)):
                expect = {op(x, y) % n for x in a for y in b}
                assert set(sumset(a, b, sign).members) == expect


def test_sumset_size_lower_bound():
    rng = random.Random(5)
    g = CyclicGroup(13)
    for _ in range(50):
        a = GroupSet.of(g, [x for x in range(13) if rng.random() < 0.5] or [0])
        b = GroupSet.of(g, [x for x in range(13) if rng.random() < 0.5] or [1])
        assert len(sumset(a, b, "+")) >= max(len(a), len(b))


def test_tuple_sumset_reduces_to_difference_set():
    a = gset(5, [0, 1])
    b = gset(5, [2, 3])
    ts = tuple_sumset_with_diagonal([a], b, "-")
    assert {x for x in range(5) if ts.values[x]} == set(sumset(a, b, "-").members)
    assert set(ts.flat) == {0, 1}


def test_tuple_sumset_membership_characterization():
    n = 5
    a = gset(n, [0, 1])
    b = gset(n, [0, 1])
    ts = tuple_sumset_with_diagonal([a, a], b, "-")
    mem = set(b.members)
    for x1 in range(n):
        for x2 in range(n):
            nonempty = any(
                (z + x1) % n in a.member_set and (z + x2) % n in a.member_set
                for z in mem
            )
            assert ts.table.item(x1, x2) == int(nonempty)


def test_tuple_sumset_empty_base():
    a = gset(5, [0, 1])
    assert tuple_sumset_with_diagonal([a, a], gset(5, []), "-").dot() == 0


def test_shift_duality_full_enumeration():
    # x in A^k - diag(A^B_s)  <=>  s in A^l - diag(A^B_x), N small, k = l = 1
    n = 8
    rng = random.Random(11)
    g = CyclicGroup(n)
    for _ in range(20):
        a = GroupSet.of(g, [x for x in range(n) if rng.random() < 0.5] or [0])
        b = GroupSet.of(g, [x for x in range(n) if rng.random() < 0.5] or [1])
        for s in range(n):
            asys = intersect_shifts(a, b, (s,))
            left = set(sumset(a, asys, "-").members) if len(asys) else set()
            for x in range(n):
                axs = intersect_shifts(a, b, (x,))
                right = set(sumset(a, axs, "-").members) if len(axs) else set()
                assert (x in left) == (s in right)


def test_shift_duality_tuple_case():
    # x in A^2 - diag(A^B_s) <=> s in A - diag(A^B_x), s scalar, x a pair
    n = 6
    rng = random.Random(17)
    g = CyclicGroup(n)
    for _ in range(5):
        a = GroupSet.of(g, [v for v in range(n) if rng.random() < 0.5] or [0])
        b = GroupSet.of(g, [v for v in range(n) if rng.random() < 0.5] or [1])
        for s in range(n):
            asys = intersect_shifts(a, b, (s,))
            left = tuple_sumset_with_diagonal([a, a], asys, "-") if len(asys) else None
            for x1 in range(n):
                for x2 in range(n):
                    axs = intersect_shifts(a, b, (x1, x2))
                    right = (
                        set(sumset(a, axs, "-").members) if len(axs) else set()
                    )
                    in_left = left is not None and left.table.item(x1, x2) == 1
                    assert in_left == (s in right)


def test_shift_system_monotone():
    rng = random.Random(13)
    g = CyclicGroup(16)
    for _ in range(30):
        a = GroupSet.of(g, [x for x in range(16) if rng.random() < 0.6] or [0])
        b = GroupSet.of(g, [x for x in range(16) if rng.random() < 0.6] or [1])
        s1 = rng.randrange(16)
        s2 = rng.randrange(16)
        small = intersect_shifts(a, b, (s1, s2))
        big = intersect_shifts(a, b, (s1,))
        assert len(small) <= len(big) <= min(len(a), len(b)) or len(big) <= min(
            len(a), len(b)
        )
        assert set(small.members) <= set(big.members)


def test_diag_shift_size_matches_tuple_set():
    a = gset(7, [0, 2, 3])
    c = gset(7, [1, 5])
    for sign in "+-":
        direct = diag_shift_size(a, c, 2, sign)
        ts = tuple_sumset_with_diagonal([a, a], c, sign)
        assert direct == ts.dot()


def test_diag_shift_matches_enumeration():
    rng = random.Random(21)
    for n in (5, 8, 16):
        g = CyclicGroup(n)
        for _ in range(4):
            a, b, c = (
                GroupSet.of(g, [x for x in range(n) if rng.random() < 0.4])
                for _ in range(3)
            )
            for sign in "+-":
                for l in (1, 2):
                    want = oracle.diag_shift_naive([a.members] * l, c.members, n, sign)
                    assert diag_shift_size(a, c, l, sign) == len(want)
                for sets in ([a], [a, a], [a, b]):
                    want = oracle.diag_shift_naive(
                        [s.members for s in sets], c.members, n, sign
                    )
                    ts = tuple_sumset_with_diagonal(sets, c, sign)
                    grid = itertools.product(range(n), repeat=len(sets))
                    assert {x for x, v in zip(grid, ts.flat) if v} == want


def test_grid_fn_table():
    g = CyclicGroup(3)
    f = GroupFn(g, np.arange(9).reshape(3, 3))
    assert f.arity == 2 and f.table.dtype == np.int64
    assert f.table.item(1, 2) == 5 and type(f.table.item(1, 2)) is int
    assert f.flat == tuple(range(9))
    with pytest.raises(ValueError):
        f.table[0, 0] = 7  # read-only
    handed = np.arange(3)
    assert GroupFn(g, handed).values == (0, 1, 2)
    with pytest.raises(ValueError):
        handed[0] = 7  # the function owns the array it was given
    assert f.dot() == 36 and f.dot(f) == sum(v * v for v in range(9))
    h = GroupFn(g, [1, -2, 3])
    assert h.outer(h).flat == tuple(u * v for u in (1, -2, 3) for v in (1, -2, 3))
    big = GroupFn(g, [2 ** 70, 1, 0])
    assert big.table.dtype == object and big.dot(big) == 2 ** 140 + 1
    assert big.dot(GroupFn(g, [0, 0, 0])) == 0
    assert GroupFn(g, [1j, 0, 2]).table.dtype == np.complex128
    real = GroupFn(g, [0.5, 1, -2])
    assert real.table.dtype == np.float64 and real.flat == (0.5, 1.0, -2.0)
    assert f.kind == big.kind == "int" and real.kind == "real"
    assert GroupFn(g, [1j, 0, 2]).kind == "complex"
    for bad in ([1, 2], [[1, 2, 3]] * 2):
        with pytest.raises(ValueError):
            GroupFn(g, bad)
    with pytest.raises(ValueError):
        GroupFn(g, np.zeros((3,) * 4, dtype=np.int64))


# invariant under the subgroup {1, 2, 4} of F_7*: one value at 0, one on
# each coset {1, 2, 4} and {3, 5, 6}
INVARIANT_VALUES = (
    ([5, 1, 1, -2, 1, -2, -2], "int", np.int64),
    ([2 ** 70, 1, 1, 3, 1, 3, 3], "int", object),
    ([0.5, 1.5, 1.5, -2.25, 1.5, -2.25, -2.25], "real", np.float64),
    ([1j, 2 + 1j, 2 + 1j, -0.5, 2 + 1j, -0.5, -0.5], "complex", np.complex128),
)


@pytest.mark.parametrize("vals, kind, dtype", INVARIANT_VALUES)
def test_array_and_numpy_scalar_inputs_match_tuples(vals, kind, dtype):
    """An ndarray, numpy scalars and a tuple of the same values give one
    function: Python scalars out of ``values``, one kind and table dtype,
    a hashable ``mu_alpha_direct`` key and a JSON-ready report payload."""
    from addcomb.subgroup import make_field, mu_alpha_direct, subgroup
    from addcomb.verify import _fn_payload

    g = CyclicGroup(7)
    gamma = subgroup(make_field(7), 3)
    scalars = [v if isinstance(v, int) and abs(v) > INT64_MAX else np.array(v)[()]
               for v in vals]
    fns = [GroupFn(g, tuple(vals)), GroupFn(g, np.array(vals)), GroupFn(g, scalars)]
    want = fns[0]
    assert all(type(v) in (int, float, complex) for v in want.values)
    for f in fns:
        assert repr(f.values) == repr(want.values)
        assert (f.kind, f.table.dtype) == (kind, dtype)
        assert mu_alpha_direct(gamma, f) is mu_alpha_direct(gamma, want)
        assert json.loads(json.dumps(_fn_payload(f))) == _fn_payload(want)


def test_value_table_integer_edges():
    """Integers give int64 exactly when every entry is within +-INT64_MAX,
    whatever numpy's own reading of the mix (it reads 2^63 with 1 as
    float64)."""
    for vals, dtype in (
        ([INT64_MAX, -INT64_MAX], np.int64),
        ([-INT64_MAX - 1, 1], object),
        ([INT64_MAX + 1, 1], object),
        ([np.uint64(INT64_MAX + 1), np.int64(1)], object),
        ([True, 2], np.int64),
    ):
        table = groups._value_table(vals)
        assert table.dtype == dtype and table.tolist() == [int(v) for v in vals]


def test_one_function_type():
    """GroupFn is the one function class, and no module rebuilds a function
    from the ``tolist`` of an array it already has."""
    src = pathlib.Path(__file__).resolve().parents[1] / "src" / "addcomb"
    offenders = [
        p.name
        for p in sorted(src.glob("*.py"))
        if "GridFn" in p.read_text() or re.search(r"GroupFn\([^)]*tolist", p.read_text())
    ]
    assert offenders == []


def test_array_born_functions_skip_value_table(monkeypatch):
    """A function computed as an array keeps it: correlate, dft, indicator,
    a column of the character table and the autocorrelations A ∘ A,
    Gamma ∘ Gamma and h ∘ h build no table through ``_value_table``."""
    from addcomb.subgroup import make_field, subgroup
    from addcomb.transform import correlate, dft

    g = CyclicGroup(12)
    f = GroupFn(g, [1, -2, 0, 3] * 3)
    h = GroupFn(g, [0, 1] * 6)
    a = gset(12, [0, 3, 4, 9])
    gamma = subgroup(make_field(13), 4)
    g4 = CyclicGroup(4)  # a character column as a function on Z/t
    calls = []
    real = groups._value_table
    monkeypatch.setattr(groups, "_value_table", lambda v: calls.append(v) or real(v))
    built = [correlate(f, h), dft(f), indicator(a), GroupFn(g4, gamma.character_table[:, 1]),
             a.autocorrelation, gamma.autocorrelation, h.autocorrelation]
    assert all(fn.table.size and fn.values for fn in built)
    assert calls == []


def test_group_set_validation():
    with pytest.raises(ValueError):
        GroupSet(CyclicGroup(5), (1, 1))
    with pytest.raises(ValueError):
        GroupSet(CyclicGroup(5), (5,))


def test_exact_operands_bound_at_int64_max():
    """The bound counts a repeated table once per occurrence: 49 * terms is
    exactly INT64_MAX, and three copies of a table of peak 2^20 over 8
    terms are one above it, though one copy would be far below."""
    t = np.array([7, -3, 0])
    terms = INT64_MAX // 49
    assert terms * 49 == INT64_MAX
    for out in _exact_operands((t, t), terms):
        assert out.dtype == np.int64
    big = np.array([-(2 ** 20), 5])
    out = _exact_operands((big, big, big), 8)
    assert all(o.dtype == object for o in out)
    assert out[0].tolist() == [-(2 ** 20), 5]
    assert type(out[0][0]) is int
    huge = np.array([2 ** 70, 1], dtype=object)
    assert _exact_operands((huge,), 1)[0].dtype == object
    assert _exact_operands((np.array([2 ** 62, 1], dtype=object),), 1)[0].dtype == np.int64


_SEVEN = np.array([7, -3, 0])
_PEAK_21 = np.array([-(2 ** 21), 5])
_INT64_MIN = np.array([-(2 ** 63), 0], dtype=np.int64)

# (operands, terms, dtype of each returned table): the dtypes at the commit
# before the call cost of _exact_operands was cut
EXACT_OPERAND_CASES = {
    "bound-int64-max": ((_SEVEN, _SEVEN), INT64_MAX // 49, ["int64"] * 2),
    "bound-int64-max-plus-1": ((_PEAK_21,) * 3, 1, ["object"] * 3),
    "bound-just-below-plus-1": ((_PEAK_21, _PEAK_21, np.array([2 ** 21 - 1])), 1, ["int64"] * 3),
    "peak-int64-max": ((np.array([INT64_MAX, 1]),), 1, ["int64"]),
    "peak-int64-min": ((_INT64_MIN,), 1, ["object"]),
    "peak-int64-max-plus-1-object": ((np.array([INT64_MAX + 1], dtype=object),), 1, ["object"]),
    "object-small": ((np.array([3, -4], dtype=object), _SEVEN), 2, ["int64"] * 2),
    "bool": ((np.array([True, False]), _SEVEN), 4, ["int64"] * 2),
    "bool-alone": ((np.array([True, True]),) * 2, 1, ["int64"] * 2),
    "empty": ((np.zeros(0, dtype=np.int64),), 5, ["int64"]),
    "float": ((np.array([0.5, 2.0]), _SEVEN), 2, ["float64"] * 2),
    "complex": ((_SEVEN, np.array([1j, 2])), 2, ["complex128"] * 2),
    "complex-and-float": ((np.array([0.5]), np.array([1j])), 1, ["complex128"] * 2),
    "repeated-among-others": ((_SEVEN, _PEAK_21, _SEVEN), 2 ** 15, ["int64"] * 3),
    "repeated-past-the-bound": ((_SEVEN, _PEAK_21, _SEVEN), 2 ** 37, ["object"] * 3),
}


@pytest.mark.parametrize("name", sorted(EXACT_OPERAND_CASES))
def test_exact_operands_dtype_table(name):
    """Each case gets the dtype it got before the call cost was cut; a
    repeated table comes back as one array, and every value is kept."""
    tables, terms, dtypes = EXACT_OPERAND_CASES[name]
    out = _exact_operands(tables, terms)
    assert [str(o.dtype) for o in out] == dtypes
    for t, o in zip(tables, out):
        assert o.tolist() == t.tolist()
    for i, j in itertools.combinations(range(len(tables)), 2):
        if tables[i] is tables[j]:
            assert out[i] is out[j]


def test_exact_operands_keeps_real_and_complex_tables():
    """Non-integer tables are never truncated to int64."""
    real = np.array([0.5, 2.25])
    ints = np.array([3, 4])
    for out in _exact_operands((real, ints), 2):
        assert out.dtype == np.float64
    assert _exact_operands((real, ints), 2)[0].tolist() == [0.5, 2.25]
    for out in _exact_operands((real, np.array([1j, 2])), 2):
        assert out.dtype == np.complex128


def test_one_int64_rule_lives_in_groups():
    """groups._exact_operands is the only int64-versus-Python-int decision:
    no other module names the int64 limit or makes object arrays."""
    src = pathlib.Path(__file__).resolve().parents[1] / "src" / "addcomb"
    modules = sorted(src.glob("*.py"))
    assert any(p.name == "groups.py" for p in modules)
    marks = ("INT64_MAX", "2 ** 63", "dtype=object", "astype(object)")
    offenders = [
        f"{p.name}: {mark}"
        for p in modules
        if p.name != "groups.py"
        for mark in marks
        if mark in p.read_text()
    ]
    assert offenders == []


def test_one_modulus_rule_lives_in_groups():
    """groups._require_same_group is the only same-modulus check and
    groups._check_cells the only comparison with the Gr^k cell cap: no
    other module compares the groups of two operands, and only config
    and groups name the cap."""
    src = pathlib.Path(__file__).resolve().parents[1] / "src" / "addcomb"
    modules = sorted(src.glob("*.py"))
    assert any(p.name == "groups.py" for p in modules)
    offenders = [
        f"{p.name}: {mark}"
        for p in modules
        for mark, home in ((".group !=", {"groups.py"}), (".group ==", {"groups.py"}),
                           ("TUPLE_CELL_CAP", {"config.py", "groups.py"}))
        if p.name not in home and mark in p.read_text()
    ]
    assert offenders == []


def test_value_kind_is_decided_only_in_groups():
    """groups._value_table is the only place that decides whether values
    are int, real or complex: every other module reads ``.kind`` or
    ``.table`` and scans no values for their type."""
    src = pathlib.Path(__file__).resolve().parents[1] / "src" / "addcomb"
    marks = ("any(isinstance(", "all(isinstance(", "dtype.kind")
    offenders = [
        f"{p.name}: {mark}"
        for p in sorted(src.glob("*.py"))
        if p.name != "groups.py"
        for mark in marks
        if mark in p.read_text()
    ]
    assert offenders == []
