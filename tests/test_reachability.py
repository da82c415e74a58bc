"""Every function and class member of the package is reached by a product.

The products are the ``verify`` report and the scan CSVs.  This runs each
of them once through ``cli.main`` at a small size under ``sys.setprofile``
and fails on any function defined at module level in ``src/addcomb/*.py``,
or any method or property defined in a class there (dunders included),
that was never called, unless ``ALLOWED`` or ``MEMBERS_ALLOWED`` names it
with a reason.  A function that only tests reach is code to delete, or a
check to promote to a ``verify`` row.  The small sizes reach the same
functions as the documented ones: only the loop counts differ.
"""

import ast
import contextlib
import importlib
import io
import pathlib
import sys

import pytest

import addcomb.cli as cli

SRC = pathlib.Path(cli.__file__).resolve().parent

# (module, function) -> why it stays although no product calls it
PERFBENCH = "perfbench large-instances calls or traces it by name"
PROMOTE = "checks a statement of the paper; a verify-row candidate for the next report version"
ALLOWED = {
    ("groups", "intersect_shifts"): PERFBENCH,
    ("energy", "correlation_counts"): PERFBENCH,
    ("energy", "shift_spread_sizes"): PERFBENCH,
    ("energy", "weight_counts"): PERFBENCH,
    ("energy", "t_k"): PERFBENCH,
    ("transform", "kfold_convolve"): "energy.t_k counts through it",
    ("spectral", "check_traces"): PROMOTE,
    ("subgroup", "_check_exact_fourier_c3"): PROMOTE,
    ("energy", "energy_k_shift_sum"): PROMOTE,
}
# (module, class.member) -> why it stays although no product reaches it
MEMBERS_ALLOWED = {
    ("groups", "GroupFn.flat"): "perfbench large-instances reads it",
    ("verify", "CheckFailure.__init__"): "raised only by a failing check, which a passing run never records",
    ("groups", "GroupFn.delta"): "verify's kernel factor when all draws of h are 0, which the runs never draw",
}


def _product_runs(tmp):
    sets = tmp / "sets.txt"
    sets.write_text("1 2 3 5 8 13\n4 9 16 25 36\n", encoding="utf-8")
    return [
        ["verify", "--trials", "3", "--primes", "7,13", "--json", str(tmp / "report.json")],
        ["subgroup-scan", "--pmax", "60"],
        ["level-profile", "--p", "101", "--t", "20"],
        ["coverage-6gamma", "--pmax", "40"],
        ["expansion-scan", "--p", "101", "--t", "25", "--trials", "5"],
        ["convex-scan", "--nmax", "32"],
        ["convex-scan", "--nmax", "32", "--generator", "perturbed"],
        ["ap-scan", "--pmax", "40", "--csv", str(tmp / "ap.csv")],
        ["doubling-stats", "--file", str(sets)],
    ]


def _called_codes(runs):
    called = set()

    def profile(frame, event, _arg):
        if event == "call":
            called.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        for argv in runs:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                rc = cli.main(argv)
            assert rc == 0, argv
    finally:
        sys.setprofile(previous)
    return called


@pytest.fixture(scope="module")
def called(tmp_path_factory):
    return _called_codes(_product_runs(tmp_path_factory.mktemp("products")))


def _modules():
    """(module stem, module, parsed body) for every package module."""
    for path in sorted(SRC.glob("*.py")):
        name = "addcomb" if path.stem == "__init__" else f"addcomb.{path.stem}"
        yield path.stem, importlib.import_module(name), ast.parse(path.read_text(encoding="utf-8")).body


def _module_functions():
    """(module, name, code) for every ``def`` at the top of a package module."""
    for stem, mod, body in _modules():
        for node in body:
            if isinstance(node, ast.FunctionDef):
                yield stem, node.name, getattr(mod, node.name).__code__


def _class_members():
    """(module, "Class.member", code) for every ``def`` in a class at the
    top of a package module: the code a call, or a read of a property or
    cached property, runs."""
    for stem, mod, body in _modules():
        for node in body:
            if isinstance(node, ast.ClassDef):
                attrs = vars(getattr(mod, node.name))
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        member = attrs[item.name]
                        for unwrap in ("fget", "func", "__func__"):
                            member = getattr(member, unwrap, member)
                        yield stem, f"{node.name}.{item.name}", member.__code__


def _assert_reached(defined, allowed, called, what):
    unreached = {(mod, name) for mod, name, code in defined if code not in called}
    extra = sorted(f"{m}.{n}" for m, n in unreached - allowed.keys())
    assert not extra, f"{what} no product reaches: {extra}"
    # an allowed name that a product now reaches, or that is gone, leaves the list
    stale = sorted(f"{m}.{n}" for m, n in allowed.keys() - unreached)
    assert not stale, f"allow-list entries no longer unreached: {stale}"


def test_every_module_function_is_reached_by_a_product(called):
    _assert_reached(_module_functions(), ALLOWED, called, "functions")


def test_every_class_member_is_reached_by_a_product(called):
    _assert_reached(_class_members(), MEMBERS_ALLOWED, called, "class members")
