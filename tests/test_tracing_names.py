"""Every function the benchmark's tracer reports on by name exists.

``perfbench/tracing.py`` reports per-function metrics for the names in
``NAMED``, ``METHODS``, ``WORK``, ``REPEAT`` and ``SUITES``.  A name that is
not among the functions the tracer wraps (public functions defined in their
``addcomb`` module, plus ``METHODS``) breaks those metrics, so each one is
checked here.  The tracer module is loaded from its file and only read.
"""

import importlib.util
import pathlib

import addcomb.cli  # noqa: F401  (imports every layer module)

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_traced_names_resolve_to_package_functions():
    tracing = _tracing()
    wrapped = {(layer, name) for layer, name, *_ in tracing._targets()}
    names = [(layer, fn) for layer, fns in tracing.NAMED.items() for fn in fns]
    names += [(layer, f"{cls}.{meth}") for layer, cls, meth in tracing.METHODS]
    names += list(tracing.WORK) + sorted(tracing.REPEAT)
    names += [("verify", s) for s in tracing.SUITES]
    missing = [f"{layer}.{name}" for layer, name in names if (layer, name) not in wrapped]
    assert not missing, f"traced names with no function behind them: {missing}"
