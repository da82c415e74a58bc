"""Smoke test of the benchmark: every workload at a tiny size, plain and traced.

    python3 perfbench/test_smoke.py        (or: python3 -m pytest perfbench)

Checks that each run is correct, that it emits exactly the metrics named in
BENCHMARK.json with their units, that wrapping the layers leaves the output
digest unchanged, and that tracing restores every original binding.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def _units(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in BENCH[kind]}


def _check_workload(name: str) -> None:
    plain = run.measure(workloads.WORKLOADS[name](seed=3, tiny=True), 0.0, trace=False)
    traced = run.measure(workloads.WORKLOADS[name](seed=3, tiny=True), 0.0, trace=True)
    for out in (plain, traced):
        assert out["correct"], out
        assert out["failed"] == 0 and out["attempted"] >= 1
    assert plain["digest"] == traced["digest"]
    assert {k: m["unit"] for k, m in plain["metrics"].items()} == _units("end_to_end")
    assert {k: m["unit"] for k, m in traced["metrics"].items()} == _units("per_layer")
    assert all(m["value"] > 0 for m in plain["metrics"].values())
    assert traced["metrics"]["trace.overhead_s"]["value"] > 0
    for layer in ("energy", "groups", "verify", "cli"):
        mod = sys.modules[f"addcomb.{layer}"]
        assert not any(hasattr(v, "__wrapped__") for v in vars(mod).values()), layer
    assert not hasattr(sys.modules["addcomb.verify"].CheckSuite.record, "__wrapped__")


def test_verify():
    _check_workload("verify")


def test_scans():
    _check_workload("scans")


def test_large_instances():
    _check_workload("large-instances")


def test_workload_names_match_benchmark():
    assert set(workloads.WORKLOADS) == {w["name"] for w in BENCH["workloads"]}


if __name__ == "__main__":
    for fn in (test_workload_names_match_benchmark, test_verify, test_scans,
               test_large_instances):
        fn()
        print(f"{fn.__name__}: ok")
