"""Benchmark of addcomb: runs one workload in this process and reports it.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 30 --trace 0

Workloads: verify, scans, large-instances (see README.md).  The timed
phase repeats whole passes over the workload's operations, one at a time
(closed loop, one client), while the previous pass would still fit in
--seconds; it always makes at least one pass.  With --trace 1 it makes
exactly one pass with every layer wrapped and reports per-layer metrics.

End-to-end times are scaled to a reference CPU speed measured by a probe
during the same interval (speedprobe.py); the raw wall time is printed too.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

from speedprobe import REF_PROBE_S, SpeedProbe, pin_to_one_cpu

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_REPS = 5

IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import addcomb.cli; print(time.perf_counter() - t)"
)


def cap_thread_pools() -> None:
    """Cap BLAS and OpenMP pools at nproc before numpy is imported."""
    n = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        os.environ[var] = n


def import_seconds() -> float:
    """Import time of the package in a fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                         capture_output=True, text=True, check=True, timeout=120)
    return float(out.stdout.strip())


def quantile(values: list[float], q: float) -> float:
    """Linear interpolation between the closest ranks."""
    vals = sorted(values)
    pos = q * (len(vals) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(vals) - 1)
    return vals[lo] + (vals[hi] - vals[lo]) * (pos - lo)


def run_passes(ops, seconds: float, one_pass: bool) -> dict:
    """Closed loop over the operations; every operation is guarded.

    Returns the (start, end) interval of each pass and of each operation
    call that returned, the counts, and the output digest.
    """
    from workloads import Failure

    clock = time.perf_counter
    calls: list[tuple[float, float]] = []
    passes: list[tuple[float, float]] = []
    digests: dict[int, str] = {}
    attempted = failed = 0
    deadline = clock() + seconds
    while True:
        start_pass = clock()
        for i, (name, call, check) in enumerate(ops):
            attempted += 1
            start = clock()
            try:
                result = call()
                calls.append((start, clock()))
                digest = check(result)
                if digests.setdefault(i, digest) != digest:
                    raise Failure(f"{name}: output changed between passes")
            except Exception:  # one failed operation must not end the run
                failed += 1
                print(f"operation {i} ({name}) failed:", file=sys.stderr)
                traceback.print_exc()
        end = clock()
        passes.append((start_pass, end))
        if one_pass or end + (end - start_pass) > deadline:
            break
    digest = None
    if len(digests) == len(ops):
        hexes = [digests[i] for i in range(len(ops))]
        digest = hexes[0] if len(hexes) == 1 else hashlib.sha256(
            "\n".join(hexes).encode()).hexdigest()
    return {"calls": calls, "passes": passes, "attempted": attempted,
            "failed": failed, "digest": digest}


def recorded_digest(workload) -> str | None:
    """The output digest recorded for this workload and seed, if any."""
    if workload.tiny:
        return None
    with open(HERE / "reference.json", encoding="utf-8") as fh:
        ref = json.load(fh)
    return ref["digests"].get(workload.name, {}).get(str(workload.seed))


def measure(workload, seconds: float, trace: bool) -> dict:
    """Set up, run and check one workload.

    Returns the result object (correct, attempted, failed, metrics) plus the
    output digest, the recorded digest, the pass count and the raw times.
    """
    from tracing import Tracer, metric_names, metric_unit

    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT)
    probe = SpeedProbe()
    tracer = Tracer() if trace else None
    try:
        setups = []
        for _ in range(1 if trace else SETUP_REPS):
            for _ in range(3):
                probe.sample()
            t0 = time.perf_counter()
            imp = 0.0 if trace else import_seconds()
            t1 = time.perf_counter()
            ops = workload.prepare(workdir)
            t2 = time.perf_counter()
            for _ in range(3):
                probe.sample()
            setups.append((imp + t2 - t1) * REF_PROBE_S / probe.mean(t0, t2, pad=0.05))
        if tracer:
            tracer.install()
            try:
                res = run_passes(ops, seconds, one_pass=True)
            finally:
                tracer.restore()
        else:
            with probe:
                res = run_passes(ops, seconds, one_pass=False)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    raw_wall = statistics.median(t1 - t0 for t0, t1 in res["passes"])
    if tracer:
        values = tracer.metrics()
        metrics = {k: {"value": values[k], "unit": metric_unit(k)} for k in metric_names()}
        spans = OUT / f"spans-{workload.name}-seed{workload.seed}.csv.gz"
        tracer.write_spans(spans)
        print(f"{len(tracer.spans)} spans written to {spans}")
    else:
        lat = [probe.corrected(t0, t1) for t0, t1 in res["calls"]] or [0.0]
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": statistics.median(
                probe.corrected(t0, t1) for t0, t1 in res["passes"]), "unit": "s"},
            "query_p50_s": {"value": quantile(lat, 0.5), "unit": "s"},
            "query_p90_s": {"value": quantile(lat, 0.9), "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MB"},
        }
    known = recorded_digest(workload)
    correct = (res["failed"] == 0 and res["digest"] is not None
               and known in (None, res["digest"]))
    return {"correct": correct, "attempted": res["attempted"], "failed": res["failed"],
            "metrics": metrics, "digest": res["digest"], "recorded": known,
            "passes": len(res["passes"]), "raw_wall_s": raw_wall,
            "probe_ms": probe.mean() * 1e3}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("verify", "scans", "large-instances"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "addcomb" / "__init__.py").is_file():
        print(f"addcomb sources not found under {SRC}", file=sys.stderr)
        return 2
    pin_to_one_cpu()
    cap_thread_pools()
    sys.path.insert(0, str(SRC))
    import workloads

    out = measure(workloads.WORKLOADS[args.workload](args.seed), args.seconds,
                  bool(args.trace))
    print(f"workload {args.workload} seed {args.seed}: {out['passes']} pass(es), "
          f"{out['attempted']} operations, {out['failed']} failed, "
          f"error_rate {out['failed'] / out['attempted']:.4f}")
    print(f"output digest {out['digest']} (recorded: {out['recorded']})")
    print(f"raw wall time per pass {out['raw_wall_s']:.4g} s, mean probe "
          f"{out['probe_ms']:.4g} ms (reference {REF_PROBE_S * 1e3:.4g} ms)")
    for k, m in out["metrics"].items():
        print(f"  {k} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({k: out[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
