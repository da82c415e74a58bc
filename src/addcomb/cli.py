"""Command-line entry points: the verification battery and experiment scans.

Exit status is 0 when every asserted check passes and 1 when a check fails
or a scan has no rows; bad input prints one ``addcomb: error:`` line and
exits 2.  CSV goes to --csv (stdout default); the verify report serializes
to --json.
"""

from __future__ import annotations

import argparse
import sys

from . import __version__
from .experiments import (
    convex_scan,
    coverage_scan,
    doubling_stats,
    expansion_scan,
    level_set_profile,
    progression_batch,
    subgroup_scan,
    write_csv,
    write_rows,
)
from .verify import run_all, validate_suite_primes


def _emit_rows(rows, out_path: str | None, empty: str = "no rows") -> int:
    """Write the rows as CSV; an empty result prints ``empty`` and gives 1."""
    if not rows:
        print(empty, file=sys.stderr)
        return 1
    if out_path:
        write_csv(out_path, rows)
    else:
        write_rows(sys.stdout, rows)
    return 0


def _cmd_verify(args) -> int:
    try:
        primes = [int(p) for p in args.primes.split(",")]
    except ValueError:
        raise ValueError(
            f"--primes must be comma-separated integers, got {args.primes!r}"
        ) from None
    # reject the list, the trial count and the report path before the long
    # suites run
    primes = validate_suite_primes(primes)
    if args.trials < 0:
        raise ValueError(f"--trials must be >= 0, got {args.trials}")
    if args.json:
        open(args.json, "w", encoding="utf-8").close()
    report = run_all(args.seed, args.trials or 200, args.trials or 1000, primes)
    for s in report.suites:
        status = "pass" if s.passed else f"FAIL at {s.halted or 'checks'}"
        print(
            f"{s.name}: {s.n_checks} checks, {s.n_failed} failed, "
            f"{s.runtime:.1f}s [{status}]"
        )
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(report.to_json())
    return 0 if report.passed else 1


def _cmd_subgroup_scan(args) -> int:
    rows = subgroup_scan(args.pmax, args.tmin, args.tmax)
    if _emit_rows(rows, args.csv, "no subgroups in range"):
        return 1
    finite = [r.ratio_52 for r in rows if r.ratio_52 is not None]
    print(f"rows: {len(rows)}, worst ratio_52: {max(finite):.6g}", file=sys.stderr)
    return 0


def _cmd_level_profile(args) -> int:
    return _emit_rows(level_set_profile(args.p, args.t), args.csv,
                      "no super-threshold values")


def _cmd_coverage(args) -> int:
    return _emit_rows(coverage_scan(args.pmax, args.cap), args.csv)


def _cmd_expansion(args) -> int:
    return _emit_rows(expansion_scan(args.p, args.t, args.trials, args.seed), args.csv)


def _cmd_convex_scan(args) -> int:
    sizes = []
    n = 4
    while n < args.nmax:
        sizes.append(n)
        n *= 2
    sizes.append(args.nmax)
    return _emit_rows(convex_scan(sizes, args.generator, args.seed), args.csv)


def _cmd_doubling(args) -> int:
    rows = []
    with open(args.file, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            vals = [int(v) for v in line.replace(",", " ").split()]
            rows.append(doubling_stats(vals, args.shift))
    return _emit_rows(rows, args.csv, "no sets found")


def _cmd_ap_scan(args) -> int:
    return _emit_rows(progression_batch(args.pmax), args.csv, "no subgroups in range")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="addcomb",
        description="exact additive-combinatorics checks and experiments",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run the full check battery")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--trials", type=int, default=0,
                   help="override trial counts (default 200 identity / 1000 inequality)")
    p.add_argument("--json", help="write the machine-readable report here")
    p.add_argument("--primes", default="7,13,31,101",
                   help="comma-separated primes for the subgroup suite")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("subgroup-scan", help="energy/sumset scan over subgroups")
    p.add_argument("--pmax", type=int, required=True)
    p.add_argument("--tmin", type=int, default=1)
    p.add_argument("--tmax", type=int, default=None)
    p.add_argument("--seed", type=int, default=1,
                   help="accepted and unused: every row is exact and deterministic")
    p.add_argument("--csv")
    p.set_defaults(func=_cmd_subgroup_scan)

    p = sub.add_parser("level-profile", help="dyadic autocorrelation profile")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--csv")
    p.set_defaults(func=_cmd_level_profile)

    p = sub.add_parser("coverage-6gamma", help="iterated-sumset coverage scan")
    p.add_argument("--pmax", type=int, required=True)
    p.add_argument("--cap", type=int, default=12)
    p.add_argument("--csv")
    p.set_defaults(func=_cmd_coverage)

    p = sub.add_parser("expansion-scan", help="|A + Gamma| expansion ratios")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--csv")
    p.set_defaults(func=_cmd_expansion)

    p = sub.add_parser("convex-scan", help="convex sequence energy scan")
    p.add_argument("--nmax", type=int, required=True)
    p.add_argument("--generator", choices=("squares", "perturbed"), default="squares")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--csv")
    p.set_defaults(func=_cmd_convex_scan)

    p = sub.add_parser("doubling-stats", help="product-set statistics from a file")
    p.add_argument("--file", required=True,
                   help="one integer set per line, comma or space separated")
    p.add_argument("--shift", type=int, default=1)
    p.add_argument("--csv")
    p.set_defaults(func=_cmd_doubling)

    p = sub.add_parser("ap-scan", help="longest progressions inside subgroups")
    p.add_argument("--pmax", type=int, required=True)
    p.add_argument("--csv")
    p.set_defaults(func=_cmd_ap_scan)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        # the library raises ValueError only for arguments it rejects;
        # OSError is an input or output file that cannot be opened
        print(f"addcomb: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
