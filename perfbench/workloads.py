"""The three benchmark workloads and the checks on their outputs.

A workload's ``prepare`` makes its inputs from the seed (this is the input
generation half of set-up) and returns its operations.  An operation is
``(name, call, check)``: ``call`` does the timed work through the addcomb
CLI or library, ``check`` validates the result outside the timed region and
returns the sha256 (hex) of the output it checked.  ``check``
raises ``Failure`` when an output is wrong.

Library entry points are looked up in ``sys.modules`` at call time, so a
traced run sees the wrapped functions.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import sys

import numpy as np

import addcomb.cli  # noqa: F401  (imports every layer module)
from addcomb.config import BITSET_LIMIT, TOL
from addcomb.groups import CyclicGroup, GroupSet
from addcomb.transform import GroupFn


class Failure(Exception):
    """An operation ran but its output is wrong."""


def _mod(layer: str):
    return sys.modules[f"addcomb.{layer}"]


def _cli(argv: list[str]) -> int:
    """addcomb.cli.main with its console output captured."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        try:
            rc = _mod("cli").main(argv)
        except SystemExit as exc:   # argparse errors exit instead of returning
            rc = exc.code if isinstance(exc.code, int) else 2
    if rc != 0:
        raise Failure(f"addcomb {argv[0]} exited {rc}: {out.getvalue()[-500:]}")
    return rc


# ---------------------------------------------------------------------------
# verify: the CLI report at its default sizes
# ---------------------------------------------------------------------------


class Verify:
    """``addcomb verify --seed S --json FILE`` at the CLI defaults."""

    name = "verify"

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.tiny = tiny
        self.extra = ["--trials", "3", "--primes", "7,13"] if tiny else []

    def prepare(self, workdir: str):
        path = os.path.join(workdir, "report.json")
        argv = ["verify", "--seed", str(self.seed), "--json", path] + self.extra

        def call():
            if os.path.exists(path):
                os.remove(path)
            return _cli(argv)

        def check(_rc):
            with open(path, "rb") as fh:
                raw = fh.read()
            report = json.loads(raw)
            halted = [s["name"] for s in report["suites"] if s["halted_at"]]
            if not report["pass"] or halted:
                raise Failure(f"verify report failed; halted suites: {halted}")
            return hashlib.sha256(raw).hexdigest()

        return [("verify", call, check)]


# ---------------------------------------------------------------------------
# scans: the README scans through the CLI, CSV into the work directory
# ---------------------------------------------------------------------------


SCANS = (
    # name, arguments; the seed is appended where the subcommand takes one.
    # subgroup-scan runs at --pmax 1500, not the README's 2000, so that one
    # pass fits a 30 s run (see README.md).
    ("subgroup-scan", ["--pmax", "1500"], True),
    ("level-profile", ["--p", "101", "--t", "20"], False),
    ("coverage-6gamma", ["--pmax", "300"], False),
    ("expansion-scan", ["--p", "101", "--t", "25", "--trials", "100"], True),
    ("convex-scan", ["--nmax", "512"], True),
    ("ap-scan", ["--pmax", "500"], False),
)

SCANS_TINY = {
    "subgroup-scan": ["--pmax", "60"],
    "coverage-6gamma": ["--pmax", "40"],
    "expansion-scan": ["--p", "101", "--t", "25", "--trials", "5"],
    "convex-scan": ["--nmax", "32"],
    "ap-scan": ["--pmax", "40"],
}


class Scans:
    """Every README scan plus doubling-stats on seeded integer sets."""

    name = "scans"

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.tiny = tiny

    def _doubling_sets(self) -> list[list[int]]:
        rng = random.Random(self.seed)
        count, size = (2, 20) if self.tiny else (48, 250)
        return [rng.sample(range(1, 10 ** 4), size) for _ in range(count)]

    def prepare(self, workdir: str):
        sets_path = os.path.join(workdir, "sets.txt")
        with open(sets_path, "w", encoding="utf-8") as fh:
            for s in self._doubling_sets():
                fh.write(" ".join(map(str, s)) + "\n")
        ops = []
        for name, args, seeded in SCANS:
            if self.tiny:
                args = SCANS_TINY.get(name, args)
            if seeded:
                args = args + ["--seed", str(self.seed)]
            ops.append(self._op(name, args, workdir))
        ops.append(self._op("doubling-stats", ["--file", sets_path], workdir))
        return ops

    @staticmethod
    def _op(name: str, args: list[str], workdir: str):
        path = os.path.join(workdir, f"{name}.csv")
        argv = [name] + args + ["--csv", path]

        def call():
            if os.path.exists(path):
                os.remove(path)
            return _cli(argv)

        def check(_rc):
            with open(path, "rb") as fh:
                raw = fh.read()
            if raw.count(b"\n") < 2:
                raise Failure(f"{name} wrote no rows")
            return hashlib.sha256(raw).hexdigest()

        return (name, call, check)


# ---------------------------------------------------------------------------
# large-instances: a seeded stream of single-instance library queries
# ---------------------------------------------------------------------------

# Each size runs through its range on a fixed schedule, the same for every
# seed, so runs with different seeds do the same amount of work; the seed
# makes the sets, functions and primes.  The ranges fit one pass of 100
# queries into about 20 s on the reference machine; see README.md.
LARGE_SIZES = {
    "full": {
        "queries": 100,
        "bitmask_n": (600, 1000), "bitmask_m": (24, 40),
        "fallback_n": (BITSET_LIMIT + 1, BITSET_LIMIT + 300), "fallback_m": (14, 20),
        "transform_n": (256, 512), "conv3_n": (24, 40),
        "spectral_m": (40, 64),
        "subgroup_p": (1000, 3000), "subgroup_t": (24, 48),
    },
    "tiny": {
        "queries": 8,
        "bitmask_n": (40, 64), "bitmask_m": (6, 10),
        "fallback_n": (BITSET_LIMIT + 1, BITSET_LIMIT + 20), "fallback_m": (3, 4),
        "transform_n": (16, 32), "conv3_n": (5, 8),
        "spectral_m": (6, 10),
        "subgroup_p": (50, 200), "subgroup_t": (4, 12),
    },
}

FAMILIES = ("counting", "transforms", "spectral", "subgroup")


def _is_prime(n: int) -> bool:
    return n > 1 and all(n % d for d in range(2, int(n ** 0.5) + 1))


def _close(got, want, rel: float) -> bool:
    got = np.asarray(got)
    want = np.asarray(want)
    scale = max(1.0, float(np.abs(want).max(initial=0.0)))
    return got.shape == want.shape and float(np.abs(got - want).max(initial=0.0)) <= rel * scale


def _int_digest(*values) -> str:
    """sha256 of the exact integer results of one query."""
    return hashlib.sha256(repr(values).encode()).hexdigest()


class LargeInstances:
    """Few big inputs through the same layers the verify battery uses."""

    name = "large-instances"

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.tiny = tiny
        self.sizes = LARGE_SIZES["tiny" if tiny else "full"]

    def _size(self, key: str, k: int, step: float = 0.6180339887) -> int:
        """The k-th size of a family: a low-discrepancy walk over the range."""
        lo, hi = self.sizes[key]
        return lo + round((hi - lo) * ((k * step) % 1.0))

    def prepare(self, workdir: str):
        rng = random.Random(self.seed)
        ops = []
        for i in range(self.sizes["queries"]):
            family = FAMILIES[i % len(FAMILIES)]
            k = i // len(FAMILIES)
            if family == "counting":
                side = "bitmask" if k % 2 == 0 else "fallback"
                n = self._size(f"{side}_n", k // 2)
                m = self._size(f"{side}_m", k // 2, 0.4142135624)
                a = GroupSet.of(CyclicGroup(n), rng.sample(range(n), m))
                ops.append((f"counting-{side}", *self._counting(a)))
            elif family == "transforms":
                n = self._size("transform_n", k)
                grp = CyclicGroup(n)
                f = GroupFn(grp, tuple(rng.randint(-3, 3) for _ in range(n)))
                g = GroupFn(grp, tuple(rng.randint(-3, 3) for _ in range(n)))
                a = GroupSet.of(grp, rng.sample(range(n), n // 4))
                nc = self._size("conv3_n", k, 0.4142135624)
                fs = [GroupFn(CyclicGroup(nc), tuple(rng.randint(-2, 2) for _ in range(nc)))
                      for _ in range(3)]
                ops.append(("transforms", *self._transforms(f, g, a, fs)))
            elif family == "spectral":
                m = self._size("spectral_m", k)
                grp = CyclicGroup(4 * m)
                a = GroupSet.of(grp, rng.sample(range(4 * m), m))
                h = GroupFn(grp, tuple(rng.randint(0, 1) for _ in range(4 * m)))
                if not any(h.values):
                    h = GroupFn.delta(grp, 0)
                ops.append(("spectral", *self._spectral(a, h)))
            else:
                t = self._size("subgroup_t", k)
                lo = self._size("subgroup_p", k, 0.4142135624)
                primes = [p for p in range(lo, 2 * lo) if (p - 1) % t == 0 and _is_prime(p)]
                ops.append(("subgroup", *self._subgroup(rng.choice(primes[:8]), t)))
        return ops

    @staticmethod
    def _counting(a: GroupSet):
        def call():
            E, G = _mod("energy"), _mod("groups")
            return (E.energy(a), E.energy_k(a, k=3), G.sumset(a, a),
                    E.shift_spread_sizes(a, "+"), E.shift_spread_sizes(a, "-"),
                    E.check_heart(a), E.check_katz_koester(a))

        def check(res):
            e2, e3, s2, sp_plus, sp_minus, heart, kk = res
            n = a.group.modulus
            mem = np.asarray(a.members, dtype=np.int64)
            counts = np.bincount(((mem[None, :] - mem[:, None]) % n).ravel(), minlength=n)
            if e2 != int((counts ** 2).sum()) or e3 != int((counts ** 3).sum()):
                raise Failure(f"energy mismatch at N={n}")
            if len(s2) != np.unique((mem[None, :] + mem[:, None]) % n).size:
                raise Failure(f"sumset size mismatch at N={n}")
            bad = [c.name for c in [heart, *kk] if not c.passed]
            if bad:
                raise Failure(f"inequality failed at N={n}: {bad[:3]}")
            return _int_digest(n, a.members, e2, e3, s2.members, sp_plus, sp_minus,
                               heart.lhs, heart.rhs, [(c.lhs, c.rhs) for c in kk])

        return call, check

    @staticmethod
    def _transforms(f: GroupFn, g: GroupFn, a: GroupSet, fs: list[GroupFn]):
        def call():
            T, E = _mod("transform"), _mod("energy")
            fh = T.dft(f)
            return (fh, T.idft(fh), T.convolve(f, g), T.correlate(f, g),
                    E.t_k(a, 3), T.gen_convolution(fs))

        def check(res):
            fh, back, conv, corr, tk, c3 = res
            n = f.group.modulus
            fv = np.asarray(f.values, dtype=np.int64)
            gv = np.asarray(g.values, dtype=np.int64)
            if not _close(fh.values, np.fft.fft(fv), TOL.dft_rel):
                raise Failure(f"dft disagrees with numpy.fft at N={n}")
            if not _close(back.values, fv, TOL.dft_rel):
                raise Failure(f"idft round trip disagrees at N={n}")
            x, y = np.arange(n)[:, None], np.arange(n)[None, :]
            if list(conv.values) != (gv[(x - y) % n] @ fv).tolist():
                raise Failure(f"convolution mismatch at N={n}")
            if list(corr.values) != (gv[(x + y) % n] @ fv).tolist():
                raise Failure(f"correlation mismatch at N={n}")
            return _int_digest(n, conv.values, corr.values, tk, c3.flat)

        return call, check

    @staticmethod
    def _spectral(a: GroupSet, h: GroupFn):
        def call():
            S = _mod("spectral")
            psi = S.correlation_kernel(h)
            op = S.build_restricted_operator(a, psi)
            return (op, S.eigendecompose(op), S.cycle_sums(a, psi, [3, 4, 5]),
                    S.first_eigenfunction_bounds(a, h), S.check_triangle_inequality(a, h))

        def check(res):
            op, spec, cycles, bounds, tri = res
            ref = np.linalg.eigvalsh(op.matrix)[::-1]
            if not _close(spec.eigenvalues, ref, TOL.spectrum_rel):
                raise Failure(f"Jacobi spectrum disagrees with eigvalsh at |A|={len(a)}")
            if not _close(bounds.mu0, ref[0], TOL.spectrum_rel):
                raise Failure(f"top eigenvalue disagrees with eigvalsh at |A|={len(a)}")
            for k, v in cycles.items():
                if not _close(v, float((ref ** k).sum()), TOL.cycle_rel):
                    raise Failure(f"cycle sum k={k} disagrees with eigvalsh")
            bad = [c.name for c in [*bounds.checks, tri] if not c.passed]
            if bad:
                raise Failure(f"spectral bound failed: {bad}")
            return _int_digest(a.group.modulus, a.members, sorted(cycles.items()), tri.lhs)

        return call, check

    @staticmethod
    def _subgroup(p: int, t: int):
        def call():
            S = _mod("subgroup")
            gamma = S.subgroup(S.make_field(p), t)
            g = S.subgroup_autocorrelation(gamma)
            return gamma, g, S.mu_alpha_direct(gamma, g), S.check_mu_vs_jacobi(gamma, g)

        def check(res):
            gamma, g, mus, vs_jacobi = res
            els = np.asarray(gamma.elements, dtype=np.int64)
            gv = np.asarray(g.values, dtype=np.int64)
            ref = np.linalg.eigvalsh(gv[(els[:, None] - els[None, :]) % p].astype(float))
            if not _close(sorted(m.real for m in mus.values), ref, TOL.spectrum_rel):
                raise Failure(f"mu_alpha disagrees with eigvalsh at p={p}, t={t}")
            if not vs_jacobi.passed:
                raise Failure(f"mu-vs-jacobi failed at p={p}, t={t}")
            return _int_digest(p, t, gamma.elements, g.values)

        return call, check


WORKLOADS = {w.name: w for w in (Verify, Scans, LargeInstances)}
