"""Span tracing of the addcomb layers, applied from outside the package.

Every public function of a layer module is rebound, in every ``addcomb.*``
namespace that holds it, to a wrapper that records a span (name, start,
end, parent).  Rebinding every namespace matters because modules copy
bindings with ``from .energy import ...``.  Two methods are patched on
their class.  ``Tracer.restore`` puts every original binding back.

Self time is a span's duration minus the durations of the wrapped spans it
directly contains, so each second is charged to exactly one function.
Helpers called millions of times per verify run are left unwrapped; their
time lands in the caller's self time.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import sys
import time

LAYERS = ("groups", "transform", "energy", "spectral", "subgroup",
          "experiments", "verify", "cli")

# per-function metrics are reported for these (layer -> function names)
NAMED = {
    "groups": ("sumset", "intersect_shifts", "diag_shift_size"),
    "transform": ("dft", "convolve", "correlate", "gen_convolution",
                  "check_commutation"),
    "energy": ("correlation_counts", "shift_spread_sizes", "weight_counts",
               "energy", "energy_k", "check_katz_koester", "check_heart",
               "check_heart_triple", "check_weight_inequality",
               "check_energy_weight_a", "check_energy_weight_b",
               "check_level_thresholds", "check_membership_identity"),
    "spectral": ("build_restricted_operator", "jacobi_eigh", "top_eigenpair",
                 "cycle_sums", "triangle_sum"),
    "subgroup": ("make_field", "subgroup_autocorrelation", "mu_alpha_direct",
                 "check_eigenbasis", "check_mu_vs_jacobi",
                 "check_tk_characters", "check_exact_fourier"),
    "experiments": ("autocorrelation_np", "sumset_size_np", "subgroup_scan",
                    "coverage_scan", "convex_scan", "progression_batch",
                    "doubling_stats", "write_csv"),
    "verify": ("run_identity_suite", "run_inequality_suite",
               "run_subgroup_suite", "CheckSuite.record", "Report.to_json"),
}

# (layer, class, method) patched on the class
METHODS = (("verify", "CheckSuite", "record"), ("verify", "Report", "to_json"))

# millions of calls per verify run: wrapping them would swamp the trace
HOT = {("groups", "mask_shift_minus"), ("groups", "full_mask")}

SUITES = ("run_identity_suite", "run_inequality_suite", "run_subgroup_suite")


def _work_jacobi(args, kwargs):
    n = len(args[0] if args else kwargs["matrix"])
    return n ** 3


def _work_pairs(args, kwargs):
    return len(args[0]) * len(args[1])


def _work_points(args, kwargs):
    n = (args[0] if args else kwargs["f"]).group.modulus
    return n * n


# work counted from the call arguments: (layer, function) -> (metric, fn)
WORK = {
    ("spectral", "jacobi_eigh"): ("n3", _work_jacobi),
    ("experiments", "sumset_size_np"): ("pairs", _work_pairs),
    ("transform", "dft"): ("points", _work_points),
}

# share of calls whose (hashable) arguments were already seen in the run
REPEAT = {("energy", "shift_spread_sizes"), ("energy", "correlation_counts"),
          ("subgroup", "make_field")}


def metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, in a fixed order."""
    names = []
    for layer in LAYERS:
        names += [f"{layer}.calls", f"{layer}.self_s"]
    for layer, fns in NAMED.items():
        for fn in fns:
            names += [f"{layer}.{fn}.calls", f"{layer}.{fn}.self_s"]
    names += [f"verify.{s}.total_s" for s in SUITES]
    names += [f"{layer}.{fn}.{m}" for (layer, fn), (m, _) in WORK.items()]
    names += [f"{layer}.{fn}.repeat_frac" for layer, fn in sorted(REPEAT)]
    names.append("trace.overhead_s")
    return names


def metric_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(".repeat_frac"):
        return "ratio"
    return "count"


def _targets():
    """(layer, qualified name, owner, attribute, function) to wrap."""
    out = []
    for layer in LAYERS:
        mod = sys.modules[f"addcomb.{layer}"]
        for name, obj in vars(mod).items():
            if (name.startswith("_") or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__
                    or inspect.isgeneratorfunction(obj)
                    or (layer, name) in HOT):
                continue
            out.append((layer, name, None, name, obj))
    for layer, cls_name, meth in METHODS:
        cls = getattr(sys.modules[f"addcomb.{layer}"], cls_name)
        out.append((layer, f"{cls_name}.{meth}", cls, meth, vars(cls)[meth]))
    return out


class Tracer:
    """Wraps the layers on ``install`` and unwraps them on ``restore``."""

    def __init__(self):
        self.names: list[tuple[str, str]] = []   # fid -> (layer, name)
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.total_s: list[float] = []
        self.work: dict[int, int] = {}
        self.seen: dict[int, set] = {}
        self.repeats: dict[int, int] = {}
        self.key_s = 0.0
        self.spans: list = []
        self._stack: list[list] = []   # [span index, child seconds]
        self._undo: list = []
        self._span_cost = 0.0

    # -- wrapping ---------------------------------------------------------

    def _wrapper(self, fid: int, fn):
        layer_name = self.names[fid]
        work = WORK.get(layer_name)
        work_fn = work[1] if work else None
        sig = inspect.signature(fn) if layer_name in REPEAT else None
        spans, stack = self.spans, self._stack
        calls, self_s, total_s = self.calls, self.self_s, self.total_s
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            if work_fn is not None:
                self.work[fid] += work_fn(args, kwargs)
            if sig is not None:
                self._note_repeat(fid, sig, args, kwargs)
            idx = len(spans)
            parent = stack[-1][0] if stack else -1
            spans.append(None)
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                spans[idx] = (fid, t0, t1, parent)
                calls[fid] += 1
                self_s[fid] += dur - frame[1]
                total_s[fid] += dur

        return wrapped

    def _note_repeat(self, fid, sig, args, kwargs) -> None:
        t0 = time.perf_counter()
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        key = tuple(bound.arguments.values())
        seen = self.seen[fid]
        if key in seen:
            self.repeats[fid] += 1
        else:
            seen.add(key)
        self.key_s += time.perf_counter() - t0

    def _register(self, layer: str, name: str) -> int:
        fid = len(self.names)
        self.names.append((layer, name))
        self.calls.append(0)
        self.self_s.append(0.0)
        self.total_s.append(0.0)
        self.work[fid] = 0
        self.seen[fid] = set()
        self.repeats[fid] = 0
        return fid

    def install(self) -> None:
        self._calibrate()
        mods = [m for k, m in list(sys.modules.items())
                if m is not None and (k == "addcomb" or k.startswith("addcomb."))]
        for layer, name, owner, attr, fn in _targets():
            wrapped = self._wrapper(self._register(layer, name), fn)
            if owner is not None:
                setattr(owner, attr, wrapped)
                self._undo.append((owner, attr, fn))
                continue
            for mod in mods:
                for key, val in list(vars(mod).items()):
                    if val is fn:
                        setattr(mod, key, wrapped)
                        self._undo.append((mod, key, fn))

    def restore(self) -> None:
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo.clear()

    def _calibrate(self, n: int = 20000) -> None:
        """Cost of one span, from wrapping a no-op in this process."""
        def noop():
            return None

        fid = self._register("trace", "noop")
        wrapped = self._wrapper(fid, noop)
        clock = time.perf_counter
        t0 = clock()
        for _ in range(n):
            noop()
        plain = clock() - t0
        t0 = clock()
        for _ in range(n):
            wrapped()
        traced = clock() - t0
        self._span_cost = max(0.0, (traced - plain) / n)
        del self.spans[:]
        self.calls[fid] = 0

    # -- results ----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        by_name = {nm: fid for fid, nm in enumerate(self.names)}
        out: dict[str, float] = {}
        for layer in LAYERS:
            fids = [f for f, (lay, _) in enumerate(self.names) if lay == layer]
            out[f"{layer}.calls"] = sum(self.calls[f] for f in fids)
            out[f"{layer}.self_s"] = sum(self.self_s[f] for f in fids)
        for layer, fns in NAMED.items():
            for fn in fns:
                fid = by_name[(layer, fn)]
                out[f"{layer}.{fn}.calls"] = self.calls[fid]
                out[f"{layer}.{fn}.self_s"] = self.self_s[fid]
        for s in SUITES:
            out[f"verify.{s}.total_s"] = self.total_s[by_name[("verify", s)]]
        for key, (m, _) in WORK.items():
            out[f"{key[0]}.{key[1]}.{m}"] = self.work[by_name[key]]
        for key in sorted(REPEAT):
            fid = by_name[key]
            calls = self.calls[fid]
            out[f"{key[0]}.{key[1]}.repeat_frac"] = (
                self.repeats[fid] / calls if calls else 0.0)
        out["trace.overhead_s"] = len(self.spans) * self._span_cost + self.key_s
        return out

    def write_spans(self, path) -> None:
        """One line per span: name,start,end,parent (parent -1 at the root)."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("name,start,end,parent\n")
            for fid, t0, t1, parent in self.spans:
                layer, name = self.names[fid]
                fh.write(f"{layer}.{name},{t0:.9f},{t1:.9f},{parent}\n")
