"""Spans and work counters recorded around the library's public functions.

The library is not modified. Tracer.install() replaces each traced function
(in its module, in every liyau module that imported it by name, or on its
class) with a wrapper that records a span -- name, start, end and the span
that called it -- and passes arguments and results through unchanged;
uninstall() restores the originals. Spans stay in memory until the pass
ends. A span's self time is its duration minus its children's durations, so
with one root span the self times of all spans sum to the root's duration.

FFTs are counted at the public numpy.fft and scipy.fft functions. Their
flops (5 N log2 N complex, half that for real transforms) and bytes (input
plus output arrays) are computed from the shapes, not measured.
"""
from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import math
import sys
import time
from collections import defaultdict

import numpy as np

from workloads import CONSTANT_CASES, GRID_SIZES

HOOK = "trace.hook"      # counter bookkeeping, kept out of the layers' spans
INTEGRAND = "singular.integrand"  # the caller's F / F2 inside weighted_singular
ROOT = "bench.pass"
CHECK = "bench.check"

# (module, attribute, span name); "Class.method" patches the class
TARGETS = (
    ("liyau.fraclap", "solve_fractional", "fraclap.solve_fractional"),
    ("liyau.fraclap", "frac_laplacian_point", "fraclap.frac_laplacian_point"),
    ("liyau.fraclap", "dt_log_u", "fraclap.dt_log_u"),
    ("liyau.stable", "eval_G", "stable.eval_G"),
    ("liyau.stable", "build_profile", "stable.build_profile"),
    ("liyau.stable", "StableDensityProfile.exceedance", "stable.exceedance"),
    ("liyau.stable", "StableDensityProfile.mass", "stable.mass"),
    ("liyau.singular", "weighted_singular", "singular.weighted_singular"),
    ("liyau.fields", "GridField.point_expansion", "fields.point_expansion"),
    ("liyau.fields", "GridField.log", "fields.log"),
    ("liyau.fields", "GridField.eval", "fields.eval"),
    ("liyau.ops", "psi_upsilon_continuous", "ops.psi_upsilon_continuous"),
    ("liyau.constant", "J_of_y", "constant.J_of_y"),
    ("liyau.constant", "liyau_constant_numeric", "constant.liyau_constant_numeric"),
    ("liyau.constant", "constant_for", "constant.constant_for"),
    ("liyau.markov", "transition_matrix", "markov.transition_matrix"),
    ("liyau.harnack", "harnack_check_kn", "harnack.harnack_check_kn"),
    ("liyau.harnack", "harnack_check_fractional", "harnack.harnack_check_fractional"),
    ("liyau.verify", "sweep_fractional_liyau", "verify.sweep_fractional_liyau"),
    ("liyau.verify", "sweep_dh_consistency", "verify.sweep_dh_consistency"),
    ("liyau.verify", "reduction_theorem_check_discrete",
     "verify.reduction_theorem_check_discrete"),
    ("liyau.runio", "write_csv", "runio.write"),
    ("liyau.runio", "write_json_report", "runio.write"),
    ("liyau.runio", "RunManifest.write", "runio.write"),
    ("liyau.cli", "main", "cli.main"),
)
FFT_MODULES = ("numpy.fft", "scipy.fft")
FFT_FUNCTIONS = ("fft", "ifft", "rfft", "irfft", "hfft", "ihfft", "fft2", "ifft2",
                 "rfft2", "irfft2", "fftn", "ifftn", "rfftn", "irfftn")
REAL_FFTS = {"rfft", "irfft", "hfft", "ihfft", "rfft2", "irfft2", "rfftn", "irfftn"}

def _case(beta: float, d: int) -> str:
    return f"b{beta:g}_d{d}"


# (name, unit, better) of every per-layer metric, in report order
PER_LAYER = (
    [("fraclap.solve_fractional.calls", "count", "lower"),
     ("fraclap.solve_fractional.self_s", "s", "lower"),
     ("fraclap.solve_fractional.p50_ms", "ms", "lower"),
     ("fraclap.solve_fractional.points", "count", "lower")]
    + [(f"fraclap.solve_fractional.p50_ms.n{n}", "ms", "lower") for n in GRID_SIZES]
    + [("fraclap.kernel_reuse_frac", "ratio", "higher"),
       ("fraclap.solve_repeat_frac", "ratio", "lower"),
       ("fraclap.frac_laplacian_point.calls", "count", "lower"),
       ("fraclap.frac_laplacian_point.self_s", "s", "lower"),
       ("fraclap.frac_laplacian_point.p50_us", "us", "lower")]
    + [(f"fraclap.frac_laplacian_point.p50_us.n{n}", "us", "lower") for n in GRID_SIZES]
    + [("fraclap.dt_log_u.calls", "count", "lower"),
       ("fraclap.dt_log_u.self_s", "s", "lower"),
       ("stable.eval_G.calls", "count", "lower"),
       ("stable.eval_G.self_s", "s", "lower"),
       ("stable.exceedance.calls", "count", "lower"),
       ("stable.exceedance.self_s", "s", "lower"),
       ("stable.mass.calls", "count", "lower"),
       ("stable.build_profile.calls", "count", "lower"),
       ("stable.build_profile.self_s", "s", "lower")]
    + [(f"stable.build_profile.p50_ms.{_case(b, d)}", "ms", "lower")
       for b, d in CONSTANT_CASES]
    + [("fft.calls", "count", "lower"),
       ("fft.points", "count", "lower"),
       ("fft.self_s", "s", "lower"),
       ("fft.flops_computed", "flop", "lower"),
       ("fft.bytes_computed", "B", "lower"),
       ("fft.useful_frac", "ratio", "higher"),
       ("singular.weighted_singular.calls", "count", "lower"),
       ("singular.weighted_singular.self_s", "s", "lower"),
       ("singular.weighted_singular.diverged", "count", "lower"),
       ("singular.integrand_evals", "count", "lower"),
       ("singular.integrand_points", "count", "lower"),
       ("singular.integrand.self_s", "s", "lower"),
       ("fields.point_expansion.calls", "count", "lower"),
       ("fields.point_expansion.self_s", "s", "lower"),
       ("fields.log.calls", "count", "lower"),
       ("fields.log.self_s", "s", "lower"),
       ("fields.eval.calls", "count", "lower"),
       ("fields.eval.self_s", "s", "lower"),
       ("ops.psi_upsilon_continuous.calls", "count", "lower"),
       ("ops.psi_upsilon_continuous.self_s", "s", "lower"),
       ("constant.J_of_y.calls", "count", "lower"),
       ("constant.J_of_y.self_s", "s", "lower"),
       ("constant.J_of_y.p50_ms", "ms", "lower"),
       ("constant.liyau_constant_numeric.calls", "count", "lower"),
       ("constant.liyau_constant_numeric.self_s", "s", "lower")]
    + [(f"constant.liyau_constant_numeric.p50_ms.{_case(b, d)}", "ms", "lower")
       for b, d in CONSTANT_CASES]
    + [("constant.constant_for.calls", "count", "lower"),
       ("constant.constant_for.hit_frac", "ratio", "higher"),
       ("markov.transition_matrix.calls", "count", "lower"),
       ("markov.transition_matrix.self_s", "s", "lower"),
       ("markov.transition_matrix.hit_frac", "ratio", "higher"),
       ("markov.clip_warnings", "count", "lower"),
       ("harnack.harnack_check_kn.calls", "count", "lower"),
       ("harnack.harnack_check_kn.self_s", "s", "lower"),
       ("harnack.harnack_check_fractional.calls", "count", "lower"),
       ("harnack.harnack_check_fractional.self_s", "s", "lower"),
       ("verify.self_s", "s", "lower"),
       ("runio.write.calls", "count", "lower"),
       ("runio.write.self_s", "s", "lower"),
       ("cli.main.calls", "count", "lower"),
       ("cli.main.self_s", "s", "lower"),
       ("bench.check.self_s", "s", "lower"),
       ("trace.hook_s", "s", "lower"),
       ("trace.overhead_frac", "ratio", "lower")]
)


def self_times(parents, starts, ends) -> list:
    """Each span's duration minus the durations of its direct children.

    Spans of one thread nest, so a parent's children never overlap and
    their durations add up to the part of the parent they cover.
    """
    out = [e - s for s, e in zip(starts, ends)]
    for i, p in enumerate(parents):
        if p >= 0:
            out[p] -= ends[i] - starts[i]
    return out


class SpanLog:
    """Spans held in parallel lists, indexed by span id."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names, self.parents, self.starts, self.ends = [], [], [], []
        self._stack = []

    def open(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(math.nan)
        self._stack.append(i)
        self.starts.append(self.clock())
        return i

    def close(self, i: int):
        self.ends[i] = self.clock()
        if self._stack.pop() != i:
            raise RuntimeError("spans closed out of order")

    def duration(self, i: int) -> float:
        return self.ends[i] - self.starts[i]


def _p50(values, scale: float) -> float:
    return float(np.median(values)) * scale if values else 0.0


def _frac(part: int, whole: int) -> float:
    return part / whole if whole else 0.0


class Tracer:
    """Installs the wrappers, records spans and counters, derives the metrics."""

    def __init__(self):
        self.log = SpanLog()
        self.calls = defaultdict(int)
        self.count = defaultdict(int)        # named work counters
        self.durations = defaultdict(list)   # keyed samples for p50s
        self.missing = []                    # targets this library lacks
        self._patches = []
        self._solve_n = []                   # n of the solves in progress
        self._kernel_keys = set()
        self._check_keys = set()
        self._returned = {}                  # id(chain) -> (chain, results)

    # ---- per-check state ---------------------------------------------------

    def begin_check(self):
        self._check_keys.clear()
        self._returned.clear()

    # ---- installation ------------------------------------------------------

    def install(self):
        liyau_modules = [m for name, m in sys.modules.items()
                         if name == "liyau" or name.startswith("liyau.")]
        for modname, attr, span in TARGETS:
            module = importlib.import_module(modname)
            owner_name, _, name = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = vars(owner).get(name) if owner is not None else None
            if original is None:
                self.missing.append(f"{modname}.{attr}")
                continue
            hooks = _HOOKS.get(span, (None, None))
            wrapper = self._wrap(span, original, *hooks)
            self._patch(owner, name, wrapper)
            if not owner_name:
                self._patch_references(liyau_modules, original, wrapper)
        for modname in FFT_MODULES:
            module = importlib.import_module(modname)
            for name in FFT_FUNCTIONS:
                original = getattr(module, name, None)
                if original is None:
                    continue
                after = functools.partial(Tracer._after_fft, real=name in REAL_FFTS,
                                          multi=name[-1] in "2n")
                wrapper = self._wrap("fft", original, None, after)
                self._patch(module, name, wrapper)
                self._patch_references(liyau_modules, original, wrapper)

    def uninstall(self):
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def _patch(self, owner, name, wrapper):
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, wrapper)

    def _patch_references(self, modules, original, wrapper):
        # `from .stable import eval_G` binds a second name to the function
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is original:
                    self._patch(m, key, wrapper)

    def _wrap(self, span, fn, before, after):
        log = self.log
        calls = self.calls
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = None
            if before is not None:
                h = log.open(HOOK)
                args, kwargs, state = before(tracer, fn, args, kwargs)
                log.close(h)
            calls[span] += 1
            i = log.open(span)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                log.close(i)
                if after is not None:
                    h = log.open(HOOK)
                    after(tracer, state, args, kwargs, result, i)
                    log.close(h)

        return wrapper

    # ---- hooks: counters measured where the work happens -------------------

    def _before_solve(self, fn, args, kwargs):
        a = inspect.signature(fn).bind(*args, **kwargs).arguments
        u0, beta, t = a["u0"], float(a["beta"]), float(a["t"])
        n = int(u0.values.size)
        kernel_key = (beta, t, float(u0.spacing), n)
        self.count["solve.kernel_reused"] += kernel_key in self._kernel_keys
        self._kernel_keys.add(kernel_key)
        digest = hashlib.blake2b(np.ascontiguousarray(u0.values).tobytes(),
                                 digest_size=16).digest()
        input_key = kernel_key + (id(a["profile"]), u0.extension, digest)
        self.count["solve.repeated"] += input_key in self._check_keys
        self._check_keys.add(input_key)
        self.count["solve.points"] += n
        self._solve_n.append(n)
        return args, kwargs, n

    def _after_solve(self, n, args, kwargs, result, i):
        self._solve_n.pop()
        self._after_keyed(n, args, kwargs, result, i)

    def _before_point(self, fn, args, kwargs):
        f = inspect.signature(fn).bind(*args, **kwargs).arguments["f"]
        return args, kwargs, int(f.values.size)

    def _before_singular(self, fn, args, kwargs):
        # count integrand evaluations by wrapping the F / F2 / tail callables
        log = self.log

        def counted(g):
            def integrand(h):
                self.count["integrand.evals"] += 1
                self.count["integrand.points"] += int(np.size(h))
                i = log.open(INTEGRAND)
                try:
                    return g(h)
                finally:
                    log.close(i)
            return integrand

        args = tuple(counted(a) if k < 2 else a for k, a in enumerate(args))
        kwargs = {k: counted(v) if k in ("F", "F2", "tail") and v is not None else v
                  for k, v in kwargs.items()}
        return args, kwargs, None

    def _after_singular(self, state, args, kwargs, result, i):
        if result is not None and result.diverged:
            self.count["singular.diverged"] += 1

    def _before_profile(self, fn, args, kwargs):
        a = inspect.signature(fn).bind(*args, **kwargs).arguments
        return args, kwargs, _case(float(a["beta"]), int(a["d"]))

    def _after_keyed(self, key, args, kwargs, result, i):
        # span durations by (span name, key) for the keyed p50s
        self.durations[(self.log.names[i], key)].append(self.log.duration(i))

    def _before_constant_search(self, fn, args, kwargs):
        prof = inspect.signature(fn).bind(*args, **kwargs).arguments["profile"]
        return args, kwargs, _case(prof.beta, prof.d)

    def _before_constant_for(self, fn, args, kwargs):
        return args, kwargs, self.calls["constant.liyau_constant_numeric"]

    def _after_constant_for(self, searches_before, args, kwargs, result, i):
        self.count["constant_for.hits"] += (
            self.calls["constant.liyau_constant_numeric"] == searches_before)

    def _after_transition(self, state, args, kwargs, result, i):
        if result is None:  # the call raised
            return
        # the chain's cache hands back the very array it stored on a miss
        chain = args[0] if args else kwargs["chain"]
        _, seen = self._returned.setdefault(id(chain), (chain, {}))
        self.count["transition.hits"] += id(result) in seen
        seen[id(result)] = result

    def _after_fft(self, state, args, kwargs, result, i, real, multi):
        if result is None:  # the call raised
            return
        a = np.asarray(args[0] if args else kwargs.get("a", kwargs.get("x")))
        out = np.asarray(result)
        size = max(a.size, out.size) if real else out.size
        length = size if multi else max(a.shape[-1], out.shape[-1]) if real else out.shape[-1]
        self.count["fft.points"] += size
        self.count["fft.flops"] += (2.5 if real else 5.0) * size * math.log2(max(length, 2))
        self.count["fft.bytes"] += a.nbytes + out.nbytes
        self.count["fft.length"] += length
        # a 1-d linear convolution of n samples needs 2n - 1 points per
        # transform; other transforms count as wholly useful
        self.count["fft.useful"] += (min(length, 2 * self._solve_n[-1] - 1)
                                     if self._solve_n and not multi else length)

    # ---- results -----------------------------------------------------------

    def self_times(self) -> list:
        return self_times(self.log.parents, self.log.starts, self.log.ends)

    def metrics(self, overhead_frac: float) -> dict:
        """Every PER_LAYER metric by name."""
        own = defaultdict(float)
        for name, s in zip(self.log.names, self.self_times()):
            own[name] += s
        c, n = self.count, self.calls
        dur = self.durations

        def p50_all(span, scale):
            return _p50([x for (name, _), v in dur.items() if name == span for x in v],
                        scale)

        solves = n["fraclap.solve_fractional"]
        values = {
            "fraclap.solve_fractional.p50_ms": p50_all("fraclap.solve_fractional", 1e3),
            "fraclap.solve_fractional.points": c["solve.points"],
            "fraclap.kernel_reuse_frac": _frac(c["solve.kernel_reused"], solves),
            "fraclap.solve_repeat_frac": _frac(c["solve.repeated"], solves),
            "fraclap.frac_laplacian_point.p50_us": p50_all("fraclap.frac_laplacian_point",
                                                           1e6),
            "fft.points": c["fft.points"],
            "fft.flops_computed": c["fft.flops"],
            "fft.bytes_computed": c["fft.bytes"],
            "fft.useful_frac": _frac(c["fft.useful"], c["fft.length"]),
            "singular.weighted_singular.diverged": c["singular.diverged"],
            "singular.integrand_evals": c["integrand.evals"],
            "singular.integrand_points": c["integrand.points"],
            "constant.J_of_y.p50_ms": p50_all("constant.J_of_y", 1e3),
            "constant.constant_for.hit_frac": _frac(c["constant_for.hits"],
                                                    n["constant.constant_for"]),
            "markov.transition_matrix.hit_frac": _frac(c["transition.hits"],
                                                       n["markov.transition_matrix"]),
            "markov.clip_warnings": c["markov.clip_warnings"],
            "verify.self_s": sum(v for k, v in own.items() if k.startswith("verify.")),
            "bench.check.self_s": own[CHECK],
            "trace.hook_s": own[HOOK],
            "trace.overhead_frac": overhead_frac,
        }
        for size in GRID_SIZES:
            values[f"fraclap.solve_fractional.p50_ms.n{size}"] = _p50(
                dur[("fraclap.solve_fractional", size)], 1e3)
            values[f"fraclap.frac_laplacian_point.p50_us.n{size}"] = _p50(
                dur[("fraclap.frac_laplacian_point", size)], 1e6)
        for b, d in CONSTANT_CASES:
            key = _case(b, d)
            values[f"stable.build_profile.p50_ms.{key}"] = _p50(
                dur[("stable.build_profile", key)], 1e3)
            values[f"constant.liyau_constant_numeric.p50_ms.{key}"] = _p50(
                dur[("constant.liyau_constant_numeric", key)], 1e3)
        for metric, _, _ in PER_LAYER:  # the plain span counts and self times
            layer, _, field = metric.rpartition(".")
            if metric in values:
                continue
            if field == "calls":
                values[metric] = n[layer]
            elif field == "self_s":
                values[metric] = own[layer]
            else:
                raise KeyError(f"no rule for per-layer metric {metric}")
        return values


_HOOKS = {
    "fraclap.solve_fractional": (Tracer._before_solve, Tracer._after_solve),
    "fraclap.frac_laplacian_point": (Tracer._before_point, Tracer._after_keyed),
    "singular.weighted_singular": (Tracer._before_singular, Tracer._after_singular),
    "stable.build_profile": (Tracer._before_profile, Tracer._after_keyed),
    "constant.liyau_constant_numeric": (Tracer._before_constant_search,
                                        Tracer._after_keyed),
    "constant.J_of_y": (None, Tracer._after_keyed),
    "constant.constant_for": (Tracer._before_constant_for, Tracer._after_constant_for),
    "markov.transition_matrix": (None, Tracer._after_transition),
}
