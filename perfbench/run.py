"""liyau benchmark: one closed-loop client running checks, timed or traced.

Run from the repository root:

    python3 perfbench/run.py --workload margins --seed 1 --seconds 20 --trace 0

One client in one process runs one check at a time (a library caller waits
for each result). Workloads and their checks are described in workloads.py.

--trace 0  After set-up, runs whole cycles of checks until --seconds have
           passed and prints the end-to-end metrics of BENCHMARK.json.
--trace 1  Runs a fixed number of cycles (derived from --seconds, so counts
           repeat exactly for a given seed) twice from the same set-up
           state: untraced in a child interpreter, then traced here. The
           outputs of both passes must be bit-identical. Prints the
           per-layer metrics of BENCHMARK.json.

The last line of stdout is the result object; the line before it is a
report with the environment, sample counts, every metric and any failures.
Failed checks are also listed on stderr. Exit status is 0 whenever a result
is printed, and 2 when the checkout holds no liyau sources.
"""
import time

_T0 = time.perf_counter()  # set-up time counts from interpreter start-up

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("margins", "harnack", "constants")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# (name, unit, better) of the end-to-end metrics; fail_frac is reported
# but left out of BENCHMARK.json, which takes only metrics that are never 0
END_TO_END = (
    ("checks_per_s", "1/s", "higher"),
    ("check_p50_ms", "ms", "lower"),
    ("check_p90_ms", "ms", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("ref_err", "ratio", "lower"),
)
# set-up runs this many more times in fresh interpreters; setup_s is the
# median over these and the run's own set-up
SETUP_PROBES = 2
# traced cycles per second of --seconds, sized so that both passes of a
# traced run take about --seconds on the reference machine
TRACE_CYCLES_PER_S = {"margins": 0.15, "harnack": 2.0, "constants": 0.1}
CHILD_TIMEOUT_S = 150


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: fresh-interpreter roles started by a run
    p.add_argument("--role", choices=("run", "setup-probe", "reference"),
                   default="run", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def cap_threads() -> dict:
    """Cap BLAS/OpenMP pools at nproc before numpy loads; returns the caps."""
    limit = nproc()
    caps = {}
    for var in THREAD_VARS:
        try:
            value = min(int(os.environ.get(var, limit)), limit)
        except ValueError:
            value = limit
        os.environ[var] = str(max(value, 1))
        caps[var] = int(os.environ[var])
    return caps


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(args, caps) -> dict:
    import numpy
    import scipy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": nproc(), "cpu_model": cpu_model(),
            "thread_caps": caps, "seed": args.seed, "platform": platform.platform()}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def attempt(ctx, wl, workload: str, spec: dict):
    """Run one check; an exception is a failure of that check, not of the run."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            res = wl.run_check(ctx, workload, spec)
        except Exception:  # noqa: BLE001 - every failure is counted, none stops the run
            res = wl.CheckResult(failures=["exception: " + traceback.format_exc()])
    res.warnings = [str(w.message) for w in caught]
    return res


def digest(res) -> str:
    import numpy as np

    return hashlib.sha256(np.asarray(res.outputs, dtype=float).tobytes()).hexdigest()


def run_child(args, role: str) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace), "--role", role]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{role} interpreter exited {proc.returncode}: {proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def trace_specs(wl, args) -> list:
    n_cycles = max(1, round(args.seconds * TRACE_CYCLES_PER_S[args.workload]))
    gen = wl.cycles(args.workload, args.seed)
    return [spec for _ in range(n_cycles) for spec in next(gen)]


def failure_lines(label, results) -> list:
    return [f"{label} {k}: {reason}" for k, res in enumerate(results)
            for reason in res.failures]


def summarize(results) -> dict:
    worst = {}  # truth label -> worst error / tolerance
    for res in results:
        for label, ratio in res.truths:
            worst[label] = max(ratio, worst.get(label, ratio))
    return {
        "attempted": len(results),
        "failed": sum(bool(res.failures) for res in results),
        "ref_err": max(worst.values(), default=float("nan")),
        "truths": worst,
    }


def timed_run(args, wl, ctx, warm, setup_s) -> tuple:
    from stats import percentile, samples_beyond, tail_rule_met

    latencies, results, cycle_rates = [], [], []
    gen = wl.cycles(args.workload, args.seed)
    start = time.perf_counter()
    while True:
        cycle_start = time.perf_counter()
        cycle = next(gen)
        for spec in cycle:
            t0 = time.perf_counter()
            res = attempt(ctx, wl, args.workload, spec)
            latencies.append(time.perf_counter() - t0)
            results.append(res)
        now = time.perf_counter()
        cycle_rates.append(len(cycle) / (now - cycle_start))
        elapsed = now - start
        if elapsed >= args.seconds:
            break
    rss = peak_rss_mb()  # before the truths, whose power-tailed solves are not the workload
    truths = guarded_truths(wl, ctx, args.workload)
    setup_samples = [setup_s] + [run_child(args, "setup-probe")["setup_s"]
                                 for _ in range(SETUP_PROBES)]
    everything = [warm] + results + truths
    summary = summarize(everything)
    n = len(latencies)
    values = {
        # every cycle holds the same mix of checks, so the median cycle
        # rate is the loop's throughput without its slowest stretches
        "checks_per_s": statistics.median(cycle_rates),
        "check_p50_ms": percentile(latencies, 0.5) * 1e3,
        "check_p90_ms": percentile(latencies, 0.9) * 1e3,
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": rss,
        "ref_err": summary["ref_err"],
    }
    detail = {
        "check_latency": {"samples": n, "p90_samples_beyond": samples_beyond(n, 0.9),
                          "p90_tail_rule_met": tail_rule_met(n, 0.9)},
        "timed_s": elapsed,
        "cycles": len(cycle_rates),
        "cycle_rate_quartiles": statistics.quantiles(cycle_rates, n=4)
        if len(cycle_rates) > 1 else cycle_rates,
        "mean_checks_per_s": n / elapsed,
        "setup_samples_s": setup_samples,
        "truths": summary["truths"],
    }
    failures = (failure_lines("warm-up", [warm]) + failure_lines("check", results)
                + failure_lines("truth", truths))
    return values, detail, summary, failures, END_TO_END


def guarded_truths(wl, ctx, workload) -> list:
    try:
        return wl.semigroup_truths(ctx, workload)
    except Exception:  # noqa: BLE001 - counted as a failed truth
        return [wl.CheckResult(failures=["exception: " + traceback.format_exc()])]


def untraced_pass(args, wl, ctx) -> dict:
    results = []
    start = time.perf_counter()
    for spec in trace_specs(wl, args):
        results.append(attempt(ctx, wl, args.workload, spec))
    wall = time.perf_counter() - start
    return {"wall_s": wall, "digests": [digest(r) for r in results],
            "attempted": len(results), "failed": sum(bool(r.failures) for r in results),
            "failures": failure_lines("reference check", results)}


def traced_run(args, wl, ctx, warm) -> tuple:
    import tracing

    specs = trace_specs(wl, args)
    reference = run_child(args, "reference")
    tracer = tracing.Tracer()
    tracer.install()
    results = []
    try:
        root = tracer.log.open(tracing.ROOT)
        for spec in specs:
            tracer.begin_check()
            i = tracer.log.open(tracing.CHECK)
            res = attempt(ctx, wl, args.workload, spec)
            tracer.log.close(i)
            tracer.count["markov.clip_warnings"] += sum("clipping" in w for w in res.warnings)
            results.append(res)
        tracer.log.close(root)
    finally:
        tracer.uninstall()
    wall = tracer.log.duration(root)
    self_sum = sum(tracer.self_times())
    mismatched = [k for k, (res, ref) in enumerate(zip(results, reference["digests"]))
                  if digest(res) != ref]
    truths = guarded_truths(wl, ctx, args.workload)
    summary = summarize([warm] + results + truths)
    summary["attempted"] += reference["attempted"]
    summary["failed"] += reference["failed"]
    failures = (failure_lines("warm-up", [warm]) + failure_lines("check", results)
                + failure_lines("truth", truths) + reference["failures"])
    if mismatched or len(reference["digests"]) != len(results):
        failures.append(f"traced outputs differ from untraced ones in checks {mismatched}")
        summary["failed"] += max(1, len(mismatched))
    if abs(self_sum - wall) > 1e-9 * max(wall, 1.0):
        failures.append(f"self times sum to {self_sum!r} s, traced wall is {wall!r} s")
        summary["failed"] += 1
    values = tracer.metrics(wall / reference["wall_s"] - 1.0)
    detail = {"traced_checks": len(results), "traced_wall_s": wall,
              "untraced_wall_s": reference["wall_s"], "self_time_sum_s": self_sum,
              "outputs_identical": not mismatched, "untraced_targets": tracer.missing,
              "fail_frac": summary["failed"] / summary["attempted"],
              "ref_err": summary["ref_err"], "truths": summary["truths"]}
    return values, detail, summary, failures, tracing.PER_LAYER


def main(argv=None) -> int:
    args = parse_args(argv)
    caps = cap_threads()
    src = ROOT / "src"
    if not (src / "liyau" / "__init__.py").is_file():
        print(f"perfbench: no liyau sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import liyau

    if Path(liyau.__file__).resolve().parent != (src / "liyau").resolve():
        print(f"perfbench: imported liyau from {liyau.__file__}, not {src}",
              file=sys.stderr)
        return 2
    import workloads as wl

    outdir = ROOT / ".bench_out" / str(os.getpid())
    try:
        ctx = wl.set_up(outdir)
        warm = attempt(ctx, wl, args.workload, wl.warmup_spec(args.workload, args.seed))
        setup_s = time.perf_counter() - _T0
        if args.role == "setup-probe":
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if args.role == "reference":
            print(json.dumps(untraced_pass(args, wl, ctx)))
            return 0
        if args.trace:
            values, detail, summary, failures, spec = traced_run(args, wl, ctx, warm)
            extra = {}
        else:
            values, detail, summary, failures, spec = timed_run(args, wl, ctx, warm, setup_s)
            extra = {"fail_frac": {"value": summary["failed"] / summary["attempted"],
                                   "unit": "ratio"}}
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
        try:
            outdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it, or it was never made

    for line in failures:
        print(line, file=sys.stderr)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in spec}
    report = {"report": "perfbench", "workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": environment(args, caps), "metrics": {**metrics, **extra},
              "detail": detail, "failures": failures[:20]}
    print(json.dumps(report))
    print(json.dumps({"correct": summary["failed"] == 0,
                      "attempted": summary["attempted"],
                      "failed": summary["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
