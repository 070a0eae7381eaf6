"""Tests of the benchmark's own logic.

Run from the repository root: python3 -m pytest perfbench/tests -q
"""
import json
import statistics
import sys
from itertools import islice
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


# ---- self-time arithmetic ----------------------------------------------------

def test_self_times_on_a_synthetic_tree():
    # root [0, 10] > a [1, 4] > b [2, 3];  root > c [5, 9]
    parents = [-1, 0, 1, 0]
    starts = [0.0, 1.0, 2.0, 5.0]
    ends = [10.0, 4.0, 3.0, 9.0]
    own = tracing.self_times(parents, starts, ends)
    assert own == [3.0, 2.0, 1.0, 4.0]
    assert sum(own) == ends[0] - starts[0]


def test_span_log_records_parents_and_durations():
    ticks = iter(range(100))
    log = tracing.SpanLog(clock=lambda: float(next(ticks)))
    root = log.open("root")
    a = log.open("a")
    log.close(a)
    b = log.open("b")
    c = log.open("c")
    log.close(c)
    log.close(b)
    log.close(root)
    assert log.parents == [-1, 0, 0, 2]
    own = tracing.self_times(log.parents, log.starts, log.ends)
    assert sum(own) == log.duration(root)
    assert own[2] == log.duration(b) - log.duration(c)


def test_span_log_rejects_spans_closed_out_of_order():
    log = tracing.SpanLog()
    outer = log.open("outer")
    log.open("inner")
    with pytest.raises(RuntimeError):
        log.close(outer)


# ---- tracing leaves values unchanged -----------------------------------------

def test_wrappers_pass_values_through_and_uninstall_restores():
    from liyau import fraclap, stable
    from liyau.fields import Extension, GridField

    prof = stable.build_profile(1.0, 1)
    u0 = GridField.from_function(lambda x: 1.0 + np.exp(-x ** 2), 0.05, 20.0,
                                 Extension("constant"), positive=True)
    before = fraclap.solve_fractional(u0, 1.0, 0.5, prof).values
    originals = (fraclap.solve_fractional, fraclap.eval_G, stable.eval_G)

    tracer = tracing.Tracer()
    tracer.install()
    try:
        root = tracer.log.open(tracing.ROOT)
        traced = fraclap.solve_fractional(u0, 1.0, 0.5, prof).values
        tracer.log.close(root)
    finally:
        tracer.uninstall()

    assert traced.tobytes() == before.tobytes()
    assert (fraclap.solve_fractional, fraclap.eval_G, stable.eval_G) == originals
    assert tracer.calls["fraclap.solve_fractional"] == 1
    assert tracer.calls["stable.eval_G"] >= 1 and tracer.calls["fft"] == 3
    assert sum(tracer.self_times()) == pytest.approx(tracer.log.duration(root), rel=1e-12)
    values = tracer.metrics(0.0)
    assert [name for name, _, _ in tracing.PER_LAYER] == list(
        dict.fromkeys(name for name, _, _ in tracing.PER_LAYER))
    assert set(values) == {name for name, _, _ in tracing.PER_LAYER}


# ---- seeded workload generation ----------------------------------------------

@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_cycles_are_determined_by_the_seed(workload):
    first = list(islice(workloads.cycles(workload, 7), 3))
    again = list(islice(workloads.cycles(workload, 7), 3))
    other = list(islice(workloads.cycles(workload, 8), 3))
    assert first == again
    assert first != other
    assert workloads.warmup_spec(workload, 7) == workloads.warmup_spec(workload, 7)


def test_harnack_times_never_repeat_and_margins_rotate_beta():
    specs = [s for c in islice(workloads.cycles("harnack", 3), 20) for s in c]
    times = [s[k] for s in specs for k in ("t1", "t2")]
    assert len(set(times)) == len(times)
    margins = next(workloads.cycles("margins", 3))
    assert [s["beta"] for s in margins] == list(workloads.BETAS)


def test_constants_cycle_covers_every_case_once():
    for cycle in islice(workloads.cycles("constants", 5), 4):
        cases = sorted((s["beta"], s["dim"]) for s in cycle)
        assert cases == sorted(workloads.CONSTANT_CASES)


# ---- percentiles and the tail sample-count rule -------------------------------

def test_percentile_matches_numpy_linear():
    xs = list(np.random.default_rng(1).exponential(size=37))
    for q in (0.0, 0.5, 0.9, 1.0):
        assert stats.percentile(xs, q) == pytest.approx(float(np.percentile(xs, 100 * q)))


def test_p90_needs_ten_samples_beyond_it():
    assert stats.samples_beyond(100, 0.9) == 10
    assert stats.tail_rule_met(100, 0.9)
    assert stats.samples_beyond(91, 0.9) == 9
    assert not stats.tail_rule_met(91, 0.9)
    assert not stats.tail_rule_met(21, 0.9)
    # the count agrees with the samples that really lie above the percentile
    for n in (20, 91, 92, 100, 250):
        xs = list(range(n))
        p90 = stats.percentile(xs, 0.9)
        assert stats.samples_beyond(n, 0.9) == sum(x > p90 for x in xs)


def test_relative_iqr_uses_statistics_quantiles():
    vals = [1.0, 2.0, 2.5, 3.0, 10.0]
    q1, _, q3 = statistics.quantiles(vals, n=4)
    assert stats.relative_iqr(vals) == (q3 - q1) / 2.5


# ---- BENCHMARK.json agrees with the code -------------------------------------

def test_benchmark_json_lists_the_metrics_the_code_prints():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]] == [
        tuple(m) for m in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == [
        tuple(m) for m in tracing.PER_LAYER]
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert run.WORKLOADS == workloads.WORKLOADS
