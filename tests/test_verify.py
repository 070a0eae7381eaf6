"""Inequality checkers: discrete exact margins, reports, continuous margins."""
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scipy.fft
from scipy.interpolate import CubicSpline

import liyau
from liyau import fraclap, verify
from liyau.markov import MarkovChain, complete_graph
from liyau.verify import (VerificationReport, differential_harnack_margin,
                          fractional_liyau_margin,
                          key_inequality_margin_discrete,
                          liyau_margin_on_solution, random_key_instance,
                          random_positive_field,
                          reduction_theorem_check_discrete, spike_field,
                          sweep_key_inequality, sweep_reduction)


# ------------------------------------------------------------- reports

def test_report_verdicts():
    r = VerificationReport(name="demo")
    assert r.min_margin is None
    r.add_sample(1.0)
    r.add_sample(0.5, error=0.1)
    assert r.verdict == "pass"
    r.add_sample(-0.05, error=0.1)
    assert r.verdict == "pass-within-error"
    r.add_sample(-0.5, error=0.1)
    assert r.verdict == "fail"
    assert r.min_margin == -0.5


@pytest.mark.parametrize("margin,error", [(np.nan, 0.0), (0.1, np.nan)])
def test_report_with_a_nan_sample_fails(margin, error):
    r = VerificationReport(name="demo")
    r.add_sample(1.0)
    r.add_sample(margin, error=error)
    assert r.verdict == "fail"


@pytest.mark.parametrize("first", [1.0, np.nan])
def test_min_margin_is_nan_whatever_the_order(first):
    # min() kept whichever of 1.0 and NaN came first
    r = VerificationReport(name="demo")
    for margin in (first, 1.0 if np.isnan(first) else np.nan):
        r.add_sample(margin, 0.0)
    d = r.to_json_dict()
    assert np.isnan(r.min_margin) and np.isnan(d["min_margin"])
    assert d["verdict"] == "fail"


def test_report_json_shape():
    r = VerificationReport(name="demo", params={"n": 3}, seed=11)
    r.add_sample(0.25, 0.01)
    d = r.to_json_dict()
    assert d["schema"] == "liyau-report v1"
    assert d["check"] == "demo"
    assert d["n_samples"] == 1
    assert d["min_margin"] == 0.25
    assert d["verdict"] == "pass"
    assert d["seed"] == 11


# --------------------------------------------- key inequality (discrete)

def _basic_instance():
    rng = np.random.default_rng(42)
    H = np.exp(rng.normal(size=(3, 4)))
    f = np.exp(rng.normal(size=4))
    nu = rng.uniform(0.5, 1.5, size=4)
    chain = MarkovChain.from_rates([[0.0, 1.0, 0.5],
                                    [1.0, 0.0, 2.0],
                                    [0.5, 2.0, 0.0]])
    return H, f, chain, nu


def test_key_inequality_basic_instance():
    H, f, chain, nu = _basic_instance()
    for x in range(3):
        assert key_inequality_margin_discrete(H, f, chain, nu, x) >= -1e-12


def test_key_inequality_equality_for_rank_one():
    # H(z, y) = a(z) b(y) makes the average exact: margin is rounding only
    a = np.array([0.7, 2.0, 5.0])
    b = np.array([1.0, 0.3, 4.0, 0.9])
    H = np.outer(a, b)
    f = np.array([2.0, 1.0, 0.5, 3.0])
    nu = np.array([1.0, 1.0, 0.5, 2.0])
    chain = MarkovChain.from_rates([[0.0, 1.0, 0.5],
                                    [1.0, 0.0, 2.0],
                                    [0.5, 2.0, 0.0]])
    for x in range(3):
        m = key_inequality_margin_discrete(H, f, chain, nu, x)
        assert abs(m) <= 1e-12 * np.abs(H @ (f * nu)).max()


def test_key_inequality_validation():
    H, f, chain, nu = _basic_instance()
    with pytest.raises(ValueError, match="positive"):
        key_inequality_margin_discrete(-H, f, chain, nu, 0)
    with pytest.raises(ValueError, match="rows"):
        key_inequality_margin_discrete(H[:2], f, chain, nu, 0)
    with pytest.raises(ValueError, match="atom count"):
        key_inequality_margin_discrete(H, f[:3], chain, nu, 0)
    with pytest.raises(IndexError):
        key_inequality_margin_discrete(H, f, chain, nu, 3)


def test_key_inequality_random_instances():
    rng = np.random.default_rng(5)
    for _ in range(100):
        H, f, chain, nu, x = random_key_instance(rng)
        assert key_inequality_margin_discrete(H, f, chain, nu, x) >= -1e-12


@settings(max_examples=30, deadline=None)
@given(scale=st.floats(1e-3, 1e3))
def test_key_inequality_margin_is_linear_in_f(scale):
    H, f, chain, nu = _basic_instance()
    base = key_inequality_margin_discrete(H, f, chain, nu, 1)
    scaled = key_inequality_margin_discrete(H, scale * f, chain, nu, 1)
    assert scaled == pytest.approx(scale * base, rel=1e-9)


def test_sweep_key_inequality():
    report = sweep_key_inequality(n_samples=200, seed=7)
    # exact inequality: float evaluation may dip a few ulp under zero
    assert report.verdict != "fail"
    assert report.min_margin >= -1e-12
    assert len(report.samples) == 200
    assert report.to_json_dict()["params"]["n_samples"] == 200


# ----------------------------------------------------- reduction theorem

def test_reduction_on_complete_graph():
    chain = complete_graph(5)
    u0 = np.array([1.0, 3.0, 0.2, 5.0, 1.0])
    report = reduction_theorem_check_discrete(chain, u0, 0.4)
    assert report.verdict != "fail"
    assert report.min_margin >= -1e-10
    assert len(report.samples) == 5


def test_reduction_on_path_graph():
    R = np.zeros((4, 4))
    for i in range(3):
        R[i, i + 1] = R[i + 1, i] = 1.0
    chain = MarkovChain.from_rates(R)
    for t in (0.1, 1.0, 5.0):
        report = reduction_theorem_check_discrete(
            chain, [2.0, 0.1, 7.0, 1.0], t)
        assert report.min_margin >= -1e-10


def test_reduction_rejects_reducible_chain():
    R = np.zeros((4, 4))
    R[0, 1] = R[1, 0] = 1.0
    R[2, 3] = R[3, 2] = 1.0  # second component unreachable from the first
    chain = MarkovChain.from_rates(R)
    with pytest.raises(ValueError, match="irreducible"):
        reduction_theorem_check_discrete(chain, np.ones(4), 1.0)


def test_sweep_reduction():
    report = sweep_reduction(n_samples=60, seed=3)
    assert report.verdict != "fail"
    assert report.min_margin >= -1e-10


# ------------------------------------------------- continuous machinery

def test_random_positive_field_reproducible():
    a = random_positive_field(np.random.default_rng(9), spacing=0.05,
                              extent=10.0)
    b = random_positive_field(np.random.default_rng(9), spacing=0.05,
                              extent=10.0)
    assert np.array_equal(a.values, b.values)
    assert a.positive and a.extension.kind == "constant"
    assert np.all(a.values > 0)


def test_spike_field_geometry():
    f = spike_field(0.01, 5.0, x0=1.0)
    i = int(np.argmax(f.values))
    assert f.x[i] == pytest.approx(1.0, abs=1e-12)
    body = float(np.trapezoid(f.values, dx=f.spacing))
    assert body == pytest.approx(1.0, rel=1e-6)


def test_spike_field_rejects_an_x0_off_the_grid():
    # a negative node index would wrap to the far end of the grid
    for x0 in (-15.0, 25.0, 10.1):
        with pytest.raises(ValueError, match=r"extent X = 10"):
            spike_field(0.1, 10.0, x0=x0)
    for x0 in (-10.0, 10.0):
        f = spike_field(0.1, 10.0, x0=x0)
        assert f.x[int(np.argmax(f.values))] == pytest.approx(x0, abs=1e-12)


def test_fractional_margin_positive_interior(profile_b1_d1):
    u0 = random_positive_field(np.random.default_rng(3), spacing=0.01,
                               extent=60.0)
    m = fractional_liyau_margin(u0, 1.0, 0.8, 0.5, profile_b1_d1)
    assert m.value >= -m.error
    assert m.error < 0.05


def test_margin_on_solution_matches_two_step(profile_b1_d1):
    from liyau.fraclap import solve_fractional
    u0 = random_positive_field(np.random.default_rng(4), spacing=0.01,
                               extent=60.0)
    u = solve_fractional(u0, 1.0, 1.2, profile_b1_d1)
    a = liyau_margin_on_solution(u, 1.0, 1.2, -0.3, profile_b1_d1)
    b = fractional_liyau_margin(u0, 1.0, 1.2, -0.3, profile_b1_d1)
    assert a.value == pytest.approx(b.value, abs=1e-12)


def test_margin_on_solution_rejects_another_beta(profile_b1_d1, monkeypatch):
    # a beta = 0.5 read of a beta = 1 solution used to score against C(1, 1)
    u0 = random_positive_field(np.random.default_rng(9), spacing=0.05,
                               extent=40.0)
    u = fraclap.solve_fractional(u0, 1.0, 1.5, profile_b1_d1)

    def no_quadrature(*args, **kwargs):
        raise AssertionError("ran a quadrature before checking beta")

    monkeypatch.setattr(verify, "frac_laplacian_point", no_quadrature)
    for x in (2.0, [0.0, 2.0]):
        with pytest.raises(ValueError, match="different beta"):
            liyau_margin_on_solution(u, 0.5, 1.5, x, profile_b1_d1)


def test_margin_on_solution_rejects_nan(profile_b1_d1):
    # a NaN point used to pass the central-80% check and score as a pass
    u = random_positive_field(np.random.default_rng(4), spacing=0.05,
                              extent=40.0)
    with pytest.raises(ValueError, match="central 80%"):
        liyau_margin_on_solution(u, 1.0, 1.0, np.nan, profile_b1_d1)


def test_margins_at_many_points_match_one_at_a_time(profile_b1_d1):
    from liyau.fraclap import solve_fractional
    u0 = random_positive_field(np.random.default_rng(5), spacing=0.02,
                               extent=40.0)
    u = solve_fractional(u0, 1.0, 0.9, profile_b1_d1)
    xs = np.array([-20.0, -0.37, 0.0, 11.0])
    rows = liyau_margin_on_solution(u, 1.0, 0.9, xs, profile_b1_d1)
    for i, x in enumerate(xs):
        one = liyau_margin_on_solution(u, 1.0, 0.9, x, profile_b1_d1)
        assert rows.value[i] == pytest.approx(one.value, rel=1e-13, abs=1e-15)
        assert rows.error[i] == pytest.approx(one.error, rel=1e-9)


def test_dh_margin_close_to_liyau_margin(profile_b1_d1):
    u0 = random_positive_field(np.random.default_rng(8), spacing=0.01,
                               extent=60.0)
    for t, x in ((0.7, 0.0), (2.0, 4.0)):
        ly = fractional_liyau_margin(u0, 1.0, t, x, profile_b1_d1)
        dh = differential_harnack_margin(u0, 1.0, t, x, profile_b1_d1)
        assert abs(dh.value - ly.value) <= dh.error + ly.error


def test_lone_dh_margin_keeps_nothing_on_u0(profile_b1_d1, monkeypatch):
    u0 = random_positive_field(np.random.default_rng(9), spacing=0.05,
                               extent=40.0)
    calls = []
    for name in ("rfft", "irfft"):
        real = getattr(scipy.fft, name)
        monkeypatch.setattr(scipy.fft, name, lambda *a, real=real, **k:
                            calls.append(real) or real(*a, **k))
    differential_harnack_margin(u0, 1.0, 1.5, 2.0, profile_b1_d1)
    # u's and du/dt's sums share one transform of u0: one more per kernel
    # variant and one inverse per sum
    assert len(calls) == 5
    assert u0._spectrum is None and u0._spline is None and u0._log is None


def test_dh_margin_rejects_x_before_any_solve(profile_b1_d1, monkeypatch):
    u0 = random_positive_field(np.random.default_rng(9), spacing=0.05,
                               extent=40.0)

    def no_solve(*args, **kwargs):
        raise AssertionError("solved before checking x")

    monkeypatch.setattr(verify, "solve_fractional", no_solve)
    monkeypatch.setattr(verify, "dt_log_u", no_solve)
    for x in (0.85 * 40.0, -0.85 * 40.0, 40.5, np.nan):
        with pytest.raises(ValueError, match="central 80%"):
            differential_harnack_margin(u0, 1.0, 1.0, x, profile_b1_d1)


def test_dh_margin_rejects_another_beta(profile_b1_d1):
    # the DH margin reads beta from its profile; another beta is an error,
    # not a beta = 1 margin scored for beta = 0.5
    u0 = random_positive_field(np.random.default_rng(9), spacing=0.05,
                               extent=40.0)
    with pytest.raises(ValueError, match="different beta"):
        differential_harnack_margin(u0, 0.5, 1.0, 2.0, profile_b1_d1)


def test_margins_check_builds_one_kernel_log_and_spline_per_solve(
        profile_b1_d1, monkeypatch):
    # the margins workload's check: one field at 10 t, then 2 DH points
    from liyau import fields
    fields._point_plan.cache_clear()  # the placement slot outlives a test
    counts = dict.fromkeys(("solve", "eval_G", "log", "spline", "locate",
                            "fft"), 0)

    def counting(name, fn, when=lambda *a: True):
        def wrapper(*args, **kwargs):
            counts[name] += bool(when(*args))
            return fn(*args, **kwargs)
        return wrapper

    n = 2 * 1000 + 1
    monkeypatch.setattr(verify, "solve_fractional",
                        counting("solve", fraclap.solve_fractional))
    monkeypatch.setattr(fraclap, "eval_G", counting("eval_G", fraclap.eval_G))
    monkeypatch.setattr(fields.GridField, "log",
                        counting("log", fields.GridField.log))
    monkeypatch.setattr(fields.GridField, "_locate",
                        counting("locate", fields.GridField._locate))
    monkeypatch.setattr(fields, "_spline_slopes",
                        counting("spline", fields._spline_slopes,
                                 lambda x, *a: x.size == n))  # whole grids
    verify.sweep_fractional_liyau(profile_b1_d1, 1, np.geomspace(0.3, 10, 10),
                                  np.linspace(-40.0, 40.0, 10), seed=3,
                                  spacing=0.1, extent=100.0)
    verify.sweep_dh_consistency(profile_b1_d1, n_points=2, seed=3,
                                spacing=0.1, t_range=(0.5, 5.0))
    # positions placed once by the sweep and once per DH point
    assert counts == {"solve": 12, "eval_G": 12, "log": 12, "spline": 12,
                      "locate": 3, "fft": 0}
    # a lone solve keeps no plan: three transforms, and u0 keeps nothing
    for name in ("rfft", "irfft"):
        monkeypatch.setattr(scipy.fft, name,
                            counting("fft", getattr(scipy.fft, name)))
    u0 = random_positive_field(np.random.default_rng(3), spacing=0.1)
    u = fraclap.solve_fractional(u0, 1.0, 0.7, profile_b1_d1)
    assert counts["fft"] == 3 and u0._spectrum is None
    assert not any(isinstance(v, fraclap.HeatKernel)
                   for f in (u0, u) for v in vars(f).values())


def test_margins_check_plans_its_rules_once_per_beta_and_grid(
        profile_b1_d1, monkeypatch):
    # one field at 10 t, then 2 DH points on another grid: every point
    # quadrature of one (beta, grid) reads one rule plan
    from liyau import constant, fields, singular
    verify.constant_for(profile_b1_d1)  # memoized: only the sweeps count
    fields._point_plan.cache_clear()
    orders, gauss = [], singular.gauss_panels
    monkeypatch.setattr(singular, "gauss_panels",
                        lambda *a: orders.append(a[2]) or gauss(*a))
    verify.sweep_fractional_liyau(profile_b1_d1, 1, np.geomspace(0.3, 10, 10),
                                  np.linspace(-40.0, 40.0, 10), seed=3,
                                  spacing=0.1, extent=100.0)
    verify.sweep_dh_consistency(profile_b1_d1, n_points=2, seed=3,
                                spacing=0.2, t_range=(0.5, 5.0))
    # per plan the middle panels' rules (8, 4, 4, 2) and the tail's (8, 4)
    assert sorted(orders) == sorted([8, 4, 4, 2, 8, 4] * 2)
    # a J search builds its rules per y and keeps none
    info = fields._point_plan.cache_info()
    constant.liyau_constant_numeric(profile_b1_d1)
    assert fields._point_plan.cache_info() == info


def test_sweep_over_fields_builds_each_kernel_once(profile_b1_d1,
                                                   monkeypatch):
    calls = []
    eval_G = fraclap.eval_G
    monkeypatch.setattr(fraclap, "eval_G",
                        lambda *a: calls.append(a[1]) or eval_G(*a))
    ts = (0.5, 1.0, 2.0)
    rep = verify.sweep_fractional_liyau(profile_b1_d1, 3, ts, [0.0, 5.0],
                                        seed=4, spacing=0.1, extent=40.0)
    assert calls == list(ts) and len(rep.samples) == 18
    # each field's margins equal those of a sweep over that field alone
    monkeypatch.setattr(fraclap, "eval_G", eval_G)
    rng = np.random.default_rng(4)
    fresh = []
    for _ in range(3):
        u0 = random_positive_field(rng, spacing=0.1, extent=40.0)
        for t in ts:
            u = fraclap.solve_fractional(u0, 1.0, t, profile_b1_d1)
            m = liyau_margin_on_solution(u, 1.0, t, [0.0, 5.0], profile_b1_d1)
            fresh += list(zip(m.value, m.error))
    assert rep.samples == fresh


def test_dh_margin_reads_dt_log_u_through_the_window_spline(profile_b1_d1):
    u0 = random_positive_field(np.random.default_rng(9), spacing=0.02,
                               extent=40.0)
    t = 1.5
    u = fraclap.solve_fractional(u0, 1.0, t, profile_b1_d1)
    g = fraclap.dt_log_u(u0, 1.0, t, profile_b1_d1, u)
    for x in (-31.99, -3.0, 2.0, 17.013):
        m = differential_harnack_margin(u0, 1.0, t, x, profile_b1_d1)
        idx = fraclap._window(u0, x)
        assert idx.size == 2 * fraclap.SPLINE_REACH + 2
        window = float(CubicSpline(u0.x[idx], g.values[idx])(x))
        psi = verify.psi_upsilon_continuous(u.log(), 1.0, x)
        const = verify.constant_for(profile_b1_d1)
        assert m.value == window - psi.value + const.value / t
        assert m.error == psi.error + const.error / t
        # the window's spline equals the whole grid's to rounding
        assert window == pytest.approx(g.eval(x), rel=1e-13, abs=1e-15)


MARGINS_SCRIPT = """
import numpy as np
from liyau.constant import SearchSpec, liyau_constant_numeric
from liyau.stable import build_profile
from liyau.verify import sweep_dh_consistency, sweep_fractional_liyau
prof = build_profile(0.5, 1)
# margins-shaped: one seeded field at 3 t, then 2 DH points, n = 20001
for rep in (sweep_fractional_liyau(prof, 1, [1.0, 3.0, 10.0],
                                   np.linspace(-40.0, 40.0, 10), seed=5,
                                   spacing=0.01),
            sweep_dh_consistency(prof, n_points=2, seed=5, spacing=0.01,
                                 t_range=(1.0, 5.0))):
    print(len(rep.samples),
          " ".join(float(v).hex() for pair in rep.samples for v in pair))
# constants-shaped: a short J search in d = 2
res = liyau_constant_numeric(build_profile(0.7, 2),
                             SearchSpec(y_max=5.0, nodes=9))
print(" ".join(float(v).hex() for v in (res.value, res.error, res.y_star)),
      " ".join(float(v).hex() for row in res.j_table for v in row))
"""


def test_margins_and_constants_do_not_depend_on_blas_threads():
    # OpenBLAS threads ddot above n = 10000, and each thread count rounds
    # the split sum differently. harnack is left out: its window route's
    # np.correlate runs such ddots, so its bytes do depend on the count
    out = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads,
                   PYTHONPATH=str(Path(liyau.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-c", MARGINS_SCRIPT],
                              env=env, capture_output=True, text=True,
                              check=True)
        out.append(proc.stdout.split())
    # 30 Li-Yau and 2 DH (margin, error) pairs, then C, its bar, y* and the
    # 9 rows of (y, J, error)
    assert out[0][0] == "30" and out[0][61] == "2"
    assert len(out[0]) == (1 + 60) + (1 + 4) + 3 + 9 * 3
    assert out[0] == out[1]
