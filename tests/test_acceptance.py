"""Acceptance gate: every shipped guarantee, one printed verdict line each.

Each test computes one criterion at its stated tolerance, prints a single
[PASS]/[FAIL] line with the measured numbers, and asserts. Run with -s (or
read captured output) for the full scoreboard.
"""
import json
import time

import numpy as np

from liyau.cli import main as cli_main
from liyau.constant import J_of_y, liyau_constant_numeric
from liyau.harnack import (default_alpha, factor_for_a1,
                           harnack_check_fractional, harnack_check_kn)
from liyau.markov import (complete_graph, neg_L_log, relaxation_residual,
                          phi_kn, transition_kn, transition_matrix)
from liyau.stable import eval_G, poisson_profile
from liyau.fields import Extension, GridField
from liyau.fraclap import solve_fractional
from liyau.verify import (fractional_liyau_margin, log_uniform,
                          random_positive_field, spike_field,
                          sweep_dh_consistency, sweep_fractional_liyau,
                          sweep_key_inequality, sweep_reduction)

FOUR_PI = 12.566370614359172954


def _criterion(label: str, ok: bool, detail: str):
    line = f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}"
    print(line)
    assert ok, line


def test_c01_sharp_constant_closed_forms(profile_b1_d1, profile_b1_d2,
                                         profile_b1_d3):
    targets = ((profile_b1_d1, 2.0, 1e-3), (profile_b1_d2, 1.5 * np.pi, 1e-2),
               (profile_b1_d3, 8.0, 1e-2))
    parts, ok = [], True
    for prof, target, rtol in targets:
        t0 = time.perf_counter()
        res = liyau_constant_numeric(prof)
        dt = time.perf_counter() - t0
        rel = abs(res.value - target) / target
        ok = ok and rel <= rtol and dt <= 60.0
        parts.append(f"C(1,{prof.d})={res.value:.6f} rel {rel:.1e} "
                     f"(tol {rtol:g}, {dt:.1f}s)")
    _criterion("c01 sharp-constant closed forms", ok, "; ".join(parts))


def test_c02_deficit_integral_at_origin(profile_b1_d1):
    res = J_of_y(profile_b1_d1, 0.0)
    rel = abs(res.value - FOUR_PI) / FOUR_PI
    _criterion("c02 J(0) = 4 pi", rel <= 1e-3,
               f"J(0)={res.value:.8f} rel {rel:.1e} (tol 1e-3)")


def test_c03_discrete_inequality_suite():
    t0 = time.perf_counter()
    key = sweep_key_inequality(n_samples=1000, seed=0)
    red = sweep_reduction(n_samples=500, seed=0)
    total = time.perf_counter() - t0
    ok = (key.min_margin >= -1e-12 and red.verdict != "fail"
          and red.min_margin >= -1e-10 and total <= 30.0)
    _criterion("c03 discrete inequalities", ok,
               f"1000 averaging margins >= {key.min_margin:.2e} (tol -1e-12); "
               f"500 reduction margins >= {red.min_margin:.2e} (tol -1e-10); "
               f"{total:.1f}s (budget 30s)")


def test_c04_complete_graph_closed_forms():
    ts = np.geomspace(1e-2, 10.0, 181)  # 60 per decade
    worst_gap = 0.0
    worst_margin = np.inf
    worst_sharp = 0.0
    for n in range(2, 11):
        chain = complete_graph(n)
        u0 = log_uniform(np.random.default_rng(n), 1e-2, 1e2, size=n)
        e0 = np.zeros(n)
        e0[0] = 1.0
        for t in ts:
            Pk = transition_kn(n, float(t))
            worst_gap = max(worst_gap, float(
                np.max(np.abs(Pk - transition_matrix(chain, float(t))))))
            bound = phi_kn(n, float(t))
            worst_margin = min(worst_margin, float(
                np.min(bound - neg_L_log(chain, Pk @ u0))))
            worst_sharp = max(worst_sharp, abs(
                bound - float(np.max(neg_L_log(chain, Pk @ e0)))))
    ok = worst_gap <= 1e-12 and worst_margin >= -1e-10 and worst_sharp <= 1e-10
    _criterion("c04 complete-graph closed forms", ok,
               f"transition gap {worst_gap:.2e} (tol 1e-12); "
               f"min margin {worst_margin:.2e} (tol -1e-10); "
               f"point-mass sharpness gap {worst_sharp:.2e} (tol 1e-10)")


def test_c05_relaxation_ode():
    ts = np.geomspace(1e-3, 20.0, 259)
    worst = max(abs(relaxation_residual(n, float(t)))
                for n in range(2, 11) for t in ts)
    _criterion("c05 relaxation ODE", worst <= 1e-10,
               f"max |phi' + F(phi)| = {worst:.2e} over n=2..10, "
               f"t in [1e-3, 20] (tol 1e-10)")


def test_c06_fractional_margins(profile_b05_d1, profile_b1_d1,
                                profile_b15_d1):
    x_grid = np.linspace(-40.0, 40.0, 10)
    settings = ((profile_b05_d1, np.geomspace(1.0, 10.0, 10), 0.005),
                (profile_b1_d1, np.geomspace(0.3, 10.0, 10), 0.01),
                (profile_b15_d1, np.geomspace(0.2, 10.0, 10), 0.02))
    t0 = time.perf_counter()
    parts, ok = [], True
    for prof, t_grid, spacing in settings:
        report = sweep_fractional_liyau(prof, 50, t_grid, x_grid, seed=1,
                                        spacing=spacing, extent=100.0)
        floor = min(m + e for m, e in report.samples)
        ok = ok and report.verdict != "fail" and len(report.samples) == 5000
        parts.append(f"beta={prof.beta:g}: 5000 margins, "
                     f"min(margin+err) {floor:.2e}, {report.verdict}")
    spike = spike_field(0.01, 100.0)
    sharp = fractional_liyau_margin(spike, 1.0, 1.0, 0.0, profile_b1_d1)
    sharp_ok = abs(sharp.value) <= 2.0 * sharp.error
    ok = ok and sharp_ok
    total = time.perf_counter() - t0
    ok = ok and total <= 600.0
    parts.append(f"kernel sup point |{sharp.value:.1e}| <= "
                 f"2x{sharp.error:.1e}: {sharp_ok}")
    _criterion("c06 fractional margins", ok,
               "; ".join(parts) + f"; {total:.0f}s (budget 600s)")


def test_c07_differential_form_consistency(profile_b05_d1, profile_b1_d1,
                                           profile_b15_d1):
    settings = ((profile_b05_d1, 0.01, (1.0, 5.0)),
                (profile_b1_d1, 0.01, (0.5, 5.0)),
                (profile_b15_d1, 0.02, (0.5, 5.0)))
    parts, ok = [], True
    for prof, spacing, t_range in settings:
        report = sweep_dh_consistency(prof, n_points=20, seed=2,
                                      spacing=spacing, t_range=t_range)
        ok = ok and report.min_margin >= 0.0
        parts.append(f"beta={prof.beta:g}: min(err budget - |gap|) "
                     f"{report.min_margin:.2e}")
    _criterion("c07 time-derivative form agrees with margin form", ok,
               "; ".join(parts) + " (20 points each, within combined error)")


def test_c08_harnack_bounds(profile_b05_d1, profile_b1_d1, profile_b15_d1):
    rng = np.random.default_rng(3)
    worst_kn = np.inf
    for _ in range(500):
        n = int(rng.integers(2, 11))
        u0 = log_uniform(rng, 1e-2, 1e2, size=n)
        t1 = float(log_uniform(rng, 0.05, 3.0))
        t2 = t1 * float(log_uniform(rng, 1.1, 5.0))
        worst_kn = min(worst_kn, harnack_check_kn(n, u0, t1, t2).min_margin)

    profs = {0.5: profile_b05_d1, 1.0: profile_b1_d1, 1.5: profile_b15_d1}
    n_pass = 0
    for i in range(200):
        beta = (0.5, 1.0, 1.5)[i % 3]
        u0 = random_positive_field(rng)
        t1 = float(log_uniform(rng, 0.3, 3.0))
        t2 = t1 * float(log_uniform(rng, 1.2, 4.0))
        x1, x2 = rng.uniform(-3.0, 3.0, size=2)
        rep = harnack_check_fractional(u0, beta, t1, t2, float(x1), float(x2),
                                       default_alpha(beta, 1), profs[beta])
        n_pass += rep.verdict != "fail"

    t1, t2, alpha = 1.0, 2.0, 1.0
    t_star = 0.5 * (t1 + t2)
    right = factor_for_a1(np.linspace(t_star, t2, 33), t1, t2, alpha)
    left = factor_for_a1(np.linspace(t1, t_star, 65, endpoint=False),
                         t1, t2, alpha)
    a1_ok = (np.all(right == 0.0) and np.all(left <= 0.0)
             and np.all(np.diff(left) > 0.0))

    ok = worst_kn >= -1e-10 and n_pass == 200 and a1_ok
    _criterion("c08 harnack bounds", ok,
               f"500 complete-graph configs min margin {worst_kn:.2e} "
               f"(tol -1e-10); {n_pass}/200 solution checks passed; "
               f"weight identity exact for t >= t*: {a1_ok}")


def test_c09_kernel_property_suite(profile_b05_d1, profile_b1_d1,
                                   profile_b15_d1, profile_b1_d2,
                                   profile_b1_d3):
    r = np.linspace(0.0, 30.0, 4001)
    worst_poisson = 0.0
    for prof in (profile_b1_d1, profile_b1_d2, profile_b1_d3):
        ref = poisson_profile(prof.d, r)
        worst_poisson = max(worst_poisson, float(
            np.max(np.abs(prof.eval(r) - ref) / ref)))

    worst_mass = max(abs(p.mass() - 1.0) for p in
                     (profile_b05_d1, profile_b1_d1, profile_b15_d1,
                      profile_b1_d2))

    worst_semi = 0.0
    for prof, s, t, h in ((profile_b05_d1, 1.0, 1.5, 0.01),
                          (profile_b1_d1, 0.3, 0.7, 0.01),
                          (profile_b15_d1, 0.3, 0.7, 0.02)):
        u0 = GridField.from_function(lambda x: eval_G(prof, s, x), h, 100.0,
                                     Extension("power", 1.0 + prof.beta),
                                     positive=True)
        u = solve_fractional(u0, prof.beta, t, prof)
        ref = eval_G(prof, s + t, u0.x)
        worst_semi = max(worst_semi,
                         float(np.max(np.abs(u.values - ref)) / ref.max()))

    comp_ok = True
    comps = []
    for prof in (profile_b05_d1, profile_b1_d1, profile_b15_d1):
        lo, hi = prof.comparability_ratio()
        comp_ok = comp_ok and 0.0 < lo <= hi < np.inf
        comps.append(f"beta={prof.beta:g} [{lo:.3g}, {hi:.3g}]")

    ok = (worst_poisson <= 1e-8 and worst_mass <= 1e-6
          and worst_semi <= 1e-4 and comp_ok)
    _criterion("c09 kernel properties", ok,
               f"Poisson closed-form rel gap {worst_poisson:.1e} (tol 1e-8); "
               f"mass defect {worst_mass:.1e} (tol 1e-6); "
               f"semigroup rel gap {worst_semi:.1e} (tol 1e-4); "
               f"comparability {', '.join(comps)}")


def test_c10_constant_beta_sweep(tmp_path):
    code = cli_main(["liyau-const", "--sweep", "beta:0.5:1.9:6",
                     "--outdir", str(tmp_path)])
    lines = (tmp_path / "liyau_const_sweep.csv").read_text().splitlines()
    annotated = any("no claim" in ln for ln in lines if ln.startswith("#"))
    rows = [ln.split(",") for ln in lines if not ln.startswith("#")][1:]
    betas = [float(r[0]) for r in rows]
    vals = [float(r[2]) for r in rows]
    errs = [float(r[3]) for r in rows]
    monotone = all(a > b for a, b in zip(vals, vals[1:]))
    ok = (code == 0 and len(rows) == 6 and monotone
          and all(e > 0 for e in errs) and annotated)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    ok = ok and "liyau_const_sweep.csv" in manifest["files"]
    _criterion("c10 constant-vs-beta sweep", ok,
               f"C({betas[0]:g},1)={vals[0]:.4f} ... C({betas[-1]:g},1)="
               f"{vals[-1]:.4f}, monotone={monotone}, error bars present, "
               "limit left unquantified")
