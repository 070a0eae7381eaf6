"""The benchmark's workloads: seeded check plans, the checks, and their truths.

A *check* is one unit of work a library caller waits for. Each workload
draws its checks from the seed alone, in cycles that rotate through the
inputs the workload covers, so a run always measures whole cycles.

margins    c06/c07 acceptance shape. One seeded random field per check at
           beta 0.5 / 1 / 1.5 with h = 0.005 / 0.01 / 0.02 (n = 40001 /
           20001 / 10001), 10 t x 10 x margins, then the differential
           Harnack consistency at 2 random points. The (beta, t, h, n)
           solves repeat from check to check and each solve feeds 10 point
           quadratures, so heat solves and singular quadrature dominate.
harnack    One harnack_check_fractional per check with a fresh field at
           h = 0.02 and log-uniform t1, t2, plus three K_n checks and one
           reduction check on a random chain. t never repeats, so t-keyed
           caches always miss, and no point quadrature runs.
constants  `liyau liyau-const` through cli.main over fixed (beta, d) cases
           covering d = 1, 2, 3. No heat solve: profile tabulation, the J
           scan and golden refinement, singular quadrature and file writes.

Reference truths: the semigroup identity G(s) * G(t) = G(s + t) on each
grid of margins and harnack (tolerance 1e-4), and the beta = 1 closed forms
C(1, d) = 2, 3 pi / 2, 8 and J(0) = 4 pi on constants.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WORKLOADS = ("margins", "harnack", "constants")
BETAS = (0.5, 1.0, 1.5)
EXTENT = 100.0

# c06 grids: spacing and t range per beta, x sample points
MARGIN_SPACING = {0.5: 0.005, 1.0: 0.01, 1.5: 0.02}
MARGIN_T_RANGE = {0.5: (1.0, 10.0), 1.0: (0.3, 10.0), 1.5: (0.2, 10.0)}
MARGIN_X_GRID = np.linspace(-40.0, 40.0, 10)
MARGIN_SAMPLES = 100
# c07 settings for the differential Harnack half
DH_SPACING = {0.5: 0.01, 1.0: 0.01, 1.5: 0.02}
DH_T_RANGE = {0.5: (1.0, 5.0), 1.0: (0.5, 5.0), 1.5: (0.5, 5.0)}
DH_POINTS = 2

HARNACK_SPACING = 0.02
# the n of every grid a heat solve or point quadrature runs on
GRID_SIZES = tuple(sorted({2 * round(EXTENT / h) + 1 for h in (
    *MARGIN_SPACING.values(), *DH_SPACING.values(), HARNACK_SPACING)}))
KN_CHECKS = 3
KN_TOL = 1e-10
KN_GAP_TOL = 1e-12

CONSTANT_CASES = ((1.0, 1), (0.5, 1), (1.5, 1), (1.0, 2), (0.7, 2),
                  (1.0, 3), (1.3, 3))
J_TABLE_ROWS = 49  # SearchSpec().nodes, the CLI default
CLOSED_FORM = {1: (2.0, 1e-3), 2: (1.5 * math.pi, 1e-2), 3: (8.0, 1e-2)}
J0_TRUTH = (4.0 * math.pi, 1e-3)

# (s, t) per beta, from the c09 kernel-property criterion
SEMIGROUP_CASES = {0.5: (1.0, 1.5), 1.0: (0.3, 0.7), 1.5: (0.3, 0.7)}
SEMIGROUP_TOL = 1e-4
SEMIGROUP_GRIDS = {
    "margins": tuple(MARGIN_SPACING.items()),
    "harnack": tuple((b, HARNACK_SPACING) for b in BETAS),
    "constants": (),
}


# ---- seeded plans ------------------------------------------------------------

def _log_uniform(rng: np.random.Generator, lo: float, hi: float) -> float:
    return float(np.exp(rng.uniform(np.log(lo), np.log(hi))))


def _margins_cycle(rng):
    return [{"beta": b, "field_seed": int(rng.integers(2 ** 32))} for b in BETAS]


def _harnack_cycle(rng):
    cycle = []
    for b in BETAS:
        t1 = _log_uniform(rng, 0.3, 3.0)
        kn = []
        for _ in range(KN_CHECKS):
            n = int(rng.integers(2, 11))
            u0 = [_log_uniform(rng, 1e-2, 1e2) for _ in range(n)]
            s1 = _log_uniform(rng, 0.05, 3.0)
            kn.append((n, u0, s1, s1 * _log_uniform(rng, 1.1, 5.0)))
        chain_n = int(rng.integers(2, 7))
        cycle.append({
            "beta": b, "field_seed": int(rng.integers(2 ** 32)),
            "t1": t1, "t2": t1 * _log_uniform(rng, 1.2, 4.0),
            "x1": float(rng.uniform(-3.0, 3.0)),
            "x2": float(rng.uniform(-3.0, 3.0)),
            "kn": kn,
            "chain_seed": int(rng.integers(2 ** 32)),
            "chain_u0": [_log_uniform(rng, 1e-2, 1e2) for _ in range(chain_n)],
            "chain_t": _log_uniform(rng, 1e-2, 10.0),
        })
    return cycle


def _constants_cycle(rng):
    return [{"beta": CONSTANT_CASES[i][0], "dim": CONSTANT_CASES[i][1]}
            for i in rng.permutation(len(CONSTANT_CASES))]


_CYCLES = {"margins": _margins_cycle, "harnack": _harnack_cycle,
           "constants": _constants_cycle}


def cycles(workload: str, seed: int):
    """Endless sequence of check cycles, determined by (workload, seed)."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    while True:
        yield _CYCLES[workload](rng)


def warmup_spec(workload: str, seed: int) -> dict:
    """The set-up's warm-up check, drawn from its own stream of the seed.

    constants always warms up on its first case so that set-up cost does
    not depend on which case the seed happens to put first.
    """
    if workload == "constants":
        return {"beta": CONSTANT_CASES[0][0], "dim": CONSTANT_CASES[0][1]}
    rng = np.random.default_rng([seed, WORKLOADS.index(workload), 1])
    return _CYCLES[workload](rng)[0]


# ---- checks -----------------------------------------------------------------

@dataclass
class Context:
    """What the set-up leaves behind for the checks."""

    profiles: dict  # beta -> d = 1 profile
    outdir: Path    # CLI output space inside the checkout


@dataclass
class CheckResult:
    """Outputs of one check and the reasons it failed, if any."""

    outputs: list = field(default_factory=list)   # compared bit for bit
    failures: list = field(default_factory=list)
    truths: list = field(default_factory=list)    # (label, error / tolerance)
    warnings: list = field(default_factory=list)  # messages recorded meanwhile

    def expect_report(self, label: str, report, n_samples: int):
        if report.verdict == "fail":
            self.failures.append(f"{label}: verdict fail "
                                 f"(min margin {report.min_margin:.3e})")
        if len(report.samples) != n_samples:
            self.failures.append(f"{label}: {len(report.samples)} samples, "
                                 f"expected {n_samples}")
        self.outputs.extend(v for pair in report.samples for v in pair)

    def truth(self, label: str, error: float, tol: float):
        ratio = error / tol
        self.truths.append((label, ratio))
        if not ratio <= 1.0:
            self.failures.append(f"{label}: error {error:.3e} exceeds {tol:g}")


def set_up(outdir: Path) -> Context:
    """The d = 1 profiles for every beta and their memoized constants."""
    from liyau import constant, stable

    profiles = {b: stable.build_profile(b, 1) for b in BETAS}
    for prof in profiles.values():
        constant.constant_for(prof)
    return Context(profiles, outdir)


def _margins_check(ctx: Context, spec: dict) -> CheckResult:
    from liyau import verify

    b = spec["beta"]
    prof = ctx.profiles[b]
    res = CheckResult()
    rep = verify.sweep_fractional_liyau(
        prof, 1, np.geomspace(*MARGIN_T_RANGE[b], 10), MARGIN_X_GRID,
        seed=spec["field_seed"], spacing=MARGIN_SPACING[b], extent=EXTENT)
    res.expect_report("margins", rep, MARGIN_SAMPLES)
    dh = verify.sweep_dh_consistency(
        prof, n_points=DH_POINTS, seed=spec["field_seed"],
        spacing=DH_SPACING[b], t_range=DH_T_RANGE[b])
    res.expect_report("dh-consistency", dh, DH_POINTS)
    if not dh.min_margin >= 0.0:
        res.failures.append(f"dh-consistency: gap exceeds combined error by "
                            f"{-dh.min_margin:.3e}")
    return res


def _harnack_check(ctx: Context, spec: dict) -> CheckResult:
    from liyau import harnack, markov, verify

    b = spec["beta"]
    res = CheckResult()
    u0 = verify.random_positive_field(np.random.default_rng(spec["field_seed"]),
                                      spacing=HARNACK_SPACING, extent=EXTENT)
    rep = harnack.harnack_check_fractional(
        u0, b, spec["t1"], spec["t2"], spec["x1"], spec["x2"],
        harnack.default_alpha(b, 1), ctx.profiles[b])
    res.expect_report("harnack-fractional", rep, 1)
    for n, kn_u0, t1, t2 in spec["kn"]:
        kn = harnack.harnack_check_kn(n, np.asarray(kn_u0), t1, t2)
        res.expect_report(f"harnack-kn n={n}", kn, n * n)
        if not kn.min_margin >= -KN_TOL:
            res.failures.append(f"harnack-kn n={n}: margin {kn.min_margin:.3e}")
    # complete-graph closed form, a rounding-level truth: pass/fail only
    n, _, t1, _ = spec["kn"][0]
    gap = float(np.max(np.abs(markov.transition_matrix(markov.complete_graph(n), t1)
                              - markov.transition_kn(n, t1))))
    res.outputs.append(gap)
    if not gap <= KN_GAP_TOL:
        res.failures.append(f"K_{n} transition gap {gap:.3e} exceeds {KN_GAP_TOL:g}")
    chain_u0 = np.asarray(spec["chain_u0"])
    chain = verify.random_connected_chain(np.random.default_rng(spec["chain_seed"]),
                                          chain_u0.size)
    red = verify.reduction_theorem_check_discrete(chain, chain_u0, spec["chain_t"])
    res.expect_report("reduction", red, chain_u0.size)
    return res


def _read_csv_rows(path: Path) -> list:
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    return [ln.split(",") for ln in lines[1:]]  # drop the header row


def _constants_check(ctx: Context, spec: dict) -> CheckResult:
    from liyau import cli

    b, d = spec["beta"], spec["dim"]
    res = CheckResult()
    out = ctx.outdir / f"b{b:g}_d{d}"
    shutil.rmtree(out, ignore_errors=True)  # a stale file must not pass
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["liyau-const", "--beta", repr(b), "--dim", str(d),
                         "--outdir", str(out)])
    if code != 0:
        res.failures.append(f"liyau-const beta={b:g} d={d}: exit code {code}")
        return res
    payload = json.loads((out / "liyau_const.json").read_text())
    rows = _read_csv_rows(out / "j_table.csv")
    manifest = json.loads((out / "manifest.json").read_text())
    c_ly, err = float(payload["c_ly"]), float(payload["error"])
    res.outputs += [c_ly, err, float(payload["y_star"])]
    res.outputs += [float(r[1]) for r in rows]
    if len(rows) != J_TABLE_ROWS:
        res.failures.append(f"j_table: {len(rows)} rows, expected {J_TABLE_ROWS}")
    if not (math.isfinite(c_ly) and math.isfinite(err) and err > 0):
        res.failures.append(f"constant {c_ly!r} +- {err!r} is not a finite bar")
    missing = {"j_table.csv", "liyau_const.json"} - set(manifest["files"])
    if missing:
        res.failures.append(f"manifest lacks {sorted(missing)}")
    if b == 1.0:
        target, tol = CLOSED_FORM[d]
        res.truth(f"C(1,{d})", abs(c_ly - target) / target, tol)
        if d == 1:
            j0 = float(rows[0][1])
            res.truth("J(0)", abs(j0 - J0_TRUTH[0]) / J0_TRUTH[0], J0_TRUTH[1])
    return res


_CHECKS = {"margins": _margins_check, "harnack": _harnack_check,
           "constants": _constants_check}


def run_check(ctx: Context, workload: str, spec: dict) -> CheckResult:
    return _CHECKS[workload](ctx, spec)


def semigroup_truths(ctx: Context, workload: str) -> list:
    """G(s) * G(t) = G(s + t) on each of the workload's grids, one result each.

    These run once per run, outside the timed loop: with a power-tailed
    initial datum a solve at n = 40001 costs as much as a margins check.
    """
    from liyau import fraclap, stable
    from liyau.fields import Extension, GridField

    results = []
    for b, h in SEMIGROUP_GRIDS[workload]:
        s, t = SEMIGROUP_CASES[b]
        prof = ctx.profiles[b]
        u0 = GridField.from_function(lambda x: stable.eval_G(prof, s, x), h,
                                     EXTENT, Extension("power", 1.0 + b),
                                     positive=True)
        u = fraclap.solve_fractional(u0, b, t, prof)
        ref = stable.eval_G(prof, s + t, u0.x)
        res = CheckResult()
        err = float(np.max(np.abs(u.values - ref)) / np.max(ref))
        res.outputs.append(err)
        res.truth(f"semigroup beta={b:g} h={h:g}", err, SEMIGROUP_TOL)
        results.append(res)
    return results
