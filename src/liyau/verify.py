"""Executable checks of the core inequalities.

Discrete checks are exact-arithmetic statements (failures indicate bugs, not
numerics); continuous checks carry explicit quadrature error bars and use the
three-verdict scheme pass / pass-within-error / fail, where fail means a
margin fell below minus its own error estimate. Every margin reads its
constant as constant_for(profile), and a DH point's Li-Yau margin reads
the log u that its DH margin solved.
"""
from __future__ import annotations

import copy
import time
from dataclasses import dataclass, field as dc_field

import numpy as np

from .constant import LiYauConstantResult, constant_for
from .fields import Extension, GridField, _nodes
from .fraclap import (HeatKernel, _keep_spectrum, _window_eval, dt_log_u,
                      frac_laplacian_point, solve_fractional)
from .markov import MarkovChain, neg_L_log, transition_matrix
from .ops import psi_upsilon_continuous, psi_upsilon_discrete, upsilon
from .singular import QuadResult
from .stable import StableDensityProfile

REPORT_SCHEMA = "liyau-report v1"

# exact discrete inequalities are allowed this much rounding slack
EXACT_TOL = 1e-12
REDUCTION_TOL = 1e-10
# size bounds of random_key_instance's chains and atom sets
KEY_MAX_STATES = 8
KEY_MAX_ATOMS = 6


@dataclass
class VerificationReport:
    """Append-only margin collection with a three-way verdict."""

    name: str
    params: dict = dc_field(default_factory=dict)
    seed: int | None = None
    samples: list = dc_field(default_factory=list)  # (margin, error) pairs
    runtime: float = 0.0

    def add_sample(self, margin: float, error: float = 0.0):
        self.samples.append((float(margin), float(error)))

    @property
    def min_margin(self) -> float | None:
        """The smallest margin; NaN if any margin is NaN, in any order."""
        if not self.samples:
            return None
        return float(np.min([m for m, _ in self.samples]))

    @property
    def verdict(self) -> str:
        worst = "pass"
        for m, e in self.samples:
            if not m >= -e:  # a NaN margin or error never passes
                return "fail"
            if m < 0:
                worst = "pass-within-error"
        return worst

    def to_json_dict(self) -> dict:
        return {
            "schema": REPORT_SCHEMA,
            "check": self.name,
            "params": self.params,
            "seed": self.seed,
            "n_samples": len(self.samples),
            "min_margin": self.min_margin,
            "verdict": self.verdict,
            "runtime_s": self.runtime,
        }


# ---- discrete: the key inequality and the reduction principle --------------

def key_inequality_margin_discrete(H, f, chain: MarkovChain, nu_weights,
                                   x: int) -> float:
    """LHS - RHS of the averaging inequality at state x.

    With Pf(z) = sum_y H(z,y) f(y) nu_y, the inequality bounds
    Psi_Upsilon(log Pf)(x) Pf(x) by the nu-average of
    Psi_Upsilon(log H(., y))(x) H(x,y) f(y), Psi_Upsilon taken with the
    chain's jump rates. Exact in exact arithmetic.
    """
    H = np.asarray(H, dtype=float)
    f = np.asarray(f, dtype=float)
    nu = np.asarray(nu_weights, dtype=float)
    if np.any(H <= 0) or np.any(f <= 0) or np.any(nu <= 0):
        raise ValueError("H, f, and nu_weights must be positive")
    n = chain.n
    if H.ndim != 2 or H.shape[0] != n:
        raise ValueError(f"H must have {n} rows")
    if f.shape != (H.shape[1],) or nu.shape != (H.shape[1],):
        raise ValueError("f and nu_weights must match H's atom count")

    w = chain.jump_rates(x)
    logH = np.log(H)
    per_atom = w @ upsilon(logH - logH[x])  # Psi_Upsilon(log H(., y))(x)
    lhs = float(np.dot(per_atom, H[x] * f * nu))
    Pf = H @ (f * nu)
    rhs = psi_upsilon_discrete(np.log(Pf), chain, x) * Pf[x]
    return lhs - rhs


def reduction_theorem_check_discrete(chain: MarkovChain, u0,
                                     t: float) -> VerificationReport:
    """Envelope check: -L log u <= max_y -L log p(t,.,y), state by state."""
    start = time.perf_counter()
    P = transition_matrix(chain, t)
    if np.any(P <= 0):
        raise ValueError("zero transition probabilities; chain not irreducible")
    u0 = np.asarray(u0, dtype=float)
    if np.any(u0 <= 0):
        raise ValueError("u0 must be positive")
    # column y of -Q log P is -L log p(t, ., y)
    envelope = np.max(-(chain.Q @ np.log(P)), axis=1)
    sol_quantity = neg_L_log(chain, P @ u0)
    report = VerificationReport(
        name="reduction", params={"n": chain.n, "t": t})
    for m in envelope - sol_quantity:
        report.add_sample(m, REDUCTION_TOL)
    report.runtime = time.perf_counter() - start
    return report


# ---- randomized instance generators ----------------------------------------

def log_uniform(rng: np.random.Generator, lo: float, hi: float, size=None):
    return np.exp(rng.uniform(np.log(lo), np.log(hi), size))


def random_rate_matrix(rng: np.random.Generator, n: int) -> np.ndarray:
    """Dense positive rates (complete weighted graph): uniform [0.1, 2]."""
    R = rng.uniform(0.1, 2.0, size=(n, n))
    np.fill_diagonal(R, 0.0)
    return R


def random_connected_chain(rng: np.random.Generator, n: int) -> MarkovChain:
    """Sparse connected chain: random tree plus a few extra edges."""
    R = np.zeros((n, n))
    for i in range(1, n):
        j = int(rng.integers(0, i))
        R[i, j] = rng.uniform(0.1, 2.0)
        R[j, i] = rng.uniform(0.1, 2.0)
    extra = int(rng.integers(0, n))
    for _ in range(extra):
        i, j = rng.integers(0, n, size=2)
        if i != j and R[i, j] == 0:
            R[i, j] = rng.uniform(0.1, 2.0)
            R[j, i] = rng.uniform(0.1, 2.0)
    return MarkovChain.from_rates(R)


def random_key_instance(rng: np.random.Generator):
    """(H, f, chain, nu, x) tuple for one averaging-inequality trial: up to
    KEY_MAX_STATES states and KEY_MAX_ATOMS atoms."""
    n = int(rng.integers(2, KEY_MAX_STATES + 1))
    m = int(rng.integers(1, KEY_MAX_ATOMS + 1))
    H = log_uniform(rng, 1e-2, 1e2, size=(n, m))
    f = log_uniform(rng, 1e-2, 1e2, size=m)
    nu = rng.uniform(0.1, 2.0, size=m)
    chain = MarkovChain.from_rates(random_rate_matrix(rng, n))
    x = int(rng.integers(0, n))
    return H, f, chain, nu, x


def sweep_key_inequality(n_samples: int = 1000, seed: int = 0) -> VerificationReport:
    start = time.perf_counter()
    rng = np.random.default_rng(seed)
    report = VerificationReport(name="key-inequality",
                                params={"n_samples": n_samples}, seed=seed)
    for _ in range(n_samples):
        H, f, chain, nu, x = random_key_instance(rng)
        report.add_sample(key_inequality_margin_discrete(H, f, chain, nu, x),
                          EXACT_TOL)
    report.runtime = time.perf_counter() - start
    return report


def sweep_reduction(n_samples: int = 500, seed: int = 0) -> VerificationReport:
    start = time.perf_counter()
    rng = np.random.default_rng(seed)
    report = VerificationReport(name="reduction-sweep",
                                params={"n_samples": n_samples}, seed=seed)
    for _ in range(n_samples):
        n = int(rng.integers(2, 7))
        chain = random_connected_chain(rng, n)
        u0 = log_uniform(rng, 1e-2, 1e2, size=n)
        t = float(log_uniform(rng, 1e-2, 10.0))
        sub = reduction_theorem_check_discrete(chain, u0, t)
        report.add_sample(sub.min_margin, REDUCTION_TOL)
    report.runtime = time.perf_counter() - start
    return report


# ---- continuous: fractional Li-Yau and differential Harnack ----------------

def random_positive_field(rng: np.random.Generator, spacing: float = 0.02,
                          extent: float = 100.0) -> GridField:
    """Positive base level plus 1-3 smooth bumps; constant extension.

    Bump widths stay >= 0.5 so the samples are effectively band-limited on
    the grids used by the solver.
    """
    x = _nodes(spacing, 2 * int(round(extent / spacing)) + 1)
    vals = np.full(x.shape, float(log_uniform(rng, 1e-2, 1e2)))
    for _ in range(int(rng.integers(1, 4))):
        a = float(log_uniform(rng, 1e-2, 1e2))
        center = rng.uniform(-extent / 4.0, extent / 4.0)
        width = float(log_uniform(rng, 0.5, 5.0))
        vals = vals + a * np.exp(-((x - center) / width) ** 2)
    return GridField(spacing, vals, Extension("constant"), positive=True)


def spike_field(spacing: float, extent: float, x0: float = 0.0) -> GridField:
    """Near-delta datum: mass 1 in the cell at x0, on a floor of 1e-12."""
    k = int(round(extent / spacing))
    vals = np.full(2 * k + 1, 1e-12)
    i0 = k + int(round(x0 / spacing))
    if not 0 <= i0 <= 2 * k:
        raise ValueError(f"x0 = {x0:g} lies off the grid's extent X = {extent:g}")
    vals[i0] += 1.0 / spacing
    return GridField(spacing, vals, Extension("constant"), positive=True)


def liyau_margin_on_solution(u: GridField, beta: float, t: float, x,
                             profile: StableDensityProfile) -> QuadResult:
    """C_LY/t minus (-Delta)^(beta/2) log u at x, one point or an array."""
    if profile.beta != beta:
        raise ValueError("profile was built for a different beta")
    return _liyau_margin(u.log(), beta, t, x, constant_for(profile))


def _liyau_margin(log_u: GridField, beta: float, t: float, x,
                  const: LiYauConstantResult) -> QuadResult:
    lap = frac_laplacian_point(log_u, beta, x)
    return lap.scaled(-1.0) + QuadResult(const.value / t, const.error / t)


def fractional_liyau_margin(u0: GridField, beta: float, t: float, x: float,
                            profile: StableDensityProfile) -> QuadResult:
    """C_LY/t minus the fractional Laplacian of log u(t, .) at x."""
    u = solve_fractional(u0, beta, t, profile)
    return liyau_margin_on_solution(u, beta, t, x, profile)


def differential_harnack_margin(u0: GridField, beta: float, t: float, x: float,
                                profile: StableDensityProfile) -> QuadResult:
    """d/dt log u - Psi_Upsilon(log u) + C_LY/t at (t, x), for u0 solved
    at t. x must lie in the central 80% of the grid; it is checked before
    any solve. u's sum and the du/dt sum share one transform of u0, which
    a copy of the field keeps for the call, not the caller's u0."""
    u0.require_central(x)
    u0 = copy.copy(u0)
    _keep_spectrum(u0)
    return _dh_margin(u0, beta, t, x, profile, constant_for(profile))[1]


def _dh_margin(u0: GridField, beta: float, t: float, x,
               profile: StableDensityProfile,
               const: LiYauConstantResult) -> tuple[GridField, QuadResult]:
    """(log u, the DH margin at (t, x)) for u = u0 solved at t.

    u's sum and the du/dt sum share one d/dt plan. d/dt log u is
    dt_log_u's whole-grid du/dt sum divided by u, read at x by the spline
    through the nodes within SPLINE_REACH of x's cell.
    """
    plan = HeatKernel(profile, t, u0.spacing, u0.values.size, dt=True)
    u = solve_fractional(u0, beta, t, profile, plan=plan)
    log_u = u.log()
    dt = _window_eval(dt_log_u(u0, beta, t, profile, u, plan), x)
    psi = psi_upsilon_continuous(log_u, beta, x)
    value = dt - psi.value + const.value / t
    error = psi.error + const.error / t
    return log_u, QuadResult(value, error, psi.diverged)


def sweep_fractional_liyau(profile: StableDensityProfile, n_fields: int,
                           t_grid, x_grid, seed: int = 0, spacing: float = 0.02,
                           extent: float = 100.0) -> VerificationReport:
    """Margins over seeded initial data and a (t, x) product grid."""
    start = time.perf_counter()
    beta = profile.beta
    const = constant_for(profile)
    rng = np.random.default_rng(seed)
    report = VerificationReport(
        name="fractional-liyau",
        params={"beta": beta, "n_fields": n_fields,
                "t_grid": [float(t) for t in t_grid],
                "x_grid": [float(x) for x in x_grid]},
        seed=seed)
    # plans[t] lives while a later field reads it
    plans = {}
    for i in range(n_fields):
        u0 = random_positive_field(rng, spacing=spacing, extent=extent)
        _keep_spectrum(u0)  # one transform of u0 for every t
        for t in map(float, t_grid):
            plan = plans.pop(t, None) or HeatKernel(profile, t, u0.spacing,
                                                    u0.values.size)
            if i + 1 < n_fields:
                plans[t] = plan
            u = solve_fractional(u0, beta, t, profile, plan=plan)
            m = _liyau_margin(u.log(), beta, t, x_grid, const)
            for value, error in zip(m.value, m.error):
                report.add_sample(value, error)
            del plan, u  # released before the next solve
    report.runtime = time.perf_counter() - start
    return report


def sweep_dh_consistency(profile: StableDensityProfile, n_points: int = 20,
                         seed: int = 0, spacing: float = 0.02,
                         extent: float = 100.0,
                         t_range: tuple = (0.5, 5.0)) -> VerificationReport:
    """|DH margin - Li-Yau margin| <= combined error at random (t, x).

    The two margins are connected by the logarithmic chain rule; their gap
    measures the stacked quadrature and heat-solve errors, so the
    sample margin recorded here is (combined error) - |gap|.
    """
    start = time.perf_counter()
    rng = np.random.default_rng(seed)
    const = constant_for(profile)
    u0 = random_positive_field(rng, spacing=spacing, extent=extent)
    _keep_spectrum(u0)  # one transform of u0 for every t
    report = VerificationReport(
        name="dh-consistency", params={"beta": profile.beta,
                                       "n_points": n_points}, seed=seed)
    for _ in range(n_points):
        t = float(log_uniform(rng, *t_range))
        x = float(rng.uniform(-0.4 * extent, 0.4 * extent))
        # both margins read one log u
        log_u, dh = _dh_margin(u0, profile.beta, t, x, profile, const)
        ly = _liyau_margin(log_u, profile.beta, t, x, const)
        gap = abs(dh.value - ly.value)
        combined = dh.error + ly.error
        report.add_sample(combined - gap, 0.0)
        del log_u  # released before the next solve
    report.runtime = time.perf_counter() - start
    return report
