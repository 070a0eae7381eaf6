"""Fractional Laplacian by point quadrature, and the solution engine."""
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.fft
from scipy.interpolate import CubicSpline

import liyau
from liyau import constant, fraclap, ops, singular
from liyau.constant import J_of_y
from liyau.fields import Extension, GridField
from liyau.fraclap import (SPLINE_REACH, _keep_spectrum, _solve_window,
                           _tail_nodes, dt_log_u, frac_laplacian_point,
                           gaussian_frac_laplacian, solve_fractional,
                           solve_fractional_at)
from liyau.ops import psi_upsilon_continuous
from liyau.singular import (RulePlan, grid_cell_edges, log_panel_edges,
                            weighted_singular)
from liyau.stable import StableDensityProfile, build_profile, eval_G
from liyau.verify import log_uniform, random_positive_field

INV_PI = 0.31830988618379067154  # (-Delta)^{1/2} Phi_1 at 0 = -d/dt Poisson


def gaussian_bump(spacing=0.02, extent=20.0):
    return GridField.from_function(lambda x: np.exp(-x ** 2), spacing, extent,
                                   Extension("constant"))


def spike(spacing, extent, mass=1.0, floor=1e-12):
    k = int(round(extent / spacing))
    vals = np.full(2 * k + 1, floor)
    vals[k] += mass / spacing
    return GridField(spacing, vals, Extension("constant"), positive=True)


# ---- pointwise operator ----------------------------------------------------

def test_point_constant_field_is_zero():
    f = GridField(0.1, np.ones(201), Extension("constant"))
    res = frac_laplacian_point(f, 0.7, 0.3)
    assert res.value == 0.0


def test_point_rejects_bad_arguments():
    f = gaussian_bump(0.1, 5.0)
    with pytest.raises(ValueError):
        frac_laplacian_point(f, 2.0, 0.0)
    with pytest.raises(ValueError):
        frac_laplacian_point(f, 0.5, 4.9)  # outside the central 80%


def test_cos_mode_multiplier_identity_point_route():
    # cos(xi x) is an eigenfunction with eigenvalue |xi|^beta; the grid edge
    # sits at the mode mean so the constant extension captures the
    # non-oscillatory tail, and panels stay under one period out to the edge
    xi = 2.0 * np.pi
    X, h = 47.25, 0.005
    xs = np.arange(-X, X + h / 2, h)
    f = GridField(h, np.cos(xi * xs), Extension("constant"))
    for beta in (0.5, 1.0, 1.5):
        amp = xi ** beta
        for x in (0.0, 0.125, 0.3):
            res = frac_laplacian_point(f, beta, x, max_panel_width=0.25)
            assert abs(res.value - amp * np.cos(xi * x)) <= 1e-4 * amp


def test_kernel_heat_equation_anchor(profile_b1_d1):
    # (-Delta)^{1/2} G(1,.)(0) = -d/dt [t/(pi(t^2+x^2))] at t=1, x=0 = 1/pi
    h, X = 0.02, 40.0
    xs = np.arange(-X, X + h / 2, h)
    f = GridField(h, profile_b1_d1.eval(np.abs(xs)),
                  Extension("power", exponent=2.0), positive=True)
    res = frac_laplacian_point(f, 1.0, 0.0)
    assert res.value == pytest.approx(INV_PI, abs=1e-4)


# ---- batched point route -----------------------------------------------------

def _log_fields():
    # a constant-extended bump and the log of a power-tailed field
    # (log-power extension), X = 20
    bump = GridField.from_function(lambda x: np.exp(-x ** 2) + 0.3 * np.sin(x),
                                   0.02, 20.0, Extension("constant"))
    tailed = GridField.from_function(lambda x: (1.0 + (x - 0.5) ** 2) ** -0.75,
                                     0.02, 20.0, Extension("power", 1.5),
                                     positive=True).log()
    return bump, tailed


@pytest.mark.parametrize("kwargs", [{}, {"max_panel_width": 0.25}])
def test_points_rows_match_lone_calls(kwargs):
    for f in _log_fields():
        edge = 0.8 * f.extent
        # on-grid, off-grid and the ends of the central 80%
        xs = np.array([-edge, -3.3, 0.0, 0.14, 1.2345, edge])
        for beta in (0.5, 1.0, 1.5):
            rows = frac_laplacian_point(f, beta, xs, **kwargs)
            assert rows.value.shape == rows.error.shape == xs.shape
            assert not rows.diverged
            for i, x in enumerate(xs):
                lone = frac_laplacian_point(f, beta, float(x), **kwargs)
                assert isinstance(lone.value, float)
                assert rows.value[i] == pytest.approx(lone.value, rel=1e-13, abs=0)
                assert rows.error[i] == pytest.approx(lone.error, rel=1e-9, abs=0)
                assert not lone.diverged


@pytest.mark.parametrize("width", [0.0, -1.0, np.nan])
def test_points_reject_a_panel_width_cap_not_above_zero(width, monkeypatch):
    # rejected where the plan builds its edges, before any quadrature runs,
    # and no plan is kept
    from liyau import fields

    f = gaussian_bump()
    monkeypatch.setattr(fraclap, "weighted_singular", None)
    fields._point_plan.cache_clear()
    with pytest.raises(ValueError, match="max_width must be > 0"):
        frac_laplacian_point(f, 1.0, [0.0, 1.0], max_panel_width=width)
    assert fields._point_plan.cache_info().currsize == 0
    with pytest.raises(ValueError, match="max_width must be > 0"):
        grid_cell_edges(0.02, 20.0, max_width=width)


def test_points_reject_a_point_outside_the_central_band():
    f, _ = _log_fields()
    xs = np.array([0.0, 1.0, 0.8 * f.extent + f.spacing])
    with pytest.raises(ValueError):
        frac_laplacian_point(f, 1.0, xs)


def test_diverging_row_is_flagged_alone():
    beta, delta = 1.0, 0.01
    edges = grid_cell_edges(delta, 20.0)
    good = [lambda h: h ** 2 * np.exp(-h), lambda h: 2.0 * h ** 2 * np.exp(-h)]
    bad = lambda h: h ** 2 * np.where(h > 5.0, np.inf, np.exp(-h))  # noqa: E731
    rows_F = [good[0], bad, good[1]]
    F = lambda h: np.stack([g(h) for g in rows_F])  # noqa: E731
    F2 = lambda h: F(h) / h ** 2  # noqa: E731
    res = weighted_singular(F, F2, RulePlan(beta, edges))
    # the diverged row shows as an infinite error bar
    assert res.diverged
    assert list(np.isinf(res.error)) == [False, True, False]
    for i in (0, 2):
        g = rows_F[i]
        lone = weighted_singular(g, lambda h, g=g: g(h) / h ** 2,
                                 RulePlan(beta, edges))
        assert not lone.diverged
        assert (res.value[i], res.error[i]) == (lone.value, lone.error)


def _per_rule_reference(F, F2, beta, edges):
    """weighted_singular assembled with one integrand call per rule: the
    two Jacobi rules, the near and far middle panels at both orders and the
    tail at both orders, eight calls in all."""
    edges = np.asarray(edges, dtype=float)
    delta, R = edges[0], edges[-1]

    def rowdot(a, b):
        return np.matmul(a[..., None, :], b)[..., 0]

    def disc(order):
        x, w = singular._jacobi(order, 1.0 - beta)
        return (delta / 2.0) ** (2.0 - beta) * rowdot(F2(delta * (x + 1.0) / 2.0), w)

    def cells(lo, hi, order):
        if len(lo) == 0:
            return 0.0
        H, half, w = singular.gauss_panels(lo, hi, order)
        vals = F(H.ravel())
        integ = vals.reshape(vals.shape[:-1] + H.shape) * H ** (-1.0 - beta)
        return rowdot(integ @ w, half)

    def mid(order_near, order_far):
        lo, hi = edges[:-1], edges[1:]
        k = min(singular.NEAR_CELLS, len(lo))
        return (cells(lo[:k], hi[:k], order_near)
                + cells(lo[k:], hi[k:], order_far))

    def tail(order):
        v_hi = 2.0 ** -np.arange(singular.TAIL_PANELS)
        V, half, w = singular.gauss_panels(v_hi / 2.0, v_hi, order)
        vals = F((R * V ** (-1.0 / beta)).ravel())
        vals = vals.reshape(vals.shape[:-1] + V.shape)
        scale = R ** -beta / beta
        rem = np.abs(np.mean(vals[..., -1, :], axis=-1)) * (v_hi[-1] / 2.0)
        return scale * rowdot(vals @ w, half), scale * rem

    inner, inner_lo = disc(singular.INNER_ORDER), disc(singular.INNER_ORDER - 4)
    m = mid(singular.GAUSS_ORDER, singular.FAR_ORDER)
    m_lo = mid(singular.GAUSS_ORDER // 2, singular.FAR_ORDER // 2)
    (tl, rem), (tl_lo, _) = tail(singular.TAIL_ORDER), tail(singular.TAIL_ORDER // 2)
    value = inner + m + tl
    error = (np.abs(inner - inner_lo) + np.abs(m - m_lo) + np.abs(tl - tl_lo)
             + rem + 1e-15 * np.abs(value))
    return value, error


@pytest.mark.parametrize("edges", [grid_cell_edges(0.01, 20.0),  # 32+ panels
                                   np.geomspace(0.05, 3.0, 20)])  # fewer
@pytest.mark.parametrize("rows", [False, True])
def test_quadrature_reads_each_integrand_once(edges, rows):
    beta = 0.7
    gs = [lambda h: h ** 2 * np.exp(-h), lambda h: np.log1p(h) ** 2,
          lambda h: -0.5 * h ** 2 / (1.0 + h ** 2)]
    if rows:
        F = lambda h: np.stack([g(h) for g in gs])  # noqa: E731
    else:
        F = gs[0]
    F2 = lambda h: F(h) / h ** 2  # noqa: E731
    calls = {"F": 0, "F2": 0}

    def counted(g, key):
        def integrand(h):
            calls[key] += 1
            return g(h)
        return integrand

    res = weighted_singular(counted(F, "F"), counted(F2, "F2"),
                            RulePlan(beta, edges))
    assert calls == {"F": 1, "F2": 1}
    value, error = _per_rule_reference(F, F2, beta, edges)
    assert np.asarray(res.value).tobytes() == np.asarray(value).tobytes()
    assert np.asarray(res.error).tobytes() == np.asarray(error).tobytes()
    assert np.shape(res.value) == ((3,) if rows else ())
    assert not res.diverged


@pytest.mark.parametrize("beta", [0.5, 1.0, 1.5])
@pytest.mark.parametrize("rows", [None, 1, 10])
def test_planned_edges_read_as_fresh_edges_bit_for_bit(beta, rows):
    # a plan held and read twice gives a fresh plan's bits: reading one
    # changes nothing in it
    edges = grid_cell_edges(0.01, 20.0)
    a = np.linspace(0.5, 2.0, rows or 1)[:, None]
    if rows is None:
        a = a[0]
    F = lambda h: a * np.sin(h) ** 2 / (1.0 + h ** 2)  # noqa: E731
    F2 = lambda h: a * np.sinc(h / np.pi) ** 2 / (1.0 + h ** 2)  # noqa: E731
    plan = RulePlan(beta, edges)
    planned = [weighted_singular(F, F2, plan) for _ in range(2)]
    fresh = weighted_singular(F, F2, RulePlan(beta, edges))
    assert np.shape(fresh.value) == (() if rows is None else (rows,))
    for res in planned:
        assert np.asarray(res.value).tobytes() == np.asarray(fresh.value).tobytes()
        assert np.asarray(res.error).tobytes() == np.asarray(fresh.error).tobytes()
        assert res.diverged == fresh.diverged


@pytest.mark.parametrize("profname", ["profile_b07_d2", "profile_b13_d3",
                                      "profile_b15_d1"])
def test_J_of_y_rounds_as_one_sphere_sum_per_rule(profname, request):
    # J's one batched integrand call, read in row blocks, gives each radius
    # the bits of a lone call per rule, BLAS's row sums included; at the
    # last y the far order-2 rule ends on 2 rows that gemv rounds apart from
    # groups of 4, which moves J's error at (0.7, 2) if they share a group
    prof = request.getfixturevalue(profname)
    for y in (0.0, 0.003, 0.37, 1.7, 12.0, 0.6574823075818834):
        derivs = prof.log_derivs(y)
        F, F2 = (lambda rho, k=k: constant._sphere_deficit(prof, y, derivs,
                                                            rho, k)
                 for k in (False, True))
        delta = constant.default_inner_radius(y)
        edges = log_panel_edges(delta, max(100.0, 8.0 * (1.0 + y)),
                                refine_center=y if y > delta else None)
        value, error = _per_rule_reference(F, F2, prof.beta, edges)
        res = J_of_y(prof, y)
        assert res.value == value, y
        assert res.error == max(
            error + 4.0 * prof.error_estimate * (1.0 + abs(value)), -value), y


def test_integrands_meet_only_at_the_first_panel_edge(monkeypatch,
                                                     profile_b1_d1):
    # weighted_singular hands F2 the inner disc (0, edges[0]) and F the rest;
    # PointExpansion reads each side of one grid cell its own way on this,
    # and a rule with nodes on panel ends would break it silently
    calls = []

    def recording(F, F2, plan):
        seen = {"F": [], "F2": []}

        def record(g, key):
            def integrand(h):
                seen[key].append(np.ravel(h))
                return g(h)
            return integrand

        calls.append((float(plan.edges[0]), seen))
        return weighted_singular(record(F, "F"), record(F2, "F2"), plan)

    for module in (fraclap, ops, constant):
        monkeypatch.setattr(module, "weighted_singular", recording)
    f = GridField.from_function(lambda y: 1.0 / (1.0 + y ** 2), 0.02, 20.0,
                                Extension("power", 2.0), positive=True).log()
    frac_laplacian_point(f, 1.0, np.array([0.0, 1.3]))  # the grid's plan
    frac_laplacian_point(f, 0.5, 0.3, max_panel_width=0.25)
    psi_upsilon_continuous(f, 1.5, -2.1)
    for y in (0.0, 0.003, 1.7):  # log_panel_edges, refined around y > delta
        J_of_y(profile_b1_d1, y)
    assert len(calls) == 6
    for delta, seen in calls:
        far = np.concatenate(seen["F"])
        near = np.concatenate(seen["F2"])
        assert far.size and near.size
        assert np.all(far >= delta)
        assert np.all((near > 0.0) & (near < delta))


# J_of_y as recorded before the batched route existed: scalar integrands
# keep their arithmetic bit for bit (the beta != 1 rows as recorded once the
# small-r series read below r_s)
J_PINNED = [("profile_b1_d1", 0.0, 12.566370614358432, 5.216961237226831e-06),
            ("profile_b1_d1", 1.7, 3.2304294638442155, 1.428489767559824e-06),
            ("profile_b05_d1", 0.3, 30.65929172325766, 1.4395479134287208e-05),
            ("profile_b15_d1", 5.0, -0.8542428073440019, 0.8542428073440019)]


@pytest.mark.parametrize("profname,y,value,error", J_PINNED)
def test_J_of_y_is_bit_identical(profname, y, value, error, request):
    res = J_of_y(request.getfixturevalue(profname), y)
    assert (res.value, res.error, res.diverged) == (value, error, False)


# (beta, x, (-Delta)^(beta/2) value and error, Psi_Upsilon value and error)
# of log (1 + (x - 0.3)^2)^(-(1 + beta)/2), as recorded while the panel
# layout and rule orders still came from a separate settings object
POINT_PINNED = [
    (0.5, 0.0, 2.5746767519201073, 0.0025400412433307187,
     1.8274491784009228, 0.002540033699608652),
    (0.5, 1.2345, 2.1141800844544925, 0.002624779874786948,
     1.6476250750819927, 0.0026247291888905886),
    (0.5, -3.3, 1.095413430917534, 0.002781832400554526,
     1.2898562355054797, 0.002781666933866941),
    (1.5, 0.0, 1.881583369002605, 0.00010586253985841434,
     0.7643165913611358, 0.00010584604747638682),
    (1.5, 1.2345, 0.5936986628562354, 0.00011649710860542142,
     1.2360306900799716, 0.00011650569022995689),
    (1.5, -3.3, -0.11347838895283563, 0.00013877813187661476,
     1.0599547021858444, 0.0001388076419365853)]


@pytest.mark.parametrize("beta,x,lap_value,lap_error,psi_value,psi_error",
                         POINT_PINNED)
def test_point_operators_are_bit_identical(beta, x, lap_value, lap_error,
                                           psi_value, psi_error):
    f = GridField.from_function(
        lambda y: (1.0 + (y - 0.3) ** 2) ** (-(1.0 + beta) / 2.0), 0.02,
        20.0, Extension("power", 1.0 + beta), positive=True).log()
    lap = frac_laplacian_point(f, beta, x)
    psi = psi_upsilon_continuous(f, beta, x)
    assert (lap.value, lap.error, lap.diverged) == (lap_value, lap_error, False)
    assert (psi.value, psi.error, psi.diverged) == (psi_value, psi_error, False)


# ---- exact references -------------------------------------------------------

def test_spectral_single_mode_is_eigenfunction():
    # cos(xi x) has the eigenvalue |xi|^beta, the operator's Fourier symbol;
    # each xi puts the grid edge X at a zero of the mode, so the constant
    # extension carries the non-oscillatory tail
    h, X = 0.005, 47.25
    xs = np.arange(-X, X + h / 2, h)
    for xi in (120.5 * np.pi / X, 180.5 * np.pi / X):  # 8.01 and 12.0
        f = GridField(h, np.cos(xi * xs), Extension("constant"))
        for beta in (0.5, 1.0, 1.5):
            amp = xi ** beta
            for x in (0.0, 0.125, 0.3):
                res = frac_laplacian_point(f, beta, x, max_panel_width=0.25)
                assert abs(res.value - amp * np.cos(xi * x)) <= 1e-4 * amp


def test_gaussian_closed_form_matches_fourier_integral():
    # the inverse transform of |xi|^beta sqrt(pi) exp(-xi^2/4), with
    # xi = s^2 to smooth the kink at 0, by 20-point Gauss panels of width
    # 0.05 on s in [0, 8]; the integrand is below 1e-300 beyond
    nodes, weights = np.polynomial.legendre.leggauss(20)
    lo = np.arange(160) * 0.05
    s = (lo[:, None] + 0.025 * (nodes[None, :] + 1.0)).ravel()
    w = np.tile(0.025 * weights, lo.size)
    for beta in (0.5, 1.0, 1.5, 1.9):
        for x in (0.0, 0.7, 2.0, 5.0):
            want = np.dot(w, 2.0 * s ** (2.0 * beta + 1.0) * np.exp(-s ** 4 / 4.0)
                          * np.cos(s * s * x)) / np.sqrt(np.pi)
            assert abs(gaussian_frac_laplacian(beta, x) - want) <= 1e-14


def test_dual_route_agreement_gaussian_bump():
    # point quadrature vs the closed form on 9 interior points; the operator
    # changes sign on this set, so agreement is measured against its peak
    f = gaussian_bump()
    for beta in (0.5, 0.8, 1.5):
        amp = gaussian_frac_laplacian(beta, 0.0)
        for x in np.linspace(-2.0, 2.0, 9):
            q = frac_laplacian_point(f, beta, x)
            assert abs(q.value - gaussian_frac_laplacian(beta, x)) <= 1e-3 * amp


# ---- solution engine -------------------------------------------------------

def test_solve_rejects_bad_arguments(profile_b1_d1):
    u0 = gaussian_bump(0.05, 10.0)
    with pytest.raises(ValueError):
        solve_fractional(u0, 1.0, 0.0, profile_b1_d1)
    bad = GridField(0.05, np.where(np.arange(401) == 3, 0.0, 1.0),
                    Extension("constant"))
    with pytest.raises(ValueError):
        solve_fractional(bad, 1.0, 1.0, profile_b1_d1)
    with pytest.raises(ValueError):
        solve_fractional(u0, 0.5, 1.0, profile_b1_d1)  # profile beta mismatch


def test_spike_reproduces_kernel(profile_b1_d1):
    u0 = spike(0.02, 40.0)
    u = solve_fractional(u0, 1.0, 1.0, profile_b1_d1)
    ref = eval_G(profile_b1_d1, 1.0, u0.x)
    assert np.max(np.abs(u.values - ref)) < 1e-6
    assert u.positive


def test_constant_initial_datum_stays_constant(profile_b1_d1, profile_b05_d1):
    u0 = GridField(0.02, np.ones(2001), Extension("constant"), positive=True)
    for beta, prof in ((1.0, profile_b1_d1), (0.5, profile_b05_d1)):
        u = solve_fractional(u0, beta, 1.0, prof)
        assert np.max(np.abs(u.values - 1.0)) < 1e-6


def test_semigroup_property_beta1(profile_b1_d1):
    # u0 = G(s,.) with its true power tail declared -> u(t) = G(s+t,.)
    s, t = 0.3, 0.7
    h, X = 0.02, 40.0
    xs = np.arange(-X, X + h / 2, h)
    u0 = GridField(h, eval_G(profile_b1_d1, s, xs),
                   Extension("power", exponent=2.0), positive=True)
    u = solve_fractional(u0, 1.0, t, profile_b1_d1)
    ref = eval_G(profile_b1_d1, s + t, xs)
    assert np.max(np.abs(u.values - ref) / ref.max()) < 1e-4


def test_mass_conservation_compact_support(profile_b05_d1):
    h, X = 0.02, 40.0
    xs = np.arange(-X, X + h / 2, h)
    vals = np.where(np.abs(xs) < 3.0, np.exp(-xs ** 2) + 1e-12, 1e-12)
    u0 = GridField(h, vals, Extension("constant"), positive=True)
    u = solve_fractional(u0, 0.5, 2.0, profile_b05_d1)
    # grid mass of u0 (the positivity floor makes the extension-model mass
    # infinite; the solver conserves what is actually on the grid)
    m0 = float(np.trapezoid(u0.values, dx=h))
    assert u.mass() == pytest.approx(m0, rel=1e-4)
    # the solution's own mass splits between grid body and recorded tail
    assert u.tail_mass > 0.0


def test_log_of_a_solution_carries_no_tail_mass(profile_b1_d1):
    # u's tail mass is no part of log u's integral: with a log-power
    # extension log u has none that is finite
    u0 = GridField.from_function(lambda x: np.exp(-x ** 2) + 1e-3, 0.05, 20.0,
                                 Extension("power", 2.0), positive=True)
    u = solve_fractional(u0, 1.0, 0.5, profile_b1_d1)
    assert np.isfinite(u.mass())
    assert not np.isfinite(u.log().mass())
    assert u.log().tail_mass is None


TAIL_MASS_SCRIPT = """
import numpy as np
from liyau.fraclap import solve_fractional
from liyau.stable import build_profile
from liyau.verify import random_positive_field
u0 = random_positive_field(np.random.default_rng(11))  # n = 10001
prof = build_profile(1.0, 1)
u = solve_fractional(u0, 1.0, 2.0, prof)
print(u0.values.size, u.tail_mass.hex())
# the sweeps' plans and layouts at n = 20001, where the kernel spectrum
# multiplies first
from liyau.verify import sweep_dh_consistency, sweep_fractional_liyau
for rep in (sweep_fractional_liyau(prof, 1, [0.5, 2.0, 8.0],
                                   np.linspace(-40.0, 40.0, 10), seed=1,
                                   spacing=0.01),
            sweep_dh_consistency(prof, n_points=2, seed=7, spacing=0.01)):
    print(" ".join(float(v).hex() for pair in rep.samples for v in pair))
"""


def test_tail_mass_does_not_depend_on_blas_threads():
    # OpenBLAS threads ddot above n = 10000, and each thread count rounds
    # the split sum differently
    out = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads,
                   PYTHONPATH=str(Path(liyau.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-c", TAIL_MASS_SCRIPT],
                              env=env, capture_output=True, text=True,
                              check=True)
        out.append(proc.stdout.split())
    assert out[0][0] == "10001" and len(out[0]) == 2 + 60 + 4
    assert out[0] == out[1]


def test_linearity_to_rounding(profile_b1_d1, rng):
    h, X = 0.05, 20.0
    xs = np.arange(-X, X + h / 2, h)
    a, b = 2.5, 0.3
    u0 = GridField(h, 1.0 + np.exp(-xs ** 2), Extension("constant"),
                   positive=True)
    v0 = GridField(h, 2.0 + np.exp(-(xs - 1.0) ** 2 / 2.0),
                   Extension("constant"), positive=True)
    w0 = GridField(h, a * u0.values + b * v0.values, Extension("constant"),
                   positive=True)
    t = 1.3
    w = solve_fractional(w0, 1.0, t, profile_b1_d1)
    lin = (a * solve_fractional(u0, 1.0, t, profile_b1_d1).values
           + b * solve_fractional(v0, 1.0, t, profile_b1_d1).values)
    assert np.max(np.abs(w.values - lin)) < 1e-12 * np.max(lin)


def test_comparison_principle(profile_b1_d1, rng):
    h, X = 0.05, 20.0
    xs = np.arange(-X, X + h / 2, h)
    u0 = GridField(h, 1.0 + np.exp(-xs ** 2), Extension("constant"),
                   positive=True)
    v0 = GridField(h, u0.values + 0.5 * np.exp(-(xs + 2.0) ** 2),
                   Extension("constant"), positive=True)
    u = solve_fractional(u0, 1.0, 0.8, profile_b1_d1)
    v = solve_fractional(v0, 1.0, 0.8, profile_b1_d1)
    assert np.all(u.values <= v.values + 1e-10)


def test_time_consistency(profile_b1_d1):
    u0 = gaussian_bump(0.02, 40.0)
    u0 = GridField(u0.spacing, u0.values + 0.5, Extension("constant"),
                   positive=True)
    s, t = 0.4, 0.9
    once = solve_fractional(u0, 1.0, s + t, profile_b1_d1)
    twice = solve_fractional(solve_fractional(u0, 1.0, s, profile_b1_d1),
                             1.0, t, profile_b1_d1)
    n = once.values.size
    sl = slice(n // 10, 9 * n // 10)
    assert np.max(np.abs(once.values[sl] - twice.values[sl])) < 1e-4


def _direct_solve(u0, beta, t, profile):
    """The solver's rule node by node: trapezoid sum over the grid, the
    h^2/12 Euler-Maclaurin end terms and the extension's tail terms."""
    h, X, x, v = u0.spacing, u0.extent, u0.x, u0.values
    n = x.size
    w = np.full(n, h)
    w[0] = w[-1] = 0.5 * h
    diff = x[:, None] - x[None, :]
    out = eval_G(profile, t, diff.ravel()).reshape(n, n) @ (w * v)
    tf = t ** (-1.0 / beta)

    def slope(s):  # d/ds G(t, s)
        _, L1, _ = profile.log_derivs(np.abs(s) * tf)
        return np.sign(s) * tf * eval_G(profile, t, s) * L1

    dv_r = (v[-1] - v[-2]) / h
    dv_l = (v[1] - v[0]) / h
    Fp_r = -slope(x - X) * v[-1] + eval_G(profile, t, x - X) * dv_r
    Fp_l = -slope(x + X) * v[0] + eval_G(profile, t, x + X) * dv_l
    out = out - h ** 2 / 12.0 * (Fp_r - Fp_l)
    if u0.extension.kind == "constant":
        out = out + 0.5 * (v[-1] * profile.exceedance((X - x) * tf)
                           + v[0] * profile.exceedance((X + x) * tf))
    else:
        q = u0.extension.exponent
        nodes, weights = _tail_nodes(X)
        for sign, edge in ((1.0, v[-1]), (-1.0, v[0])):
            D = x[:, None] - sign * nodes[None, :]
            K = eval_G(profile, t, D.ravel()).reshape(D.shape)
            out = out + K @ (weights * edge * (nodes / X) ** (-q))
    return out


@pytest.mark.parametrize("ext", [Extension("constant"), Extension("power", 1.5)])
@pytest.mark.parametrize("t", [0.05, 1.0])
def test_solve_matches_direct_sum(profile_b05_d1, ext, t):
    # n = 201; edges carry both a value and a slope, so every term is live
    h, X = 0.1, 10.0
    xs = np.arange(-X, X + h / 2, h)
    vals = 0.5 + np.exp(-(xs - 1.0) ** 2) + 0.2 * (1.0 + xs / X)
    u0 = GridField(h, vals, ext, positive=True)
    u = solve_fractional(u0, 0.5, t, profile_b05_d1)
    ref = _direct_solve(u0, 0.5, t, profile_b05_d1)
    assert np.max(np.abs(u.values - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("ext", [Extension("constant"), Extension("power", 1.5)])
@pytest.mark.parametrize("t", [0.05, 1.0])
@pytest.mark.parametrize("beta,profname", [(0.5, "profile_b05_d1"),
                                           (1.0, "profile_b1_d1"),
                                           (1.5, "profile_b15_d1")])
def test_solve_at_matches_grid_solve(beta, profname, t, ext, request):
    # n = 801, wide enough for interior windows and for windows clipped at
    # either end; edges carry a value and a slope, so every term is live
    prof = request.getfixturevalue(profname)
    h, X = 0.05, 20.0
    xs = np.arange(-X, X + h / 2, h)
    vals = 0.5 + np.exp(-(xs - 1.0) ** 2) + 0.2 * (1.0 + xs / X)
    u0 = GridField(h, vals, ext, positive=True)
    u = solve_fractional(u0, beta, t, prof)
    rng = np.random.default_rng(11)
    nodes = u0.x
    pts = np.concatenate([
        nodes[[0, 1, 37, 400, 401, 650, -2, -1]],     # nodes, both ends too
        rng.uniform(-X, X, 8),                        # off grid
        [-X + 0.3 * h, -X + 0.99 * h, X - 0.5 * h, X - 0.01 * h],
        [nodes[SPLINE_REACH] + 0.4 * h, nodes[-SPLINE_REACH] - 0.6 * h]])
    for x in pts:
        want = u.eval(x)
        got = solve_fractional_at(u0, beta, t, x, prof)
        assert abs(got - want) <= 1e-13 * want, x


def test_power_tail_is_one_kernel_matrix_per_sum(profile_b1_d1, monkeypatch):
    # a node's tail depends on its distance from the edge alone, so both
    # edges read one n x 288 column matrix: u's sum builds one, du/dt's one
    h, X = 0.1, 10.0
    u0 = GridField.from_function(lambda x: (1.0 + x ** 2) ** -0.75, h, X,
                                 Extension("power", 1.5), positive=True)
    n, m = u0.values.size, _tail_nodes(X)[0].size
    points = []
    eval_G_ = fraclap.eval_G

    def counting(profile, t, r):
        if np.ndim(r) == 2:  # the tail's kernel matrix
            points.append(np.size(r))
        return eval_G_(profile, t, r)

    monkeypatch.setattr(fraclap, "eval_G", counting)
    u = solve_fractional(u0, 1.0, 0.5, profile_b1_d1)
    assert m == 288 and points == [n * m]
    dt_log_u(u0, 1.0, 0.5, profile_b1_d1, u)
    assert points == [n * m, n * m]


@pytest.mark.parametrize("x", [0.013, -7.77, -10.0, 9.98])
def test_window_reads_are_scipy_cubic_spline_bit_for_bit(x, profile_b05_d1):
    # the window's not-a-knot spline through its solved nodes, interior and
    # clipped at either grid end
    h, X = 0.05, 10.0
    xs = np.arange(-X, X + h / 2, h)
    u0 = GridField(h, 0.5 + np.exp(-(xs - 1.0) ** 2), Extension("power", 1.5),
                   positive=True)
    idx, u = _solve_window(u0, 0.5, 0.4, x, profile_b05_d1)
    assert (idx[0] == 0 or idx[-1] == u0.values.size - 1) == (abs(x) > 8.0)
    want = CubicSpline(u0.x[idx], u)(x)
    got = solve_fractional_at(u0, 0.5, 0.4, x, profile_b05_d1)
    assert np.float64(got).tobytes() == want.tobytes()


def test_solve_at_rejects_what_the_grid_solve_rejects(profile_b1_d1):
    u0 = gaussian_bump(0.05, 10.0)
    with pytest.raises(ValueError, match="t must be positive"):
        solve_fractional_at(u0, 1.0, 0.0, 0.0, profile_b1_d1)
    with pytest.raises(ValueError, match="different beta"):
        solve_fractional_at(u0, 0.5, 1.0, 0.0, profile_b1_d1)
    bad = GridField(0.05, np.where(np.arange(401) == 3, 0.0, 1.0),
                    Extension("constant"))
    with pytest.raises(ValueError, match="positive"):
        solve_fractional_at(bad, 1.0, 1.0, 0.0, profile_b1_d1)
    for x in (10.0 + 1e-9, -10.5, np.nan):
        with pytest.raises(ValueError, match=r"extent X = 10"):
            solve_fractional_at(u0, 1.0, 1.0, x, profile_b1_d1)


def test_u0_transformed_once_across_t(profile_b1_d1, monkeypatch):
    h, X = 0.05, 20.0

    def fresh():
        return GridField.from_function(lambda x: 1.0 + np.exp(-x ** 2), h, X,
                                       positive=True)

    ts = (0.3, 1.0, 2.5)
    # each t on a field of its own, so each solve transforms its u0 afresh
    alone = [solve_fractional(fresh(), 1.0, t, profile_b1_d1) for t in ts]
    alone_dt = dt_log_u(fresh(), 1.0, 1.0, profile_b1_d1, alone[1])
    u0 = fresh()
    n = u0.values.size
    seen = []
    rfft = scipy.fft.rfft

    def counting(a, *args, **kwargs):
        a = np.asarray(a)
        seen.append(a.size >= n and np.allclose(a[1:n - 1], h * u0.values[1:-1])
                    and not np.any(a[n:]))
        return rfft(a, *args, **kwargs)

    monkeypatch.setattr(scipy.fft, "rfft", counting)
    lone = [solve_fractional(u0, 1.0, t, profile_b1_d1) for t in ts]
    assert sum(seen) == 3 and u0._spectrum is None  # a lone solve keeps nothing
    seen.clear()
    _keep_spectrum(u0)
    kept = [solve_fractional(u0, 1.0, t, profile_b1_d1) for t in ts]
    dt = dt_log_u(u0, 1.0, 1.0, profile_b1_d1, kept[1])  # the du/dt sum too
    assert sum(seen) == 1
    for a, b, c in zip(alone, lone, kept):
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.values, c.values)
    assert np.array_equal(dt.values, alone_dt.values)


def test_exceedance_computes_mass_once(monkeypatch):
    prof = build_profile(1.0, 1)  # fresh: fixtures may hold a warm table
    calls = []
    mass = StableDensityProfile.mass

    def counting(self):
        calls.append(1)
        return mass(self)

    monkeypatch.setattr(StableDensityProfile, "mass", counting)
    for r in (0.0, 1e-4, [0.5, 3.0], 1e9):
        prof.exceedance(r)
    assert len(calls) <= 1
    assert prof.exceedance(0.0) == pytest.approx(mass(prof), rel=1e-12)


# ---- time derivative of log u ----------------------------------------------

def test_dt_log_spike_at_center(profile_b1_d1):
    # log G(t,0) = -log t - log pi at beta=1, so d/dt log u(t,0) = -1/t
    u0 = spike(0.02, 40.0)
    u = solve_fractional(u0, 1.0, 1.0, profile_b1_d1)
    g = dt_log_u(u0, 1.0, 1.0, profile_b1_d1, u)
    i = (g.values.size - 1) // 2
    assert g.values[i] == pytest.approx(-1.0, rel=2e-3)


def test_dt_log_constant_is_zero(profile_b1_d1):
    u0 = GridField(0.05, np.full(801, 2.0), Extension("constant"),
                   positive=True)
    u = solve_fractional(u0, 1.0, 1.0, profile_b1_d1)
    g = dt_log_u(u0, 1.0, 1.0, profile_b1_d1, u)
    # the mass beyond the edges makes up the body's deficit only to the
    # solver's accuracy, so exact zero is not on offer
    assert np.max(np.abs(g.values)) < 1e-6


@pytest.mark.parametrize("beta,profname", [(1.0, "profile_b1_d1"),
                                           (0.5, "profile_b05_d1")])
def test_chain_rule_three_way_identity(beta, profname, request):
    # d/dt log u = -(-Delta)^{beta/2}(log u) + Psi_Upsilon(log u), checked
    # on interior points within the combined reported errors
    prof = request.getfixturevalue(profname)
    h, X = 0.02, 40.0
    xs = np.arange(-X, X + h / 2, h)
    vals = 1.0 + np.exp(-xs ** 2) + 0.7 * np.exp(-(xs - 2.0) ** 2 / 4.0)
    u0 = GridField(h, vals, Extension("constant"), positive=True)
    t = 1.0
    u = solve_fractional(u0, beta, t, prof)
    lhs = dt_log_u(u0, beta, t, prof, u)
    logu = u.log()
    for x in (0.0, 0.8, -1.6):
        lap = frac_laplacian_point(logu, beta, x)
        psi = psi_upsilon_continuous(logu, beta, x)
        i = round((x + X) / h)
        resid = lhs.values[i] - (-lap.value + psi.value)
        budget = lap.error + psi.error + 1e-6
        assert abs(resid) <= budget


def test_dt_log_u_rejects_bad_t_beta_and_grid(profile_b1_d1):
    u0 = gaussian_bump(0.05, 10.0)
    u = solve_fractional(u0, 1.0, 1.0, profile_b1_d1)
    with pytest.raises(ValueError, match="t must be positive"):
        dt_log_u(u0, 1.0, 0.0, profile_b1_d1, u)
    with pytest.raises(ValueError, match="different beta"):
        dt_log_u(u0, 0.5, 1.0, profile_b1_d1, u)
    with pytest.raises(ValueError, match="u0's grid"):
        dt_log_u(u0, 1.0, 1.0, profile_b1_d1, gaussian_bump(0.05, 5.0))


# step of the Richardson oracle, relative to t: at 0.02 its own truncation
# error reaches 1.6e-8 on the c07 points
ORACLE_DT_REL = 0.0025


def _richardson(values, dt):
    """d/dt from values at t + dt, t - dt, t + dt/2 and t - dt/2: the two
    central differences combined to fourth order."""
    d1 = (values[0] - values[1]) / (2.0 * dt)
    d2 = (values[2] - values[3]) / dt
    return (4.0 * d2 - d1) / 3.0


def _richardson_dt_log_u(u0, beta, t, profile):
    """The oracle: d/dt log u at every node from four whole-grid solves."""
    dt = ORACLE_DT_REL * t
    logs = [np.log(solve_fractional(u0, beta, s, profile).values)
            for s in (t + dt, t - dt, t + dt / 2.0, t - dt / 2.0)]
    return _richardson(logs, dt)


def test_richardson_step_is_exact_on_quartics():
    # the oracle's fourth-order combination differentiates a quartic exactly
    def f(s):
        return 1.0 - s + 0.5 * s ** 3 - 2.0 * s ** 4

    for t in (0.5, 2.0):
        dt = ORACLE_DT_REL * t
        val = _richardson([f(s) for s in (t + dt, t - dt, t + dt / 2.0,
                                          t - dt / 2.0)], dt)
        assert val == pytest.approx(-1.0 + 1.5 * t ** 2 - 8.0 * t ** 3,
                                    rel=1e-10)


@pytest.mark.parametrize("ext", [Extension("constant"), Extension("power", 1.5)])
@pytest.mark.parametrize("beta,profname", [(0.5, "profile_b05_d1"),
                                           (1.0, "profile_b1_d1"),
                                           (1.5, "profile_b15_d1")])
def test_dt_log_u_matches_richardson_to_the_grid_ends(beta, profname, ext,
                                                      request):
    # every node of an n = 801 grid whose edges carry a value and a slope,
    # so the end correction and the tail terms are live; the oracle
    # differentiates the exceedance table's interpolant, which the exact
    # r G/(beta t) does not (measured worst gap 6.2e-8)
    prof = request.getfixturevalue(profname)
    h, X = 0.05, 20.0
    xs = np.arange(-X, X + h / 2, h)
    vals = 0.5 + np.exp(-(xs - 1.0) ** 2) + 0.2 * (1.0 + xs / X)
    u0 = GridField(h, vals, ext, positive=True)
    for t in (0.5, 2.0):
        u = solve_fractional(u0, beta, t, prof)
        got = dt_log_u(u0, beta, t, prof, u).values
        want = _richardson_dt_log_u(u0, beta, t, prof)
        assert np.max(np.abs(got - want)) <= 2e-7


@pytest.mark.parametrize("beta,profname,spacing,t_range", [
    (0.5, "profile_b05_d1", 0.01, (1.0, 5.0)),
    (1.0, "profile_b1_d1", 0.01, (0.5, 5.0)),
    (1.5, "profile_b15_d1", 0.02, (0.5, 5.0))])
def test_dt_log_u_at_matches_richardson_on_c07_points(beta, profname, spacing,
                                                      t_range, request):
    # the c07 sweep's field and (t, x) draws (seed 2, 20 points)
    prof = request.getfixturevalue(profname)
    rng = np.random.default_rng(2)
    u0 = random_positive_field(rng, spacing=spacing, extent=100.0)
    _keep_spectrum(u0)  # one transform of u0 for the oracle's 80 solves
    for _ in range(20):
        t = float(log_uniform(rng, *t_range))
        x = float(rng.uniform(-40.0, 40.0))
        got = dt_log_u(u0, beta, t, prof,
                       solve_fractional(u0, beta, t, prof)).eval(x)
        want = CubicSpline(u0.x, _richardson_dt_log_u(u0, beta, t, prof))(x)
        assert abs(got - want) <= 1e-9


# ---- kernel plans ----------------------------------------------------------

@pytest.mark.parametrize("spacing,extent", [(0.05, 20.0), (0.01, 100.0)])
def test_plan_body_is_the_lone_product_bit_for_bit(profile_b1_d1, spacing,
                                                   extent):
    # n = 801 multiplies u0's spectrum first, n = 20001 the kernel's: the
    # order numpy's temporary elision gives the unnamed product below
    u0 = random_positive_field(np.random.default_rng(6), spacing, extent)
    n = u0.values.size
    length = scipy.fft.next_fast_len(2 * n - 1, real=True)
    plan = fraclap.HeatKernel(profile_b1_d1, 0.8, spacing, n, dt=True)
    spec = scipy.fft.rfft(fraclap._trapezoid_weighted(u0), n=length)
    for v, ends in enumerate(plan.ends):
        want = scipy.fft.irfft(
            spec * scipy.fft.rfft(fraclap._wrapped(ends[0], length)), length)
        assert np.array_equal(fraclap._convolve_body(u0, plan, v), want[:n])
        assert np.array_equal(fraclap._convolve_body(u0, plan, v), want[:n])


@pytest.mark.parametrize("ext", [Extension("constant"),
                                 Extension("power", 1.5)])
def test_one_plan_serves_every_field_and_both_sums(profile_b1_d1, ext):
    x = np.arange(-400, 401) * 0.05
    fields0 = [GridField(0.05, (1.0 + 0.04 * (x - c) ** 2) ** -0.75 + 0.1,
                         ext, positive=True) for c in (0.0, 2.5)]
    for t in (0.4, 2.0):
        plan = fraclap.HeatKernel(profile_b1_d1, t, 0.05, x.size, dt=True)
        for u0 in fields0:
            lone = solve_fractional(u0, 1.0, t, profile_b1_d1)
            u = solve_fractional(u0, 1.0, t, profile_b1_d1, plan=plan)
            assert np.array_equal(u.values, lone.values)
            assert (u.tail_mass, u.extension) == (lone.tail_mass,
                                                  lone.extension)
            assert np.array_equal(
                dt_log_u(u0, 1.0, t, profile_b1_d1, u, plan).values,
                dt_log_u(u0, 1.0, t, profile_b1_d1, lone).values)


def test_plan_rejects_another_t_grid_or_beta(profile_b1_d1, profile_b05_d1):
    u0 = gaussian_bump(0.05, 20.0)
    u0 = GridField(0.05, u0.values + 0.5, Extension("constant"), positive=True)
    n = u0.values.size
    plan = fraclap.HeatKernel(profile_b1_d1, 1.0, 0.05, n)
    coarse = GridField(0.1, u0.values[::2], Extension("constant"),
                       positive=True)
    u = solve_fractional(u0, 1.0, 1.0, profile_b1_d1, plan=plan)
    for args in ((u0, 1.0, 2.0, profile_b1_d1), (coarse, 1.0, 1.0, profile_b1_d1),
                 (u0, 0.5, 1.0, profile_b05_d1)):
        with pytest.raises(ValueError, match="plan is for another"):
            solve_fractional(*args, plan=plan)
    with pytest.raises(ValueError, match="no d/dt variant"):
        dt_log_u(u0, 1.0, 1.0, profile_b1_d1, u, plan)
