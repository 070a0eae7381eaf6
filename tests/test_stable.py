"""Rotationally symmetric stable densities from Fourier inversion.

Closed-form anchors (frozen, computed from the Gamma-function expressions
independently of this package):
  Phi_beta(0)     = d * omega_d * Gamma(d/beta) / ((2 pi)^d * beta)
  c_{beta,d}      = 2^beta Gamma((d+beta)/2) / (pi^{d/2} |Gamma(-beta/2)|)
  beta = 1        -> Poisson kernel C_d (1+r^2)^{-(d+1)/2}
"""
import dataclasses
import tracemalloc

import numpy as np
import pytest
from scipy.interpolate import CubicHermiteSpline, CubicSpline
from scipy.special import fresnel, gamma, gammaln

from liyau.stable import (R_MAX, PER_DECADE, StableDensityProfile, _Series,
                          _ray_transform, ball_volume, build_profile, eval_G,
                          normalizing_constant, poisson_profile,
                          profile_at_zero)

# frozen oracles
PHI0_B05_D1 = 0.63661977236758134308  # 2/pi
PHI0_B15_D1 = 0.28735275145216444502  # Gamma(2/3)/(1.5 pi)
C_B05_D1 = 0.19947114020071633897
C_B15_D1 = 0.29920671030107450845
C_B1_D1 = 0.31830988618379067154  # 1/pi


def test_profile_at_zero_closed_form():
    assert profile_at_zero(0.5, 1) == pytest.approx(PHI0_B05_D1, rel=1e-14)
    assert profile_at_zero(1.5, 1) == pytest.approx(PHI0_B15_D1, rel=1e-14)
    assert profile_at_zero(1.0, 1) == pytest.approx(1.0 / np.pi, rel=1e-14)


def test_normalizing_constant_closed_form():
    assert normalizing_constant(0.5, 1) == pytest.approx(C_B05_D1, rel=1e-14)
    assert normalizing_constant(1.5, 1) == pytest.approx(C_B15_D1, rel=1e-14)
    assert normalizing_constant(1.0, 1) == pytest.approx(C_B1_D1, rel=1e-14)


def test_beta_one_is_poisson_kernel(profile_b1_d1, profile_b1_d2):
    r = np.array([0.0, 0.3, 1.0, 5.0, 40.0])
    assert profile_b1_d1.eval(r) == pytest.approx(
        1.0 / (np.pi * (1.0 + r ** 2)), rel=1e-8)
    assert profile_b1_d2.eval(r) == pytest.approx(
        (1.0 / (2.0 * np.pi)) * (1.0 + r ** 2) ** -1.5, rel=1e-8)


def test_beta_one_d3_poisson():
    prof = build_profile(1.0, 3)
    r = np.array([0.0, 1.0, 10.0])
    assert prof.eval(r) == pytest.approx(
        (1.0 / np.pi ** 2) * (1.0 + r ** 2) ** -2.0, rel=1e-8)


@pytest.mark.parametrize("beta,d,tol", [(0.5, 1, 1e-6), (1.5, 1, 1e-6),
                                        (1.0, 2, 1e-6), (0.7, 2, 1e-4)])
def test_mass_is_one(beta, d, tol, request):
    # (0.7, 2) keeps the tolerance of its former table, capped at r = 300
    # (1 + 9.2e-6); to R_MAX and the series it reads 1 - 8.1e-9
    cache = {(0.5, 1): "profile_b05_d1", (1.5, 1): "profile_b15_d1",
             (1.0, 2): "profile_b1_d2", (0.7, 2): "profile_b07_d2"}
    prof = request.getfixturevalue(cache[(beta, d)])
    assert prof.mass() == pytest.approx(1.0, abs=tol)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_mass_is_one_at_beta_one(d):
    # the Poisson kernel's exact mass beyond r, at r = 0
    assert build_profile(1.0, d).mass() == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_beta_one_exceedance_is_the_poisson_kernels_mass_beyond_r(d):
    # the mass of C_d (1 + r^2)^(-(d+1)/2) beyond r in closed form, with no
    # pass across the table: at r = 0 it is 1 to rounding
    prof = build_profile(1.0, d)
    r = np.concatenate([[0.0], np.geomspace(1e-6, 1e6, 241)])
    angle = np.pi / 2.0 - np.arctan(np.minimum(r, 1.0))  # arctan(1/r) below 1
    angle[r > 1.0] = np.arctan(1.0 / r[r > 1.0])
    want = {1: 2.0 / np.pi * angle,
            2: 1.0 / np.sqrt(1.0 + r * r),
            3: 2.0 / np.pi * (angle + r / (1.0 + r * r))}[d]
    got = prof.exceedance(r)
    assert np.all(np.abs(got - want) <= 4.0 * np.spacing(want))
    assert abs(prof.mass() - 1.0) <= 2.0 * np.finfo(float).eps
    assert prof.exceedance(0.0) == prof.mass()
    assert prof._exceed is None


# a node's bar covers its gap to the truth and is at most this much looser
BAR_SLACK = 100.0
EPS = np.finfo(float).eps


@pytest.mark.parametrize("d", [1, 2, 3])
def test_ray_inversion_matches_poisson_kernel(d):
    # the tilted ray at beta = 1 (phi = pi/4) on every radius of a table that
    # runs to 1e6, with the H0 kernel in d = 2; below 4 eps the closed form's
    # own rounding hides the gap
    r = np.geomspace(1e-3, 1e6, 217)
    vals, errs = _ray_transform(1.0, d, r)
    exact = poisson_profile(d, r)
    gap = np.abs(vals - exact)
    assert np.all(gap <= errs)
    assert np.all(errs <= BAR_SLACK * np.maximum(gap, 4.0 * EPS * exact))
    assert np.all(gap <= 1e-11 * exact)


def _fresnel_profile(r):
    """The beta = 1/2, d = 1 profile in closed form, and its rounding.

    Phi(r) = r^(-3/2) / sqrt(2 pi) [sin(a) (1/2 - S(z)) + cos(a) (1/2 - C(z))]
    with a = 1/(4 r) and z = 1/sqrt(2 pi r). At small r the two terms
    cancel, and the rounding of 1/2 - S and 1/2 - C is scaled up by
    r^(-3/2): that is the closed form's own error.
    """
    S, C = fresnel(1.0 / np.sqrt(2.0 * np.pi * r))
    a = 0.25 / r
    scale = r ** -1.5 / np.sqrt(2.0 * np.pi)
    return (scale * (np.sin(a) * (0.5 - S) + np.cos(a) * (0.5 - C)),
            8.0 * EPS * scale * (np.abs(np.sin(a)) + np.abs(np.cos(a))))


def test_ray_inversion_matches_fresnel_closed_form(profile_b05_d1):
    # the table holds the ray's values, and at every table radius from 1e-3
    # out to R_MAX each node's bar covers its gap to the closed form up to
    # the closed form's own rounding. (Below 1e-3 the rounding of a = 1/(4r)
    # and the cancellation of the two terms cost the closed form up to 2e-10
    # relative, beyond that model; there the ray matches a 40-digit
    # evaluation to 2e-16.) Beyond R_MAX, out to 1e6, the large-r series
    # matches it too, within its remainder bound
    prof = profile_b05_d1
    vals, errs = _ray_transform(0.5, 1, prof.r_table[1:])
    assert np.array_equal(prof.values[1:], vals)
    keep = prof.r_table[1:] >= 1e-3
    r, vals, errs = prof.r_table[1:][keep], vals[keep], errs[keep]
    exact, rounding = _fresnel_profile(r)
    gap = np.abs(vals - exact)
    assert np.all(gap <= errs + rounding)
    assert np.all(errs <= BAR_SLACK * np.maximum(gap, rounding))
    assert np.all(gap <= 1e-10 * exact)
    far = np.geomspace(R_MAX, 1e6, 97)
    exact, rounding = _fresnel_profile(far)
    gap = np.abs(prof.eval(far) - exact)
    assert np.all(gap <= prof._large.bound * exact + rounding)


@pytest.mark.parametrize("beta,d", [(0.5, 1), (1.3, 3), (0.7, 2), (1.3, 2)])
def test_ray_inversion_memory_stays_bounded(beta, d):
    # radii are summed RAY_BLOCK at a time, one block per group of the
    # table's radii: 3.5, 2.9 and 1.7 MB peak. (1.3, 2) also holds the
    # complex H0 of each block: 4.9 MB peak
    tracemalloc.start()
    try:
        build_profile(beta, d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (5.5e6 if (beta, d) == (1.3, 2) else 5e6)


def _small_r_series_d2(beta, r):
    """Phi in d = 2 from its small-r series, convergent for beta > 1, and
    the rounding of its sum:
    (2 pi beta)^-1 sum_k (-1)^k Gamma((2k+2)/beta) / (k!)^2 (r/2)^(2k)."""
    k = np.arange(60)[:, None]
    terms = ((-1.0) ** k * np.exp(gammaln((2 * k + 2) / beta)
                                  - 2.0 * gammaln(k + 1.0))
             * (r / 2.0) ** (2 * k)) / (2.0 * np.pi * beta)
    return terms.sum(axis=0), 4.0 * EPS * np.abs(terms).sum(axis=0)


def _bergstrom_terms(beta, d, r, n):
    """Phi from the first n terms of Bergstrom's (1952) large-r series,
    summed directly:
    pi^(-d/2-1) sum_k ((-1)^(k+1)/k!) 2^(k beta) Gamma(k beta/2 + 1)
    Gamma((k beta + d)/2) sin(pi k beta/2) r^(-d - k beta).
    Returns the terms, one row per k."""
    k = np.arange(1, n + 1)[:, None]
    return ((-1.0) ** (k + 1) * np.sin(np.pi * k * beta / 2.0)
            * np.exp(k * beta * np.log(2.0) + gammaln(k * beta / 2.0 + 1.0)
                     + gammaln((k * beta + d) / 2.0) - gammaln(k + 1.0))
            * r ** (-d - k * beta) / np.pi ** (d / 2.0 + 1.0))


@pytest.mark.parametrize("beta", [1.05, 1.3, 1.7, 1.95])
def test_d2_ray_inversion_matches_the_series(beta):
    # the ray at 48 radii on [1e-3, 0.5) and at the table's nodes, on the
    # table's panels, against the convergent small-r series summed here:
    # each radius's bar covers its own gap and is at most BAR_SLACK looser.
    # Below r_s = 0.5 the profile reads the library's series, which
    # error_estimate covers. Beyond the table,
    # test_series_matches_the_ray_beyond_r_max takes over
    prof = build_profile(beta, 2)
    below = np.geomspace(1e-3, 0.5, 49)[:-1]
    r = np.concatenate([below, prof.r_table[1:]])
    mask = r <= 0.5
    exact, floor = _small_r_series_d2(beta, r[mask])
    assert np.max(np.abs(prof.eval(r[mask]) / exact - 1.0)) <= prof.error_estimate
    vals, errs = _ray_transform(beta, 2, r)
    assert np.array_equal(prof.values[1:], vals[below.size:])
    gap = np.abs(vals[mask] - exact)
    assert np.all(gap <= errs[mask] + floor)
    assert np.all(errs[mask] <= BAR_SLACK * np.maximum(gap, floor))


@pytest.mark.parametrize("beta", [0.1, 0.5, 0.9, 1.0, 1.3, 1.7, 1.99])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_series_matches_the_ray_beyond_r_max(beta, d):
    # the large-r series' eval and exp(log) on (R_MAX, 1e12] against the
    # ray's inversion: the gap lies within the ray's bar plus the series'
    # remainder bound. A profile reads the same series there, bit for bit;
    # build_profile rejects beta = 0.1, whose series is read directly
    series = _Series.large_r(beta, d)
    r = np.geomspace(np.nextafter(R_MAX, np.inf), 1e12, 145)
    vals, errs = _ray_transform(beta, d, r)
    phi = series.eval(r)
    assert np.all(np.abs(phi - vals) <= errs + series.bound * phi)
    np.testing.assert_allclose(np.exp(series.log(r)), phi, rtol=1e-13)
    if beta not in (0.1, 1.0):  # beta = 1 reads the Poisson kernel
        prof = build_profile(beta, d)
        assert np.array_equal(prof.eval(r), phi)
        assert np.array_equal(prof.log_value(r), series.log(r))


@pytest.mark.parametrize("beta,d", [(0.5, 1), (1.5, 1), (0.7, 2), (1.3, 3)])
def test_log_profile_is_continuous_across_r_max(beta, d, request):
    # the table's spline and the large-r series meet at R_MAX: L and r L'
    # agree on both sides within error_estimate
    prof = request.getfixturevalue(f"profile_b{beta:g}_d{d}".replace(".", ""))
    below, above = (prof.log_derivs(r) for r in
                    (R_MAX, np.nextafter(R_MAX, np.inf)))
    assert abs(above[0] - below[0]) <= prof.error_estimate
    assert R_MAX * abs(above[1] - below[1]) <= prof.error_estimate


@pytest.mark.parametrize("beta", [1.0, 0.5, 1.5])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_inner_disc_is_the_small_r_rule_integrated(beta, d):
    # the small-r series' mass within r, at r_s and half of it, against
    # Gauss-Legendre with 40 nodes on the series' own eval, which
    # integrates its polynomial in r to rounding; at beta = 1 against the
    # Poisson kernel too, which the series converges to
    series = _Series.small_r(beta, d)
    x, w = np.polynomial.legendre.leggauss(40)
    for r in (series.r_cut, 0.5 * series.r_cut):
        rho = 0.5 * r * (1.0 + x)
        quad = 0.5 * r * d * ball_volume(d) * float(
            np.sum(w * series.eval(rho) * rho ** (d - 1)))
        assert series.mass(r) == pytest.approx(quad, rel=1e-14)
        if beta == 1.0:
            exact = 0.5 * r * d * ball_volume(d) * float(
                np.sum(w * poisson_profile(d, rho) * rho ** (d - 1)))
            assert series.mass(r) == pytest.approx(exact, rel=1e-14)
    assert series.mass(0.0) == 0.0


@pytest.mark.parametrize("profname", ["profile_b05_d1", "profile_b15_d1",
                                      "profile_b07_d2", "profile_b13_d2",
                                      "profile_b13_d3"])
def test_error_estimate_covers_the_interpolation(profname, request):
    # the table's interpolation against the inversion itself, at 19 radii
    # inside every table interval, and the small-r series at 49 radii below
    # the table
    prof = request.getfixturevalue(profname)
    u = np.log(prof.r_table[1:])
    inside = np.exp(u[:-1, None] + np.diff(u)[:, None]
                    * np.linspace(0.05, 0.95, 19)).ravel()
    r = np.concatenate([np.linspace(0.02, 0.98, 49) * prof.r_table[1], inside])
    vals, _ = _ray_transform(prof.beta, prof.d, r)
    assert np.max(np.abs(prof.eval(r) / vals - 1.0)) <= prof.error_estimate


def test_value_at_zero_matches_closed_form(profile_b05_d1, profile_b15_d1):
    assert profile_b05_d1.eval(0.0) == pytest.approx(PHI0_B05_D1, rel=1e-8)
    assert profile_b15_d1.eval(0.0) == pytest.approx(PHI0_B15_D1, rel=1e-8)


def test_tail_coefficient_matches_jump_constant():
    # Phi(r) ~ c_{beta,d} r^{-d-beta}: the series' leading coefficient is
    # the Gamma-expression constant to 4 ulp, in every dimension
    for beta in (0.1, 0.5, 0.7, 1.0, 1.3, 1.5, 1.99):
        for d in (1, 2, 3):
            c = normalizing_constant(beta, d)
            a1 = _Series.large_r(beta, d).p[0]
            assert abs(a1 - c) <= 4.0 * np.spacing(c), (beta, d)


def test_positivity_and_monotone_decay(profile_b05_d1, profile_b15_d1):
    r = np.geomspace(1e-3, 1e5, 200)
    for prof in (profile_b05_d1, profile_b15_d1):
        v = prof.eval(r)
        assert np.all(v > 0.0)
        assert np.all(np.diff(v) < 0.0)


def test_comparability_bounds_finite_positive(profile_b05_d1, profile_b1_d1,
                                              profile_b15_d1):
    for prof in (profile_b05_d1, profile_b1_d1, profile_b15_d1):
        lo, hi = prof.comparability_ratio()
        assert 0.0 < lo <= hi < np.inf
        # both the peak and the tail amplitude sit inside the bracket
        assert lo <= prof.eval(0.0) <= hi


def test_log_value_consistent_with_eval(profile_b05_d1):
    r = np.array([0.01, 0.5, 3.0, 200.0])
    assert profile_b05_d1.log_value(r) == pytest.approx(
        np.log(profile_b05_d1.eval(r)), abs=1e-10)


@pytest.mark.parametrize("profname", ["profile_b05_d1", "profile_b15_d1",
                                      "profile_b1_d1"])
def test_log_slope_is_log_derivs_slope(profname, request):
    # the small-r series below r_table[1], the table, the large-r series
    # beyond r_max, and the beta = 1 closed form, each bit for bit
    prof = request.getfixturevalue(profname)
    r1, rm = prof.r_table[1], prof.r_max
    r = np.concatenate([[0.0, 0.3 * r1, 0.99 * r1], np.geomspace(r1, rm, 97),
                        [1.01 * rm, 10.0 * rm, 1e3 * rm]])
    assert np.array_equal(prof.log_slope(r), prof.log_derivs(r)[1])
    assert prof.log_slope(2.5) == prof.log_derivs(2.5)[1]


def test_log_derivs_match_finite_differences(profile_b15_d1):
    eps = 1e-5
    for r in (0.45, 0.55, 2.0, 30.0):
        L, L1, L2 = profile_b15_d1.log_derivs(r)
        up = profile_b15_d1.log_value(r + eps)
        dn = profile_b15_d1.log_value(r - eps)
        assert L1 == pytest.approx((up - dn) / (2 * eps), abs=1e-5)
        assert L2 == pytest.approx((up + dn - 2.0 * L) / eps ** 2, abs=1e-3)


def test_exceedance_decreases_to_zero(profile_b05_d1):
    prof = profile_b05_d1
    r = np.geomspace(0.1, prof.r_max, 50)
    e = prof.exceedance(r)
    assert np.all(np.diff(e) <= 1e-15)
    assert e[0] < 1.0
    # beyond the table: twice the large-r series' terms integrated,
    # a_k r^(-k beta) / (k beta), with as many terms as the profile keeps
    n = len(prof._large.p)
    k = np.arange(1, n + 1)
    for rm in (prof.r_max, 1e4):
        tail = 2.0 * rm * np.sum(_bergstrom_terms(0.5, 1, rm, n)[:, 0]
                                 / (0.5 * k))
        assert prof.exceedance(rm) == pytest.approx(tail, rel=1e-12)
    # near the origin the exceedance approaches the full mass
    assert prof.exceedance(1e-4) == pytest.approx(1.0, abs=1e-3)


SPLINE_PROFILES = ["profile_b05_d1", "profile_b15_d1", "profile_b07_d2",
                   "profile_b13_d3"]


def _same_bytes(a, b):
    return (np.shape(a) == np.shape(b)
            and np.asarray(a).tobytes() == np.asarray(b).tobytes())


def _reads(u, rng):
    """Random points across and beyond [u[0], u[-1]], the knots and their
    neighbours, points far beyond both ends, and a NaN."""
    return np.concatenate([rng.uniform(u[0] - 2.0, u[-1] + 2.0, 3000), u,
                           np.nextafter(u, np.inf), np.nextafter(u, -np.inf),
                           [u[0] - 50.0, u[-1] + 50.0, np.nan]])


@pytest.mark.parametrize("name", SPLINE_PROFILES)
def test_profile_spline_is_scipy_cubic_spline_bit_for_bit(name, request):
    # clamped to the small-r series' slope r L' at r_s and to the large-r
    # series' at R_MAX
    prof = request.getfixturevalue(name)
    r = prof.r_table[1:]
    left = r[0] * prof._small.log_derivs(r[:1], True)[0][0]
    right = r[-1] * prof._large.log_derivs(r[-1:], True)[0][0]
    u = np.log(r)
    ref = CubicSpline(u, np.log(prof.values[1:]),
                      bc_type=((1, left), (1, right)))
    sp = prof._get_spline()
    for k in range(4):
        # PPoly's sums start from 0.0; the low-order rows carry that addition
        assert _same_bytes(sp.c[k], ref.c[k] + 0.0 if k >= 2 else ref.c[k])
    pts = _reads(u, np.random.default_rng(3))
    for nu in range(3):
        assert _same_bytes(sp(pts, nu), ref(pts, nu)), nu
        for p in (pts[0], u[7], np.nan):  # 0-d inputs read 0-d arrays
            assert _same_bytes(sp(np.float64(p), nu), ref(np.float64(p), nu))
    r = np.exp(pts)
    r = r[(r >= prof.r_table[1]) & (r <= prof.r_max)]  # the table's region
    assert _same_bytes(prof.log_value(r), ref(np.log(r)))


@pytest.mark.parametrize("name", SPLINE_PROFILES)
def test_exceedance_is_scipy_hermite_spline_bit_for_bit(name, request):
    prof = request.getfixturevalue(name)
    prof.exceedance(1.0)
    grid, cum, hermite, _ = prof._exceed
    # the pass's cumulative mass and its slope in log r
    slope = -prof.d * ball_volume(prof.d) * prof.eval(grid) * grid ** prof.d
    ref = CubicHermiteSpline(np.log(grid), cum, slope)
    for k in range(4):
        assert _same_bytes(hermite.c[k], ref.c[k] + 0.0 if k >= 2 else ref.c[k])
    pts = _reads(np.log(grid), np.random.default_rng(4))
    for nu in range(4):
        assert _same_bytes(hermite(pts, nu), ref(pts, nu)), nu
    r = np.exp(pts)
    r = r[(r > grid[0]) & (r < grid[-1])]  # the Hermite cubic's region
    assert _same_bytes(prof.exceedance(r), ref(np.log(r)))


def test_self_similar_scaling_of_eval_G(profile_b05_d1):
    # G(t, x) = t^{-d/beta} Phi(|x| t^{-1/beta})
    t, x = 2.7, 1.3
    s = t ** (-1.0 / 0.5)
    assert eval_G(profile_b05_d1, t, x) == pytest.approx(
        t ** (-1.0 / 0.5) * profile_b05_d1.eval(x * s), rel=1e-13)
    assert eval_G(profile_b05_d1, 1.0, x) == pytest.approx(
        profile_b05_d1.eval(x), rel=1e-14)


def test_text_round_trip_bit_exact(profile_b05_d1):
    prof = profile_b05_d1
    again = StableDensityProfile.from_text(prof.to_text())
    assert again.beta == prof.beta
    assert again.d == prof.d
    assert np.array_equal(again.r_table, prof.r_table)
    assert np.array_equal(again.values, prof.values)
    assert again.error_estimate == prof.error_estimate
    assert again.to_text() == prof.to_text()
    # evaluation path identical after the round trip
    r = np.array([0.02, 1.0, 77.0])
    assert np.array_equal(again.eval(r), prof.eval(r))


def test_profile_arrays_are_read_only_copies(profile_b05_d1):
    # the spline and exceedance caches and constant_for's key read both
    # arrays
    prof = profile_b05_d1
    values = prof.values.copy()
    again = dataclasses.replace(prof, values=values)
    values[3] = 0.0
    assert again.values[3] == prof.values[3]
    for a in (prof.r_table, prof.values, again.r_table, again.values):
        with pytest.raises(ValueError, match="read-only"):
            a[3] = 0.0


def test_build_profile_rejects_bad_arguments():
    with pytest.raises(ValueError):
        build_profile(2.0, 1)
    with pytest.raises(ValueError):
        build_profile(0.5, 4)


def test_profile_rejects_d_outside_1_to_3(profile_b1_d1):
    # a d = 4 profile would read the d = 1 closed forms: exceedance(1.0)
    # read 0.5, where the d = 4 Poisson kernel holds 0.8839 outside r = 1
    r = profile_b1_d1.r_table
    for d in (4, 0):
        with pytest.raises(ValueError, match="d must be 1, 2, or 3"):
            StableDensityProfile(1.0, d, r, poisson_profile(4, r), 1e-15,
                                 "closed-form-beta1")
    text = profile_b1_d1.to_text().replace("# d = 1\n", "# d = 4\n")
    assert "# d = 4" in text
    with pytest.raises(ValueError, match="d must be 1, 2, or 3"):
        StableDensityProfile.from_text(text)


def test_a_profile_is_frozen_so_its_caches_cannot_go_stale():
    prof = build_profile(0.5, 1)  # fresh: the fixtures are shared
    before = prof.eval(3.0)
    for f in dataclasses.fields(prof):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(prof, f.name, getattr(prof, f.name))
    with pytest.raises(dataclasses.FrozenInstanceError):
        prof.values = 2.0 * prof.values
    assert prof.eval(3.0) == before
    # build_profile hands back a profile with its error estimate in place
    assert 0.0 < prof.error_estimate < 1e-6
    # a profile compares by identity, not by its arrays
    assert prof != dataclasses.replace(prof) and prof == prof


def test_node_validation_error_recorded(profile_b05_d1, profile_b15_d1):
    # inversion must carry the validated per-node error level
    for prof in (profile_b05_d1, profile_b15_d1):
        assert 0.0 < prof.error_estimate < 1e-3


# ------------------------------------------------------------ region rule

def _small_r_log_series(beta, d, n):
    """(b, l): the first n coefficients of Bergstrom's small-r series
    Phi = sum_k b_k r^(2k),
    b_k = (-1)^k Gamma((2k+d)/beta) / (beta 2^(d-1) pi^(d/2) k! Gamma(k+d/2) 4^k),
    and of log Phi = sum_j l_j r^(2j), matching the powers of P' = (log P)' P."""
    k = np.arange(n)
    b = ((-1.0) ** k * np.exp(gammaln((2 * k + d) / beta) - gammaln(k + 1.0)
                              - gammaln(k + d / 2.0) - k * np.log(4.0))
         / (beta * 2.0 ** (d - 1) * np.pi ** (d / 2.0)))
    l = np.array([np.log(b[0])] + [0.0] * (n - 1))
    for j in range(1, n):
        l[j] = (j * b[j] - sum(i * l[i] * b[j - i] for i in range(1, j))) / (j * b[0])
    return b, l


def _region_formula(prof, r):
    """(Phi, L, L', L'') at one radius, each region's formula written out."""
    d, beta = prof.d, prof.beta
    if beta == 1.0:
        q = (d + 1) / 2.0
        cd = gamma(q) / np.pi ** q
        return (cd * (1.0 + r * r) ** -q, np.log(cd) - q * np.log1p(r * r),
                -2.0 * q * r / (1.0 + r * r),
                -2.0 * q * (1.0 - r * r) / (1.0 + r * r) ** 2)
    b, l = _small_r_log_series(beta, d, len(prof._small.p))
    j = np.arange(1, len(b))
    if r < prof.r_table[1]:
        # the small-r series and its log's series, summed term by term
        x = r * r
        return (np.sum(b * x ** np.arange(len(b))), l[0] + np.sum(l[j] * x ** j),
                np.sum(2 * j * l[j] * r ** (2 * j - 1)),
                np.sum(2 * j * (2 * j - 1) * l[j] * x ** (j - 1)))
    if r <= prof.r_max:
        # cubic spline of log Phi in log r through the table, its end
        # slopes the two series'
        r_s, r_end = prof.r_table[1], prof.r_table[-1]
        start = np.sum(2 * j * l[j] * r_s ** (2 * j))
        terms = _bergstrom_terms(beta, d, r_end, len(prof._large.p))[:, 0]
        end = -np.sum((d + beta * np.arange(1, len(terms) + 1)) * terms) / terms.sum()
        sp = CubicSpline(np.log(prof.r_table[1:]), np.log(prof.values[1:]),
                         bc_type=((1, start), (1, end)))
        u = np.log(r)
        return (np.exp(sp(u)), sp(u), sp(u, 1) / r,
                (sp(u, 2) - sp(u, 1)) / r ** 2)
    # the large-r series summed term by term, as many terms as it keeps
    terms = _bergstrom_terms(beta, d, r, len(prof._large.p))[:, 0]
    q = d + beta * np.arange(1, len(terms) + 1)
    phi = terms.sum()
    slope = -np.sum(q * terms) / (r * phi)
    return (phi, np.log(phi), slope,
            np.sum(q * (q + 1.0) * terms) / (r * r * phi) - slope ** 2)


def _boundary_radii(prof):
    r1, rm = prof.r_table[1], prof.r_max
    return np.array([0.0, 0.5 * r1, np.nextafter(r1, 0.0), r1,
                     np.nextafter(r1, np.inf), 2.0 * r1, 0.5 * rm,
                     np.nextafter(rm, 0.0), rm, np.nextafter(rm, np.inf),
                     2.0 * rm])


@pytest.mark.parametrize("name", ["profile_b05_d1", "profile_b1_d1"])
def test_region_rule_at_the_boundaries(name, request):
    # r_table[1] belongs to the spline and r_max to the table; below
    # r_table[1] the small-r series reads, and beyond r_max the large-r
    # series. The regions' L'' differ by 1e-6 or more at both ends, so a
    # radius handled by the wrong region fails the tolerance.
    prof = request.getfixturevalue(name)
    radii = _boundary_radii(prof)
    expect = np.array([[float(v) for v in _region_formula(prof, r)]
                       for r in radii])
    got = np.column_stack([prof.eval(radii), prof.log_value(radii),
                           *prof.log_derivs(radii)])
    # log_value and the first of log_derivs are both L
    np.testing.assert_allclose(got, expect[:, [0, 1, 1, 2, 3]], rtol=1e-13,
                               atol=0.0)
    # negative radii are read as |r|
    np.testing.assert_allclose(prof.eval(-radii), expect[:, 0], rtol=1e-13,
                               atol=0.0)


@pytest.mark.parametrize("name", ["profile_b05_d1", "profile_b1_d1"])
def test_region_rule_scalar_and_empty_inputs(name, request):
    prof = request.getfixturevalue(name)
    for r in _boundary_radii(prof):
        phi0, L, L1, L2 = (float(v) for v in _region_formula(prof, r))
        phi, logphi = prof.eval(float(r)), prof.log_value(float(r))
        derivs = prof.log_derivs(float(r))
        assert type(phi) is float and type(logphi) is float
        assert type(derivs) is tuple and len(derivs) == 3
        assert all(type(v) is float for v in derivs)
        np.testing.assert_allclose([phi, logphi, *derivs],
                                   [phi0, L, L, L1, L2], rtol=1e-13, atol=0.0)
    empty = np.array([])
    for out in (prof.eval(empty), prof.log_value(empty),
                *prof.log_derivs(empty)):
        assert isinstance(out, np.ndarray) and out.shape == (0,)
    assert len(prof.log_derivs(empty)) == 3


def _masked_reference(prof, r):
    """eval, log_value and log_derivs of r by one gather and one scatter per
    region, each rule written out as the profile evaluates it; outputs come
    as arrays of r's shape, even for a scalar r."""
    r = np.atleast_1d(np.abs(np.asarray(r, dtype=float)))
    sp = prof._get_spline()

    def table(s):
        u = np.log(s)
        return (np.exp(sp(u)), sp(u), sp(u), sp(u, 1) / s,
                (sp(u, 2) - sp(u, 1)) / s ** 2)

    def series(ser):
        return lambda s: (ser.eval(s), ser.log(s),
                          *ser.log_derivs(s, slope_only=False))

    lo, hi = r < prof.r_table[1], r > prof.r_max
    outs = [np.empty_like(r) for _ in range(5)]
    for mask, rule in ((lo, series(prof._small)), (~lo & ~hi, table),
                       (hi, series(prof._large))):
        for out, v in zip(outs, rule(r[mask])):
            out[mask] = v
    return outs


def _region_arrays(prof):
    """Radii all in one region each, mixed, and the region edges."""
    r1, rm = prof.r_table[1], prof.r_max
    small = np.array([0.0, 1e-9, 0.3 * r1, np.nextafter(r1, 0.0)])
    table = np.concatenate([[r1], np.geomspace(r1, rm, 37)[1:-1], [rm]])
    tail = rm * np.array([np.nextafter(1.0, 2.0), 1.5, 1e3])
    mixed = np.concatenate([tail[:1], small, table[::7], tail[1:]])
    return {"small": small, "table": table, "tail": tail, "mixed": mixed,
            "at r_table[1]": np.array([r1]), "at r_max": np.array([rm]),
            "zero": np.array([0.0]), "empty": np.array([]),
            "2-d table": table[:36].reshape(6, 6),
            "2-d mixed": np.resize(mixed, (3, 4))}


@pytest.mark.parametrize("beta,d", [(0.5, 1), (0.7, 2), (1.3, 3)])
def test_one_region_path_matches_the_masked_path(beta, d, request):
    # an array one region holds runs that region's rule on r in place; its
    # values must be the gathered and scattered ones bit for bit
    prof = request.getfixturevalue(f"profile_b{beta:g}_d{d}".replace(".", ""))
    for label, r in _region_arrays(prof).items():
        phi, logphi, L, L1, L2 = (out.reshape(r.shape)
                                  for out in _masked_reference(prof, r))
        got = (prof.eval(r), prof.log_value(r), *prof.log_derivs(r),
               prof.log_slope(r))
        for g, want in zip(got, (phi, logphi, L, L1, L2, L1)):
            assert isinstance(g, np.ndarray) and np.array_equal(g, want), label
        for x, *want in zip(r.ravel(), phi.ravel(), logphi.ravel(),
                            L.ravel(), L1.ravel(), L2.ravel()):
            got = (prof.eval(x), prof.log_value(x), *prof.log_derivs(x),
                   prof.log_slope(x))
            assert all(type(g) is float for g in got), label
            assert list(got) == want[:2] + want[2:] + want[3:4], (label, x)


def test_text_row_with_three_numbers_is_rejected(profile_b05_d1):
    lines = profile_b05_d1.to_text().splitlines()
    one_row = lines[:-1] + [lines[-1] + " 1.0"]
    every_row = [ln if ln.startswith("#") else ln + " 1.0" for ln in lines]
    for bad in (one_row, every_row):
        with pytest.raises(ValueError):
            StableDensityProfile.from_text("\n".join(bad) + "\n")


def test_text_with_no_rows_is_rejected(profile_b05_d1):
    header = [ln for ln in profile_b05_d1.to_text().splitlines()
              if ln.startswith("#")]
    with pytest.raises(ValueError, match="no rows"):
        StableDensityProfile.from_text("\n".join(header) + "\n")


@pytest.mark.parametrize("key", ["beta", "d", "error_estimate", "method"])
def test_text_missing_header_key_is_named(profile_b05_d1, key):
    text = profile_b05_d1.to_text().replace(f"# {key} =", f"# renamed_{key} =")
    with pytest.raises(ValueError, match=f"lacks {key}$"):
        StableDensityProfile.from_text(text)


def test_text_of_format_v1_is_refused(profile_b05_d1):
    # v1 texts carried a fitted tail; v2 and v3 read the large-r series
    text = profile_b05_d1.to_text().replace("liyau-profile v3",
                                            "liyau-profile v1")
    with pytest.raises(ValueError, match="liyau-profile v1"):
        StableDensityProfile.from_text(text)


def test_text_of_format_v2_is_refused(profile_b05_d1):
    # v2 tables started at r = 1e-3, below which an even quadratic read;
    # v3 tables start at r_s
    text = profile_b05_d1.to_text().replace("liyau-profile v3",
                                            "liyau-profile v2")
    with pytest.raises(ValueError, match="liyau-profile v2"):
        StableDensityProfile.from_text(text)


@pytest.mark.parametrize("row,radius", [(1, "0.5"), (1, "0.001"),
                                        (60, "1.2345"), (129, "99")])
def test_text_with_radii_off_the_layout_is_refused(profile_b05_d1, row, radius):
    # the radii are a function of (beta, d): a table whose r_s or any other
    # node moved would read the series or the spline where they do not hold
    lines = profile_b05_d1.to_text().splitlines()
    rows = [i for i, ln in enumerate(lines) if not ln.startswith("#")]
    _, value = lines[rows[row]].split()
    lines[rows[row]] = f"{radius} {value}"
    with pytest.raises(ValueError, match="table layout"):
        StableDensityProfile.from_text("\n".join(lines) + "\n")


def test_text_with_a_node_missing_is_refused(profile_b05_d1):
    lines = profile_b05_d1.to_text().splitlines()
    with pytest.raises(ValueError, match="table layout"):
        StableDensityProfile.from_text("\n".join(lines[:-1]) + "\n")


# ------------------------------------------------------------ switch radius

def test_build_profile_rejects_beta_below_the_switch_bound():
    # at beta = 0.1 the small-r series' three terms hold only below
    # r_s = 7e-18; beta = 0.2 keeps r_s = 1.3e-8
    with pytest.raises(ValueError, match="R_SWITCH_MIN = 1e-10"):
        build_profile(0.1, 1)
    assert build_profile(0.2, 1).r_table[1] == pytest.approx(1.34e-8, rel=0.01)


def test_profile_at_zero_is_the_small_r_series_lead():
    for beta, d in ((0.3, 2), (0.5, 1), (1.5, 3), (1.9, 1)):
        assert _Series.small_r(beta, d).p[0] == profile_at_zero(beta, d)


FIXTURES = {(0.5, 1): "profile_b05_d1", (1.5, 1): "profile_b15_d1",
            (0.7, 2): "profile_b07_d2", (1.3, 3): "profile_b13_d3"}


@pytest.mark.parametrize("beta,d", [(0.5, 1), (1.5, 1), (0.7, 2), (1.3, 3),
                                    (1.7, 2), (1.9, 1), (0.3, 2)])
def test_log_profile_is_continuous_across_r_s(beta, d, request):
    # the small-r series and the table's spline meet at r_s = r_table[1]: L
    # and r L' agree on both sides within error_estimate. The spline's
    # second derivative in u = log r errs by up to (3/8) h^2 max|f^(4)|,
    # against (5/384) h^4 max|f^(4)| for its values (C. A. Hall & W. W.
    # Meyer, J. Approx. Theory 16, 1976), h the node spacing in u: so r^2 L''
    # agrees within error_estimate scaled by 144 / (5 h^2)
    prof = (request.getfixturevalue(FIXTURES[(beta, d)])
            if (beta, d) in FIXTURES else build_profile(beta, d))
    r_s = prof.r_table[1]
    below, above = (prof.log_derivs(r) for r in (np.nextafter(r_s, 0.0), r_s))
    h = np.log(prof.r_table[2] / r_s)
    assert abs(above[0] - below[0]) <= prof.error_estimate
    assert r_s * abs(above[1] - below[1]) <= prof.error_estimate
    assert r_s ** 2 * abs(above[2] - below[2]) <= (
        144.0 / (5.0 * h * h) * prof.error_estimate)


@pytest.mark.parametrize("profname", ["profile_b05_d1", "profile_b15_d1",
                                      "profile_b07_d2", "profile_b13_d3",
                                      "profile_b1_d2"])
def test_exceedance_below_r_s_is_the_integral_of_eval(profname, request):
    # the mass between r and r_s, from exceedance, against Gauss-Legendre
    # with 40 nodes on eval, which reads the small-r series there
    prof = request.getfixturevalue(profname)
    r_s = prof.r_table[1]
    x, w = np.polynomial.legendre.leggauss(40)
    surf = prof.d * ball_volume(prof.d)
    for r in (0.0, 0.1 * r_s, 0.7 * r_s, np.nextafter(r_s, 0.0)):
        rho = r + 0.5 * (r_s - r) * (1.0 + x)
        quad = 0.5 * (r_s - r) * surf * float(
            np.sum(w * prof.eval(rho) * rho ** (prof.d - 1)))
        gap = prof.exceedance(r) - prof.exceedance(r_s)
        assert gap == pytest.approx(quad, rel=1e-12, abs=1e-15 * prof.mass())
    assert prof.exceedance(0.0) == prof.mass()
