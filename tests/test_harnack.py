"""Harnack bounds: complete graph, fractional (explicit constants), Gaussian."""
import numpy as np
import pytest
import scipy.fft
from scipy import integrate

from liyau import fraclap
from liyau.constant import LiYauConstantResult, constant_for
from liyau.harnack import (admissible_alpha, default_alpha, eta_tail_integral,
                           eta_weight, factor_for_a1, fractional_m_constant,
                           gaussian_harnack_rhs, gaussian_kernel_log_ratio,
                           gaussian_sharp_source, harnack_bound_fractional,
                           harnack_check_fractional, harnack_check_kn,
                           harnack_integral_term_kn, harnack_m_form_bound,
                           harnack_rhs_kn)
from liyau.verify import random_positive_field

# frozen by hand from the closed forms at alpha=1, beta=1, d=1, (t1,t2)=(1,2):
#   2 ln 2 + 1 + 6 pi^2 + 7/3
FRACTIONAL_BOUND_1_2 = 63.937254100989375665
# int_1^2 log coth t dt, frozen from an independent 50-digit evaluation
K2_LOG_COTH_INTEGRAL = 0.11729621164120005486
# int_0.3^1.7 phi_5(t) dt, frozen the same way
K5_PHI_INTEGRAL = 0.78623881988736281991

EXACT_C2 = LiYauConstantResult(beta=1.0, d=1, value=2.0, error=0.0,
                               y_star=0.0, method="closed-form")


# ------------------------------------------------------- complete graph

def test_rhs_kn_anchor():
    # phi_2(t) = log coth t, so the K_2 bound is the frozen integral + 2
    rhs = harnack_rhs_kn(2, 1.0, 2.0)
    assert rhs == pytest.approx(2.0 + K2_LOG_COTH_INTEGRAL, rel=1e-12)


def test_rhs_kn_validation():
    with pytest.raises(ValueError):
        harnack_rhs_kn(3, 2.0, 1.0)
    with pytest.raises(ValueError):
        harnack_rhs_kn(3, 0.0, 1.0)


def _phi_integral_by_panels(n, t1, t2):
    # 50 Gauss-20 panels on phi = (n-1) [log1p((n-1) E) - log1p(-E)],
    # E = e^(-n t), which keeps its relative accuracy where phi is tiny
    x, w = np.polynomial.legendre.leggauss(20)
    edges = np.linspace(t1, t2, 51)
    half = np.diff(edges)[:, None] / 2.0
    t = edges[:-1, None] + half * (x + 1.0)
    E = np.exp(-n * t)
    phi = (n - 1) * (np.log1p((n - 1) * E) - np.log1p(-E))
    return float(np.sum(half * phi * w))


def test_integral_term_kn_closed_form():
    # the dilogarithm form against a frozen anchor and, on the harnack
    # workload's ranges, against panel quadrature. The dilogarithms are of
    # order one, so the closed form carries their rounding: it stays within
    # 1e-14 of the panel sums, and within about 3e-7 relative where the
    # integral is near 1e-10
    assert harnack_integral_term_kn(5, 0.3, 1.7) == pytest.approx(
        K5_PHI_INTEGRAL, rel=1e-14)
    rng = np.random.default_rng(18)
    for _ in range(300):
        n = int(rng.integers(2, 11))
        t1 = float(np.exp(rng.uniform(np.log(0.05), np.log(3.0))))
        t2 = t1 * float(np.exp(rng.uniform(np.log(1.1), np.log(5.0))))
        ref = _phi_integral_by_panels(n, t1, t2)
        assert abs(harnack_integral_term_kn(n, t1, t2) - ref) <= 1e-14


def test_integral_term_monotone_in_t1():
    # the phi integral shrinks as the window start moves right; the full
    # bound does not share this monotonicity (the 2/(t2-t1) term grows)
    t2 = 4.0
    vals = [harnack_integral_term_kn(4, t1, t2) for t1 in (0.1, 0.5, 1.0, 2.0)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert all(v > 0 for v in vals)
    assert harnack_rhs_kn(4, 3.9, t2) > harnack_rhs_kn(4, 1.0, t2)


def test_harnack_check_kn_passes(rng):
    for n in (2, 3, 6):
        u0 = rng.uniform(0.2, 5.0, size=n)
        report = harnack_check_kn(n, u0, 0.5, 1.5)
        assert report.verdict != "fail"
        assert report.min_margin >= -1e-10
        assert len(report.samples) == n * n


def test_harnack_check_kn_tightens_with_spread():
    # nearly-point-mass data at small t1 eats most of the margin
    u0 = np.array([1.0, 1e-6, 1e-6])
    wide = harnack_check_kn(3, u0, 0.05, 1.0)
    mild = harnack_check_kn(3, np.array([1.0, 0.9, 1.1]), 0.05, 1.0)
    assert wide.min_margin < mild.min_margin


# --------------------------------------------- fractional proof constants

def test_admissible_alpha():
    assert admissible_alpha(0.5, 1.0, 1)
    assert admissible_alpha(1e-6, 1.0, 1)      # d/beta - 1 = 0: any positive
    assert not admissible_alpha(0.0, 1.0, 1)
    assert not admissible_alpha(1.4, 0.5, 2)   # d/beta = 4 needs alpha > 1.5
    assert admissible_alpha(1.6, 0.5, 2)
    assert admissible_alpha(default_alpha(0.5, 2), 0.5, 2)


def test_default_alpha():
    assert default_alpha(1.0, 1) == 1.0
    assert default_alpha(0.5, 3) == 6.0


def test_eta_weight_shape():
    t = np.linspace(1.0, 2.0, 11)
    w = eta_weight(t, 1.0, 2.0, 2.0)
    assert w[0] == 0.0 and w[-1] == 0.0
    assert np.argmax(w) == 5
    assert np.all(w >= 0)


def test_eta_tail_integral_matches_quadrature():
    t1, t2, alpha = 0.7, 3.1, 1.5
    for t in (0.9, 1.4, 1.9, 2.5, 3.0):
        num, _ = integrate.quad(lambda s: eta_weight(s, t1, t2, alpha), t, t2,
                                epsabs=1e-13, epsrel=1e-13)
        assert eta_tail_integral(t, t1, t2, alpha) == pytest.approx(num,
                                                                    abs=1e-11)


def test_factor_for_a1_sign_pattern():
    t1, t2, alpha = 1.0, 2.0, 1.0
    t_star = 1.5
    # bitwise zero on the right branch: the factorization is exact
    right = factor_for_a1(np.linspace(t_star, t2, 9), t1, t2, alpha)
    assert np.all(right == 0.0)
    left_ts = np.linspace(t1, t_star, 50, endpoint=False)
    left = factor_for_a1(left_ts, t1, t2, alpha)
    assert np.all(left <= 0.0)
    assert np.all(np.diff(left) > 0.0)


def test_fractional_bound_anchor():
    val = harnack_bound_fractional(1.0, 1.0, 1, 1.0, 2.0, constant=EXACT_C2)
    assert val == pytest.approx(FRACTIONAL_BOUND_1_2, rel=1e-14)


def test_fractional_bound_validation(profile_b1_d1):
    with pytest.raises(ValueError, match="t1 < t2"):
        harnack_bound_fractional(1.0, 1.0, 1, 2.0, 1.0, constant=EXACT_C2)
    with pytest.raises(ValueError, match="alpha"):
        harnack_bound_fractional(0.0, 1.0, 1, 1.0, 2.0, constant=EXACT_C2)
    with pytest.raises(TypeError, match="constant"):
        harnack_bound_fractional(1.0, 1.0, 1, 1.0, 2.0)
    # the numeric constant agrees with the exact one to the numeric C_LY error
    via_profile = harnack_bound_fractional(1.0, 1.0, 1, 1.0, 2.0,
                                           constant=constant_for(profile_b1_d1))
    assert via_profile == pytest.approx(FRACTIONAL_BOUND_1_2, rel=1e-6)


def test_m_form_dominates_assembled_bound():
    for alpha in (0.6, 1.0, 2.0):
        for beta, d in ((1.0, 1), (0.5, 1), (1.5, 1), (1.0, 2)):
            if not admissible_alpha(alpha, beta, d):
                continue
            for t1, t2 in ((0.5, 1.0), (1.0, 2.0), (2.0, 8.0)):
                tight = harnack_bound_fractional(alpha, beta, d, t1, t2,
                                                 constant=EXACT_C2)
                loose = harnack_m_form_bound(alpha, beta, d, t1, t2,
                                             constant=EXACT_C2)
                assert loose >= tight - 1e-12


def test_m_constant_rejects_bad_alpha():
    with pytest.raises(ValueError):
        fractional_m_constant(1.0, 0.5, 2)


def test_harnack_check_fractional(profile_b1_d1):
    u0 = random_positive_field(np.random.default_rng(12), spacing=0.01,
                               extent=60.0)
    report = harnack_check_fractional(u0, 1.0, 0.8, 1.6, 0.5, -0.5, 1.0,
                                      profile_b1_d1)
    assert report.verdict == "pass"
    assert report.params["bound"] > report.params["lhs"]


def test_harnack_check_rescales_wide_separation(profile_b1_d1):
    u0 = random_positive_field(np.random.default_rng(12), spacing=0.01,
                               extent=60.0)
    report = harnack_check_fractional(u0, 1.0, 0.8, 1.6, 2.0, -2.0, 1.0,
                                      profile_b1_d1)
    # |x1 - x2| = 4: the bound must be the one at times t / 4
    expect = harnack_bound_fractional(1.0, 1.0, 1, 0.2, 0.4,
                                      constant=constant_for(profile_b1_d1))
    assert report.params["bound"] == pytest.approx(expect, rel=1e-12)
    assert report.verdict == "pass"


@pytest.mark.parametrize("beta,profname", [(0.5, "profile_b05_d1"),
                                           (1.5, "profile_b15_d1")])
def test_harnack_check_solves_no_whole_grid(beta, profname, request,
                                            monkeypatch):
    # two whole-grid solves read at (t1, x1) and (t2, x2) give the check's
    # numbers; with the grid solve and its FFT patched out the check still
    # runs and reproduces them
    prof = request.getfixturevalue(profname)
    u0 = random_positive_field(np.random.default_rng(8), spacing=0.02,
                               extent=30.0)
    alpha, t1, t2, x1, x2 = default_alpha(beta, 1), 0.31, 0.9, 1.37, -2.05
    ua = fraclap.solve_fractional(u0, beta, t1, prof)
    ub = fraclap.solve_fractional(u0, beta, t2, prof)
    lhs = float(np.log(ua.eval(x1)) - np.log(ub.eval(x2)))
    scale = max(abs(x1 - x2), 1.0) ** beta
    bound = harnack_bound_fractional(alpha, beta, 1, t1 / scale, t2 / scale,
                                     constant=constant_for(prof))

    def refuse(*args, **kwargs):
        raise AssertionError("whole-grid solve in a Harnack check")

    monkeypatch.setattr(fraclap, "solve_fractional", refuse)
    monkeypatch.setattr(scipy.fft, "rfft", refuse)
    report = harnack_check_fractional(u0, beta, t1, t2, x1, x2, alpha, prof)
    (margin, _), = report.samples
    for got, want in ((report.params["bound"], bound),
                      (report.params["lhs"], lhs), (margin, bound - lhs)):
        assert abs(got - want) <= 1e-13 * max(1.0, abs(want))


def test_harnack_check_rejects_points_beyond_the_grid(profile_b1_d1):
    u0 = random_positive_field(np.random.default_rng(12), spacing=0.05,
                               extent=20.0)
    for x1, x2 in ((20.5, 0.0), (0.0, -21.0)):
        with pytest.raises(ValueError, match=r"extent X = 20"):
            harnack_check_fractional(u0, 1.0, 0.8, 1.6, x1, x2, 1.0,
                                     profile_b1_d1)


# ------------------------------------------------------------- Gaussian

def test_gaussian_rhs_values():
    assert gaussian_harnack_rhs(2, 1.0, 2.0, [0.0, 0.0], [0.0, 0.0]) == \
        pytest.approx(np.log(2.0), rel=1e-14)
    assert gaussian_harnack_rhs(1, 1.0, 2.0, 3.0, 1.0) == \
        pytest.approx(0.5 * np.log(2.0) + 1.0, rel=1e-14)


def test_gaussian_sharp_source_attains_equality():
    # at the maximizing source the kernel ratio meets the bound exactly
    for t1, t2, x1, x2 in ((1.0, 2.0, 0.7, -0.4), (0.3, 5.0, 2.0, 2.0),
                           (0.5, 0.9, -1.0, 3.0)):
        x0 = gaussian_sharp_source(t1, t2, x1, x2)
        lhs = gaussian_kernel_log_ratio(1, t1, t2, x1, x2, x0)
        rhs = gaussian_harnack_rhs(1, t1, t2, x1, x2)
        assert abs(rhs - lhs) <= 1e-12


def test_gaussian_other_sources_stay_below():
    t1, t2, x1, x2 = 1.0, 2.0, 0.7, -0.4
    rhs = gaussian_harnack_rhs(1, t1, t2, x1, x2)
    for x0 in (-3.0, 0.0, 1.5, 4.0):
        lhs = gaussian_kernel_log_ratio(1, t1, t2, x1, x2, x0)
        assert lhs <= rhs + 1e-12


# ---------------------------------------------------------------- folds

@pytest.mark.parametrize("n, t1, t2", [(2, 0.1, 0.3), (3, 1.0, 2.0),
                                       (7, 0.5, 4.0)])
def test_rhs_kn_is_integral_term_plus_gap_term(n, t1, t2):
    assert harnack_rhs_kn(n, t1, t2) == \
        harnack_integral_term_kn(n, t1, t2) + 2.0 / (t2 - t1)


@pytest.mark.parametrize("sep", [0.4, 2.5])
def test_check_fractional_bound_at_rescaled_times(profile_b05_d1, sep):
    # separations beyond 1 divide both times by |x1 - x2|^beta; nearer
    # points keep the times
    beta, alpha, t1, t2 = 0.5, 2.0, 0.8, 1.6
    u0 = random_positive_field(np.random.default_rng(5), spacing=0.05,
                               extent=30.0)
    report = harnack_check_fractional(u0, beta, t1, t2, sep, 0.0, alpha,
                                      profile_b05_d1)
    scale = max(sep, 1.0) ** beta
    assert report.params["bound"] == harnack_bound_fractional(
        alpha, beta, 1, t1 / scale, t2 / scale,
        constant=constant_for(profile_b05_d1))
