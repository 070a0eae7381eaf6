"""Rotationally symmetric stable densities from Fourier inversion.

Closed-form anchors (frozen, computed from the Gamma-function expressions
independently of this package):
  Phi_beta(0)     = d * omega_d * Gamma(d/beta) / ((2 pi)^d * beta)
  c_{beta,d}      = 2^beta Gamma((d+beta)/2) / (pi^{d/2} |Gamma(-beta/2)|)
  beta = 1        -> Poisson kernel C_d (1+r^2)^{-(d+1)/2}
"""
import numpy as np
import pytest

from liyau.stable import (StableDensityProfile, build_profile, eval_G,
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
                                        (1.0, 2, 1e-6)])
def test_mass_is_one(beta, d, tol, request):
    cache = {(0.5, 1): "profile_b05_d1", (1.5, 1): "profile_b15_d1",
             (1.0, 2): "profile_b1_d2"}
    prof = request.getfixturevalue(cache[(beta, d)])
    assert prof.mass() == pytest.approx(1.0, abs=tol)


def test_value_at_zero_matches_closed_form(profile_b05_d1, profile_b15_d1):
    assert profile_b05_d1.eval(0.0) == pytest.approx(PHI0_B05_D1, rel=1e-8)
    assert profile_b15_d1.eval(0.0) == pytest.approx(PHI0_B15_D1, rel=1e-8)


def test_tail_coefficient_matches_jump_constant(profile_b05_d1,
                                                profile_b15_d1):
    # Phi(r) ~ c_{beta,d} r^{-d-beta}: the fitted amplitude must reproduce
    # the Gamma-expression constant
    assert profile_b05_d1.tail_coef == pytest.approx(C_B05_D1, rel=1e-4)
    assert profile_b15_d1.tail_coef == pytest.approx(C_B15_D1, rel=1e-4)


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


def test_log_derivs_match_finite_differences(profile_b15_d1):
    eps = 1e-5
    for r in (0.5, 2.0, 30.0):
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
    assert prof.exceedance(prof.r_max) == pytest.approx(
        2.0 * prof.tail_coef * prof.r_max ** -0.5 / 0.5, rel=1e-12)
    # near the origin the exceedance approaches the full mass
    assert prof.exceedance(1e-4) == pytest.approx(1.0, abs=1e-3)


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
    assert again.tail_coef == prof.tail_coef
    assert again.to_text() == prof.to_text()
    # evaluation path identical after the round trip
    r = np.array([0.02, 1.0, 77.0])
    assert np.array_equal(again.eval(r), prof.eval(r))


def test_text_round_trip_keeps_meta(profile_b05_d1):
    # the next-order tail term in meta enters mass(); losing it costs
    # two orders of magnitude in the mass defect
    prof = profile_b05_d1
    assert "tail_B" in prof.meta
    again = StableDensityProfile.from_text(prof.to_text())
    assert again.meta == prof.meta
    assert again.mass() == prof.mass()
    r = np.array([0.0, 0.02, 1.0, 77.0, 1e6])
    assert np.array_equal(again.eval(r), prof.eval(r))


def test_build_profile_rejects_bad_arguments():
    with pytest.raises(ValueError):
        build_profile(2.0, 1)
    with pytest.raises(ValueError):
        build_profile(0.5, 4)


def test_node_validation_error_recorded(profile_b05_d1, profile_b15_d1):
    # inversion must carry the validated per-node error level
    for prof in (profile_b05_d1, profile_b15_d1):
        assert 0.0 < prof.error_estimate < 1e-3
        assert prof.tail_fit_residual < 1e-3
