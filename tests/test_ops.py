"""Core scalar functions and the averaging operators.

Frozen oracles below were computed independently (60-digit series /
closed forms) before the implementation existed.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from liyau.fields import Extension, GridField
from liyau.markov import MarkovChain
from liyau.ops import (chain_rule_residual, lambda_log,
                       psi_upsilon_continuous, psi_upsilon_discrete, upsilon,
                       upsilon_over_sq)

# frozen: e^z - z - 1 evaluated in extended precision
UPSILON_AT_HALF = 0.14872127070012814684865079  # e^0.5 - 1.5
UPSILON_AT_MINUS_HALF = 0.10653065971263342360379954  # e^-0.5 - 0.5
UPSILON_AT_LOG2 = 1.0 - math.log(2.0)  # 2 - log 2 - 1
UPSILON_TINY = 5.000000016666666708333333e-17  # z = 1e-8: z^2/2 + z^3/6 + z^4/24
LAMBDA_LOG_2_3 = -0.07213177477483104864467978  # 1/3 + log(2/3)


def test_upsilon_frozen_values():
    assert upsilon(0.5) == pytest.approx(UPSILON_AT_HALF, rel=1e-15)
    assert upsilon(-0.5) == pytest.approx(UPSILON_AT_MINUS_HALF, rel=1e-15)
    assert upsilon(math.log(2.0)) == pytest.approx(UPSILON_AT_LOG2, rel=1e-15)


def test_upsilon_tiny_argument_no_cancellation():
    # naive e^z - z - 1 loses ~16 digits here; the series must not
    assert upsilon(1e-8) == pytest.approx(UPSILON_TINY, rel=1e-12)
    assert upsilon(0.0) == 0.0


def test_upsilon_vectorized():
    z = np.array([-1.0, -1e-9, 0.0, 1e-9, 1.0])
    v = upsilon(z)
    assert v.shape == z.shape
    assert v[2] == 0.0
    assert np.all(v >= 0.0)


def test_upsilon_over_sq_matches_and_caps_at_half():
    z = np.array([-2.0, -1e-5, 1e-5, 0.3])
    assert upsilon_over_sq(z) == pytest.approx(upsilon(z) / z ** 2, rel=1e-13)
    assert upsilon_over_sq(0.0) == pytest.approx(0.5, rel=1e-15)


def test_lambda_log_frozen_value():
    assert lambda_log(2.0, 3.0) == pytest.approx(LAMBDA_LOG_2_3, rel=1e-14)


@given(st.floats(-30.0, 30.0))
@settings(max_examples=300)
def test_upsilon_nonnegative(z):
    assert upsilon(z) >= 0.0


@given(st.floats(0.0, 30.0))
@settings(max_examples=300)
def test_upsilon_dominates_half_square_on_positive_axis(z):
    # e^z - z - 1 = z^2/2 + z^3/6 + ... >= z^2/2 for z >= 0
    assert upsilon(z) >= 0.5 * z * z * (1.0 - 1e-15)


@given(st.floats(1e-12, 1e6), st.floats(1e-12, 1e6))
@settings(max_examples=500)
def test_lambda_log_closed_form(w, z):
    # Lambda_log(w, z) = log(w/z) + 1 - w/z; reconstructing w/z through
    # exp(log w - log z) turns ulps of the individual logs into a relative
    # error of the ratio, so the forward error is ~ (w/z) * ulp(max |log|)
    ratio = w / z
    direct = math.log(ratio) + 1.0 - ratio
    got = float(lambda_log(w, z))
    maxlog = max(abs(math.log(w)), abs(math.log(z)), 1.0)
    tol = (4.0 * max(ratio, 1.0) * np.spacing(maxlog)
           + 8.0 * np.spacing(max(abs(direct), 1.0)))
    assert abs(got - direct) <= tol


@given(st.floats(-5.0, 5.0))
@settings(max_examples=100)
def test_psi_discrete_shift_invariance(c):
    rates = np.array([[0.0, 1.0, 2.0], [0.5, 0.0, 1.5], [2.0, 1.0, 0.0]])
    k = MarkovChain.from_rates(rates)
    f = np.array([0.3, -1.2, 2.0])
    base = psi_upsilon_discrete(f, k, 1)
    assert psi_upsilon_discrete(f + c, k, 1) == pytest.approx(base, abs=1e-13)


def test_psi_discrete_nonnegative_and_zero_on_constants():
    rates = np.array([[-3.0, 1.0, 2.0], [0.5, -2.0, 1.5], [2.0, 1.0, -3.0]])
    k = MarkovChain(rates)
    assert psi_upsilon_discrete(np.zeros(3), k, 0) == 0.0
    assert psi_upsilon_discrete(np.array([0.1, -0.4, 0.7]), k, 2) >= 0.0


def test_psi_continuous_rejects_order_outside_0_2(profile_b1_d1):
    h, X = 0.02, 40.0
    xs = np.arange(-X, X + h / 2, h)
    flog = GridField(h, profile_b1_d1.log_value(np.abs(xs)),
                     extension=Extension("log-power", exponent=2.0))
    for beta in (0.0, 2.0):
        with pytest.raises(ValueError, match="beta must lie in"):
            psi_upsilon_continuous(flog, beta, 0.0)


def test_chain_rule_discrete_is_arithmetic_identity():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(2, 8))
        rates = rng.uniform(0.0, 3.0, (n, n))
        k = MarkovChain.from_rates(rates)
        f = np.exp(rng.normal(0.0, 1.0, n))
        x = int(rng.integers(0, n))
        assert abs(chain_rule_residual(f, k, x)) < 1e-12


def test_psi_continuous_heat_kernel_anchor(profile_b1_d1):
    # at beta=1, d=1, f = Phi_1: L(log f)(0) = -2 and Lf/f(0) = -1,
    # so the chain rule pins Psi_Upsilon(log Phi_1)(0) = 1
    h, X = 0.02, 40.0
    xs = np.arange(-X, X + h / 2, h)
    flog = GridField(h, profile_b1_d1.log_value(np.abs(xs)),
                     extension=Extension("log-power", exponent=2.0))
    res = psi_upsilon_continuous(flog, 1.0, 0.0)
    assert res.value == pytest.approx(1.0, abs=max(2.0 * res.error, 2e-5))


def test_chain_rule_continuous_within_combined_error(profile_b1_d1):
    h, X = 0.02, 40.0
    xs = np.arange(-X, X + h / 2, h)
    f = GridField(h, profile_b1_d1.eval(np.abs(xs)),
                  extension=Extension("power", exponent=2.0), positive=True)
    for x in (0.0, 0.5, 1.5):
        res = chain_rule_residual(f, 1.0, x)
        assert abs(res.value) <= 2.0 * res.error + 5e-6
