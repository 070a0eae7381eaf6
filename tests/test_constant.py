"""The sharp constant C(beta, d) and the radial deficit integral J."""
import numpy as np
import pytest

from liyau.constant import (J_of_y, LiYauConstantResult, SearchSpec,
                            constant_for, heat_kernel_liyau_margin,
                            liyau_constant_beta1, liyau_constant_numeric)
from liyau.stable import ProfileGridSpec, build_profile

FOUR_PI = 12.566370614359172954  # J(0) at beta=1, d=1

# regression values from this implementation's first validated run; the
# beta=1 column is exact
C_HALF_D1 = 5.457127
C_ONE_D1 = 2.0
C_THREEHALF_D1 = 1.021883


def test_closed_form_beta1_constants():
    assert liyau_constant_beta1(1) == pytest.approx(2.0, rel=1e-14)
    assert liyau_constant_beta1(2) == pytest.approx(1.5 * np.pi, rel=1e-14)
    assert liyau_constant_beta1(3) == pytest.approx(8.0, rel=1e-14)


def test_J_at_zero_beta1(profile_b1_d1):
    res = J_of_y(profile_b1_d1, 0.0)
    assert res.value == pytest.approx(FOUR_PI, rel=1e-6)


def test_J_profile_beta1_matches_cauchy_form(profile_b1_d1):
    # J(y) = J(0) / (1 + y^2) for the Poisson kernel in d=1
    for y in (0.5, 1.0, 3.0, 10.0):
        res = J_of_y(profile_b1_d1, y)
        assert res.value == pytest.approx(FOUR_PI / (1.0 + y ** 2),
                                          rel=1e-5)


def test_numeric_constant_matches_closed_form_d1(profile_b1_d1):
    res = liyau_constant_numeric(profile_b1_d1)
    assert res.value == pytest.approx(2.0, rel=1e-3)
    assert res.error < 1e-2
    assert res.y_star == pytest.approx(0.0, abs=1e-6)


def test_constant_for_memoizes_numeric_route(profile_b1_d1):
    res = constant_for(profile_b1_d1)
    assert res.method == "numeric"
    assert res.value == pytest.approx(liyau_constant_beta1(1), rel=1e-3)
    assert constant_for(profile_b1_d1) is res


def test_constant_for_keys_on_search_spec_and_table(profile_b1_d1):
    coarse = SearchSpec(y_max=5.0, nodes=9)
    finer = SearchSpec(y_max=5.0, nodes=13)
    a = constant_for(profile_b1_d1, coarse)
    b = constant_for(profile_b1_d1, finer)
    assert a is not b
    assert len(a.j_table) == 9 and len(b.j_table) == 13
    assert constant_for(profile_b1_d1, coarse) is a
    assert constant_for(profile_b1_d1, SearchSpec(y_max=5.0, nodes=13)) is b
    # same (beta, d) and spec, another table
    other = build_profile(1.0, 1, ProfileGridSpec(per_decade=12))
    assert constant_for(other, coarse) is not a
    # no spec means the default spec
    assert constant_for(profile_b1_d1) is constant_for(profile_b1_d1, SearchSpec())


def test_numeric_constant_regression_values(profile_b05_d1, profile_b15_d1):
    c_half = liyau_constant_numeric(profile_b05_d1)
    c_three = liyau_constant_numeric(profile_b15_d1)
    assert c_half.value == pytest.approx(C_HALF_D1, rel=1e-3)
    assert c_three.value == pytest.approx(C_THREEHALF_D1, rel=1e-3)
    # decreasing in beta on this row
    assert c_half.value > C_ONE_D1 > c_three.value


def test_margin_closed_form_beta1(profile_b1_d1):
    # margin(t, x) = C (1 - 1/(1 + y^2)) / t with y = |x|/t
    const = constant_for(profile_b1_d1)
    for t, x in ((1.0, 0.7), (2.5, 3.0), (0.3, 0.0)):
        y = abs(x) / t
        res = heat_kernel_liyau_margin(profile_b1_d1, t, x, constant=const)
        expect = 2.0 * (1.0 - 1.0 / (1.0 + y ** 2)) / t
        assert res.value == pytest.approx(expect, abs=5e-5 / t + res.error)
        assert res.value >= -res.error


def test_margin_sharp_at_origin(profile_b1_d1):
    # the supremum is attained at y = 0: the kernel itself saturates the bound
    const = constant_for(profile_b1_d1)
    res = heat_kernel_liyau_margin(profile_b1_d1, 1.0, 0.0, constant=const)
    assert abs(res.value) <= 2.0 * res.error + 1e-8


def test_search_boundary_warning(profile_b1_d1):
    # a y-window that the maximizer would leave gets flagged; the profile's
    # J decays, so force the boundary case with a tiny window away from 0
    res = liyau_constant_numeric(profile_b1_d1,
                                 SearchSpec(y_max=0.5, nodes=5))
    assert res.value <= 2.0 * (1.0 + 1e-6)


def test_result_carries_j_table(profile_b15_d1):
    res = liyau_constant_numeric(profile_b15_d1)
    assert isinstance(res, LiYauConstantResult)
    assert len(res.j_table) > 10
    ys = [row[0] for row in res.j_table]
    assert ys == sorted(ys)
