"""The sharp constant C(beta, d) and the radial deficit integral J."""
import dataclasses
import gc

import numpy as np
import pytest

from liyau import constant
from liyau.constant import (J_of_y, LiYauConstantResult, SearchSpec,
                            _angular_rule, _sphere_deficit, constant_for,
                            heat_kernel_liyau_margin, liyau_constant_beta1,
                            liyau_constant_numeric)
from liyau.singular import golden_section_max
from liyau.stable import build_profile

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
    a = constant_for(profile_b1_d1)
    # same (beta, d), another table: one value changed
    values = profile_b1_d1.values.copy()
    values[5] *= 2.0
    other = dataclasses.replace(profile_b1_d1, values=values)
    assert constant_for(other) is not a


def test_numeric_constant_regression_values(profile_b05_d1, profile_b15_d1):
    c_half = liyau_constant_numeric(profile_b05_d1)
    c_three = liyau_constant_numeric(profile_b15_d1)
    assert c_half.value == pytest.approx(C_HALF_D1, rel=1e-3)
    assert c_three.value == pytest.approx(C_THREEHALF_D1, rel=1e-3)
    # decreasing in beta on this row
    assert c_half.value > C_ONE_D1 > c_three.value


def test_margin_closed_form_beta1(profile_b1_d1):
    # margin(t, x) = C (1 - 1/(1 + y^2)) / t with y = |x|/t
    for t, x in ((1.0, 0.7), (2.5, 3.0), (0.3, 0.0)):
        y = abs(x) / t
        res = heat_kernel_liyau_margin(profile_b1_d1, t, x)
        expect = 2.0 * (1.0 - 1.0 / (1.0 + y ** 2)) / t
        assert res.value == pytest.approx(expect, abs=5e-5 / t + res.error)
        assert res.value >= -res.error


def test_margin_sharp_at_origin(profile_b1_d1):
    # the supremum is attained at y = 0: the kernel itself saturates the bound
    res = heat_kernel_liyau_margin(profile_b1_d1, 1.0, 0.0)
    assert abs(res.value) <= 2.0 * res.error + 1e-8


def test_small_search_window_stays_below_closed_form(profile_b1_d1):
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


# --- the +-mu fold of the sphere deficit -----------------------------------

def _two_sided_rule(d):
    # the unfolded rules: 128 midpoints in theta at d = 2, 64 Gauss nodes in
    # mu at d = 3, one node at d = 1
    if d == 1:
        return np.array([1.0]), np.array([2.0])
    if d == 2:
        theta = (np.arange(128) + 0.5) * 2.0 * np.pi / 128
        return np.cos(theta), np.full(128, 2.0 * np.pi / 128)
    x, w = np.polynomial.legendre.leggauss(64)
    return 0.0 + 1.0 * x, 2.0 * np.pi * w


def _two_sided_taylor_mask(y, rho, mu):
    """(|Y + rho mu|, |Y - rho mu|, their displacements from y, and the mask
    of the nodes where both displacements lie below the Taylor threshold),
    on the whole rho x mu block."""
    P, M = rho[:, None], mu[None, :]
    tp = 2.0 * y * P * M + P * P
    tm = -2.0 * y * P * M + P * P
    ap = np.sqrt(np.maximum(y * y + tp, 0.0))
    am = np.sqrt(np.maximum(y * y + tm, 0.0))
    dap = np.where(ap + y > 0, tp / (ap + y), 0.0)
    dam = np.where(am + y > 0, tm / (am + y), 0.0)
    thr = constant._TAYLOR_THR * (1.0 + y)
    small = (np.abs(dap) < thr) & (np.abs(dam) < thr)
    return ap, am, dap, dam, small


def _two_sided_deficit(profile, y, rho, desingularized):
    """W(rho) evaluating the log-profile at |Y + rho mu| and |Y - rho mu| for
    every node, written out independently of the folded evaluator. Also
    returns the sum of the magnitudes of the terms W adds up."""
    mu, w = _two_sided_rule(profile.d)
    Ly, L1, L2 = profile.log_derivs(y)
    ap, am, dap, dam, small = _two_sided_taylor_mask(y, rho, mu)
    S = np.empty_like(dap)
    size = np.empty_like(dap)
    s1, s2 = dap[small] + dam[small], dap[small] ** 2 + dam[small] ** 2
    S[small] = -(L1 * s1 + 0.5 * L2 * s2)
    size[small] = (abs(L1) * (np.abs(dap[small]) + np.abs(dam[small]))
                   + abs(0.5 * L2) * s2)
    Lp, Lm = profile.log_value(ap[~small]), profile.log_value(am[~small])
    S[~small] = 2.0 * Ly - Lp - Lm
    size[~small] = 2.0 * abs(Ly) + np.abs(Lp) + np.abs(Lm)
    W, size = S @ w, size @ w
    if desingularized:
        return W / (rho * rho), size / (rho * rho)
    return W, size


DEFICIT_RHO = np.concatenate([[1e-7, 1e-5, 1e-3], np.geomspace(1e-2, 300.0, 60)])
DEFICIT_Y = (0.0, 1e-5, 0.3, 2.0, 17.0)


@pytest.mark.parametrize("d", [2, 3])
def test_angular_rule_is_antisymmetric(d):
    mu, w = _angular_rule(d)
    assert np.array_equal(mu[::-1], -mu)
    assert np.array_equal(w[::-1], w)
    assert np.unique(mu).size == mu.size
    sphere = {2: 2.0 * np.pi, 3: 4.0 * np.pi}[d]
    assert w.sum() == pytest.approx(sphere, rel=1e-14)
    # built once per d and shared read-only
    assert _angular_rule(d)[0] is mu
    assert not mu.flags.writeable and not w.flags.writeable


def test_folded_rule_at_d2_holds_the_distinct_nodes():
    mu, w = _angular_rule(2)
    old_mu, old_w = _two_sided_rule(2)
    assert mu.size == 64
    # every old node is one of the folded ones, up to the rounding of theta
    gap = np.min(np.abs(old_mu[:, None] - mu[None, :]), axis=1)
    assert np.max(gap) <= 1e-15
    assert np.all(w == 2.0 * old_w[0])


@pytest.mark.parametrize("beta,d", [(0.5, 1), (1.0, 1), (1.3, 3), (1.0, 3)])
def test_folded_deficit_is_bit_identical_at_d1_d3(beta, d):
    prof = build_profile(beta, d)
    for y in DEFICIT_Y:
        for des in (False, True):
            new = _sphere_deficit(prof, y, prof.log_derivs(y), DEFICIT_RHO, des)
            old, _ = _two_sided_deficit(prof, y, DEFICIT_RHO, des)
            assert np.array_equal(new, old), (y, des)


@pytest.mark.parametrize("beta", [0.7, 1.0])
def test_folded_deficit_at_d2_moves_at_rounding_level(beta):
    # W sums terms of either sign, so where they cancel its own relative
    # change can be large; measured against the terms it sums, the fold
    # moves W by rounding only
    prof = build_profile(beta, 2)
    for y in DEFICIT_Y:
        for des in (False, True):
            new = _sphere_deficit(prof, y, prof.log_derivs(y), DEFICIT_RHO, des)
            old, size = _two_sided_deficit(prof, y, DEFICIT_RHO, des)
            assert np.all(np.abs(new - old) <= 1e-13 * size), (y, des)


# radii y of the Taylor-row tests: the deficit tests' and two extremes
TAYLOR_Y = DEFICIT_Y + (1e-12, 50.0)


def _taylor_bound_rho(y):
    """rho grid on both sides of sqrt(2 y thr + thr^2), the parallelogram
    bound on the rows that can hold a Taylor point, and of sqrt(2) times it,
    the deficit's row cut; unsorted, as the tail rule's nodes are."""
    thr = constant._TAYLOR_THR * (1.0 + y)
    edge = np.sqrt(2.0 * y * thr + thr * thr)
    scale = np.concatenate([np.geomspace(1e-3, 10.0, 200),
                            1.0 + np.linspace(-1e-3, 1e-3, 21),
                            np.sqrt(2.0) * (1.0 + np.linspace(-1e-3, 1e-3, 21))])
    rho = edge * scale
    return np.random.default_rng(7).permutation(rho), thr


@pytest.mark.parametrize("d", [1, 2, 3])
def test_taylor_rows_lie_below_the_parallelogram_bound(d):
    # rho^2 = y (d+ + d-) + (d+^2 + d-^2) / 2, so no node of a row with
    # rho^2 >= 2 y thr + thr^2 has both displacements below thr; the deficit
    # forms the Taylor mask only on the rows below twice that bound
    mu, _ = _two_sided_rule(d)
    for y in TAYLOR_Y:
        rho, thr = _taylor_bound_rho(y)
        *_, small = _two_sided_taylor_mask(y, rho, mu)
        bound = 2.0 * y * thr + thr * thr
        skipped = rho * rho >= 2.0 * bound
        assert skipped.any() and not skipped.all(), y
        assert not small[skipped].any(), y
        # the sweep reaches Taylor rows, so the assertion is not vacuous
        assert small.any(), y
        # and, up to rounding, none reaches the bound itself
        taylor_rows = small.any(axis=1)
        assert np.max(rho[taylor_rows] ** 2 / bound) <= 1.0 + 1e-12, y


@pytest.mark.parametrize("beta,d", [(0.5, 1), (0.7, 2), (1.3, 3)])
def test_deficit_across_the_taylor_row_cut(beta, d):
    # the rows on either side of the cut, in the tail rule's unsorted order,
    # against the rule that forms the mask on every row
    prof = build_profile(beta, d)
    for y in TAYLOR_Y:
        rho, _ = _taylor_bound_rho(y)
        for des in (False, True):
            new = _sphere_deficit(prof, y, prof.log_derivs(y), rho, des)
            old, size = _two_sided_deficit(prof, y, rho, des)
            if d == 2:
                assert np.all(np.abs(new - old) <= 1e-13 * size), (y, des)
            else:
                assert np.array_equal(new, old), (y, des)


def _search_with_two_sided_rule(monkeypatch, prof):
    calls = []

    def two_sided(p, y, derivs, rho, des):
        # J hands over the log-derivatives at y it read once
        assert derivs == p.log_derivs(y)
        calls.append(y)
        return _two_sided_deficit(p, y, rho, des)[0]

    with monkeypatch.context() as m:
        m.setattr(constant, "_sphere_deficit", two_sided)
        res = liyau_constant_numeric(prof)
    # the substitute served every J the result reports, or the comparison
    # would set the deficit against itself
    assert {row[0] for row in res.j_table} | {res.y_star} <= set(calls)
    return res


@pytest.mark.parametrize("beta,d", [(1.5, 1), (1.3, 3)])
def test_constant_search_unchanged_by_the_fold_at_d1_d3(monkeypatch, beta, d):
    prof = build_profile(beta, d)
    old = _search_with_two_sided_rule(monkeypatch, prof)
    new = liyau_constant_numeric(prof)
    assert (new.value, new.error, new.y_star) == (old.value, old.error, old.y_star)
    assert new.j_table == old.j_table


def test_constant_search_at_d2_moves_at_rounding_level(monkeypatch):
    prof = build_profile(0.7, 2)
    old = _search_with_two_sided_rule(monkeypatch, prof)
    new = liyau_constant_numeric(prof)
    assert new.value == pytest.approx(old.value, rel=1e-13, abs=0.0)
    assert new.error == pytest.approx(old.error, rel=1e-8, abs=0.0)
    assert new.y_star == old.y_star
    old_j, new_j = np.array(old.j_table), np.array(new.j_table)
    assert np.array_equal(new_j[:, 0], old_j[:, 0])
    np.testing.assert_allclose(new_j[:, 1], old_j[:, 1], rtol=1e-13, atol=0.0)


# (value, error, y_star) as recorded once the small-r series read below
# r_s; the last bits depend on the platform's log, so the pins carry a
# rounding-level tolerance and bit-identity is checked against the
# written-out rule above
PINNED_CONSTANTS = {
    (0.5, 1): (5.457127737021382, 8.000290766483392e-06, 0.0),
    (1.5, 1): (1.0218384671623801, 1.7154375840560123e-05, 0.0),
    (0.7, 2): (8.536398553174724, 1.8962850589339176e-05, 0.0),
    (1.3, 3): (4.767695890445785, 5.7255924123863614e-05, 0.0),
}


@pytest.mark.parametrize("beta,d", sorted(PINNED_CONSTANTS))
def test_constant_search_pinned_values(beta, d):
    value, error, y_star = PINNED_CONSTANTS[(beta, d)]
    res = liyau_constant_numeric(build_profile(beta, d))
    assert res.value == pytest.approx(value, rel=1e-12, abs=0.0)
    assert res.error == pytest.approx(error, rel=1e-8, abs=0.0)
    assert res.y_star == pytest.approx(y_star, rel=1e-12, abs=0.0)
    assert res.warning is None


@pytest.mark.parametrize("beta,d", [(0.5, 1), (1.5, 1), (0.7, 2), (1.3, 3)])
def test_J_is_smooth_across_the_table_end(beta, d):
    # J at the table's last radius against the 4-point stencil of its
    # neighbours at 2 % and 4 % either side, which cancels the curvature:
    # a jump of the log-profile where the large-r series takes over shows
    prof = build_profile(beta, d)
    J = {f: J_of_y(prof, prof.r_max * f) for f in (0.96, 0.98, 1.0, 1.02, 1.04)}
    stencil = (-J[0.96].value + 4.0 * J[0.98].value + 4.0 * J[1.02].value
               - J[1.04].value) / 6.0
    assert abs(J[1.0].value - stencil) <= J[1.0].error


def test_constant_search_reuses_the_j_it_computed(monkeypatch, profile_b1_d1):
    seen = []

    def counting(profile, y):
        seen.append(float(y))
        return J_of_y(profile, y)

    monkeypatch.setattr(constant, "J_of_y", counting)
    res = liyau_constant_numeric(profile_b1_d1)
    # 49 scan nodes and 7 golden steps, no radius twice
    assert len(seen) == 56
    assert len(set(seen)) == len(seen)
    assert res.y_star in seen
    # the error bar is the one a fresh J at y_star gives
    monkeypatch.undo()
    c = constant.normalizing_constant(1.0, 1)
    j_star = J_of_y(profile_b1_d1, res.y_star)
    assert res.value == 0.5 * c * j_star.value
    assert res.error == 0.5 * c * (j_star.error + abs(j_star.value) * 1e-6)


@pytest.mark.parametrize("a,b,argmax", [
    (0.0, 1.0, 0.9),      # near the right end: the bracket moves right
    (0.0, 1.0, 0.4),      # in the middle: it moves both ways
    (0.3, 0.3 + 5e-7, 0.3),  # a bracket narrower than tol: its midpoint
])
def test_golden_section_max_finds_the_maximum(a, b, argmax):
    tol = 1e-6
    x, fx = golden_section_max(lambda x: -(x - argmax) ** 2, a, b, tol)
    assert abs(x - argmax) <= tol
    assert fx == -(x - argmax) ** 2


def test_constant_for_result_is_frozen(profile_b1_d1):
    # a shared result used to be writable: value = -5 moved every margin
    # that read it, and those of every profile with the same table
    res = constant_for(profile_b1_d1)
    assert isinstance(res.j_table, tuple)
    for f in dataclasses.fields(res):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(res, f.name, getattr(res, f.name))
    assert constant_for(profile_b1_d1) is res


def test_constant_for_keeps_one_result_per_profile():
    # a separately built profile with the same table gets its own result,
    # equal to the first, and each result goes with its profile
    p, q = build_profile(1.0, 1), build_profile(1.0, 1)
    assert p.to_text() == q.to_text()
    a, b = constant_for(p), constant_for(q)
    assert a is not b and a == b
    held = len(constant._CONSTANTS)
    del p, a
    gc.collect()
    assert len(constant._CONSTANTS) == held - 1
    assert constant_for(q) is b


@pytest.mark.parametrize("y", [np.nan, np.inf, -np.inf, -1e-3])
def test_J_rejects_a_radius_that_is_not_finite_and_non_negative(
        profile_b1_d1, y):
    # NaN used to give J = 0 +- inf, and a margin of 2 +- inf graded pass
    with pytest.raises(ValueError, match="finite and non-negative"):
        J_of_y(profile_b1_d1, y)
    if y != -1e-3:
        with pytest.raises(ValueError, match="finite and non-negative"):
            heat_kernel_liyau_margin(profile_b1_d1, 1.0, y)


@pytest.mark.parametrize("kwargs,match", [
    ({"y_max": np.nan}, "y_max"),
    ({"y_max": np.inf}, "y_max"),
    ({"y_max": 0.01}, "y_max"),    # J twice at 0.01 with nodes = 3
    ({"y_max": 0.005}, "y_max"),   # a descending scan past y_max
    ({"nodes": 2}, "nodes"),       # 0 and 0.01, whatever y_max says
    ({"nodes": 0}, "nodes"),
])
def test_search_spec_rejects_a_scan_that_misses_y_max(kwargs, match):
    with pytest.raises(ValueError, match=match):
        SearchSpec(**kwargs)


def test_smallest_search_scan_is_ascending_and_ends_at_y_max(profile_b1_d1):
    res = liyau_constant_numeric(profile_b1_d1, SearchSpec(y_max=0.02, nodes=3))
    assert [row[0] for row in res.j_table] == [0.0, 0.01, 0.02]
