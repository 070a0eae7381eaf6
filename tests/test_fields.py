"""Grid-backed fields: construction, extension rules, serialization."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.interpolate import CubicSpline

from liyau import fields
from liyau.fields import Extension, GridField
from liyau.fraclap import solve_fractional
from liyau.singular import grid_cell_edges
from liyau.verify import random_positive_field


def bump(spacing=0.1, extent=5.0, ext=None):
    return GridField.from_function(lambda x: np.exp(-x ** 2), spacing, extent,
                                   ext or Extension("constant"), positive=True)


def test_construction_validation():
    with pytest.raises(ValueError):
        GridField(0.0, np.ones(5))
    with pytest.raises(ValueError, match="finite"):
        GridField(np.inf, np.ones(5))
    with pytest.raises(ValueError):
        GridField(0.1, np.ones(4))  # even length
    with pytest.raises(ValueError):
        GridField(0.1, np.array([1.0, 2.0, np.inf, 2.0, 1.0]))
    with pytest.raises(ValueError):
        GridField(0.1, np.array([1.0, -1.0, 1.0, 1.0, 1.0]), positive=True)
    with pytest.raises(ValueError):
        Extension("power", exponent=0.0)
    with pytest.raises(ValueError):
        Extension("weird")


def test_grid_geometry():
    f = bump(spacing=0.5, extent=4.0)
    assert f.extent == pytest.approx(4.0)
    assert f.x[0] == pytest.approx(-4.0)
    assert f.x[-1] == pytest.approx(4.0)
    assert f.values.size == 17


def test_values_are_a_read_only_copy():
    # the spline and the heat solve's spectrum are built from the values
    vals = np.ones(9)
    f = GridField(0.5, vals)
    vals[4] = 2.0
    assert f.values[4] == 1.0
    with pytest.raises(ValueError, match="read-only"):
        f.values[4] = 2.0


def test_eval_inside_matches_samples_and_interpolates():
    f = bump()
    assert f.eval(0.0) == pytest.approx(1.0, rel=1e-12)
    # cubic spline on a smooth function: ~h^4 interpolation error
    assert f.eval(0.05) == pytest.approx(np.exp(-0.05 ** 2), abs=1e-5)


def test_eval_reads_nan_at_nan_points():
    f = GridField.from_function(lambda x: 10.0 + x ** 2, 0.5, 5.0)
    for _ in range(2):  # a stale buffer must not leak into a NaN slot
        out = f.eval([0.3, np.nan, 1.0])
        assert np.isnan(out[1])
        assert out[0] == pytest.approx(10.09) and out[2] == pytest.approx(11.0)
    assert np.isnan(f.eval(np.nan))


def test_eval_outside_follows_extension_rule():
    X = 5.0
    fc = bump(ext=Extension("constant"))
    edge = fc.values[-1]
    assert fc.eval(12.0) == pytest.approx(edge)

    fp = bump(ext=Extension("power", exponent=2.0))
    assert fp.eval(10.0) == pytest.approx(edge * (10.0 / X) ** -2.0, rel=1e-12)

    fl = GridField.from_function(lambda x: -x ** 2, 0.1, X,
                                 Extension("log-power", exponent=2.0))
    assert fl.eval(10.0) == pytest.approx(fl.values[-1] - 2.0 * np.log(2.0),
                                          rel=1e-12)


def test_log_transforms_field_and_extension():
    f = bump(ext=Extension("power", exponent=3.0))
    g = f.log()
    assert g.extension.kind == "log-power"
    assert g.extension.exponent == 3.0
    assert np.allclose(g.values, -f.x ** 2, atol=1e-14)
    with pytest.raises(ValueError):
        GridField(0.1, np.array([1.0, 1.0, 0.0, 1.0, 1.0])).log()


def test_mass_constant_extension():
    # nonzero edge + constant extension: infinite mass, reported honestly
    assert bump(spacing=0.01).mass() == np.inf
    # compact support (exact-zero edges): plain trapezoid mass
    x = np.arange(-500, 501) * 0.01
    vals = np.where(np.abs(x) < 4.0, np.exp(-x ** 2), 0.0)
    f = GridField(0.01, vals, Extension("constant"), positive=False)
    assert f.mass() == pytest.approx(np.sqrt(np.pi), rel=1e-6)


def test_mass_power_tail():
    X = 5.0
    f = GridField.from_function(lambda x: (1.0 + x ** 2) ** -1.0, 0.01, X,
                                Extension("power", exponent=2.0), positive=True)
    # integral of 1/(1+x^2) = pi; the power model approximates the true tail
    assert f.mass() == pytest.approx(np.pi, rel=2e-2)
    assert f.mass() > float(np.trapezoid(f.values, dx=f.spacing))
    assert f.power_tail_mass() == 2.0 * f.values[0] * X
    heavy = GridField(0.01, f.values, Extension("power", 1.0), positive=True)
    assert heavy.power_tail_mass() == heavy.mass() == np.inf


def test_text_round_trip_is_bit_exact():
    f = bump(spacing=0.25, extent=3.0, ext=Extension("power", exponent=1.5))
    g = GridField.from_text(f.to_text())
    assert g.spacing == f.spacing
    assert g.extension == f.extension
    assert g.positive == f.positive
    assert np.array_equal(g.values, f.values)
    # serialization is canonical: a second round trip reproduces the text
    assert g.to_text() == f.to_text()


def test_text_round_trip_keeps_tail_mass(profile_b05_d1):
    # a solved field's text used to drop its tail mass: mass() read
    # 18.9386 before the round trip and 18.4483 after
    u0 = random_positive_field(np.random.default_rng(3), spacing=0.05,
                               extent=20.0)
    u = solve_fractional(u0, 0.5, 3.0, profile_b05_d1)
    g = GridField.from_text(u.to_text())
    assert g.tail_mass == u.tail_mass and g.mass() == u.mass()
    assert g.to_text() == u.to_text()
    for tail in (0.0, np.inf):
        f = GridField(0.5, np.ones(7), tail_mass=tail)
        assert GridField.from_text(f.to_text()).tail_mass == tail
    # a text without the line, as written before it existed, has none
    assert "tail_mass" not in u0.to_text()
    assert GridField.from_text(u0.to_text()).tail_mass is None


@given(st.floats(0.01, 2.0), st.integers(3, 30))
@settings(max_examples=60)
def test_round_trip_random_grids(spacing, k):
    rng = np.random.default_rng(k)
    vals = rng.normal(size=2 * k + 1)
    f = GridField(spacing, vals, Extension("constant"))
    g = GridField.from_text(f.to_text())
    assert g.spacing == f.spacing
    assert np.array_equal(g.values, f.values)


def _edit_rows(text, edit):
    return "\n".join(ln if ln.startswith("#") else edit(ln)
                     for ln in text.splitlines()) + "\n"


def test_text_reader_rejects_rows_of_the_wrong_width():
    text = bump(spacing=0.5, extent=3.0).to_text()
    lines = text.splitlines()
    one_row = "\n".join(lines[:-1] + [lines[-1] + " 1.0"]) + "\n"
    for bad in (one_row, _edit_rows(text, lambda ln: ln + " 1.0"),
                _edit_rows(text, lambda ln: ln.split()[0])):
        with pytest.raises(ValueError, match="exactly 2 numbers"):
            GridField.from_text(bad)


def test_text_reader_rejects_a_wrong_point_count():
    f = bump(spacing=0.5, extent=3.0)
    n = f.values.shape[0]
    text = f.to_text()
    lines = text.splitlines()
    for bad in (text.replace(f"# npoints = {n}", "# npoints = 99"),
                "\n".join(lines[:-1]) + "\n"):
        with pytest.raises(ValueError, match="npoints"):
            GridField.from_text(bad)


def test_fields_reject_values_and_files_that_are_not_1d():
    with pytest.raises(ValueError, match="1-d"):
        GridField(0.5, np.ones((5, 5)))
    text = bump(spacing=0.5, extent=3.0).to_text()
    assert "# dim = 1\n" in text
    with pytest.raises(ValueError, match="dim = 2"):
        GridField.from_text(text.replace("# dim = 1", "# dim = 2"))


def _replace_row(text, i, row):
    lines = text.splitlines()
    rows = [k for k, ln in enumerate(lines) if not ln.startswith("#")]
    lines[rows[i]] = row
    return "\n".join(lines) + "\n"


_MALFORMED = {
    "centre coordinate off its node": lambda t: _replace_row(t, 6, "7 3"),
    "edge coordinate off its node": lambda t: _replace_row(t, 0, "-3.5 1"),
    "power without exponent": lambda t: t.replace(
        "# extension = constant", "# extension = power"),
    "empty extension": lambda t: t.replace(
        "# extension = constant", "# extension ="),
    "constant with exponent": lambda t: t.replace(
        "# extension = constant", "# extension = constant 3"),
    "power with two exponents": lambda t: t.replace(
        "# extension = constant", "# extension = power 2 7"),
    "power with an infinite exponent": lambda t: t.replace(
        "# extension = constant", "# extension = power inf"),
    "unknown extension kind": lambda t: t.replace(
        "# extension = constant", "# extension = linear 2"),
}


@pytest.mark.parametrize("case", sorted(_MALFORMED))
def test_text_reader_rejects_malformed_texts(case):
    text = bump(spacing=0.5, extent=3.0).to_text()
    assert "# extension = constant\n" in text
    with pytest.raises(ValueError):
        GridField.from_text(_MALFORMED[case](text))


def test_power_extension_needs_a_finite_exponent():
    for exponent in (np.inf, np.nan, 0.0, -1.0):
        with pytest.raises(ValueError, match="finite"):
            Extension("power", exponent)


def test_text_reader_names_a_missing_header_key():
    text = bump(spacing=0.5, extent=3.0).to_text()
    with pytest.raises(ValueError, match="lacks spacing$"):
        GridField.from_text(text.replace("# spacing =", "# spacings ="))


def test_point_expansion_second_difference():
    f = bump(spacing=0.01)
    exp = f.point_expansion(0.0, 1.0)
    # f(h) + f(-h) - 2 f(0) for the Gaussian: 2(e^{-h^2} - 1)
    h = np.array([0.1, 0.5])
    plus, minus = exp.far(h)
    assert plus + minus - 2.0 * exp.f_x == pytest.approx(
        2.0 * (np.exp(-h ** 2) - 1.0), abs=1e-8)
    # desingularized form tends to f''(0) = -2 (spline curvature: ~h^2 error)
    h = np.array([1e-6])
    even_over_h2 = (exp.near_over_h(1.0, h) + exp.near_over_h(-1.0, h)) / h
    assert even_over_h2[0] == pytest.approx(-2.0, abs=5e-4)


def test_point_expansion_rows_match_single_points():
    f = bump(spacing=0.01)
    xs = np.array([-1.3, 0.0, 0.257])
    rows = f.point_expansion(xs, 1.0)
    h = np.array([1e-4, 0.003, 0.01, 0.5, 2.0, 1e3])  # Taylor, grid and tail
    for i, x in enumerate(xs):
        one = f.point_expansion(x, 1.0)
        for s in (1.0, -1.0):
            assert np.array_equal(rows.near_over_h(s, h)[i], one.near_over_h(s, h))
        for side_rows, side_one in zip(rows.far(h), one.far(h)):
            assert np.array_equal(side_rows[i], side_one)


def test_point_expansion_boundary_guard():
    f = bump(extent=5.0)
    with pytest.raises(ValueError):
        f.point_expansion(4.5, 1.0)  # outside the central 80%


def test_point_expansion_rejects_nan():
    f = bump(extent=5.0)
    for x in (np.nan, np.array([0.0, np.nan])):
        with pytest.raises(ValueError, match="central 80%"):
            f.point_expansion(x, 1.0)


def test_point_expansion_reads_taylor_data_from_one_cell_search(monkeypatch):
    # f(x) and its first three derivatives are the spline's own reads, bit
    # for bit, a NaN point included (the central-band check is lifted to
    # let one through)
    f = bump(spacing=0.02, extent=10.0)
    sp = f._get_spline()
    searches, cells = [], fields.PiecewiseCubic._cells
    monkeypatch.setattr(fields.PiecewiseCubic, "_cells",
                        lambda self, p: searches.append(p.size) or cells(self, p))
    monkeypatch.setattr(GridField, "require_central", lambda self, x: None)
    for x in (np.array([-3.3, 0.0, np.nan, 2.0 + 1e-9, 7.99]), 1.234, np.nan):
        exp = fields.PointExpansion(f, x, 1.0, None)
        assert searches == [np.size(x)]
        col = np.asarray(x, dtype=float)[..., None]
        for k, got in enumerate((exp.f_x, exp.d1, exp.d2, exp.d3)):
            want = sp(col, k)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
        searches.clear()


def test_tail_mismatch_flags_wrong_extension_model():
    # exact power field declared with the right exponent: tiny mismatch
    good = GridField.from_function(lambda x: (1.0 + x ** 2) ** -1.5, 0.02, 30.0,
                                   Extension("power", exponent=3.0),
                                   positive=True)
    # same samples declared constant: large mismatch
    bad = GridField(good.spacing, good.values, Extension("constant"),
                    positive=True)
    assert good.tail_mismatch() < 1e-3
    assert bad.tail_mismatch() > 10.0 * good.tail_mismatch()


def test_tail_model_error_budget_scales_with_edge_distance():
    f = GridField(0.02, np.cos(np.arange(-500, 501) * 0.02),
                  Extension("constant"))
    b0 = f.tail_model_error_budget(1.0, 0.0)
    b_near_edge = f.tail_model_error_budget(1.0, 8.0)
    assert b0 > 0.0
    assert b_near_edge > b0


def _same_bytes(a, b):
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


def _spline_matches_scipy(f: GridField, rng) -> None:
    """Coefficients and reads of orders 0-3 equal CubicSpline's bit for bit."""
    x, X = f.x, f.extent
    ref = CubicSpline(x, f.values)
    sp = f._get_spline()
    for k in range(4):
        # PPoly's sums start from 0.0; the low-order rows carry that addition
        assert _same_bytes(sp.c[k], ref.c[k] + 0.0 if k >= 2 else ref.c[k])
    pts = np.concatenate([rng.uniform(-1.5 * X, 1.5 * X, 4000), x,
                          np.nextafter(x, np.inf), np.nextafter(x, -np.inf),
                          [X, -X, np.nan, 1e200, -1e200, np.inf, -np.inf]])
    # reads far beyond the grid overflow, as PPoly's do (silently there)
    with np.errstate(over="ignore", invalid="ignore"):
        for nu in range(4):
            assert _same_bytes(sp(pts, nu), ref(pts, nu)), nu


@pytest.mark.parametrize("n,spacing", [(5, 0.37), (7, 1.0 / 3.0), (83, 0.1),
                                       (2001, 0.02), (10001, 0.01),
                                       (40001, 0.005)])
def test_grid_spline_is_scipy_cubic_spline_bit_for_bit(n, spacing):
    rng = np.random.default_rng(n)
    k = (n - 1) // 2
    for vals in (rng.standard_normal(n),
                 np.log1p((np.arange(-k, k + 1) * spacing) ** 2),
                 np.where(rng.random(n) < 0.3, -0.0, rng.standard_normal(n)),
                 np.where(rng.random(n) < 0.5, -0.0, 0.0)):
        _spline_matches_scipy(GridField(spacing, vals), rng)


def test_slope_factors_are_keyed_on_spacing_and_n_and_bounded():
    fields._slope_system.cache_clear()
    rng = np.random.default_rng(0)
    vals = rng.standard_normal(401)
    a, b = GridField(0.02, vals), GridField(0.03, vals)
    a._get_spline(), b._get_spline()
    assert fields._slope_system.cache_info().currsize == 2
    # same n, different spacing: different nodes and factors
    assert not np.array_equal(fields._slope_system(0.02, 401)[0],
                              fields._slope_system(0.03, 401)[0])
    limit = fields._slope_system.cache_info().maxsize
    for i in range(limit + 2):
        GridField(0.05 + 0.01 * i, vals[:301])._get_spline()
    assert fields._slope_system.cache_info().currsize == limit
    # the first grid's factors were evicted; a rebuilt spline is still exact
    _spline_matches_scipy(GridField(0.02, vals), rng)


def test_sweep_over_t_factors_its_grid_once(monkeypatch, profile_b1_d1):
    from liyau.verify import sweep_fractional_liyau

    calls, real = [], fields.dgttrf

    def counting(dl, d, du):
        calls.append(d.size)
        return real(dl, d, du)

    monkeypatch.setattr(fields, "dgttrf", counting)
    fields._slope_system.cache_clear()
    rep = sweep_fractional_liyau(profile_b1_d1, 1, np.geomspace(0.5, 5.0, 10),
                                 [0.0, 3.0], seed=1, spacing=0.05, extent=20.0)
    assert len(rep.samples) == 20
    assert calls == [801]


def test_point_quadratures_of_one_beta_and_grid_build_one_plan():
    from liyau.fraclap import frac_laplacian_point
    from liyau.ops import psi_upsilon_continuous

    f = bump(spacing=0.02, extent=10.0)
    g = GridField(f.spacing, 2.0 * f.values)
    fields._point_plan.cache_clear()
    frac_laplacian_point(f, 0.7, [0.0, 1.0])
    psi_upsilon_continuous(g, 0.7, 0.3)
    assert fields._point_plan.cache_info().misses == 1
    plan = g.point_expansion(0.3, 0.7).plan
    assert f.point_expansion(0.0, 0.7).plan is plan
    assert np.array_equal(plan.edges, grid_cell_edges(0.02, 10.0))
    with pytest.raises(ValueError):
        plan.nodes[0][0] = 0.0
    # a panel width cap is another plan
    capped = f.point_expansion(0.0, 0.7, 0.25).plan
    assert np.array_equal(capped.edges,
                          grid_cell_edges(0.02, 10.0, max_width=0.25))
    assert fields._point_plan.cache_info().misses == 2


@pytest.mark.parametrize("max_width", [None, 0.25])
def test_panel_edges_are_built_once_per_grid_and_read_only(max_width):
    f = bump(spacing=0.02, extent=10.0)
    g = GridField(f.spacing, 2.0 * f.values)
    edges = f.point_expansion(0.0, 0.7, max_width).plan.edges
    assert np.array_equal(edges, grid_cell_edges(0.02, 10.0,
                                                 max_width=max_width))
    assert g.point_expansion(1.0, 0.7, max_width).plan.edges is edges
    with pytest.raises(ValueError):
        edges[1] = 0.0


# ---- point layouts -------------------------------------------------------------

def _three_extensions(spacing, extent):
    """Two fields on one grid for each extension kind."""
    x = fields._nodes(spacing, 2 * int(round(extent / spacing)) + 1)
    power = Extension("power", 1.5)
    out = []
    for shift in (0.0, 1.3):
        bump = np.exp(-(x - shift) ** 2)
        decay = (1.0 + 0.25 * (x - shift) ** 2) ** -0.75 + 0.1 * bump
        out.append((GridField(spacing, 1.0 + bump, Extension("constant")),
                    GridField(spacing, decay, power),
                    GridField(spacing, np.log(decay),
                              power.log_transformed())))
    return list(zip(*out))


@pytest.mark.parametrize("kind", range(3))
def test_far_reads_place_positions_once_per_grid_points_and_nodes(
        kind, monkeypatch):
    from liyau.fraclap import frac_laplacian_point
    from liyau.ops import psi_upsilon_continuous

    fields._point_plan.cache_clear()  # the slot outlives a test
    placed, reads = [], []
    locate, far = GridField._locate, fields.PointExpansion.far

    def recording_far(self, h):
        out = far(self, h)
        reads.append((self.field, self._col, h, np.concatenate(out, axis=-1)))
        return out

    monkeypatch.setattr(GridField, "_locate",
                        lambda self, p: placed.append(p.size) or locate(self, p))
    monkeypatch.setattr(fields.PointExpansion, "far", recording_far)
    f, g = _three_extensions(0.05, 20.0)[kind]
    other_grid = _three_extensions(0.1, 20.0)[kind][0]
    xs, coarse = [-7.3, 0.0, 4.41, 15.9], {"max_panel_width": 0.5}
    # (operator, field, beta, x, keywords, placements)
    cases = [(frac_laplacian_point, f, 1.0, xs, {}, 1),
             (frac_laplacian_point, g, 1.0, xs, {}, 0),  # another field
             (frac_laplacian_point, f, 1.0, 4.41, {}, 1),
             (psi_upsilon_continuous, g, 1.0, 4.41, {}, 0),  # same positions
             (frac_laplacian_point, f, 1.0, [0.0, 2.5], {}, 1),
             (frac_laplacian_point, f, 0.7, [0.0, 2.5], {}, 1),
             (frac_laplacian_point, f, 0.7, [0.0, 2.5], coarse, 1),
             (frac_laplacian_point, other_grid, 0.7, [0.0, 2.5], coarse, 1),
             # each (grid, beta) keeps its own last placement
             (frac_laplacian_point, f, 1.0, [0.0, 2.5], {}, 0)]
    for op, field, beta, x, kw, want in cases:
        before = len(placed)
        op(field, beta, x, **kw)
        assert len(placed) - before == want, (op.__name__, beta, x, kw)
    # every far read is GridField.eval at its positions, beyond +-X included
    monkeypatch.undo()
    assert len(reads) == len(cases)
    for field, col, h, got in reads:
        assert np.array_equal(got, field.eval(col + np.concatenate([h, -h])))


def test_log_is_built_once_and_kept():
    f = GridField(0.1, np.linspace(1.0, 2.0, 101), Extension("power", 2.0),
                  positive=True)
    lf = f.log()
    assert f.log() is lf and lf.extension == Extension("log-power", 2.0)
    assert np.array_equal(lf.values, np.log(f.values)) and not lf.positive


def test_a_field_is_frozen_so_its_caches_cannot_go_stale():
    f = GridField(0.1, np.exp(-np.linspace(-2.0, 2.0, 41) ** 2), positive=True)
    before = f.eval(0.35)
    lf = f.log()
    for name, value in (("spacing", 0.2), ("values", 2.0 * f.values),
                        ("extension", Extension("power", 2.0)),
                        ("positive", False), ("tail_mass", 1.0)):
        with pytest.raises(AttributeError):
            setattr(f, name, value)
    assert f.spacing == 0.1 and f.tail_mass is None
    assert f.eval(0.35) == before and f.log() is lf
    # a field compares by identity, not by its arrays
    assert f != GridField(0.1, f.values, positive=True) and f == f


def test_tail_mass_is_none_or_non_negative():
    for bad in (-5.0, np.nan):
        with pytest.raises(ValueError, match="tail_mass"):
            GridField(0.1, np.ones(11), tail_mass=bad)
    # a power tail with q <= 1 holds infinite mass
    assert GridField(0.1, np.ones(11), tail_mass=np.inf).mass() == np.inf
    assert GridField(0.1, np.ones(11), tail_mass=0.0).mass() == pytest.approx(1.0)
