"""Grid-backed fields: construction, extension rules, serialization."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from liyau.fields import Extension, GridField


def bump(spacing=0.1, extent=5.0, ext=None):
    return GridField.from_function(lambda x: np.exp(-x ** 2), spacing, extent,
                                   ext or Extension("constant"), positive=True)


def test_construction_validation():
    with pytest.raises(ValueError):
        GridField(0.0, np.ones(5))
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
    assert f.dim == 1
    assert f.extent == pytest.approx(4.0)
    assert f.x[0] == pytest.approx(-4.0)
    assert f.x[-1] == pytest.approx(4.0)
    assert f.values.size == 17


def test_eval_inside_matches_samples_and_interpolates():
    f = bump()
    assert f.eval(0.0) == pytest.approx(1.0, rel=1e-12)
    # cubic spline on a smooth function: ~h^4 interpolation error
    assert f.eval(0.05) == pytest.approx(np.exp(-0.05 ** 2), abs=1e-5)


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


def test_text_round_trip_is_bit_exact():
    f = bump(spacing=0.25, extent=3.0, ext=Extension("power", exponent=1.5))
    g = GridField.from_text(f.to_text())
    assert g.spacing == f.spacing
    assert g.extension == f.extension
    assert g.positive == f.positive
    assert np.array_equal(g.values, f.values)
    # serialization is canonical: a second round trip reproduces the text
    assert g.to_text() == f.to_text()


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


def test_text_reader_names_a_missing_header_key():
    text = bump(spacing=0.5, extent=3.0).to_text()
    with pytest.raises(ValueError, match="lacks spacing$"):
        GridField.from_text(text.replace("# spacing =", "# spacings ="))


def test_point_expansion_second_difference():
    f = bump(spacing=0.01)
    exp = f.point_expansion(0.0)
    # f(h) + f(-h) - 2 f(0) for the Gaussian: 2(e^{-h^2} - 1)
    h = np.array([0.1, 0.5])
    assert exp.diff_even(h) == pytest.approx(2.0 * (np.exp(-h ** 2) - 1.0),
                                             abs=1e-8)
    # desingularized form tends to f''(0) = -2 (spline curvature: ~h^2 error)
    assert exp.diff_even_over_h2(np.array([1e-6]))[0] == pytest.approx(-2.0,
                                                                       abs=5e-4)


def test_point_expansion_rows_match_single_points():
    f = bump(spacing=0.01)
    xs = np.array([-1.3, 0.0, 0.257])
    rows = f.point_expansion(xs)
    h = np.array([1e-4, 0.003, 0.01, 0.5, 2.0, 1e3])  # Taylor, grid and tail
    for i, x in enumerate(xs):
        one = f.point_expansion(x)
        for s in (1.0, -1.0):
            assert np.array_equal(rows.diff(s, h)[i], one.diff(s, h))
            assert np.array_equal(rows.diff_over_h(s, h)[i], one.diff_over_h(s, h))
        assert np.array_equal(rows.diff_even(h)[i], one.diff_even(h))
        assert np.array_equal(rows.diff_even_over_h2(h)[i], one.diff_even_over_h2(h))


def test_point_expansion_boundary_guard():
    f = bump(extent=5.0)
    with pytest.raises(ValueError):
        f.point_expansion(4.5)  # outside the central 80%


def test_point_expansion_rejects_nan():
    f = bump(extent=5.0)
    for x in (np.nan, np.array([0.0, np.nan])):
        with pytest.raises(ValueError, match="central 80%"):
            f.point_expansion(x)


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
