"""Grid-backed scalar fields with declared far-field behavior.

A GridField stores samples of a function on a uniform, origin-centered grid
together with an extension rule describing the field beyond the last node.
Singular-integral operators need values arbitrarily far from the grid, so the
extension rule is part of the field's definition, not an afterthought.

Inside the grid a field is its not-a-knot cubic spline, equal bit for bit to
scipy's CubicSpline. The spline's slope system depends on the grid alone, so
it is factored once per grid and each field costs one tridiagonal solve; reads
locate their cell by index. Point quadratures build one spline of log u per
(u, t) on grids of 10^4 nodes and more, which is what this pays for. The
82-node window splines in fraclap and the stable profile's log-log table keep
scipy: they are small, and a window's nodes move with its point.
"""
from __future__ import annotations

import io
from dataclasses import dataclass, field as dc_field
from functools import lru_cache
from typing import Callable

import numpy as np
from scipy.linalg.lapack import dgttrf, dgttrs

from .runio import read_table_text
from .singular import grid_cell_edges

FIELD_FORMAT = "liyau-field v1"

# the boundary-band residual underestimates the off-grid model error (the
# residual keeps growing outward); factor calibrated on kernels with known
# tails, where the ratio stays below ~4.5
TAIL_MODEL_SAFETY = 5.0

EXTENSION_KINDS = ("constant", "power", "log-power")


@dataclass(frozen=True)
class Extension:
    """Far-field rule for |y| beyond the grid.

    constant     f(y) = f(edge)
    power        f(y) = f(edge) * (|y|/X)^(-exponent)      (multiplicative decay)
    log-power    f(y) = f(edge) - exponent * log(|y|/X)    (for log-transformed fields)
    """

    kind: str = "constant"
    exponent: float = 0.0

    def __post_init__(self):
        if self.kind not in EXTENSION_KINDS:
            raise ValueError(f"unknown extension kind {self.kind!r}")
        if self.kind != "constant" and not self.exponent > 0:
            raise ValueError("power-law extensions need a positive exponent")

    def model(self, edge: float, r: np.ndarray) -> np.ndarray:
        """The rule's value at |y|/X = r for the edge value edge."""
        if self.kind == "constant":
            return np.full_like(r, edge)
        if self.kind == "power":
            return edge * r ** (-self.exponent)
        return edge - self.exponent * np.log(r)

    def log_transformed(self) -> "Extension":
        """Extension rule for log(f) given this rule for a positive f."""
        if self.kind == "constant":
            return Extension("constant")
        if self.kind == "power":
            return Extension("log-power", self.exponent)
        raise ValueError("cannot log-transform a log-power field")


def _parse_extension(text: str) -> Extension:
    parts = text.split()
    if parts[0] == "constant":
        return Extension("constant")
    return Extension(parts[0], float(parts[1]))


def _format_extension(ext: Extension) -> str:
    if ext.kind == "constant":
        return "constant"
    return "%s %.17g" % (ext.kind, ext.exponent)


def _nodes(spacing: float, n: int) -> np.ndarray:
    """Coordinates of the n nodes of an origin-centered grid."""
    return (np.arange(n) - (n - 1) // 2) * spacing


# a margins sweep reads three grids; an entry holds about 5.5 n floats
@lru_cache(maxsize=4)
def _slope_system(spacing: float, n: int):
    """LU factors of a cubic spline's not-a-knot slope system on a grid.

    The tridiagonal matrix and its two end rows are scipy CubicSpline's,
    entry for entry. They depend on the nodes only, so one factorization
    serves every field on the grid. Returns the dgttrs factors, the cell
    widths and the end rows' spans x[2] - x[0] and x[-1] - x[-3]; the arrays
    are read-only, since every caller shares them.
    """
    x = _nodes(spacing, n)
    dx = np.diff(x)
    d_lo, d_hi = x[2] - x[0], x[-1] - x[-3]
    diag = np.concatenate(([dx[1]], 2 * (dx[:-1] + dx[1:]), [dx[-2]]))
    *factors, info = dgttrf(np.append(dx[1:], d_hi), diag,
                            np.append(d_lo, dx[:-1]))
    if info != 0:
        raise np.linalg.LinAlgError("singular spline system")
    for a in factors + [dx]:
        a.flags.writeable = False
    return factors, dx, d_lo, d_hi


class _GridSpline:
    """scipy's default (not-a-knot) CubicSpline of samples on a uniform
    origin-centered grid: the same coefficients and the same reads, bit for
    bit, for a field that costs one dgttrs solve on the grid's cached factors.

    A read takes a point's cell from its grid coordinate, corrected by one
    step so that x[j] <= p < x[j+1]; points beyond the end nodes read the end
    cells' cubics (PPoly's searchsorted('right') - 1, clamped). Sums follow
    PPoly's term order, which starts from 0.0 (so -0.0 reads +0.0).
    """

    def __init__(self, spacing: float, y: np.ndarray):
        n = y.size
        factors, dx, d_lo, d_hi = _slope_system(spacing, n)
        slope = np.diff(y) / dx
        b = np.empty(n)
        b[1:-1] = 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
        b[0] = ((dx[0] + 2 * d_lo) * dx[1] * slope[0]
                + dx[0] ** 2 * slope[1]) / d_lo
        b[-1] = (dx[-1] ** 2 * slope[-2]
                 + (2 * d_hi + dx[-1]) * dx[-2] * slope[-1]) / d_hi
        s, _ = dgttrs(*factors, b, overwrite_b=1)
        t = (s[:-1] + s[1:] - 2 * slope) / dx
        # rows c0..c3 of PPoly's coefficients, one column per cell; the two
        # low-order rows carry PPoly's leading 0.0 + (a -0.0 sums to +0.0)
        self.c = c = np.empty((4, n - 1))
        np.divide(t, dx, out=c[0])
        np.subtract(slope, s[:-1], out=c[1])
        c[1] /= dx
        c[1] -= t
        np.add(s[:-1], 0.0, out=c[2])
        np.add(y[:-1], 0.0, out=c[3])
        self.spacing = spacing
        self.half = (n - 1) // 2

    def __call__(self, p, nu: int = 0) -> np.ndarray:
        """Value (nu = 0) or nu-th derivative, nu <= 3, at the points p."""
        p = np.asarray(p, dtype=float)
        h, K = self.spacing, self.half
        j = np.floor(p / h)  # node j sits at j * h, the float GridField.x holds
        j -= p < j * h
        j += p >= (j + 1) * h
        # fmax and fmin pass over NaN: a NaN point gets a cell and reads NaN
        j = np.fmin(np.fmax(j, -K), K - 1)
        s = p - j * h
        c0, c1, c2, c3 = self.c.take((j + K).astype(np.intp), axis=1)
        if nu == 0:
            ss = s * s
            return c3 + c2 * s + c1 * ss + c0 * (ss * s)
        if nu == 1:
            return c2 + c1 * s * 2.0 + c0 * (s * s) * 3.0
        if nu == 2:
            return 0.0 + c1 * 2.0 + c0 * s * 6.0
        # the third derivative is constant on a cell, so NaN is set by hand
        return np.where(np.isnan(p), np.nan, 0.0 + c0 * 6.0)


@lru_cache(maxsize=64)
def _panel_edges(spacing: float, extent: float,
                 max_width: float | None) -> np.ndarray:
    edges = grid_cell_edges(spacing, spacing, extent, max_width=max_width)
    edges.flags.writeable = False  # shared by every field on the grid
    return edges


@dataclass
class GridField:
    """Samples of a scalar field on a uniform symmetric grid.

    Parameters
    ----------
    spacing : float
        Grid step h > 0.
    values : ndarray
        1-d array of odd length 2K+1 (node i sits at (i-K)*h).
    extension : Extension
        Far-field rule applied outside the grid.
    positive : bool
        Declares the field positive (required before log()).
    meta : dict
        Free-form diagnostics (warnings, error fields); never serialized.
    """

    spacing: float
    values: np.ndarray
    extension: Extension = dc_field(default_factory=Extension)
    positive: bool = False
    meta: dict = dc_field(default_factory=dict)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if not self.spacing > 0:
            raise ValueError("spacing must be positive")
        if self.values.ndim != 1:
            raise ValueError("values must be 1-d")
        if self.values.size % 2 == 0 or self.values.size < 5:
            raise ValueError("the grid needs odd length >= 5")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("field values must be finite")
        if self.positive and np.any(self.values <= 0):
            raise ValueError("field declared positive has non-positive samples")
        self._spline = None
        # u0's weighted spectrum, kept only inside fraclap.shared_u0_transform
        self._spectrum = None

    @property
    def dim(self) -> int:
        return 1

    @property
    def extent(self) -> float:
        """Half-width X of the grid; nodes cover [-X, X]."""
        return (self.values.shape[0] - 1) // 2 * self.spacing

    @property
    def x(self) -> np.ndarray:
        return _nodes(self.spacing, self.values.shape[0])

    @classmethod
    def from_function(cls, fn: Callable, spacing: float, extent: float,
                      extension: Extension | None = None,
                      positive: bool = False) -> "GridField":
        k = int(round(extent / spacing))
        x = (np.arange(2 * k + 1) - k) * spacing
        return cls(spacing, fn(x), extension or Extension(), positive)

    # ---- evaluation -----------------------------------------------------

    def _get_spline(self):
        if self._spline is None:
            self._spline = _GridSpline(self.spacing, self.values)
        return self._spline

    def eval(self, pts) -> np.ndarray:
        """Evaluate at arbitrary coordinates; extension rule applies outside.
        A NaN point reads NaN."""
        p = np.atleast_1d(np.asarray(pts, dtype=float))
        out = np.empty_like(p)
        X = self.extent
        inside = ~(np.abs(p) > X)  # NaN lies on no side; the spline reads NaN
        if inside.any():
            out[inside] = self._get_spline()(p[inside])
        for side, edge_val in ((p > X, self.values[-1]), (p < -X, self.values[0])):
            if side.any():
                out[side] = self.extension.model(edge_val, np.abs(p[side]) / X)
        return out if np.ndim(pts) else float(out[0])

    def require_central(self, x) -> None:
        """Raise ValueError unless every point of x lies in the central 80%."""
        # written so that NaN fails it
        if not np.all(np.abs(x) <= 0.8 * self.extent):
            raise ValueError("base point must lie in the central 80% of the grid")

    def point_expansion(self, x) -> "PointExpansion":
        return PointExpansion(self, x)

    def panel_edges(self, max_width: float | None = None) -> np.ndarray:
        """Point-quadrature panel edges from one grid cell (the inner
        radius) out to X; max_width caps the width of the far panels. The
        array is built once per grid and is read-only."""
        return _panel_edges(self.spacing, self.extent, max_width)

    def tail_model_error_budget(self, beta: float, x):
        """Tail-error bound for h^(-1-beta)-weighted integrals centered at x.

        Integrates the extension-model residual (both sides, safety-scaled)
        over the region the model covers: 2 * S * kappa * R^(-beta) / beta,
        R the distance from x to the nearest grid edge. Unscaled by any
        kernel normalization; callers multiply by theirs. x may be an array
        of base points, which share one tail_mismatch().
        """
        kappa = self.tail_mismatch()
        r_edge = self.extent - np.abs(x)
        if kappa == 0.0:
            return 0.0 * r_edge
        return 2.0 * TAIL_MODEL_SAFETY * kappa * r_edge ** (-beta) / beta

    def tail_mismatch(self) -> float:
        """How far the samples drift from the extension model near the edge.

        The model is anchored at the edge value, so its residual just inside
        the boundary (outer 10% band, both sides) is the observable proxy for
        its error just outside. Consumers scale this into tail-error terms.
        """
        X = self.extent
        n_band = max(2, int(0.1 * (len(self.values) // 2)))
        worst = 0.0
        for vals, edge in ((self.values[-n_band:], self.values[-1]),
                           (self.values[:n_band][::-1], self.values[0])):
            model = self.extension.model(edge, np.abs(self.x[-n_band:]) / X)
            worst = max(worst, float(np.max(np.abs(vals - model))))
        return worst

    # ---- derived fields --------------------------------------------------

    def log(self) -> "GridField":
        if np.any(self.values <= 0):
            raise ValueError("log() needs strictly positive samples")
        out = GridField(self.spacing, np.log(self.values),
                        self.extension.log_transformed(), positive=False)
        out.meta.update(self.meta)
        return out

    def mass(self) -> float:
        """Integral of the field over R under its extension model.

        A precomputed meta['tail_mass'] (set by solvers that know the exact
        off-grid contribution) takes precedence over the extension model.
        """
        body = float(np.trapezoid(self.values, dx=self.spacing))
        if "tail_mass" in self.meta:
            return body + float(self.meta["tail_mass"])
        ext = self.extension
        if ext.kind == "constant":
            edge = abs(self.values[0]) + abs(self.values[-1])
            return body if edge == 0 else float("inf")
        X = self.extent
        if ext.kind == "power" and ext.exponent > 1:
            tail = (self.values[0] + self.values[-1]) * X / (ext.exponent - 1)
            return body + float(tail)
        return float("inf")

    # ---- serialization ---------------------------------------------------

    def to_text(self) -> str:
        buf = io.StringIO()
        buf.write(f"# {FIELD_FORMAT}\n")
        buf.write("# dim = 1\n")
        buf.write("# spacing = %.17g\n" % self.spacing)
        buf.write(f"# npoints = {self.values.shape[0]}\n")
        buf.write(f"# extension = {_format_extension(self.extension)}\n")
        buf.write(f"# positive = {int(self.positive)}\n")
        for xi, v in zip(self.x, self.values):
            buf.write("%.17g %.17g\n" % (xi, v))
        return buf.getvalue()

    @classmethod
    def from_text(cls, text: str) -> "GridField":
        header, rows = read_table_text(
            text, FIELD_FORMAT, required=("dim", "spacing", "npoints",
                                          "extension"))
        if int(header["dim"]) != 1:
            raise ValueError(f"fields are 1-d, not dim = {header['dim']}")
        spacing = float(header["spacing"])
        n = int(header["npoints"])
        ext = _parse_extension(header["extension"])
        positive = bool(int(header.get("positive", "0")))
        # each row is the coordinate and the value, one per grid node
        if any(len(row) != 2 for row in rows):
            raise ValueError("field rows must hold exactly 2 numbers")
        if len(rows) != n:
            raise ValueError(f"npoints = {n} does not match the "
                             f"{len(rows)} rows")
        return cls(spacing, [row[1] for row in rows], ext, positive)


class PointExpansion:
    """Stable local differences of a 1-d GridField around base points.

    Provides f(x+s*h)-f(x) in forms that do not lose precision as h -> 0,
    switching to a spline-derivative Taylor form below one grid cell. x is
    one point or a 1-d array of them; for an array every difference has one
    row per point, shape (len(x),) + h.shape.
    """

    def __init__(self, f: GridField, x):
        f.require_central(x)
        self.field = f
        self.x = np.asarray(x, dtype=float) if np.ndim(x) else float(x)
        # base points as a column, so that rows broadcast against nodes h
        self._col = np.asarray(x, dtype=float)[..., None]
        sp = f._get_spline()
        self.f_x, self.d1, self.d2, self.d3 = (sp(self._col, k) for k in range(4))

    def _split(self, h, taylor, far) -> np.ndarray:
        """taylor(h) below one grid cell, far(h) at and beyond it."""
        h = np.asarray(h, dtype=float)
        small = h < self.field.spacing
        out = np.empty(self._col.shape[:-1] + h.shape)
        if small.any():
            out[..., small] = taylor(h[small])
        big = ~small
        if big.any():
            out[..., big] = far(h[big])
        return out

    def _taylor_over_h(self, s: int, h: np.ndarray) -> np.ndarray:
        return s * self.d1 + h * (self.d2 / 2.0 + s * h * self.d3 / 6.0)

    def _far_diff(self, s: int, h: np.ndarray) -> np.ndarray:
        return self.field.eval(self._col + s * h) - self.f_x

    def _far_even(self, h: np.ndarray) -> np.ndarray:
        # both sides in one evaluation
        both = self.field.eval(self._col + np.concatenate([h, -h]))
        return both[..., :h.size] + both[..., h.size:] - 2.0 * self.f_x

    def diff(self, s: int, h: np.ndarray) -> np.ndarray:
        """f(x + s*h) - f(x) for h >= 0."""
        return self._split(h, lambda hs: hs * self._taylor_over_h(s, hs),
                           lambda hb: self._far_diff(s, hb))

    def diff_over_h(self, s: int, h: np.ndarray) -> np.ndarray:
        return self._split(h, lambda hs: self._taylor_over_h(s, hs),
                           lambda hb: self._far_diff(s, hb) / hb)

    def diff_even(self, h: np.ndarray) -> np.ndarray:
        """f(x+h) + f(x-h) - 2 f(x)."""
        return self._split(h, lambda hs: self.d2 * hs ** 2, self._far_even)

    def diff_even_over_h2(self, h: np.ndarray) -> np.ndarray:
        return self._split(h, lambda hs: self.d2,
                           lambda hb: self._far_even(hb) / hb ** 2)
