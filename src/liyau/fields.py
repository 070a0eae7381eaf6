"""Grid-backed scalar fields with declared far-field behavior.

A GridField stores samples of a function on a uniform, origin-centered grid
together with an extension rule describing the field beyond the last node.
Singular-integral operators need values arbitrarily far from the grid, so the
extension rule is part of the field's definition, not an afterthought.

Inside the grid a field is its not-a-knot cubic spline, a PiecewiseCubic:
the library's one cubic reader, equal bit for bit to scipy's CubicSpline and
CubicHermiteSpline. It also serves the 82-node window splines in fraclap, and
the stable profile's log-log spline and exceedance cubic. A grid's slope
system depends on the grid alone, so it is factored once per grid, with
the cell widths and the knots' passed near-uniform check beside it, and
each field costs one tridiagonal solve and its coefficients. Point
quadratures build one spline of log u per (u, t) on grids of 10^4 nodes
and more, which is what this pays for; a field keeps its log() as it
keeps its spline. A field is frozen, so neither can go stale.

A point quadrature around x splits at one grid cell: PointExpansion reads
the spline's Taylor data at x inside that cell, all four orders from one
cell search, and the field itself beyond it, at x +- h for quadrature
nodes h. One _point_plan per (grid, beta, panel width cap) holds the
quadrature's rules and the places on the grid of the last x +- h read, so
every later field a sweep reads at x costs gathers alone.
"""
from __future__ import annotations

import io
import math
from dataclasses import dataclass, field as dc_field
from functools import lru_cache
from typing import Callable

import numpy as np
from scipy.linalg.lapack import dgttrf, dgttrs

from .runio import read_table_text
from .singular import RulePlan, grid_cell_edges

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
        if self.kind != "constant" and not 0 < self.exponent < math.inf:
            raise ValueError("power-law extensions need a finite exponent > 0")

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
    # 'constant' alone, or a power-law kind and its one exponent
    kind, *exponent = text.split() or [""]
    if (kind == "constant") == bool(exponent) or len(exponent) > 1:
        raise ValueError(f"malformed extension {text!r}")
    return Extension(kind, *map(float, exponent))


def _format_extension(ext: Extension) -> str:
    if ext.kind == "constant":
        return "constant"
    return "%s %.17g" % (ext.kind, ext.exponent)


def _nodes(spacing: float, n: int, first: int = 0) -> np.ndarray:
    """Coordinates of the n nodes of an origin-centered grid, from the
    node with index first on."""
    return (np.arange(first, n) - (n - 1) // 2) * spacing


def _slope_factors(x: np.ndarray, clamped: bool = False):
    """dgttrf factors of CubicSpline's slope system on the knots x.

    Both ends are not-a-knot, or when clamped both take a given slope
    (bc_type ((1, left), (1, right))). The tridiagonal matrix and its end
    rows are scipy's, entry for entry, and dgttrf/dgttrs round as its
    solve_banded (LAPACK dgtsv) does. The arrays are read-only: a grid's
    factors are shared by every field on it.
    """
    dx = np.diff(x)
    d_lo, d_hi = x[2] - x[0], x[-1] - x[-3]
    diag = np.concatenate(([1.0 if clamped else dx[1]],
                           2 * (dx[:-1] + dx[1:]),
                           [1.0 if clamped else dx[-2]]))
    *factors, info = dgttrf(np.append(dx[1:], 0.0 if clamped else d_hi), diag,
                            np.append(0.0 if clamped else d_lo, dx[:-1]))
    if info != 0:
        raise np.linalg.LinAlgError("singular spline system")
    for a in factors:
        a.flags.writeable = False
    return factors


def _knot_scale(x: np.ndarray) -> float:
    """1 / (mean cell width) of the knots x, once they pass PiecewiseCubic's
    check: each lies within half a mean cell width of its place on the
    uniform grid."""
    inv = (x.size - 1) / (x[-1] - x[0])
    if not np.all(np.abs((x - x[0]) * inv - np.arange(x.size)) < 0.5):
        raise ValueError("knots must be increasing and near-uniform")
    return inv


# a margins sweep reads three grids; an entry holds about 6.5 n floats
@lru_cache(maxsize=4)
def _slope_system(spacing: float, n: int):
    """(nodes, _knot_scale, cell widths, _slope_factors of the not-a-knot
    spline) of a uniform origin-centered grid, built once per grid. The
    arrays are read-only, since every caller shares them."""
    x = _nodes(spacing, n)
    dx = np.diff(x)
    x.flags.writeable = dx.flags.writeable = False
    return x, _knot_scale(x), dx, _slope_factors(x)


def _spline_slopes(x: np.ndarray, dx: np.ndarray, y: np.ndarray, factors,
                   end_slopes: tuple | None = None) -> tuple:
    """(knot slopes, secant slopes) of CubicSpline(x, y), for the cell
    widths dx and the factors of _slope_factors(x, end_slopes is not
    None): not-a-knot at both ends, or the slopes end_slopes = (left,
    right)."""
    slope = np.diff(y) / dx
    b = np.empty(x.size)
    b[1:-1] = 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
    if end_slopes is None:
        d_lo, d_hi = x[2] - x[0], x[-1] - x[-3]
        b[0] = ((dx[0] + 2 * d_lo) * dx[1] * slope[0]
                + dx[0] ** 2 * slope[1]) / d_lo
        b[-1] = (dx[-1] ** 2 * slope[-2]
                 + (2 * d_hi + dx[-1]) * dx[-2] * slope[-1]) / d_hi
    else:
        b[0], b[-1] = end_slopes
    s, _ = dgttrs(*factors, b, overwrite_b=1)
    return s, slope


class PiecewiseCubic:
    """A C1 piecewise cubic on near-uniform knots, equal bit for bit to
    scipy's CubicHermiteSpline and CubicSpline: the same PPoly coefficients,
    the same reads of orders 0-3 in PPoly's term order, and PPoly's
    extrapolation of the end cells' cubics beyond the knots. A NaN point
    reads NaN. The knots are near-uniform when each lies within half a mean
    cell width of its place on the uniform grid, which _knot_scale checks.

    A read estimates each point's cell from its distance to x[0] in mean cell
    widths and corrects it by one step either way against the knots, so
    that x[j] <= p < x[j+1] (PPoly's searchsorted('right') - 1, clamped to
    the end cells). Every temporary holds one float (or index) per point:
    a gather of all four coefficient rows at once would take four, and the
    J search reads the profile's cubic on arrays large enough for that to
    cost page faults.
    """

    def __init__(self, x: np.ndarray, inv: float, dx: np.ndarray,
                 y: np.ndarray, slope: np.ndarray, dydx: np.ndarray):
        """The Hermite cubic through (x, y) with knot slopes dydx, built
        whole: x passed _knot_scale (inv), dx are its cell widths and slope
        the secant slopes of y. spline() solves dydx for a CubicSpline."""
        # PPoly's coefficients from the secant and knot slopes
        n = x.size
        t = (dydx[:-1] + dydx[1:] - 2 * slope) / dx
        # rows c0..c3 of PPoly's coefficients, one column per cell; PPoly's
        # sums start from 0.0, which the two low-order rows carry (so a -0.0
        # reads +0.0)
        self.c = c = np.empty((4, n - 1))
        np.divide(t, dx, out=c[0])
        np.subtract(slope, dydx[:-1], out=c[1])
        c[1] /= dx
        c[1] -= t
        np.add(dydx[:-1], 0.0, out=c[2])
        np.add(y[:-1], 0.0, out=c[3])
        self.x, self._inv = x, inv
        self._left, self._right = x[:-1], x[1:]

    @classmethod
    def spline(cls, x, y, end_slopes: tuple | None = None) -> "PiecewiseCubic":
        """CubicSpline(x, y), not-a-knot at both ends, or with
        bc_type=((1, left), (1, right)) for end_slopes = (left, right)."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.size < 4:
            raise ValueError("a spline needs at least 4 knots")
        inv, dx = _knot_scale(x), np.diff(x)
        factors = _slope_factors(x, clamped=end_slopes is not None)
        s, slope = _spline_slopes(x, dx, y, factors, end_slopes)
        return cls(x, inv, dx, y, slope, s)

    def _cells(self, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(j, p - x[j]) for each point's cell j, which may be -1 or n - 1
        beyond the knots: the reads' gathers clamp it to an end cell."""
        e = p - self.x[0]
        e *= self._inv
        np.floor(e, out=e)
        # fmax and fmin pass over NaN: a NaN point gets a cell and reads NaN
        np.fmax(e, 0.0, out=e)
        np.fmin(e, self.x.size - 2, out=e)
        j = e.astype(np.intp)
        np.take(self._left, j, mode="clip", out=e)
        j -= p < e
        np.take(self._right, j, mode="clip", out=e)
        j += p >= e
        np.take(self._left, j, mode="clip", out=e)
        np.subtract(p, e, out=e)
        return j, e

    def __call__(self, p, nu: int = 0) -> np.ndarray:
        """Value (nu = 0) or nu-th derivative, nu <= 3, at the points p."""
        return self._reads(p, (nu,))[0]

    def _reads(self, p, orders) -> list:
        """self(p, nu) for each nu of orders, from one cell search."""
        p = np.asarray(p, dtype=float)
        q = p.ravel()
        cells = self._cells(q)
        outs = []
        for nu in orders:
            out = self.read(*cells, nu)
            if nu == 3:
                # the third derivative is constant on a cell: NaN is set by
                # hand
                out[np.isnan(q)] = np.nan
            outs.append(out.reshape(p.shape))
        return outs

    def read(self, j: np.ndarray, s: np.ndarray, nu: int = 0) -> np.ndarray:
        """Value or nu-th derivative at the points _cells found, (j, s)."""
        # PPoly's sum: from 0.0 (carried by the rows c2, c3), the terms
        # c[3 - k] s^(k - nu) k!/(k - nu)! for k = nu..3 in turn
        out = np.take(self.c[3 - nu], j, mode="clip")
        if nu > 1:
            out *= math.factorial(nu)
            out += 0.0
        tmp, z = np.empty_like(s), s.copy()
        for k in range(nu + 1, 4):
            np.take(self.c[3 - k], j, mode="clip", out=tmp)
            if k > nu + 1:
                z *= s
            tmp *= z
            if math.perm(k, nu) != 1:
                tmp *= math.perm(k, nu)
            out += tmp
        return out


# a margins check reads two (grid, beta) pairs; a plan's rules hold about
# 36 KB, and 4 slots' places 1.275 MB after one seeded margins cycle
@lru_cache(maxsize=8)
def _point_plan(spacing: float, n: int, beta: float,
                max_width: float | None) -> tuple:
    """(RulePlan at beta on panels from one cell out to X, slot for
    PointExpansion.far) of a uniform origin-centered grid."""
    edges = grid_cell_edges(spacing, (n - 1) // 2 * spacing, max_width)
    return RulePlan(beta, edges), []


@dataclass(frozen=True, eq=False)
class GridField:
    """Samples of a scalar field on a uniform symmetric grid.

    Frozen, so no cache can go stale, and compared by identity. Each cache
    is written once, by its builder (_get_spline, log(), and for u0's
    weighted spectrum fraclap._keep_spectrum).

    Parameters
    ----------
    spacing : float
        Grid step h > 0.
    values : ndarray
        1-d array of odd length 2K+1 (node i sits at (i-K)*h). The field
        keeps a read-only copy.
    extension : Extension
        Far-field rule applied outside the grid.
    positive : bool
        Declares the field positive (required before log()).
    tail_mass : float or None
        The field's exact integral beyond the grid, >= 0 and possibly inf,
        set by solvers that know it; mass() then reads it in place of the
        extension model. Written to text when set and read back, and not
        carried over by log().
    """

    spacing: float
    values: np.ndarray
    extension: Extension = dc_field(default_factory=Extension)
    positive: bool = False
    tail_mass: float | None = None

    _spline = _log = _spectrum = None  # until their builders write them

    def __post_init__(self):
        object.__setattr__(self, "values", np.array(self.values, dtype=float))
        self.values.flags.writeable = False
        if not 0 < self.spacing < math.inf:
            raise ValueError("spacing must be positive and finite")
        if self.values.ndim != 1:
            raise ValueError("values must be 1-d")
        if self.values.size % 2 == 0 or self.values.size < 5:
            raise ValueError("the grid needs odd length >= 5")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("field values must be finite")
        if self.positive and np.any(self.values <= 0):
            raise ValueError("field declared positive has non-positive samples")
        # written so that NaN fails it; a power tail with q <= 1 holds inf
        if self.tail_mass is not None and not self.tail_mass >= 0:
            raise ValueError("tail_mass must be None or >= 0")

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
        x = _nodes(spacing, 2 * int(round(extent / spacing)) + 1)
        return cls(spacing, fn(x), extension or Extension(), positive)

    # ---- evaluation -----------------------------------------------------

    def _get_spline(self):
        # the not-a-knot spline of the samples, on the grid's cached factors
        if self._spline is None:
            x, inv, dx, factors = _slope_system(self.spacing,
                                                self.values.shape[0])
            s, slope = _spline_slopes(x, dx, self.values, factors)
            object.__setattr__(self, "_spline", PiecewiseCubic(
                x, inv, dx, self.values, slope, s))
        return self._spline

    def eval(self, pts) -> np.ndarray:
        """Evaluate at arbitrary coordinates; extension rule applies outside.
        A NaN point reads NaN."""
        p = np.atleast_1d(np.asarray(pts, dtype=float))
        out = self._read(p.size, *self._locate(p.ravel())).reshape(p.shape)
        return out if np.ndim(pts) else float(out[0])

    def _locate(self, p: np.ndarray) -> tuple:
        """For flat points p, the indices within [-X, X] (NaN included: the
        spline reads NaN) and their cells, then (indices, |p|/X) beyond X
        and beyond -X."""
        X = self.extent
        inside = np.flatnonzero(~(np.abs(p) > X))
        # a field read only beyond +-X builds no spline
        cells = self._get_spline()._cells(p[inside]) if inside.size else None
        return inside, cells, [(i, np.abs(p[i]) / X) for i in (
            np.flatnonzero(p > X), np.flatnonzero(p < -X))]

    def _read(self, size: int, inside, cells, beyond) -> np.ndarray:
        """The field at size flat points that _locate placed."""
        out = np.empty(size)
        if inside.size:
            out[inside] = self._get_spline().read(*cells)
        for (i, r), edge in zip(beyond, (self.values[-1], self.values[0])):
            out[i] = self.extension.model(edge, r)
        return out

    def require_central(self, x) -> None:
        """Raise ValueError unless every point of x lies in the central 80%."""
        # written so that NaN fails it
        if not np.all(np.abs(x) <= 0.8 * self.extent):
            raise ValueError("base point must lie in the central 80% of the grid")

    def point_expansion(self, x, beta: float,
                        max_width: float | None = None) -> "PointExpansion":
        """The field read around x for point quadratures at beta, whose far
        panels are at most max_width > 0 wide."""
        return PointExpansion(self, x, beta, max_width)

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
        n = len(self.values)
        n_band = max(2, int(0.1 * (n // 2)))
        band = np.abs(_nodes(self.spacing, n, n - n_band)) / X
        worst = 0.0
        for vals, edge in ((self.values[-n_band:], self.values[-1]),
                           (self.values[:n_band][::-1], self.values[0])):
            model = self.extension.model(edge, band)
            worst = max(worst, float(np.max(np.abs(vals - model))))
        return worst

    # ---- derived fields --------------------------------------------------

    def log(self) -> "GridField":
        """The field's log, built once and kept (the values are read-only)."""
        if self._log is None:
            if np.any(self.values <= 0):
                raise ValueError("log() needs strictly positive samples")
            object.__setattr__(self, "_log", GridField(
                self.spacing, np.log(self.values),
                self.extension.log_transformed()))
        return self._log

    def mass(self) -> float:
        """Integral of the field over R under its extension model, or with
        its tail_mass beyond the grid when that is set."""
        body = float(np.trapezoid(self.values, dx=self.spacing))
        if self.tail_mass is not None:
            return body + self.tail_mass
        ext = self.extension
        if ext.kind == "constant":
            edge = abs(self.values[0]) + abs(self.values[-1])
            return body if edge == 0 else float("inf")
        if ext.kind == "power":
            return body + self.power_tail_mass()
        return float("inf")

    def power_tail_mass(self) -> float:
        """(f(-X) + f(X)) X / (q - 1), the mass beyond the grid of a power
        law of exponent q, or inf for q <= 1."""
        q = self.extension.exponent
        return (float((self.values[0] + self.values[-1]) * self.extent / (q - 1))
                if q > 1 else float("inf"))

    # ---- serialization ---------------------------------------------------

    def to_text(self) -> str:
        buf = io.StringIO()
        buf.write(f"# {FIELD_FORMAT}\n")
        buf.write("# dim = 1\n")
        buf.write("# spacing = %.17g\n" % self.spacing)
        buf.write(f"# npoints = {self.values.shape[0]}\n")
        buf.write(f"# extension = {_format_extension(self.extension)}\n")
        buf.write(f"# positive = {int(self.positive)}\n")
        if self.tail_mass is not None:
            buf.write("# tail_mass = %.17g\n" % self.tail_mass)
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
        # texts written before tail_mass was serialized lack the line
        tail_mass = float(header["tail_mass"]) if "tail_mass" in header else None
        # each row is the coordinate and the value, one per grid node
        if any(len(row) != 2 for row in rows):
            raise ValueError("field rows must hold exactly 2 numbers")
        if len(rows) != n:
            raise ValueError(f"npoints = {n} does not match the "
                             f"{len(rows)} rows")
        if not np.allclose([row[0] for row in rows], _nodes(spacing, n),
                           rtol=0.0, atol=1e-9 * spacing):
            raise ValueError("field row coordinates are not the grid's nodes")
        return cls(spacing, [row[1] for row in rows], ext, positive, tail_mass)


class PointExpansion:
    """A 1-d GridField read around base points x, on either side of one
    grid cell, and the rule plan its point quadratures at beta read.

    Every point quadrature splits at its plan's first panel edge, one grid
    cell, and each side has one reader: near_over_h, the spline's cubic at
    x (the Taylor data f_x, d1, d2, d3), which keeps its precision as
    h -> 0, and far, the field itself, extension rule included. x is one
    point or a 1-d array of them; for an array every reading has one row
    per point, shape (len(x),) + h.shape.
    """

    def __init__(self, f: GridField, x, beta: float, max_width: float | None):
        f.require_central(x)
        self.field = f
        self.plan, self._slot = _point_plan(f.spacing, f.values.size, beta,
                                            max_width)
        self.x = np.asarray(x, dtype=float) if np.ndim(x) else float(x)
        # base points as a column, so that rows broadcast against nodes h
        self._col = np.asarray(x, dtype=float)[..., None]
        self.f_x, self.d1, self.d2, self.d3 = f._get_spline()._reads(
            self._col, range(4))

    def near_over_h(self, s: float, h: np.ndarray) -> np.ndarray:
        """(f(x + s h) - f(x)) / h for 0 < h < one grid cell, s = +-1."""
        return s * self.d1 + h * (self.d2 / 2.0 + s * h * self.d3 / 6.0)

    def far(self, h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """f(x + h) and f(x - h) for h >= one grid cell, from one field
        read, equal bit for bit to f.eval. The plan's slot keeps the places
        of the last x +- h read on the grid (GridField._locate), so another
        field read at the same positions is gathers alone."""
        f, col, slot = self.field, self._col, self._slot
        key = (col.shape, col.tobytes(), h.tobytes())
        if not slot or slot[0] != key:
            p = col + np.concatenate([h, -h])
            slot[:] = key, p.shape, f._locate(p.ravel())
        _, shape, places = slot
        both = f._read(math.prod(shape), *places).reshape(shape)
        return both[..., :h.size], both[..., h.size:]
