"""Radial profiles of rotationally invariant stable densities.

The kernel G(t, x) = t^(-d/beta) * Phi(|x| t^(-1/beta)) is generated by a
single radial profile Phi per (beta, d). Profiles are tabulated by Fourier
inversion of exp(-|xi|^beta) at r = 0 and on one log-spaced grid per
(beta, d), PER_DECADE nodes per decade from R_MIN out to a radius chosen
for the tail model, and carry a fitted power tail A * r^(-d-beta) beyond
the table; the true tail constant equals the jump-kernel normalization,
which the fit is validated against. A profile's table arrays are
read-only, so the caches built from them cannot go stale.

In d = 2 the inversion is a Hankel transform against J0(rho r). With
s = rho * max(r, 1) its Gauss panels have the same edges in s for every
radius, and every r >= 1 integrates against the same J0(s); so J0 is
evaluated once per table, not once per radius.

For beta = 1 the profile is the closed-form Poisson kernel and every
evaluation bypasses the table.
"""
from __future__ import annotations

import io
import warnings
from dataclasses import dataclass, field as dc_field

import numpy as np
from scipy import integrate
from scipy.interpolate import CubicHermiteSpline, CubicSpline
from scipy.special import gamma as _gamma, j0 as _j0

from .runio import read_table_text
from .singular import gauss_panels

PROFILE_FORMAT = "liyau-profile v1"

# integrand drops below 1e-16 once rho^beta > XI_DECAY
XI_DECAY = 37.0
# the table's first non-zero radius and its log-spaced nodes per decade
R_MIN = 1e-3
PER_DECADE = 24
# Hankel panels summed at a time, so a radius's temporaries stay this size
J0_BLOCK = 4096


def _quiet_quad(*args, **kwargs):
    # the rho^beta kink at 0 (beta < 1) trips an advisory warning while the
    # returned error estimate stays sound; node validation consumes that
    # estimate, so silence the advisory rather than the information
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        return integrate.quad(*args, **kwargs)


def normalizing_constant(beta: float, d: int) -> float:
    """Jump-kernel normalization c_{beta,d} of the fractional Laplacian.

    c = 2^beta * Gamma((d+beta)/2) / (pi^(d/2) * |Gamma(-beta/2)|).
    """
    if not 0 < beta < 2:
        raise ValueError("beta must lie in (0, 2)")
    if d < 1:
        raise ValueError("dimension must be a positive integer")
    return (2.0 ** beta * _gamma((d + beta) / 2.0)
            / (np.pi ** (d / 2.0) * abs(_gamma(-beta / 2.0))))


def ball_volume(d: int) -> float:
    """Volume of the unit ball, pi^(d/2) / Gamma(d/2 + 1)."""
    if d < 1:
        raise ValueError("dimension must be a positive integer")
    return np.pi ** (d / 2.0) / _gamma(d / 2.0 + 1.0)


def _poisson_coef(d: int) -> float:
    """C_d = Gamma((d+1)/2) / pi^((d+1)/2), the beta = 1 profile at r = 0."""
    return _gamma((d + 1) / 2.0) / np.pi ** ((d + 1) / 2.0)


def poisson_profile(d: int, r) -> np.ndarray:
    """Closed-form beta = 1 profile: C_d * (1 + r^2)^(-(d+1)/2)."""
    r = np.asarray(r, dtype=float)
    out = _poisson_coef(d) * (1.0 + r ** 2) ** (-(d + 1) / 2.0)
    return out if out.ndim else float(out)


def profile_at_zero(beta: float, d: int) -> float:
    """Phi(0) = d * omega_d * Gamma(d/beta) / ((2 pi)^d * beta)."""
    return (d * ball_volume(d) * _gamma(d / beta)
            / ((2.0 * np.pi) ** d * beta))


def _default_r_max(beta: float, d: int) -> float:
    # single-term tail model error times tail mass scales like r^(-2 beta);
    # push the table out until that product clears 1e-6 where affordable
    extra = 1.0 if beta > 1.0 else 0.0  # cheap nodes, softer model switchover
    target = 10.0 ** (np.ceil(3.0 / beta) + extra)
    r_max = float(np.clip(target, 1e3, 1e6))
    if d == 2 and beta < 1.0:
        # Bessel panel summation cost grows with rho_max * r; cap and record
        # the wider mass tolerance in the construction error
        r_max = 300.0
    return r_max


def _trig_transform(beta: float, r: np.ndarray,
                    d: int) -> tuple[np.ndarray, np.ndarray]:
    # d = 1: Phi(r) = (1/pi) int_0^inf exp(-rho^beta) cos(rho r) drho
    # d = 3: the half-integer Bessel kernel reduces to a sine transform,
    # Phi(r) = (1/(2 pi^2 r)) int_0^inf rho exp(-rho^beta) sin(rho r) drho
    if d == 1:
        f = lambda rho: np.exp(-rho ** beta)
        trig, weight = np.cos, "cos"
        rho_max = XI_DECAY ** (1.0 / beta)
    else:
        f = lambda rho: rho * np.exp(-rho ** beta)
        trig, weight = np.sin, "sin"
        rho_max = (XI_DECAY + 6.0 * np.log(XI_DECAY)) ** (1.0 / beta)
    vals = np.empty_like(r)
    errs = np.empty_like(r)
    for i, ri in enumerate(r):
        if d == 3 and ri == 0:
            vals[i] = profile_at_zero(beta, 3)
            errs[i] = 0.0
            continue
        if ri * rho_max < 30.0:
            # few oscillations across the decay scale: the cycle-based
            # oscillatory rule misbehaves here, a plain adaptive rule does not
            v, e = _quiet_quad(lambda rho: f(rho) * trig(rho * ri),
                               0, rho_max, epsabs=1e-13, epsrel=1e-12,
                               limit=200)
            e += np.exp(-XI_DECAY) * rho_max  # truncation, crude bound
        else:
            v, e = _quiet_quad(f, 0, np.inf, weight=weight, wvar=ri,
                               epsabs=1e-13, limlst=120, limit=200)
        scale = np.pi if d == 1 else 2.0 * np.pi ** 2 * ri
        vals[i] = v / scale
        errs[i] = e / scale
    return vals, errs


def _j0_panel_sums(beta: float, r: np.ndarray, width: float) -> np.ndarray:
    # m^-2 int_0^(rho_max m) exp(-(s/m)^beta) s J0(s r/m) ds per radius,
    # m = max(r, 1), by 6-point Gauss on the n + 25 panels between the edges
    # 0, width 2^-26, ..., width/2, 2 width, 3 width, ..., n width >= rho_max m
    rho_max = XI_DECAY ** (1.0 / beta)
    m = np.maximum(r, 1.0)
    n = np.ceil(rho_max / (width / m)).astype(int)
    edges = np.concatenate([[0.0], width * 2.0 ** (-np.arange(26, 0, -1.0)),
                            np.arange(2, n.max() + 1) * width])
    S, half, w6 = gauss_panels(edges[:-1], edges[1:], 6)
    table = S * half[:, None] * w6
    table *= _j0(S)
    out = np.empty_like(r)
    for i, (ri, mi, panels) in enumerate(zip(r, m, n + 25)):
        kernel = (table if ri >= 1.0 else S[:panels] * half[:panels, None]
                  * w6 * _j0(S[:panels] * ri))
        total = 0.0
        for lo in range(0, panels, J0_BLOCK):
            hi = min(lo + J0_BLOCK, panels)
            total += float(np.sum(np.exp(-(S[lo:hi] / mi) ** beta)
                                  * kernel[lo:hi]))
        out[i] = total / mi ** 2
    return out


def _j0_transform_d2(beta: float, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # d = 2: Phi(r) = (1/(2 pi)) int_0^inf exp(-rho^beta) rho J0(rho r) drho.
    # With s = rho m, m = max(r, 1), this is
    # (1/(2 pi m^2)) int exp(-(s/m)^beta) s J0(s r/m) ds, summed over Gauss
    # panels of width pi/2 in s, half an oscillation of J0; the error probe
    # halves every panel. The panel touching 0 is split dyadically so the
    # rho^beta kink (beta < 1) cannot poison the Gauss rule or its error
    # probe. The panel edges in s do not depend on r, and for r >= 1 the
    # kernel is J0(s): s J0(s) times the weights is tabulated once, out to
    # the largest radius, and each radius reads the panels it needs,
    # J0_BLOCK at a time. Radii below 1 share the panels of m = 1 and
    # evaluate their own J0(s r)
    total, fine = (_j0_panel_sums(beta, r, width)
                   for width in (np.pi / 2.0, np.pi / 4.0))
    vals = fine / (2.0 * np.pi)
    errs = (np.abs(total - fine) + 1e-15 * np.abs(fine)) / (2.0 * np.pi)
    return vals, errs


@dataclass
class StableDensityProfile:
    """Tabulated radial profile with a fitted far tail.

    r_table starts at 0; values are Phi at the nodes. Beyond r_table[-1] the
    profile follows tail_coef * r^(-d-beta). The profile keeps read-only
    copies of both arrays, which its spline, small-r and exceedance caches
    and constant_for's key are built from.
    """

    beta: float
    d: int
    r_table: np.ndarray
    values: np.ndarray
    tail_coef: float
    tail_fit_residual: float
    error_estimate: float
    method: str
    meta: dict = dc_field(default_factory=dict)

    def __post_init__(self):
        self.r_table = np.array(self.r_table, dtype=float)
        self.values = np.array(self.values, dtype=float)
        self.r_table.flags.writeable = False
        self.values.flags.writeable = False
        self._spline = None
        self._small = None
        self._exceed = None

    @property
    def r_max(self) -> float:
        return float(self.r_table[-1])

    def _get_spline(self):
        # cubic in log-log coordinates; strictly positive by construction
        if self._spline is None:
            r = self.r_table[1:]
            self._spline = CubicSpline(np.log(r), np.log(self.values[1:]))
        return self._spline

    def _small_r_coeffs(self):
        # even quadratic through Phi(0) and the first nodes, in r^2
        if self._small is None:
            p0 = self.values[0]
            r1, r2 = self.r_table[1], self.r_table[4]
            p1, p2 = self.values[1], self.values[4]
            a = np.array([[r1 ** 2, r1 ** 4], [r2 ** 2, r2 ** 4]])
            b = np.array([p1 - p0, p2 - p0])
            c2, c4 = np.linalg.solve(a, b)
            self._small = (p0, c2, c4)
        return self._small

    def _piecewise(self, r, closed, small, table, tail) -> tuple:
        """Apply one rule per region of |r| and gather the rule's outputs.

        closed(r) serves beta = 1. Otherwise small(r, p0, c2, c4) runs below
        r_table[1] on the even quadratic, table(r) on the log-log spline up
        to r_max, and tail(r) on the tail model beyond. Each rule returns a
        tuple of arrays; a scalar r gives a tuple of floats.

        When one region holds every point, its rule runs on r as it stands,
        with no gather and scatter: each rule is elementwise, so the values
        are the masked path's bit for bit. An empty r takes the tail rule,
        which makes its (empty) outputs.
        """
        r = np.abs(np.asarray(r, dtype=float))
        scalar = r.ndim == 0
        r = np.atleast_1d(r)
        if self.beta == 1.0:
            outs = closed(r)
        else:
            lo = r < self.r_table[1]
            hi = r > self.r_max
            rules = [(mask, rule) for mask, rule in (
                (lo, lambda s: small(s, *self._small_r_coeffs())),
                (~lo & ~hi, table), (hi, tail)) if mask.any()]
            if len(rules) <= 1:
                outs = (rules[0][1] if rules else tail)(r)
            else:
                outs = None
                for mask, rule in rules:
                    vals = rule(r[mask])
                    if outs is None:
                        outs = tuple(np.empty_like(r) for _ in vals)
                    for out, v in zip(outs, vals):
                        out[mask] = v
        if scalar:
            return tuple(float(out[0]) for out in outs)
        return outs

    def eval(self, r) -> np.ndarray:
        """Phi(r) for any r >= 0; tail model beyond the table."""
        return self._piecewise(
            r, lambda r: (poisson_profile(self.d, r),),
            lambda r, p0, c2, c4: (p0 + r ** 2 * (c2 + c4 * r ** 2),),
            lambda r: (np.exp(self._get_spline()(np.log(r))),),
            lambda r: (self.tail_coef * r ** (-self.d - self.beta),))[0]

    def log_value(self, r) -> np.ndarray:
        """log Phi(r), evaluated without the exp/log round trip where possible."""
        q = self.d + self.beta
        return self._piecewise(
            r, lambda r: (np.log(_poisson_coef(self.d))
                          - (self.d + 1) / 2.0 * np.log1p(r ** 2),),
            lambda r, p0, c2, c4: (np.log(p0 + r ** 2 * (c2 + c4 * r ** 2)),),
            lambda r: (self._get_spline()(np.log(r)),),
            lambda r: (np.log(self.tail_coef) - q * np.log(r),))[0]

    def _log_rules(self, slope_only: bool) -> tuple:
        """The _piecewise rules for (L, L', L''), or for (L',) alone.

        Each region writes L' once; the full rules add L and L'' around it.
        """

        def closed(r):
            q = (self.d + 1) / 2.0
            slope = -2.0 * q * r / (1.0 + r ** 2)
            return (slope,) if slope_only else (
                np.log(_poisson_coef(self.d)) - q * np.log1p(r ** 2), slope,
                -2.0 * q * (1.0 - r ** 2) / (1.0 + r ** 2) ** 2)

        def small(r, p0, c2, c4):
            phi = p0 + c2 * r ** 2 + c4 * r ** 4
            slope = (2 * c2 * r + 4 * c4 * r ** 3) / phi
            return (slope,) if slope_only else (
                np.log(phi), slope,
                (2 * c2 + 12 * c4 * r ** 2) / phi - slope ** 2)

        def table(r):
            sp = self._get_spline()
            u = np.log(r)
            s1 = sp(u, 1)
            slope = s1 / r
            return (slope,) if slope_only else (
                sp(u), slope, (sp(u, 2) - s1) / r ** 2)

        def tail(r):
            q = self.d + self.beta
            slope = -q / r
            return (slope,) if slope_only else (
                np.log(self.tail_coef) - q * np.log(r), slope, q / r ** 2)

        return closed, small, table, tail

    def log_derivs(self, r) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(L, L', L'') for L(r) = log Phi(r), vectorized over r >= 0."""
        return self._piecewise(r, *self._log_rules(slope_only=False))

    def log_slope(self, r) -> np.ndarray:
        """L'(r) alone, bit for bit log_derivs(r)[1], without L and L''."""
        return self._piecewise(r, *self._log_rules(slope_only=True))[0]

    def comparability_ratio(self) -> tuple[float, float]:
        """(lo, hi) bounds of Phi(r) * (1 + r^2)^((d+beta)/2) over the table."""
        w = self.values * (1.0 + self.r_table ** 2) ** ((self.d + self.beta) / 2.0)
        samples = np.append(w, self.tail_coef)  # tail-model limit
        return float(samples.min()), float(samples.max())

    def mass(self) -> float:
        """Total integral under the table plus the analytic tail."""
        d = self.d
        surf = d * ball_volume(d)
        r1, rm = self.r_table[1], self.r_max
        # inner disc on the even quadratic
        if self.beta == 1.0:
            inner, _ = integrate.quad(
                lambda s: poisson_profile(d, s) * s ** (d - 1), 0, r1)
        else:
            p0, c2, c4 = self._small_r_coeffs()
            inner, _ = integrate.quad(
                lambda s: (p0 + c2 * s ** 2 + c4 * s ** 4) * s ** (d - 1), 0, r1)
        # log-spaced Gauss panels across the table
        edges = np.geomspace(r1, rm, 60 * max(1, int(np.log10(rm / r1))) + 1)
        S, half, wg = gauss_panels(edges[:-1], edges[1:], 10)
        fv = self.eval(S.ravel()).reshape(S.shape) * S ** (d - 1)
        body = float(np.dot(fv @ wg, half))
        tail = self.tail_coef * rm ** (-self.beta) / self.beta
        # next-order tail term improves the check; eval() stays single-term
        tail_b = self.meta.get("tail_B", 0.0)
        tail += self.tail_coef * tail_b * rm ** (-2.0 * self.beta) / (2.0 * self.beta)
        return surf * (inner + body + tail)

    def exceedance(self, r) -> np.ndarray:
        """Mass of Phi outside radius r, interpolated from one dense pass."""
        if self._exceed is None:
            d = self.d
            surf = d * ball_volume(d)
            grid = np.geomspace(max(self.r_table[1], 1e-3), self.r_max, 800)
            S, half, wg = gauss_panels(grid[:-1], grid[1:], 8)
            fv = self.eval(S.ravel()).reshape(S.shape) * S ** (d - 1)
            seg = (fv @ wg) * half * surf
            tail0 = surf * self.tail_coef * self.r_max ** (-self.beta) / self.beta
            cum = tail0 + np.concatenate([np.cumsum(seg[::-1])[::-1], [0.0]])
            # Hermite in log r with the analytic slope de/dr = -surf Phi r^{d-1}:
            # linear interpolation of the cumulative leaves O(panel^2) bumps
            slope = -surf * self.eval(grid) * grid ** d  # d(cum)/d(log r)
            # the total mass anchors the blend below the table: memoized here
            self._exceed = (grid, cum, CubicHermiteSpline(np.log(grid), cum, slope),
                            self.mass())
        grid, cum, hermite, total = self._exceed
        r = np.asarray(r, dtype=float)
        scalar = r.ndim == 0
        r = np.atleast_1d(np.abs(r))
        out = np.empty_like(r)
        below = r <= grid[0]
        above = r >= grid[-1]
        midm = ~below & ~above
        if below.any():
            # linear blend down to the full mass at r = 0
            out[below] = cum[0] + (total - cum[0]) * (1.0 - r[below] / grid[0])
        if midm.any():
            out[midm] = hermite(np.log(r[midm]))
        if above.any():
            surf0 = self.d * ball_volume(self.d)
            out[above] = surf0 * self.tail_coef * r[above] ** (-self.beta) / self.beta
        return float(out[0]) if scalar else out

    # ---- serialization ----------------------------------------------------

    def to_text(self) -> str:
        buf = io.StringIO()
        buf.write(f"# {PROFILE_FORMAT}\n")
        buf.write("# beta = %.17g\n" % self.beta)
        buf.write(f"# d = {self.d}\n")
        buf.write("# tail_coef = %.17g\n" % self.tail_coef)
        buf.write("# tail_fit_residual = %.17g\n" % self.tail_fit_residual)
        buf.write("# error_estimate = %.17g\n" % self.error_estimate)
        buf.write(f"# method = {self.method}\n")
        for key, val in self.meta.items():  # numbers only
            buf.write("# meta.%s = %.17g\n" % (key, val))
        for r, v in zip(self.r_table, self.values):
            buf.write("%.17g %.17g\n" % (r, v))
        return buf.getvalue()

    @classmethod
    def from_text(cls, text: str) -> "StableDensityProfile":
        header, rows = read_table_text(
            text, PROFILE_FORMAT, required=("beta", "d", "tail_coef",
                                            "tail_fit_residual",
                                            "error_estimate", "method"))
        if not rows:
            raise ValueError("profile text holds no rows")
        if any(len(row) != 2 for row in rows):
            raise ValueError("profile rows must hold exactly r and Phi(r)")
        arr = np.asarray(rows)
        meta = {k[len("meta."):]: float(v) for k, v in header.items()
                if k.startswith("meta.")}
        return cls(beta=float(header["beta"]), d=int(header["d"]),
                   r_table=arr[:, 0], values=arr[:, 1],
                   tail_coef=float(header["tail_coef"]),
                   tail_fit_residual=float(header["tail_fit_residual"]),
                   error_estimate=float(header["error_estimate"]),
                   method=header["method"], meta=meta)


def _fit_tail(beta: float, d: int, r: np.ndarray,
              vals: np.ndarray) -> tuple[float, float, float]:
    """Fit A * r^(-d-beta) * (1 + B * r^(-beta)) on the last decade.

    The two-term fit keeps the next-order tail term out of A, so A is the
    asymptotic coefficient (the jump-kernel normalization, up to inversion
    error). Returns (A, max log residual of the fit, B).
    """
    mask = r >= r[-1] / 10.0
    rs, vs = r[mask], vals[mask]
    good = vs > 0
    rs, vs = rs[good], vs[good]
    y = np.log(vs) + (d + beta) * np.log(rs)
    design = np.column_stack([np.ones_like(rs), rs ** (-beta)])
    (logA, B), *_ = np.linalg.lstsq(design, y, rcond=None)
    resid = np.max(np.abs(design @ (logA, B) - y))
    return float(np.exp(logA)), float(resid), float(B)


def build_profile(beta: float, d: int) -> StableDensityProfile:
    """Tabulate Phi_beta for d in {1, 2, 3}.

    The table holds r = 0 and PER_DECADE log-spaced radii per decade from
    R_MIN to _default_r_max(beta, d). beta = 1 short-circuits to the
    Poisson closed form. Otherwise the table is filled by the
    dimension-appropriate Fourier inversion, the far tail is fitted against
    r^(-d-beta), and any non-positive or non-monotone trailing nodes are
    replaced by the tail model (recorded in meta).
    """
    if not 0 < beta < 2:
        raise ValueError("beta must lie in (0, 2)")
    if d not in (1, 2, 3):
        raise ValueError("d must be 1, 2, or 3")
    r_max = _default_r_max(beta, d)
    n = int(np.ceil(PER_DECADE * np.log10(r_max / R_MIN))) + 1
    r = np.concatenate([[0.0], np.geomspace(R_MIN, r_max, n)])

    if beta == 1.0:
        vals = poisson_profile(d, r)
        return StableDensityProfile(
            beta=1.0, d=d, r_table=r, values=vals, tail_coef=_poisson_coef(d),
            tail_fit_residual=0.0, error_estimate=1e-15,
            method="closed-form-beta1")

    if d in (1, 3):
        vals, errs = _trig_transform(beta, r, d)
        method = "fourier-cos" if d == 1 else "fourier-sin"
    else:
        vals, errs = _j0_transform_d2(beta, r)
        vals[0] = profile_at_zero(beta, 2)
        errs[0] = 0.0
        method = "hankel-j0-panels"

    meta = {}
    # positivity and tail monotonicity enforcement: past the last clean node,
    # ringing of the inversion is replaced by the fitted tail model
    bad = np.zeros(len(r), dtype=bool)
    bad[1:] = vals[1:] <= 0
    rel_err = np.zeros(len(r))
    pos = vals > 0
    rel_err[pos] = errs[pos] / vals[pos]
    bad |= rel_err > 1e-3
    if bad.any():
        first_bad = int(np.argmax(bad))
        clean_r, clean_v = r[:first_bad], vals[:first_bad]
        if clean_r[-1] < 100.0:
            raise RuntimeError(
                f"profile inversion unstable before r = 100 (beta={beta}, d={d})")
        A, resid, _ = _fit_tail(beta, d, clean_r[1:], clean_v[1:])
        vals[first_bad:] = A * r[first_bad:] ** (-d - beta)
        meta["tail_replaced_from"] = float(r[first_bad])
    A, resid, B = _fit_tail(beta, d, r[1:], vals[1:])
    # relative deviation of the single-term eval model at the switchover
    meta["tail_model_jump"] = abs(B) * r_max ** (-beta)
    meta["tail_B"] = B

    err_est = float(np.max(rel_err))
    if d == 2 and beta < 1.0:
        # capped table: single-term tail model limits the integrated accuracy
        err_est = max(err_est, float(r_max ** (-2.0 * beta)))
    return StableDensityProfile(beta=beta, d=d, r_table=r, values=vals,
                                tail_coef=A, tail_fit_residual=resid,
                                error_estimate=err_est, method=method, meta=meta)


def eval_G(profile: StableDensityProfile, t: float, x) -> np.ndarray:
    """Self-similar kernel G(t, x) = t^(-d/beta) Phi(|x| t^(-1/beta))."""
    if not t > 0:
        raise ValueError("t must be positive")
    x = np.asarray(x, dtype=float)
    if x.ndim > 1:
        rad = np.sqrt(np.sum(x ** 2, axis=-1))
    else:
        rad = np.abs(x)
    s = t ** (-1.0 / profile.beta)
    return t ** (-profile.d / profile.beta) * profile.eval(rad * s)
