"""Radial profiles of rotationally invariant stable densities.

The kernel G(t, x) = t^(-d/beta) * Phi(|x| t^(-1/beta)) is generated by a
single radial profile Phi per (beta, d). Profiles are tabulated by Fourier
inversion of exp(-|xi|^beta) at r = 0 and on one log-spaced grid per
(beta, d), PER_DECADE nodes per decade from R_MIN to R_MAX. Beyond R_MAX,
Phi is Bergstrom's large-r series, whose first coefficient is the
jump-kernel normalization. A profile's table arrays are read-only, so the
caches built from them cannot go stale.

The inversion integral is rotated onto the ray rho = s e^(i phi), where
e^(i rho r) decays (V. Zolotarev, One-dimensional Stable Distributions,
1986): phi = pi/2 for beta < 1, where the kernel is e^(-s r) (K0(s r) in
d = 2), and pi/(4 beta) above, where it is e^(i rho r) (H0(rho r) in
d = 2). The oscillatory integral becomes a smooth one whose Gauss panels
in s every radius shares: the weights are computed once per table, and
each radius reads only its kernel. Each node's error comes from its gap
to a higher-order companion rule on the same panels.

For beta = 1 the profile is the closed-form Poisson kernel and every
evaluation bypasses the table.
"""
from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np
from scipy.special import (gamma as _gamma, hankel1e as _hankel1e, k0 as _k0,
                           rgamma as _rgamma)

from .fields import PiecewiseCubic
from .runio import read_table_text
from .singular import gauss_panels

PROFILE_FORMAT = "liyau-profile v2"

# the table's first non-zero radius, its last and its log-spaced nodes per
# decade; beyond R_MAX every reader takes the large-r series
R_MIN = 1e-3
R_MAX = 100.0
PER_DECADE = 24
# the series keeps its terms up to the first whose size, taken with
# |sin| <= 1, falls below this share of its leading term at R_MAX
SERIES_CUT = 1e-17
# the rotated ray's panels end where |exp(-rho^beta)| < e^-RAY_DECAY (1e-18),
# and each radius's sum ends where its kernel has decayed as far
RAY_DECAY = 41.5
# the share of Phi that the ray's first panel holds at the largest radius
RAY_SHARE = 1e-16
# largest advance of s^beta across one panel
RAY_STEP = 4.0
# Gauss orders of the ray's rule and of its companion on the same panels
RAY_ORDERS = (8, 12)
# the rounding of a ray sum, per unit of its terms' summed sizes
RAY_ROUNDING = 4.0 * np.finfo(float).eps
# radii summed at a time on the ray: a block's kernel is 0.5-1 MB. Freeing
# blocks this size raises glibc's mmap and trim thresholds, so the J search
# that follows reuses heap pages for its temporaries; with blocks of 16 the
# beta = 1 searches in d = 2, 3 ran about 30 % slower in a fresh process, and
# with blocks of 64 the (0.7, 2) and (1.3, 3) searches took 4-6 times the
# page faults of blocks of 96, which hold each group of a table's radii
RAY_BLOCK = 96


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


def _ray_edges(beta: float, d: int, r_top: float) -> tuple[float, np.ndarray]:
    """(phi, panel edges in s) of the inversion ray rho = s e^(i phi).

    phi = pi/2 for beta < 1 and pi/(4 beta) above, so |exp(-rho^beta)|
    still decays. Near s = 0 the d = 1 weights grow like s^beta, and the
    d = 2, 3 ones like s^(1+beta); the first panel, [0, s0], holds a share
    of about RAY_SHARE of Phi at r_top. The edges advance s^beta by at most
    RAY_STEP and end once s^(d>1) |exp(-rho^beta)| has fallen below
    e^-RAY_DECAY. They grow by sqrt 2 at phi >= pi/4, and by less below:
    the kernel e^(i rho r) turns by cot(phi) radians per e-fold of decay, so
    a panel spans no more of its phase than at phi = pi/4.
    """
    phi = np.pi / 2.0 if beta < 1.0 else np.pi / (4.0 * beta)
    decay = np.cos(beta * phi)
    ratio = 1.0 + (np.sqrt(2.0) - 1.0) * min(1.0, np.tan(phi))
    s = RAY_SHARE ** (1.0 / (beta + min(d, 2))) / r_top
    edges = [0.0, s]
    while decay * s ** beta - (d > 1) * np.log(max(s, 1.0)) < RAY_DECAY:
        s = min(ratio * s, (s ** beta + RAY_STEP) ** (1.0 / beta))
        edges.append(s)
    return phi, np.array(edges)


def _ray_sums(beta: float, d: int, r: np.ndarray, r_top: float,
              order: int) -> tuple[np.ndarray, np.ndarray]:
    """Phi at radii r > 0, and the sum of its terms' sizes, by Gauss rules
    of the given order on the panels of _ray_edges(beta, d, r_top).

    On rho = s e^(i phi), with weights q = exp(-rho^beta) e^(i phi) w:
      d = 1: Phi(r) = (1/pi) Re sum q e^(i rho r);
      d = 2: Phi(r) = (1/(2 pi)) Re sum q rho H0(rho r), with the Hankel
             function H0 = H0^(1) = hankel1e(0, rho r) e^(i rho r);
      d = 3: Phi(r) = (1/(2 pi^2 r)) Im sum q rho e^(i rho r).
    So every kernel decays like e^(-s r sin(phi)).
    For beta < 1, phi = pi/2 and e^(i rho r) = e^(-s r) is real. All three
    then reduce to the real weights w s^(d-1) exp(-s^beta cos(theta))
    sin(s^beta sin(theta)), theta = pi beta/2, and in d = 2 the kernel
    rotates to K0: Phi(r) = (1/pi^2) sum w s K0(s r) times those factors.
    For beta >= 1 the 1 in exp(-rho^beta) adds exactly 0 (Re i/r in d = 1,
    Re 2i/(pi r^2) in d = 2, Im -1/r^2 in d = 3) but costs a cancellation
    of about r^beta: the radii whose kernel decays inside the panels sum
    expm1(-rho^beta) instead.
    Radii are summed RAY_BLOCK at a time, each block up to the node where
    its smallest radius's kernel has decayed below e^-RAY_DECAY.
    """
    phi, edges = _ray_edges(beta, d, r_top)
    S, half, w = gauss_panels(edges[:-1], edges[1:], order)
    s = S.ravel()
    theta = beta * phi
    re, im = s ** beta * np.cos(theta), s ** beta * np.sin(theta)
    norm = {1: np.pi, 2: np.pi ** 2 if beta < 1.0 else 2.0 * np.pi,
            3: 2.0 * np.pi ** 2}[d]
    scale = (half[:, None] * w).ravel() * s ** min(d - 1, 1) / norm
    if beta < 1.0:
        weights = scale * np.exp(-re) * np.sin(im)
        weights = np.column_stack([weights, np.abs(weights)])
    else:
        # Re of sum |p| e^(i (alpha + x cos(phi))) e^(-x sin(phi)), x = s r,
        # with alpha the phase of p = q (d = 1), q rho (d = 2, where each
        # node adds the phase of its scaled H0) or q rho e^(-i pi/2) (d = 3)
        alpha = {1: phi, 2: 2.0 * phi, 3: 2.0 * phi - np.pi / 2.0}[d]
        em1 = (np.expm1(-re) * np.cos(im) - 2.0 * np.sin(im / 2.0) ** 2
               - 1j * np.exp(-re) * np.sin(im))  # expm1(-rho^beta)
        rules = ((scale * np.exp(-re), alpha - im),
                 (scale * np.abs(em1), alpha + np.angle(em1)))
    vals = np.empty(len(r))
    sizes = np.empty(len(r))
    cut = RAY_DECAY / np.sin(phi)
    # the radii whose kernel decays inside the panels, and the others; a
    # block never mixes the two, so a radius's rule does not hang on its block
    for shifted, group in enumerate((r * s[-1] < cut, r * s[-1] >= cut)):
        index = np.flatnonzero(group)
        for lo in range(0, len(index), RAY_BLOCK):
            block = index[lo:lo + RAY_BLOCK]
            rb = r[block, None]
            n = np.searchsorted(s, cut / rb.min())
            x = rb * s[:n]
            if beta < 1.0:
                kernel = _k0(x) if d == 2 else np.exp(-x)
                vals[block], sizes[block] = (kernel @ weights[:n]).T
            else:
                size, phase = rules[shifted]
                kernel = np.exp(-np.sin(phi) * x)
                if d == 2:
                    # H0(rho r) = hankel1e(0, rho r) e^(i rho r)
                    h = _hankel1e(0, x * np.exp(1j * phi))
                    kernel *= np.abs(h)
                    phase = phase[:n] + np.angle(h)
                sizes[block] = kernel @ size[:n]
                kernel *= np.cos(np.cos(phi) * x + phase[:n])
                vals[block] = kernel @ size[:n]
    if d == 3:
        return vals / r, sizes / r
    return vals, sizes


def _ray_transform(beta: float, d: int,
                   r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(Phi, error) at radii r > 0 by Fourier inversion on a rotated ray.

    The value is the RAY_ORDERS[0] rule. Its error is twice the gap to the
    RAY_ORDERS[1] companion on the same panels, which covers the value
    while the companion errs by at most half as much, plus the rounding of
    its sum, RAY_ROUNDING times the sum of the terms' sizes.
    """
    r_top = float(np.max(r))
    vals, sizes = _ray_sums(beta, d, r, r_top, RAY_ORDERS[0])
    companion, _ = _ray_sums(beta, d, r, r_top, RAY_ORDERS[1])
    return vals, 2.0 * np.abs(vals - companion) + RAY_ROUNDING * sizes


def _power_sum(c: np.ndarray, x) -> np.ndarray:
    """sum_j c[j] x^(j+1) by Horner's rule, in place on one new array."""
    out = np.full_like(x, c[-1], dtype=float)
    for cj in c[-2::-1]:
        out *= x
        out += cj
    out *= x
    return out


class _LargeRSeries:
    """Bergstrom's large-r series of Phi (H. Bergstrom, Ark. Mat. 2, 1952),
    cut for r >= R_MAX:

      Phi(r) = sum_{k>=1} a_k r^(-d-k beta),
      a_k = (-1)^(k+1) 2^(k beta) Gamma(k beta/2 + 1) Gamma((k beta + d)/2)
            sin(pi k beta/2) / (k! pi^(d/2+1)),

    with a_1 = c_{beta,d}; sin(pi z) Gamma(1 + z), z = k beta/2, is summed
    as -pi / Gamma(-z). It converges at r >= R_MAX for beta <= 1 and is
    asymptotic above. The terms kept end before the first whose size, with
    |sin| <= 1, is below SERIES_CUT of the first at R_MAX. bound is the
    remainder relative to Phi at R_MAX: that size plus RAY_ROUNDING times
    the kept terms' sizes.

    With x = r^-beta, Phi = x P(x) / r^d, P having coefficients
    p_j = a_(j+1), and log Phi = l_0 - (d + beta) log r + sum l_j x^j
    with the log's power series l_0 = log p_0,
    l_j = (j p_j - sum_{0<i<j} i l_i p_(j-i)) / (j p_0), cut at the same
    order: a log read costs one log, one exp and a Horner sum.
    """

    def __init__(self, beta: float, d: int):
        if not 0 < beta < 2:
            raise ValueError("beta must lie in (0, 2)")
        self.beta, self.d = beta, d
        k = np.arange(1.0, 65.0)
        common = 2.0 ** (k * beta) * _gamma((k * beta + d) / 2.0) / _gamma(k + 1.0)
        size = common * _gamma(k * beta / 2.0 + 1.0) / np.pi ** (d / 2.0 + 1.0)
        a = (-1.0) ** k * common * _rgamma(-k * beta / 2.0) / np.pi ** (d / 2.0)
        x = R_MAX ** -beta
        n = int(np.argmax(size * x ** (k - 1.0) < SERIES_CUT * abs(a[0])))
        p = a[:n]
        l = np.empty(n)
        l[0] = np.log(p[0])
        for j in range(1, n):
            i = np.arange(1, j)
            l[j] = (j * p[j] - np.dot(i * l[i], p[j - i])) / (j * p[0])
        j = np.arange(1, n)
        self.p, self.l = p, l
        # sum j l_j x^j and sum j^2 l_j x^j
        self.slope_coefs, self.curv_coefs = j * l[1:], j * j * l[1:]
        # |S^(d-1)| sum_k a_k r^(-k beta) / (k beta)
        self.mass_coefs = d * ball_volume(d) * p / (k[:n] * beta)
        terms = np.abs(p) * x ** np.arange(n)
        self.bound = float((size[n] * x ** n + RAY_ROUNDING * terms.sum())
                           / abs(_power_sum(p, x) / x))

    # the readers work in place: a J search reads the series on large
    # arrays, and each temporary of that size costs page faults once the
    # allocator has trimmed the heap
    def eval(self, r: np.ndarray) -> np.ndarray:
        out = _power_sum(self.p, r ** -self.beta)
        out /= r ** self.d
        return out

    def log(self, r: np.ndarray) -> np.ndarray:
        x = np.log(r)
        x *= -self.beta
        out = _power_sum(self.l[1:], np.exp(x, out=x))
        u = np.log(r, out=x)  # log r again, into x's array
        u *= -(self.d + self.beta)
        out += u
        out += self.l[0]
        return out

    def log_derivs(self, r: np.ndarray, slope_only: bool) -> tuple:
        """(L, L', L'') at r, or (L',) alone: L' = -g / r and L'' = (g +
        beta^2 sum j^2 l_j x^j) / r^2, g = d + beta + beta sum j l_j x^j."""
        x = r ** -self.beta
        g = _power_sum(self.slope_coefs, x)
        g *= self.beta
        g += self.d + self.beta
        slope = -g / r
        if slope_only:
            return (slope,)
        curv = _power_sum(self.curv_coefs, x)
        curv *= self.beta ** 2
        curv += g
        curv /= r ** 2
        return self.log(r), slope, curv

    def mass_beyond(self, r) -> np.ndarray:
        """The mass of Phi outside radius r >= R_MAX."""
        return _power_sum(self.mass_coefs, np.asarray(r, dtype=float) ** -self.beta)


@dataclass
class StableDensityProfile:
    """Tabulated radial profile with Bergstrom's series beyond the table.

    r_table starts at 0; values are Phi at the nodes. Beyond r_table[-1]
    every reader takes the large-r series of (beta, d). The profile keeps
    read-only copies of both arrays, which its spline, small-r and
    exceedance caches and constant_for's key are built from.
    """

    beta: float
    d: int
    r_table: np.ndarray
    values: np.ndarray
    error_estimate: float
    method: str

    def __post_init__(self):
        self.r_table = np.array(self.r_table, dtype=float)
        self.values = np.array(self.values, dtype=float)
        self.r_table.flags.writeable = False
        self.values.flags.writeable = False
        self._series = _LargeRSeries(self.beta, self.d)
        self._spline = None
        self._small = None
        self._exceed = None

    @property
    def r_max(self) -> float:
        return float(self.r_table[-1])

    def _get_spline(self):
        # cubic in log-log coordinates; strictly positive by construction.
        # Its last slope is the large-r series', so L' is continuous there
        if self._spline is None:
            r = self.r_table[1:]
            end = r[-1] * self._series.log_derivs(r[-1:], True)[0][0]
            self._spline = PiecewiseCubic.spline(
                np.log(r), np.log(self.values[1:]), end_slope=end)
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
        to r_max, and tail(r) on the large-r series beyond. Each rule returns
        a tuple of arrays; a scalar r gives a tuple of floats.

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
        """Phi(r) for any r >= 0; the large-r series beyond the table."""
        return self._piecewise(
            r, lambda r: (poisson_profile(self.d, r),),
            lambda r, p0, c2, c4: (p0 + r ** 2 * (c2 + c4 * r ** 2),),
            lambda r: (np.exp(self._get_spline()(np.log(r))),),
            lambda r: (self._series.eval(r),))[0]

    def log_value(self, r) -> np.ndarray:
        """log Phi(r), evaluated without the exp/log round trip where possible."""
        return self._piecewise(
            r, lambda r: (np.log(_poisson_coef(self.d))
                          - (self.d + 1) / 2.0 * np.log1p(r ** 2),),
            lambda r, p0, c2, c4: (np.log(p0 + r ** 2 * (c2 + c4 * r ** 2)),),
            lambda r: (self._get_spline()(np.log(r)),),
            lambda r: (self._series.log(r),))[0]

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
            return self._series.log_derivs(r, slope_only)

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
        samples = np.append(w, self._series.p[0])  # the limit r -> inf
        return float(samples.min()), float(samples.max())

    def _inner_disc(self) -> float:
        """int_0^r_table[1] Phi(r) r^(d-1) dr in closed form: the Poisson
        kernel's at beta = 1, the even quadratic's otherwise."""
        d, r1 = self.d, self.r_table[1]
        if self.beta == 1.0:
            q = np.sqrt(1.0 + r1 ** 2)
            return _poisson_coef(d) * {
                1: np.arctan(r1),
                2: r1 ** 2 / (q * (1.0 + q)),  # 1 - 1/q without cancellation
                3: 0.5 * (np.arctan(r1) - r1 / q ** 2)}[d]
        p0, c2, c4 = self._small_r_coeffs()
        return r1 ** d * (p0 / d + r1 ** 2 * (c2 / (d + 2)
                                              + c4 * r1 ** 2 / (d + 4)))

    def mass(self) -> float:
        """Total integral of Phi, from exceedance's pass."""
        return float(self.exceedance(0.0))

    def exceedance(self, r) -> np.ndarray:
        """Mass of Phi outside radius r, interpolated from one dense pass:
        Gauss panels across the table, on the large-r series' mass beyond
        it, and the inner disc below it."""
        if self._exceed is None:
            d = self.d
            surf = d * ball_volume(d)
            grid = np.geomspace(self.r_table[1], self.r_max, 800)
            S, half, wg = gauss_panels(grid[:-1], grid[1:], 8)
            fv = self.eval(S.ravel()).reshape(S.shape) * S ** (d - 1)
            seg = (fv @ wg) * half * surf
            tail0 = self._series.mass_beyond(self.r_max)
            cum = tail0 + np.concatenate([np.cumsum(seg[::-1])[::-1], [0.0]])
            # Hermite in log r with the analytic slope de/dr = -surf Phi r^{d-1}:
            # linear interpolation of the cumulative leaves O(panel^2) bumps
            slope = -surf * self.eval(grid) * grid ** d  # d(cum)/d(log r)
            # the total mass anchors the blend below the table
            self._exceed = (grid, cum, PiecewiseCubic(np.log(grid), cum, slope),
                            tail0 + np.sum(seg) + surf * self._inner_disc())
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
            out[above] = self._series.mass_beyond(r[above])
        return float(out[0]) if scalar else out

    # ---- serialization ----------------------------------------------------

    def to_text(self) -> str:
        buf = io.StringIO()
        buf.write(f"# {PROFILE_FORMAT}\n")
        buf.write("# beta = %.17g\n" % self.beta)
        buf.write(f"# d = {self.d}\n")
        buf.write("# error_estimate = %.17g\n" % self.error_estimate)
        buf.write(f"# method = {self.method}\n")
        for r, v in zip(self.r_table, self.values):
            buf.write("%.17g %.17g\n" % (r, v))
        return buf.getvalue()

    @classmethod
    def from_text(cls, text: str) -> "StableDensityProfile":
        header, rows = read_table_text(
            text, PROFILE_FORMAT,
            required=("beta", "d", "error_estimate", "method"))
        if not rows:
            raise ValueError("profile text holds no rows")
        if any(len(row) != 2 for row in rows):
            raise ValueError("profile rows must hold exactly r and Phi(r)")
        arr = np.asarray(rows)
        return cls(beta=float(header["beta"]), d=int(header["d"]),
                   r_table=arr[:, 0], values=arr[:, 1],
                   error_estimate=float(header["error_estimate"]),
                   method=header["method"])


def build_profile(beta: float, d: int) -> StableDensityProfile:
    """Tabulate Phi_beta for d in {1, 2, 3}.

    The table holds r = 0 and PER_DECADE log-spaced radii per decade from
    R_MIN to R_MAX. beta = 1 short-circuits to the Poisson closed form.
    Otherwise r = 0 takes profile_at_zero and the other nodes the
    rotated-ray inversion.

    error_estimate is the largest relative error of the table's nodes, of
    its interpolation or of the large-r series at R_MAX. The interpolation
    error is measured against the same inversion at the log-midpoints of
    the nodes and at nine radii below R_MIN, and taken 5 % larger.
    """
    if not 0 < beta < 2:
        raise ValueError("beta must lie in (0, 2)")
    if d not in (1, 2, 3):
        raise ValueError("d must be 1, 2, or 3")
    n = int(np.ceil(PER_DECADE * np.log10(R_MAX / R_MIN))) + 1
    r = np.concatenate([[0.0], np.geomspace(R_MIN, R_MAX, n)])

    if beta == 1.0:
        return StableDensityProfile(
            beta=1.0, d=d, r_table=r, values=poisson_profile(d, r),
            error_estimate=1e-15, method="closed-form-beta1")

    r_check = np.concatenate([np.linspace(0.1, 0.9, 9) * R_MIN,
                              np.sqrt(r[1:-1] * r[2:])])
    vals, errs = _ray_transform(beta, d, r[1:])
    check, _ = _ray_sums(beta, d, r_check, R_MAX, RAY_ORDERS[0])
    if not np.all(vals > 0.0):
        raise RuntimeError(f"profile inversion lost positivity (beta={beta}, d={d})")
    vals = np.concatenate([[profile_at_zero(beta, d)], vals])
    prof = StableDensityProfile(beta=beta, d=d, r_table=r, values=vals,
                                error_estimate=0.0, method="rotated-ray")
    # the check radii miss the interpolation error's peaks by at most 1.5 %
    # (at beta = 0.3, below R_MIN); the estimate adds 5 %
    interp = 1.05 * float(np.max(np.abs(prof.eval(r_check) / check - 1.0)))
    prof.error_estimate = max(float(np.max(errs / vals[1:])), interp,
                              prof._series.bound)
    return prof


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
