"""Radial profiles of rotationally invariant stable densities.

The kernel G(t, x) = t^(-d/beta) * Phi(|x| t^(-1/beta)) is generated by a
single radial profile Phi per (beta, d). Both ends of Phi are Bergstrom's
series, read by one class: in r^2 below a switch radius r_s set by
(beta, d), and in r^-beta beyond R_MAX. In between, Phi is tabulated by
Fourier inversion of exp(-|xi|^beta) and read by a log-log spline clamped
to both series' slopes. A profile is frozen and its table arrays are
read-only, so the caches built from them cannot go stale.

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

import dataclasses
import io

import numpy as np
from scipy.special import (gamma as _gamma, hankel1e as _hankel1e, k0 as _k0,
                           rgamma as _rgamma)

from .fields import PiecewiseCubic, _knot_scale
from .runio import read_table_text
from .singular import gauss_panels

PROFILE_FORMAT = "liyau-profile v3"

# the table's last radius and its log-spaced nodes per decade; beyond R_MAX
# every reader takes the large-r series
R_MAX = 100.0
PER_DECADE = 24
# r_s for beta >= 1, where the small-r series converges; below beta = 1 it
# is asymptotic, keeps three terms, and r_s is where the first omitted one
# falls to SMALL_R_CUT of Phi(0). Below R_SWITCH_MIN (beta <= 0.1) no
# profile is built
R_SWITCH = 0.5
SMALL_R_CUT = 1e-13
R_SWITCH_MIN = 1e-10
# a series keeps its terms up to the first whose size at the end of its
# region falls below this share of its leading term
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
# radii summed at a time on the ray: a block's kernel is 0.5-1 MB, and the
# blocks hold each group of a table's radii whole
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


def _poisson_exceedance(d: int, r: np.ndarray) -> np.ndarray:
    """The beta = 1 profile's mass beyond radius r, in closed form and
    without the cancellation of 1 - (2/pi) arctan r: (2/pi) arctan2(1, r)
    in d = 1, (1 + r^2)^(-1/2) in d = 2 and (2/pi) (arctan2(1, r)
    + r/(1 + r^2)) in d = 3."""
    if d == 2:
        return (1.0 + r ** 2) ** -0.5
    out = np.arctan2(1.0, r)
    if d == 3:
        out += r / (1.0 + r ** 2)
    out *= 2.0 / np.pi
    return out


def _small_r_coefs(beta: float, d: int, n: int) -> np.ndarray:
    """b_0..b_(n-1) of Phi = sum b_k r^(2k), b_k = (-1)^k Gamma((2k+d)/beta)
    / (beta 2^(d-1) pi^(d/2) k! Gamma(k+d/2) 4^k)."""
    k = np.arange(float(n))
    return ((-1.0) ** k * _gamma((2.0 * k + d) / beta) * _rgamma(k + 1.0)
            * _rgamma(k + d / 2.0) / 4.0 ** k
            / (beta * 2.0 ** (d - 1) * np.pi ** (d / 2.0)))


def profile_at_zero(beta: float, d: int) -> float:
    """Phi(0), the small-r series' b_0 = Gamma(d/beta) / (beta 2^(d-1)
    pi^(d/2) Gamma(d/2)) = d omega_d Gamma(d/beta) / ((2 pi)^d beta)."""
    return float(_small_r_coefs(beta, d, 1)[0])


def _table_radii(r_s: float) -> np.ndarray:
    """0, then PER_DECADE log-spaced radii per decade from r_s to R_MAX."""
    n = int(np.ceil(PER_DECADE * np.log10(R_MAX / r_s))) + 1
    return np.concatenate([[0.0], np.geomspace(r_s, R_MAX, n)])


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


def _power_sum(c: np.ndarray, x, lead: int = 1) -> np.ndarray:
    """sum_j c[j] x^(j+lead) by Horner's rule, in place on one new array."""
    out = np.full_like(x, c[-1], dtype=float)
    for cj in c[-2::-1]:
        out *= x
        out += cj
    if lead:
        out *= x
    return out


class _Series:
    """One end of Phi as Bergstrom's series (H. Bergstrom, Ark. Mat. 2,
    1952; V. Zolotarev, One-dimensional Stable Distributions, AMS 1986):

      Phi(r) = r^e P(x),  x = r^s,  P(x) = sum_{j>=0} p_j x^j,

    computed as x^lead P(x) / r^m, e = lead s - m. bound is the remainder
    relative to Phi at r_cut, the end of its region: the first omitted
    term's size plus RAY_ROUNDING times the kept terms' sizes.
    log Phi = l_0 + e log r + sum_{j>=1} l_j x^j, l_0 = log p_0 and l_j =
    (j p_j - sum_{0<i<j} i l_i p_(j-i)) / (j p_0), so r L' = e + s sum j l_j
    x^j and r^2 L'' = s^2 sum j^2 l_j x^j - r L'. At r = 0, which only the
    small-r series reads, L' = 0 and L'' = 2 l_1.
    """

    def __init__(self, d: int, p: np.ndarray, s: float, lead: int, m: int,
                 r_cut: float, omitted: float):
        self.d, self.s, self.lead, self.m, self.r_cut = d, s, lead, m, r_cut
        self.e = lead * s - m
        n = p.size
        l = np.empty(n)
        l[0] = np.log(p[0])
        for j in range(1, n):
            i = np.arange(1, j)
            l[j] = (j * p[j] - np.dot(i * l[i], p[j - i])) / (j * p[0])
        j = np.arange(1, n)
        self.p, self.l = p, l
        # sum j l_j x^j and sum j^2 l_j x^j
        self.slope_coefs, self.curv_coefs = j * l[1:], j * j * l[1:]
        # |S^(d-1)| r^(d-m) sum p_j x^(j+lead) / |s (j+lead) + d - m|: the
        # mass between r and the far end of the series' region
        k = np.arange(lead, n + lead)
        self.mass_coefs = d * ball_volume(d) * p / np.abs(s * k + (d - m))
        x = r_cut ** s
        terms = np.abs(p) * x ** np.arange(n)
        self.bound = float((omitted * x ** n + RAY_ROUNDING * terms.sum())
                           / abs(_power_sum(p, x) / x))

    @classmethod
    def large_r(cls, beta: float, d: int) -> "_Series":
        """Phi for r >= R_MAX: sum_{k>=1} a_k r^(-d-k beta), with

          a_k = (-1)^(k+1) 2^(k beta) Gamma(k beta/2 + 1) Gamma((k beta + d)/2)
                sin(pi k beta/2) / (k! pi^(d/2+1)),

        a_1 = c_{beta,d}; sin(pi z) Gamma(1 + z), z = k beta/2, is summed as
        -pi / Gamma(-z), and a term's size takes |sin| <= 1. It converges
        for beta <= 1 and is asymptotic above.
        """
        k = np.arange(1.0, 65.0)
        common = 2.0 ** (k * beta) * _gamma((k * beta + d) / 2.0) / _gamma(k + 1.0)
        size = common * _gamma(k * beta / 2.0 + 1.0) / np.pi ** (d / 2.0 + 1.0)
        a = (-1.0) ** k * common * _rgamma(-k * beta / 2.0) / np.pi ** (d / 2.0)
        x = R_MAX ** -beta
        n = int(np.argmax(size * x ** (k - 1.0) < SERIES_CUT * abs(a[0])))
        return cls(d, a[:n], -beta, 1, d, R_MAX, size[n])

    @classmethod
    def small_r(cls, beta: float, d: int) -> "_Series":
        """Phi for r <= r_s: sum_k b_k r^(2k), with the terms SERIES_CUT keeps
        at r_s = R_SWITCH for beta >= 1, and below b_0..b_2 up to the r_s
        where b_3 r^6 = SMALL_R_CUT b_0, which must reach R_SWITCH_MIN."""
        if not 0 < beta < 2:
            raise ValueError("beta must lie in (0, 2)")
        if d not in (1, 2, 3):  # every profile is built on this series first
            raise ValueError("d must be 1, 2, or 3")
        if beta >= 1.0:
            r_s, b = R_SWITCH, _small_r_coefs(beta, d, 64)
            n = int(np.argmax(np.abs(b) * R_SWITCH ** (2.0 * np.arange(64))
                              < SERIES_CUT * b[0]))
        else:
            b, n = _small_r_coefs(beta, d, 4), 3
            r_s = float((SMALL_R_CUT * b[0] / abs(b[3])) ** (1.0 / 6.0))
        if not r_s >= R_SWITCH_MIN:
            raise ValueError(f"beta = {beta:g}, d = {d}: the small-r switch radius "
                             f"{r_s:.3g} lies below R_SWITCH_MIN = {R_SWITCH_MIN:g}")
        return cls(d, b[:n], 2.0, 0, 0, r_s, abs(b[n]))

    # the readers work in place: a J search reads the series on large arrays
    def eval(self, r: np.ndarray) -> np.ndarray:
        out = _power_sum(self.p, r ** self.s, self.lead)
        if self.m:
            out /= r ** self.m
        return out

    def log(self, r: np.ndarray) -> np.ndarray:
        if self.e:  # x = exp(s log r), then log r again for e log r
            x = np.log(r)
            x *= self.s
            out = _power_sum(self.l[1:], np.exp(x, out=x))
            out += np.multiply(np.log(r, out=x), self.e, out=x)
        else:
            out = _power_sum(self.l[1:], r ** self.s)
        out += self.l[0]
        return out

    def log_derivs(self, r: np.ndarray, slope_only: bool) -> tuple:
        """(L, L', L'') at r, or (L',) alone."""
        x = r ** self.s
        g = _power_sum(self.slope_coefs, x)
        g *= self.s
        g += self.e
        positive = r > 0.0
        if slope_only:
            return (np.divide(g, r, out=g, where=positive),)
        curv = _power_sum(self.curv_coefs, x)
        curv *= self.s ** 2
        curv -= g
        curv = np.divide(curv, r ** 2, out=np.full_like(g, 2.0 * self.l[1]),
                         where=positive)
        return self.log(r), np.divide(g, r, out=g, where=positive), curv

    def mass(self, r) -> np.ndarray:
        """The mass of Phi between radius r and the far end of the series'
        region: beyond r for the large-r series, within r for the small-r."""
        r = np.asarray(r, dtype=float)
        out = _power_sum(self.mass_coefs, r ** self.s, self.lead)
        if self.d != self.m:
            out *= r ** (self.d - self.m)
        return out


@dataclasses.dataclass(frozen=True, eq=False)
class StableDensityProfile:
    """Tabulated radial profile with Bergstrom's series at both ends.

    r_table is 0, then r_s up to R_MAX (_table_radii, the only layout
    accepted); values are Phi at the nodes. Below r_s every reader takes the
    small-r series of (beta, d), and beyond R_MAX the large-r series. The
    frozen profile keeps read-only copies of both arrays, which its caches
    (each written once, by its builder) read; constant_for keys on it.
    """

    beta: float
    d: int
    r_table: np.ndarray
    values: np.ndarray
    error_estimate: float
    method: str

    _spline = _exceed = None  # until their builders write them

    def __post_init__(self):
        for name in ("r_table", "values"):
            a = np.array(getattr(self, name), dtype=float)
            a.flags.writeable = False
            object.__setattr__(self, name, a)
        object.__setattr__(self, "_small", _Series.small_r(self.beta, self.d))
        object.__setattr__(self, "_large", _Series.large_r(self.beta, self.d))
        if not np.array_equal(self.r_table, _table_radii(self._small.r_cut)):
            raise ValueError(f"profile radii differ from the table layout of "
                             f"beta = {self.beta:g}, d = {self.d}")

    @property
    def r_max(self) -> float:
        return float(self.r_table[-1])

    def _get_spline(self):
        # cubic in log-log coordinates; strictly positive by construction.
        # Its end slopes are the two series', so L' is continuous at both
        if self._spline is None:
            r = self.r_table[1:]
            ends = tuple(float(r0 * series.log_derivs(np.array([r0]), True)[0][0])
                         for r0, series in ((r[0], self._small),
                                            (r[-1], self._large)))
            object.__setattr__(self, "_spline", PiecewiseCubic.spline(
                np.log(r), np.log(self.values[1:]), end_slopes=ends))
        return self._spline

    def _piecewise(self, r, closed, table, series) -> tuple:
        """Apply one rule per region of |r| and gather the rule's outputs.

        closed(r) serves beta = 1. Otherwise series(s, r)
        runs on the small-r series s below r_table[1] and on the large-r one
        beyond r_max, and table(r) in between. Each rule returns a tuple of
        arrays; a scalar r gives a tuple of floats.

        When one region holds every point, its rule runs on r as it stands,
        with no gather and scatter: each rule is elementwise, so the values
        are the masked path's bit for bit. An empty r takes the large-r
        series, which makes its (empty) outputs.
        """
        r = np.abs(np.asarray(r, dtype=float))
        scalar = r.ndim == 0
        r = np.atleast_1d(r)
        if self.beta == 1.0:
            outs = closed(r)
        else:
            lo = r < self.r_table[1]
            hi = r > self.r_max
            regions = ((lo, lambda s: series(self._small, s)),
                       (~lo & ~hi, table), (hi, lambda s: series(self._large, s)))
            rules = [rule for rule in regions if rule[0].any()] or regions[2:]
            if len(rules) == 1:
                outs = rules[0][1](r)
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
        """Phi(r) for any r >= 0; the series below and beyond the table."""
        return self._piecewise(
            r, lambda r: (poisson_profile(self.d, r),),
            lambda r: (np.exp(self._get_spline()(np.log(r))),),
            lambda s, r: (s.eval(r),))[0]

    def log_value(self, r) -> np.ndarray:
        """log Phi(r), evaluated without the exp/log round trip where possible."""
        return self._piecewise(
            r, lambda r: (np.log(_poisson_coef(self.d))
                          - (self.d + 1) / 2.0 * np.log1p(r ** 2),),
            lambda r: (self._get_spline()(np.log(r)),),
            lambda s, r: (s.log(r),))[0]

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

        def table(r):
            sp, u = self._get_spline(), np.log(r)
            if slope_only:
                return (sp(u, 1) / r,)
            L, s1, s2 = sp._reads(u, (0, 1, 2))  # one cell search
            return L, s1 / r, (s2 - s1) / r ** 2

        return closed, table, lambda s, r: s.log_derivs(r, slope_only)

    def log_derivs(self, r) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(L, L', L'') for L(r) = log Phi(r), vectorized over r >= 0."""
        return self._piecewise(r, *self._log_rules(slope_only=False))

    def log_slope(self, r) -> np.ndarray:
        """L'(r) alone, bit for bit log_derivs(r)[1], without L and L''."""
        return self._piecewise(r, *self._log_rules(slope_only=True))[0]

    def comparability_ratio(self) -> tuple[float, float]:
        """(lo, hi) bounds of Phi(r) * (1 + r^2)^((d+beta)/2) over the table."""
        w = self.values * (1.0 + self.r_table ** 2) ** ((self.d + self.beta) / 2.0)
        samples = np.append(w, self._large.p[0])  # the limit r -> inf
        return float(samples.min()), float(samples.max())

    def mass(self) -> float:
        """Total integral of Phi, exceedance at r = 0."""
        return float(self.exceedance(0.0))

    def exceedance(self, r) -> np.ndarray:
        """Mass of Phi outside radius r: across the table a cubic through
        one dense pass of Gauss panels, on the large-r series' mass beyond
        it; the series' own masses below and beyond the table. beta = 1
        reads the Poisson kernel's closed form and makes no pass."""
        return self._piecewise(
            r, lambda r: (_poisson_exceedance(self.d, r),),
            lambda r: (self._get_exceed()[2](np.log(r)),),
            lambda s, r: (s.mass(r) if s is self._large
                          else self._get_exceed()[3] - s.mass(r),))[0]

    def _get_exceed(self) -> tuple:
        # (grid, cumulative mass beyond each radius, its Hermite cubic in
        # log r, total mass), from one pass across the table
        if self._exceed is None:
            d = self.d
            surf = d * ball_volume(d)
            grid = np.geomspace(self.r_table[1], self.r_max, 800)
            S, half, wg = gauss_panels(grid[:-1], grid[1:], 8)
            fv = self.eval(S.ravel()).reshape(S.shape) * S ** (d - 1)
            seg = (fv @ wg) * half * surf
            cum = self._large.mass(self.r_max) + np.concatenate(
                [np.cumsum(seg[::-1])[::-1], [0.0]])
            # Hermite in log r with the analytic slope de/dr = -surf Phi r^{d-1}:
            # linear interpolation of the cumulative leaves O(panel^2) bumps
            slope = -surf * self.eval(grid) * grid ** d  # d(cum)/d(log r)
            u = np.log(grid)
            du = np.diff(u)
            object.__setattr__(self, "_exceed", (grid, cum, PiecewiseCubic(
                u, _knot_scale(u), du, cum, np.diff(cum) / du, slope),
                cum[0] + self._small.mass(grid[0])))
        return self._exceed

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
    """Tabulate Phi_beta for d in {1, 2, 3}, beta in (0.1, 2).

    The table holds r = 0 and PER_DECADE log-spaced radii per decade from
    the small-r series' switch radius r_s to R_MAX. beta = 1 short-circuits
    to the Poisson closed form. Otherwise r = 0 takes the small-r series'
    Phi(0) and the other nodes the rotated-ray inversion.

    error_estimate is the largest relative error of the table's nodes, of
    its interpolation, or of either series at the end of its region. The
    interpolation error is measured against the same inversion at the
    log-midpoints of the nodes, and taken 5 % larger.
    """
    r = _table_radii(_Series.small_r(beta, d).r_cut)  # checks beta and d

    if beta == 1.0:
        return StableDensityProfile(
            beta=1.0, d=d, r_table=r, values=poisson_profile(d, r),
            error_estimate=1e-15, method="closed-form-beta1")

    r_check = np.sqrt(r[1:-1] * r[2:])
    vals, errs = _ray_transform(beta, d, r[1:])
    check, _ = _ray_sums(beta, d, r_check, R_MAX, RAY_ORDERS[0])
    if not np.all(vals > 0.0):
        raise RuntimeError(f"profile inversion lost positivity (beta={beta}, d={d})")
    vals = np.concatenate([[profile_at_zero(beta, d)], vals])
    trial = StableDensityProfile(beta=beta, d=d, r_table=r, values=vals,
                                 error_estimate=0.0, method="rotated-ray")
    interp = 1.05 * float(np.max(np.abs(trial.eval(r_check) / check - 1.0)))
    return dataclasses.replace(trial, error_estimate=max(
        float(np.max(errs / vals[1:])), interp, trial._small.bound,
        trial._large.bound))


def eval_G(profile: StableDensityProfile, t: float, x) -> np.ndarray:
    """Self-similar kernel G(t, x) = t^(-d/beta) Phi(|x| t^(-1/beta)).

    Each entry of x, whatever x's shape, is a signed distance from the
    origin: the kernel reads |x|, and the result has x's shape.
    """
    if not t > 0:
        raise ValueError("t must be positive")
    s = t ** (-1.0 / profile.beta)
    return t ** (-profile.d / profile.beta) * profile.eval(
        np.abs(np.asarray(x, dtype=float)) * s)
