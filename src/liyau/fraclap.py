"""Fractional Laplacian (quadrature and spectral) and the heat-flow engine.

The pointwise operator uses the principal-value-free second-difference form

    (-Delta)^(beta/2) f(x) = -(c/2) int (f(x+y) + f(x-y) - 2 f(x)) |y|^(-d-beta) dy,

at one x or at all x of a sweep in one batched quadrature, the spectral
route applies the Fourier multiplier |xi|^beta on a periodized grid, and
solve_fractional realizes u(t) = G(t, .) * u0 as one linear convolution on
the grid -- a real FFT of length next_fast_len(2n - 1), with the kernel
sampled at its n non-negative offsets -- plus an end correction and
explicit tail terms for the field's extension rule. Solves of one u0 inside
shared_u0_transform transform u0 once.

solve_fractional_at reads the same solution at one x: it solves only the
nodes within SPLINE_REACH = 40 of x's cell, each by a direct O(n) sum, and
interpolates them as the grid solve's spline would. A cubic spline's
dependence on data k nodes away decays as (2 - sqrt 3)^k, 1.4e-23 at
k = 40, so the window's spline equals the whole grid's to rounding. The end
correction and tail terms are one code path for both routes.
dt_log_u_at reads d/dt log u at one x on the same 82-node window: its four
solves share u0's weights, and their Richardson combination is dt_log_u's.
"""
from __future__ import annotations

import contextlib

import numpy as np
import scipy.fft
from scipy.interpolate import CubicSpline

from .fields import Extension, GridField
from .singular import QuadResult, gauss_panels, weighted_singular
from .stable import StableDensityProfile, eval_G, normalizing_constant

# box widening of the spectral route only
PAD_FACTOR = 4
# boundary samples above this fraction of the peak make the periodic
# multiplier untrustworthy
BOUNDARY_TOL = 1e-8
# nodes on each side of x's cell that solve_fractional_at solves
SPLINE_REACH = 40


def frac_laplacian_point(f: GridField, beta: float, x, *,
                         normalization: float | None = None,
                         max_panel_width: float | None = None) -> QuadResult:
    """(-Delta)^(beta/2) f at one point or a 1-d array of points of a field.

    The even second difference absorbs the principal value; the inner disc
    runs on the desingularized integrand f''-like ratio, the far tail follows
    the field's extension rule. Returns value and error estimate; all points
    of an array share one panel layout and one field evaluation per
    integrand call, and give per-point arrays. An oscillating field needs
    max_panel_width below its period, which its samples cannot reveal.
    """
    if not 0 < beta < 2:
        raise ValueError("beta must lie in (0, 2)")
    c = normalization if normalization is not None else normalizing_constant(beta, 1)
    exp = f.point_expansion(x)  # raises if a point leaves the central 80%
    res = weighted_singular(exp.diff_even, exp.diff_even_over_h2, beta, f.spacing,
                            f.panel_edges(max_panel_width), prefactor=-c)
    return res + QuadResult(0.0, c * f.tail_model_error_budget(beta, exp.x))


def frac_laplacian_spectral(f: GridField, beta: float,
                            pad_factor: int = PAD_FACTOR) -> GridField:
    """Apply the |xi|^beta multiplier on the DFT of the samples.

    Valid only for fields negligible at the boundary; the output carries a
    boundary_warning in meta when the edge samples exceed BOUNDARY_TOL of the
    peak amplitude.

    pad_factor widens the periodic box before the FFT;
    pass 1 for data that is exactly periodic on the grid, where the bare
    multiplier is already the right operator.
    """
    if not 0 < beta < 2:
        raise ValueError("beta must lie in (0, 2)")
    v = f.values
    peak = float(np.max(np.abs(v))) or 1.0
    edge = max(abs(v[0]), abs(v[-1]))
    # edge-pad into a pad_factor-wider periodic box: the periodization error
    # of the |xi|^beta multiplier scales like 1/L^2, and edge values (not
    # zeros) keep constants exactly in the multiplier's kernel
    pad = (pad_factor - 1) * (v.size // 2)
    vp = np.concatenate([np.full(pad, v[0]), v, np.full(pad, v[-1])])
    xi = 2.0 * np.pi * np.fft.fftfreq(vp.size, d=f.spacing)
    outp = np.fft.ifft(np.fft.fft(vp) * np.abs(xi) ** beta).real
    out = outp[pad:pad + v.size]
    warn = edge > BOUNDARY_TOL * peak
    return GridField(f.spacing, out, Extension("constant"), positive=False,
                     meta={"boundary_warning": bool(warn),
                           "boundary_edge_ratio": float(edge / peak)})


def _one_sided_exceedance(profile: StableDensityProfile, t: float, r) -> np.ndarray:
    # 1-d mass of G(t, .) beyond distance r on one side
    s = t ** (-1.0 / profile.beta)
    return 0.5 * profile.exceedance(np.asarray(r, dtype=float) * s)


def _tail_nodes(X: float, reach: float = 1e4, per_decade: int = 12,
                order: int = 6):
    """Gauss nodes/weights for int_X^(X*reach) g(y) dy on log panels."""
    n = int(np.ceil(per_decade * np.log10(reach)))
    edges = np.geomspace(X, X * reach, n + 1)
    nodes, half, wg = gauss_panels(edges[:-1], edges[1:], order)
    return nodes.ravel(), (half[:, None] * wg[None, :]).ravel()


def _wrapped(g: np.ndarray, length: int) -> np.ndarray:
    """Even kernel samples at offsets 0..n-1, laid out for a circular
    convolution of the given length (offset -k sits at length - k)."""
    n = g.size
    out = np.zeros(length)
    out[:n] = g
    out[length - n + 1:] = g[n - 1:0:-1]
    return out


@contextlib.contextmanager
def shared_u0_transform(u0: GridField):
    """Solves of u0 inside the block transform u0 once.

    The weighted spectrum lives in the field's _spectrum slot while the
    block is open; a lone solve transforms u0 afresh and leaves the field as
    it found it, so fields that outlive a sweep carry no spectrum. Nested
    blocks on one field share the outermost one's.
    """
    if u0._spectrum is not None:
        yield
        return
    u0._spectrum = {}
    try:
        yield
    finally:
        u0._spectrum = None


def _convolve_body(u0: GridField, weighted: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Sum over the grid of G(t, x_i - y_j) times the weighted u0(y_j), all i.

    weighted holds u0 times its quadrature weights; g holds the kernel at
    the non-negative offsets k h (k = 0..n-1). A linear convolution
    of n samples needs 2n - 1 points, so one real FFT of that length, padded
    to a fast size, suffices.
    """
    n = g.size
    length = scipy.fft.next_fast_len(2 * n - 1, real=True)
    memo = u0._spectrum  # a dict inside shared_u0_transform, else None
    spec = memo.get(length) if memo is not None else None
    if spec is None:
        spec = scipy.fft.rfft(weighted, n=length)
    conv = scipy.fft.irfft(spec * scipy.fft.rfft(_wrapped(g, length)), length)
    if memo is not None:
        memo[length] = spec
    return conv[:n]


def _check_solve_args(u0: GridField, beta: float, t: float,
                      profile: StableDensityProfile) -> None:
    if not t > 0:
        raise ValueError("t must be positive")
    if profile.beta != beta:
        raise ValueError("profile was built for a different beta")
    if np.any(u0.values <= 0):
        raise ValueError("u0 must be positive everywhere")
    if profile.d != 1:
        raise ValueError("1-d grids need a d = 1 profile")
    if u0.extension.kind not in ("constant", "power"):
        raise ValueError("u0 extension must be constant or power for the solver")


def _trapezoid_weighted(u0: GridField) -> np.ndarray:
    """u0 times its trapezoid weights.

    The body integral ends exactly at +-X, where the tail terms take over;
    full edge weights would double-count half a cell of density on each side.
    """
    h = u0.spacing
    w_trap = np.full(u0.values.size, h)
    w_trap[0] = w_trap[-1] = 0.5 * h
    return u0.values * w_trap


def _kernel_ends(profile: StableDensityProfile, t: float, h: float,
                 k: np.ndarray, g: np.ndarray) -> tuple:
    """(G, dG/dr, one-sided mass beyond r) of the kernel at r = k h.

    g holds G(t, k h). On the symmetric grid node i lies i h from -X and
    (n-1-i) h from X: the end correction and the tail terms read the
    kernel at those two distances only.
    """
    tf = t ** (-1.0 / profile.beta)
    r = h * k
    dg = tf * g * profile.log_slope(r * tf)
    return g, dg, _one_sided_exceedance(profile, t, r)


def _trapezoid_end_correction(u0: GridField, left: tuple,
                              right: tuple) -> np.ndarray:
    """Euler-Maclaurin h^2/12 end terms for the body convolution.

    The composite trapezoid over [-X, X] errs by -h^2/12 (F'(X) - F'(-X))
    with F(y) = G(t, x-y) u0(y); the kernel slope at the window ends is
    not small when x sits near an edge. left and right are _kernel_ends at
    each node's distance from -X and from X.
    """
    h = u0.spacing
    v = u0.values
    dv_r = (v[-1] - v[-2]) / h
    dv_l = (v[1] - v[0]) / h
    Fp_right = right[1] * v[-1] + right[0] * dv_r
    Fp_left = -left[1] * v[0] + left[0] * dv_l
    return -h ** 2 / 12.0 * (Fp_right - Fp_left)


def _add_edge_terms(u0: GridField, profile: StableDensityProfile, t: float,
                    body: np.ndarray, idx: np.ndarray, left: tuple,
                    right: tuple) -> tuple[np.ndarray, float]:
    """u(t) at the nodes idx from the body convolution there.

    Adds the end correction and the mass reaching the grid from beyond its
    edges under u0's extension rule -- an exceedance integral for constant
    extensions, log-panel quadrature against the kernel for power-law ones.
    left and right are _kernel_ends at the nodes' distances from -X and X.
    Returns the values and a bound on the power-law quadrature's truncation.
    """
    v = u0.values
    out = body + _trapezoid_end_correction(u0, left, right)
    ext = u0.extension
    tail_err = 0.0
    if ext.kind == "constant":
        # exact for a literally constant-extended field
        out = out + v[-1] * right[2] + v[0] * left[2]
    else:
        q = ext.exponent
        X = u0.extent
        x = u0.x[idx]
        nodes, weights = _tail_nodes(X)
        for sign, edge in ((1.0, v[-1]), (-1.0, v[0])):
            u0_ext = edge * (nodes / X) ** (-q)
            # kernel matrix G(t, x_i - sign * y_k), vectorized over the nodes
            # (raveled: eval_G reads trailing axes of >=2-d input as vector
            # components)
            D = x[:, None] - sign * nodes[None, :]
            Kmat = eval_G(profile, t, D.ravel()).reshape(D.shape)
            out = out + Kmat @ (weights * u0_ext)
            # beyond the last node: bound by sup u0 times one-sided kernel mass
            r_end = nodes[-1]
            tail_err += edge * (r_end / X) ** (-q) * float(
                _one_sided_exceedance(profile, t, r_end - X))
    return np.maximum(out, 1e-300), tail_err


def solve_fractional(u0: GridField, beta: float, t: float,
                     profile: StableDensityProfile) -> GridField:
    """u(t, x) = int G(t, x - y) u0(y) dy on the grid of u0.

    The body of the convolution is a trapezoid sum evaluated as one linear
    convolution: the kernel is sampled at the n non-negative offsets k h,
    mirrored into the wrap of a real FFT of length next_fast_len(2n - 1),
    and multiplied with u0's weighted spectrum, which solves inside
    shared_u0_transform(u0) compute once. An Euler-Maclaurin end correction
    reuses the same kernel samples, and _add_edge_terms restores the mass
    from beyond the grid. Output fields carry a power(d + beta) extension
    and meta['tail_mass'] with the solution mass beyond the grid, so that
    mass() is conserved.
    """
    _check_solve_args(u0, beta, t, profile)
    h = u0.spacing
    v = u0.values
    n = v.size
    k = np.arange(n)
    weighted = _trapezoid_weighted(u0)
    g = eval_G(profile, t, h * k)
    ends = _kernel_ends(profile, t, h, k, g)
    exceed = ends[2]
    out, tail_err = _add_edge_terms(
        u0, profile, t, _convolve_body(u0, weighted, g), k, ends,
        tuple(a[::-1] for a in ends))

    ext = u0.extension
    if ext.kind == "constant":
        # mass bookkeeping treats the exterior as empty (it is infinite
        # otherwise)
        u0_tail_mass = 0.0
    else:
        q = ext.exponent
        u0_tail_mass = ((v[0] + v[-1]) * u0.extent / (q - 1.0) if q > 1
                        else float("inf"))
    # mass of the solution beyond the grid: exterior initial mass stays
    # counted as exterior, interior mass leaks by the exceedance law
    leak = float(np.dot(weighted, exceed + exceed[::-1]))
    meta = {"t": float(t), "tail_mass": leak + u0_tail_mass,
            "tail_error": tail_err}
    # far field of the solution: a power-tailed u0 keeps the heavier of its
    # own tail and the kernel's 1+beta tail; a constant-extended u0 relaxes
    # to its background level unless that background is negligible against
    # the kernel tail shed by the interior mass (spike-like data), where the
    # edge value is dominated by the power transition zone instead
    if ext.kind == "constant":
        background = 0.5 * (v[0] + v[-1])
        edge_out = 0.5 * (out[0] + out[-1])
        if background >= 0.5 * edge_out:
            ext_out = Extension("constant")
        else:
            ext_out = Extension("power", 1.0 + beta)
    else:
        ext_out = Extension("power", min(ext.exponent, 1.0 + beta))
    return GridField(h, out, ext_out, positive=True, meta=meta)


def _solve_window(u0: GridField, beta: float, ts, x: float,
                  profile: StableDensityProfile) -> tuple[np.ndarray, list]:
    """The nodes within SPLINE_REACH of x's cell, and u(t) there for each t.

    The window is clipped at a grid end. Each body is one direct correlation
    of the mirrored kernel samples against u0's trapezoid-weighted values,
    which all times share; the end correction and tail terms are the grid
    solve's own. x must lie on the grid, |x| <= X.
    """
    # every check but t > 0 is t-independent, and the smallest t decides that
    _check_solve_args(u0, beta, min(ts), profile)
    X = u0.extent
    if not abs(x) <= X:
        raise ValueError(f"x = {x:g} lies outside the grid's extent X = {X:g}")
    h = u0.spacing
    n = u0.values.size
    cell = min(int((x + X) // h), n - 2)
    lo = max(cell - SPLINE_REACH, 0)
    hi = min(cell + 1 + SPLINE_REACH, n - 1)
    idx = np.arange(lo, hi + 1)
    # the window reads the kernel at offsets up to m - 1 only
    m = max(hi, n - 1 - lo) + 1
    r = h * np.arange(m)
    weighted = _trapezoid_weighted(u0)
    sols = []
    for t in ts:
        g = eval_G(profile, t, r)
        kernel = np.concatenate([g[:0:-1], g])  # offsets -(m-1) .. m-1
        # entry k is sum_j g(|j - (hi - k)| h) weighted_j: the window reversed
        body = np.correlate(kernel[m - 1 - hi:m - 1 - lo + n], weighted)[::-1]
        left = _kernel_ends(profile, t, h, idx, g[idx])
        right = _kernel_ends(profile, t, h, n - 1 - idx, g[n - 1 - idx])
        sols.append(_add_edge_terms(u0, profile, t, body, idx, left, right)[0])
    return idx, sols


def solve_fractional_at(u0: GridField, beta: float, t: float, x: float,
                        profile: StableDensityProfile) -> float:
    """solve_fractional(u0, beta, t, profile).eval(x), to rounding.

    Solves the nodes within SPLINE_REACH of x's cell, each body by a direct
    correlation, and interpolates them with the grid solve's not-a-knot
    spline; a window clipped at a grid end keeps that end's condition.
    x must lie on the grid, |x| <= X.
    """
    idx, (u,) = _solve_window(u0, beta, (t,), x, profile)
    return float(CubicSpline(u0.x[idx], u)(x))


# the time step of dt_log_u and dt_log_u_at, relative to t
DT_REL = 0.02


def _dt_times(t: float) -> tuple[float, tuple]:
    """The step dt = DT_REL t and the four solve times t +- dt, t +- dt/2."""
    if not t > 0:
        raise ValueError("t must be positive")
    dt = DT_REL * t
    return dt, (t + dt, t - dt, t + dt / 2.0, t - dt / 2.0)


def _richardson(logs: list, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """d/dt from log u at the _dt_times, and the defect between step sizes.

    The central differences at dt and dt/2 combine to a fourth-order
    estimate; a third of their difference bounds its error.
    """
    d1 = (logs[0] - logs[1]) / (2.0 * dt)
    d2 = (logs[2] - logs[3]) / (2.0 * (dt / 2.0))
    return (4.0 * d2 - d1) / 3.0, np.abs(d2 - d1) / 3.0


def dt_log_u(u0: GridField, beta: float, t: float,
             profile: StableDensityProfile) -> GridField:
    """d/dt log u(t, .) by Richardson-extrapolated central differences.

    Four kernel solves (t +- dt, t +- dt/2) combine to a fourth-order
    estimate; the pointwise defect between the two step sizes lands in
    meta['dt_error'] (array) and meta['dt_error_max'].
    """
    dt, times = _dt_times(t)
    with shared_u0_transform(u0):
        logs = [np.log(solve_fractional(u0, beta, s, profile).values)
                for s in times]
    vals, err = _richardson(logs, dt)
    # far field of u is t * (mass) * c |y|^(-1-beta): d/dt log u -> 1/t there
    return GridField(u0.spacing, vals, Extension("constant"), positive=False,
                     meta={"t": float(t), "dt": dt, "dt_error": err,
                           "dt_error_max": float(err.max())})


def dt_log_u_at(u0: GridField, beta: float, t: float, x: float,
                profile: StableDensityProfile) -> QuadResult:
    """dt_log_u(u0, beta, t, profile) read at x, to rounding.

    The value is the field's spline at x; the error is the max of
    meta['dt_error'] over x's nearest node and its two neighbours. The four
    solves run on solve_fractional_at's window only. x must lie on the
    grid, |x| <= X.
    """
    dt, times = _dt_times(t)
    idx, sols = _solve_window(u0, beta, times, x, profile)
    vals, err = _richardson([np.log(u) for u in sols], dt)
    i = int(round(x / u0.spacing)) + (u0.values.size - 1) // 2 - idx[0]
    return QuadResult(float(CubicSpline(u0.x[idx], vals)(x)),
                      float(np.max(err[max(0, i - 1):i + 2])))
