"""Fractional Laplacian by point quadrature, and the heat-flow engine.

The pointwise operator uses the principal-value-free second-difference form

    (-Delta)^(beta/2) f(x) = -(c/2) int (f(x+y) + f(x-y) - 2 f(x)) |y|^(-d-beta) dy,

at one x or at all x of a sweep in one batched quadrature;
gaussian_frac_laplacian is its closed form on exp(-x^2). solve_fractional
realizes u(t) = G(t, .) * u0 as one linear convolution on the grid -- a
real FFT of length next_fast_len(2n - 1), with the kernel sampled at its n
non-negative offsets -- plus an end correction and each edge value times
a tail column over those offsets, which both edges read: the kernel's
one-sided mass for a constant extension, and for a power law a column
from one n x 288 kernel matrix per sum. Each side is planned once and
read by every sum, after FFTW's plan-then-execute (M. Frigo & S. G.
Johnson, Proc. IEEE 93(2), 2005). The kernel's samples, end data and
spectra form a HeatKernel for (profile, t, h, n), built whole: verify's
sweeps hand one per t to every field, and a DH point's u and du/dt sums
read one. _keep_spectrum(u0) stores u0's weighted spectrum on the field,
once, for every later sum. A lone solve plans afresh and keeps nothing.
Fields, profiles and plans never change, so nothing kept can go stale.

solve_fractional_at reads the same solution at one x: it solves only the
nodes within SPLINE_REACH = 40 of x's cell, each by a direct O(n) sum, and
interpolates them as the grid solve's spline would. A cubic spline's
dependence on data k nodes away decays as (2 - sqrt 3)^k, 1.4e-23 at
k = 40, so the window's spline equals the whole grid's to rounding. The end
correction and tail columns are one code path for both routes, and the DH
margin reads d/dt log u at x through the same window spline.

d/dt u is the grid solve's sum with the kernel replaced by its time
derivative. Self-similarity, G(t, r) = t^(-1/beta) Phi(r t^(-1/beta)),
gives that derivative from r-derivatives alone: dG/dt = -(G + r G_r)/(beta t).
dt_log_u divides it by the u already solved at the same t.
"""
from __future__ import annotations

import numpy as np
import scipy.fft
import scipy.special

from .fields import Extension, GridField, PiecewiseCubic
from .singular import QuadResult, gauss_panels, weighted_singular
from .stable import StableDensityProfile, eval_G, normalizing_constant

# nodes on each side of x's cell that solve_fractional_at solves
SPLINE_REACH = 40
# power-law tails beyond the grid: Gauss panels of TAIL_ORDER nodes,
# TAIL_PER_DECADE per decade from X out to TAIL_REACH * X
TAIL_REACH = 1e4
TAIL_PER_DECADE = 12
TAIL_ORDER = 6


def frac_laplacian_point(f: GridField, beta: float, x, *,
                         max_panel_width: float | None = None) -> QuadResult:
    """(-Delta)^(beta/2) f at one point or a 1-d array of points of a field.

    The even second difference absorbs the principal value; the inner disc
    runs on the desingularized integrand f''-like ratio, the far tail follows
    the field's extension rule. Returns value and error estimate; all points
    of an array share one panel layout and one field evaluation per
    integrand call, and give per-point arrays. An oscillating field needs
    max_panel_width below its period, which its samples cannot reveal.
    """
    c = normalizing_constant(beta, 1)  # rejects beta outside (0, 2)
    exp = f.point_expansion(x, beta, max_panel_width)  # checks x, the cap

    def F(h):
        plus, minus = exp.far(h)
        return plus + minus - 2.0 * exp.f_x

    # inside the inner disc the spline's second difference over h^2 is
    # f''(x), repeated: a broadcast view would round the inner sum otherwise
    F2 = lambda h: np.repeat(exp.d2, h.size, axis=-1)
    res = weighted_singular(F, F2, exp.plan)
    return res.scaled(-c) + QuadResult(0.0, c * f.tail_model_error_budget(beta, exp.x))


def gaussian_frac_laplacian(beta: float, x) -> np.ndarray:
    """(-Delta)^(beta/2) exp(-x^2), exact: the point quadrature's reference.

    The inverse Fourier transform of |xi|^beta sqrt(pi) exp(-xi^2/4) is
    2^beta Gamma((1 + beta)/2)/sqrt(pi) 1F1((1 + beta)/2; 1/2; -x^2).
    """
    a = 0.5 * (1.0 + beta)
    return (2.0 ** beta * scipy.special.gamma(a) / np.sqrt(np.pi)
            * scipy.special.hyp1f1(a, 0.5, -np.square(x)))


def _tail_nodes(X: float):
    """Gauss nodes/weights for int_X^(X*TAIL_REACH) g(y) dy on log panels."""
    n = int(np.ceil(TAIL_PER_DECADE * np.log10(TAIL_REACH)))
    edges = np.geomspace(X, X * TAIL_REACH, n + 1)
    nodes, half, wg = gauss_panels(edges[:-1], edges[1:], TAIL_ORDER)
    return nodes.ravel(), (half[:, None] * wg[None, :]).ravel()


def _wrapped(g: np.ndarray, length: int) -> np.ndarray:
    """Even kernel samples at offsets 0..n-1, laid out for a circular
    convolution of the given length (offset -k sits at length - k)."""
    n = g.size
    out = np.zeros(length)
    out[:n] = g
    out[length - n + 1:] = g[n - 1:0:-1]
    return out


def _fft_length(n: int) -> int:
    """The real FFT length of a linear convolution of n samples."""
    return scipy.fft.next_fast_len(2 * n - 1, real=True)


def _keep_spectrum(u0: GridField) -> None:
    """Store u0's weighted spectrum on the field, once, which every later
    whole-grid sum of u0 reads instead of transforming u0 again. The FFT
    length depends on n alone, so one array serves every t."""
    if u0._spectrum is None:
        object.__setattr__(u0, "_spectrum", scipy.fft.rfft(
            _trapezoid_weighted(u0), n=_fft_length(u0.values.size)))


class HeatKernel:
    """The kernel side of the heat sums at (profile, t) on a grid (h, n),
    built whole and read by every sum over it: _kernel_ends at the n
    offsets k h from one eval_G call, for G(t, .) (variant 0) and, when
    dt, dG/dt (variant 1), and each variant's spectrum.
    """

    def __init__(self, profile: StableDensityProfile, t: float,
                 spacing: float, n: int, dt: bool = False):
        self.key, r = (profile, t, spacing, n), spacing * np.arange(n)
        self.ends = _kernel_ends(profile, t, r, eval_G(profile, t, r), dt)
        self.spectra = tuple(scipy.fft.rfft(_wrapped(g, _fft_length(n)))
                             for g, _, _ in self.ends)


def _convolve_body(u0: GridField, plan: HeatKernel,
                   variant: int) -> np.ndarray:
    """Sum over the grid of K(x_i - y_j) u0(y_j) w_j, all i, for the
    trapezoid weights w and the plan's variant of the kernel.

    A linear convolution of n samples needs 2n - 1 points, so one real FFT
    of that length, padded to a fast size, suffices. u0's spectrum is the
    one _keep_spectrum stored on the field, or else a fresh one.
    """
    n = u0.values.size
    length = _fft_length(n)
    spec = u0._spectrum
    if spec is None:
        spec = scipy.fft.rfft(_trapezoid_weighted(u0), n=length)
    kspec = plan.spectra[variant]
    # complex products round by operand order: keep the order numpy's
    # temporary elision gives spec * rfft(kernel), kernel first from 256 KiB
    prod = kspec * spec if kspec.nbytes >= 256 * 1024 else spec * kspec
    return scipy.fft.irfft(prod, length)[:n]


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


def _kernel_ends(profile: StableDensityProfile, t: float, r: np.ndarray,
                 g: np.ndarray, dt: bool = False) -> list:
    """[(K, dK/dr, one-sided mass of K beyond r)] at offsets r >= 0 for the
    kernel K = G(t, .), and when dt a second triple for K = dG/dt, with
    L' and L'' from one log_derivs call. g holds G(t, r).

    On the symmetric grid node i lies i h from -X and (n-1-i) h from X:
    the end correction and the tail terms read the kernel at those two
    distances only. Self-similarity gives the time derivatives from
    r-derivatives: dG/dt = -(G + r G_r)/(beta t), its r-slope
    -(2 G_r + r G_rr)/(beta t), and d/dt of the mass beyond r, r G/(beta t).
    """
    tf = t ** (-1.0 / profile.beta)
    # log_slope is log_derivs' L', bit for bit, without L and L''
    l1, l2 = (profile.log_derivs(r * tf)[1:] if dt
              else (profile.log_slope(r * tf), None))
    g_r = tf * g * l1
    ends = [(g, g_r, 0.5 * profile.exceedance(r * tf))]
    if dt:
        g_rr = tf * (g_r * l1 + tf * g * l2)
        bt = profile.beta * t
        ends.append((_dG_dt(profile, t, r, g, g_r),
                     -(2.0 * g_r + r * g_rr) / bt, r * g / bt))
    return ends


def _dG_dt(profile: StableDensityProfile, t: float, r: np.ndarray,
           g: np.ndarray, g_r: np.ndarray) -> np.ndarray:
    """dG/dt at offsets r from G = g and its r-slope g_r."""
    return -(g + r * g_r) / (profile.beta * t)


def _tail_ends(u0: GridField, profile: StableDensityProfile, t: float,
               k: np.ndarray, ends: tuple, variant: int = 0) -> tuple:
    """ends, _kernel_ends at offsets k h, with the third slot the tail
    beyond an edge k cells away under u0's extension rule: the one-sided
    mass for a constant extension; for a power law int_X^(X*TAIL_REACH)
    K(y - x) (y/X)^(-q) dy at x = X - k h, by log-panel quadrature of one
    kernel matrix, for K = G(t, .) or dG/dt (variant 1). As in product
    integration (K. Atkinson, CUP 1997, section 4.2), the tail depends on
    the distance alone, so both edges read one column.
    """
    if u0.extension.kind == "constant":
        return ends
    X = u0.extent
    nodes, weights = _tail_nodes(X)
    # the grid is symmetric to the bit, so y - x is |x -+ y| at either edge
    D = nodes[None, :] - u0.x[-1 - k][:, None]
    K = eval_G(profile, t, D)
    if variant:  # dG/dt, which reads L' alone
        tf = t ** (-1.0 / profile.beta)
        K = _dG_dt(profile, t, D, K, tf * K * profile.log_slope(D * tf))
    return (*ends[:2], K @ (weights * u0.extension.model(1.0, nodes / X)))


def _add_edge_terms(u0: GridField, body: np.ndarray, left: tuple,
                    right: tuple) -> np.ndarray:
    """int K(x - y) u0(y) dy at some nodes from the trapezoid body sum
    there, for left and right the _tail_ends at the nodes' distances from
    -X and from X: adds each edge value times its tail column and the
    Euler-Maclaurin h^2/12 end terms. The trapezoid over [-X, X] errs by
    -h^2/12 (F'(X) - F'(-X)) with F(y) = K(x-y) u0(y), and the kernel
    slope there is not small when x sits near an edge.
    """
    h = u0.spacing
    v = u0.values
    dv_r = (v[-1] - v[-2]) / h
    dv_l = (v[1] - v[0]) / h
    Fp_right = right[1] * v[-1] + right[0] * dv_r
    Fp_left = -left[1] * v[0] + left[0] * dv_l
    return (body - h ** 2 / 12.0 * (Fp_right - Fp_left)
            + v[-1] * right[2] + v[0] * left[2])


def _grid_sum(u0: GridField, profile: StableDensityProfile, t: float,
              plan: HeatKernel | None,
              variant: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """u(t) at every node, or du/dt for variant 1, and the kernel's
    one-sided mass beyond each offset k h, from plan or a fresh HeatKernel;
    the body is one FFT convolution. A plan for another profile, t or grid,
    or without the variant, raises ValueError."""
    key = (profile, t, u0.spacing, u0.values.size)
    plan = plan or HeatKernel(*key, dt=variant == 1)
    if variant >= len(plan.ends) or plan.key != key:
        raise ValueError("the plan is for another profile, t or grid, or "
                         "has no d/dt variant")
    ends = plan.ends[variant]
    left = _tail_ends(u0, profile, t, np.arange(key[3]), ends, variant)
    out = _add_edge_terms(u0, _convolve_body(u0, plan, variant), left,
                          tuple(a[::-1] for a in left))
    return out, ends[2]


def solve_fractional(u0: GridField, beta: float, t: float,
                     profile: StableDensityProfile,
                     plan: HeatKernel | None = None) -> GridField:
    """u(t, x) = int G(t, x - y) u0(y) dy on the grid of u0.

    The body of the convolution is a trapezoid sum evaluated as one linear
    convolution: the kernel is sampled at the n non-negative offsets k h,
    mirrored into the wrap of a real FFT of length next_fast_len(2n - 1),
    and multiplied with u0's weighted spectrum, computed afresh unless
    _keep_spectrum(u0) stored it; the kernel side is plan's, or a fresh
    HeatKernel's. An Euler-Maclaurin end correction reuses the same kernel
    samples, and _add_edge_terms restores the mass from beyond the grid as
    each edge value times _tail_ends' column, the right edge's reversed.
    Output fields carry a power-law or constant extension and, as
    tail_mass, the solution's mass beyond the grid, so that mass() is
    conserved.
    """
    _check_solve_args(u0, beta, t, profile)
    v = u0.values
    out, exceed = _grid_sum(u0, profile, t, plan)
    out = np.maximum(out, 1e-300)

    ext = u0.extension
    # mass bookkeeping treats a constant exterior as empty (it is infinite
    # otherwise)
    u0_tail_mass = 0.0 if ext.kind == "constant" else u0.power_tail_mass()
    # mass of the solution beyond the grid: exterior initial mass stays
    # counted as exterior, interior mass leaks by the exceedance law; summed
    # outside BLAS, whose ddot rounds differently at each thread count
    leak = float(np.sum(_trapezoid_weighted(u0) * (exceed + exceed[::-1])))
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
    return GridField(u0.spacing, out, ext_out, positive=True,
                     tail_mass=float(leak + u0_tail_mass))


def _window(u0: GridField, x: float) -> np.ndarray:
    """The nodes within SPLINE_REACH of x's cell, clipped at a grid end;
    x must lie on the grid, |x| <= X."""
    X, n = u0.extent, u0.values.size
    if not abs(x) <= X:
        raise ValueError(f"x = {x:g} lies outside the grid's extent X = {X:g}")
    cell = min(int((x + X) // u0.spacing), n - 2)
    return np.arange(max(cell - SPLINE_REACH, 0),
                     min(cell + 1 + SPLINE_REACH, n - 1) + 1)


def _window_eval(f: GridField, x: float) -> float:
    """f.eval(x) to rounding, from the spline through _window(f, x) alone."""
    idx = _window(f, x)
    return float(PiecewiseCubic.spline(f.x[idx], f.values[idx])(x))


def _solve_window(u0: GridField, beta: float, t: float, x: float,
                  profile: StableDensityProfile) -> tuple:
    """The nodes within SPLINE_REACH of x's cell, and u(t) there.

    The window is clipped at a grid end. The body is one direct correlation
    of the mirrored kernel samples against u0's trapezoid-weighted values;
    the end correction and tail terms are the grid sum's own. x must lie on
    the grid, |x| <= X.
    """
    _check_solve_args(u0, beta, t, profile)
    h = u0.spacing
    n = u0.values.size
    idx = _window(u0, x)
    lo, hi = idx[0], idx[-1]
    # the window reads the kernel at offsets up to m - 1 only
    m = max(hi, n - 1 - lo) + 1
    g = eval_G(profile, t, h * np.arange(m))
    kernel = np.concatenate([g[:0:-1], g])  # offsets -(m-1) .. m-1
    # entry k is sum_j G(|j - (hi - k)| h) weighted_j: the window reversed
    body = np.correlate(kernel[m - 1 - hi:m - 1 - lo + n],
                        _trapezoid_weighted(u0))[::-1]
    # the kernel and its tail at each window node's distance from -X and X
    ends = [_tail_ends(u0, profile, t, k,
                       _kernel_ends(profile, t, h * k, g[k])[0])
            for k in (idx, n - 1 - idx)]
    u = _add_edge_terms(u0, body, *ends)
    return idx, np.maximum(u, 1e-300)


def solve_fractional_at(u0: GridField, beta: float, t: float, x: float,
                        profile: StableDensityProfile) -> float:
    """solve_fractional(u0, beta, t, profile).eval(x), to rounding.

    Solves the nodes within SPLINE_REACH of x's cell, each body by a direct
    correlation, and interpolates them with the grid solve's not-a-knot
    spline; a window clipped at a grid end keeps that end's condition.
    x must lie on the grid, |x| <= X.
    """
    idx, u = _solve_window(u0, beta, t, x, profile)
    return float(PiecewiseCubic.spline(u0.x[idx], u)(x))


def dt_log_u(u0: GridField, beta: float, t: float,
             profile: StableDensityProfile, u: GridField,
             plan: HeatKernel | None = None) -> GridField:
    """d/dt log u(t, .) = (du/dt) / u on the grid of u0, for u the
    solve_fractional(u0, beta, t, profile) that the caller already holds.

    du/dt is the heat solve's own sum with dG/dt in place of G, from plan,
    a HeatKernel built with dt that u's solve may share, or a fresh one,
    which transforms both variants' kernels. It reads the spectrum u0 keeps
    after _keep_spectrum, so that it and u's solve share one transform of u0.
    """
    _check_solve_args(u0, beta, t, profile)
    if u.values.shape != u0.values.shape or u.spacing != u0.spacing:
        raise ValueError("u must lie on u0's grid")
    du = _grid_sum(u0, profile, t, plan, 1)[0]
    # far field of u is t * (mass) * c |y|^(-1-beta): d/dt log u -> 1/t there
    return GridField(u0.spacing, du / u.values, Extension("constant"),
                     positive=False)
