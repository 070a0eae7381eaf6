"""Split quadrature for integrals against the jump weight |h|^(-1-beta).

Every non-local operator here reduces to one-sided integrals

    I = int_0^inf F(h) h^(-1-beta) dh,       0 < beta < 2,

where F vanishes at least quadratically at h = 0. The panel edges decide
the one split of the integral: the inner disc (0, delta), delta = edges[0],
runs Gauss-Jacobi on the desingularized integrand F2(h) = F(h)/h^2, and
everything from delta on reads F alone -- Gauss panels out to edges[-1],
then an analytic far tail under the integrand's declared model via a power
substitution. All nodes are interior to their panels, so F2 sees only
0 < h < delta and F only h >= delta, and an integrand may read each side
of delta its own way. Each piece carries an error estimate from a
lower-order rule. The rule orders, panel counts and panel-growth settings
are module constants: every caller uses the same ones.

The rules depend on (beta, edges) alone, so a RulePlan builds them before
any integrand is read, after the plan-then-execute model of FFTW (M. Frigo
& S. G. Johnson, Proc. IEEE 93(2), 2005): nodes, weights and h^(-1-beta)
at the Gauss nodes. weighted_singular reads the plan it is handed and
keeps nothing: a grid's point quadratures share one plan per (grid, beta)
(fields.GridField.point_expansion), and J plans its per-y edges afresh.

An integrand may return one row per base point, shape (m, k) for k nodes;
the result then holds per-row arrays, and each row equals a lone call bit
for bit.
"""
from __future__ import annotations

from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np
from scipy.special import roots_jacobi

# weighted_singular's rules, each paired with a lower order for its error
# estimate: Gauss-Jacobi on the inner disc, Gauss-Legendre on the first
# NEAR_CELLS middle panels and a lower order beyond them, and TAIL_PANELS
# dyadic panels of TAIL_ORDER nodes in the tail's substituted variable
INNER_ORDER = 12
GAUSS_ORDER = 8
FAR_ORDER = 4
NEAR_CELLS = 32
TAIL_PANELS = 48
TAIL_ORDER = 8
# grid_cell_edges: one panel per cell for the first EXACT_CELLS cells, then
# widths growing by GROWTH per panel
EXACT_CELLS = 128
GROWTH = 1.06
# log_panel_edges: panels per decade, and the linear refinement's half-width
# and step around its feature
LOG_PER_DECADE = 24
REFINE_HALFWIDTH = 3.0
REFINE_STEP = 0.125
# golden_section_max's iteration cap
GOLDEN_ITERATIONS = 200


class QuadResult(NamedTuple):
    """Value with an error estimate; diverged flags non-finite integrands.

    value and error are arrays for a batched quadrature, one entry per row;
    diverged then says whether any row diverged, and a diverged row carries
    an infinite error.
    """

    value: float
    error: float
    diverged: bool = False

    def __add__(self, other):
        if isinstance(other, QuadResult):
            return QuadResult(self.value + other.value, self.error + other.error,
                              self.diverged or other.diverged)
        return NotImplemented

    def scaled(self, a: float) -> "QuadResult":
        return QuadResult(a * self.value, abs(a) * self.error, self.diverged)


@lru_cache(maxsize=64)
def _leggauss(order: int):
    # a cached rule is shared by every caller, so it is read-only
    x, w = np.polynomial.legendre.leggauss(order)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def gauss_panels(lo: np.ndarray, hi: np.ndarray, order: int):
    """Gauss-Legendre rule of the given order on each panel [lo, hi].

    Returns (nodes, half-widths, weights): nodes has one row per panel, and
    sum over panels of half * (f(nodes) @ weights) integrates f.
    """
    x, w = _leggauss(order)
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    return mid[:, None] + half[:, None] * x[None, :], half, w


@lru_cache(maxsize=64)
def _jacobi(order: int, one_minus_beta: float):
    # weight (1+x)^(1-beta) on [-1, 1]; valid for beta < 2
    x, w = roots_jacobi(order, 0.0, one_minus_beta)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for 1-d b, each row reduced like np.dot(row, b): one
    matrix-vector product over all rows would round differently."""
    return np.matmul(a[..., None, :], b)[..., 0]


def _stacked(node_sets: list) -> tuple:
    """The nodes of every set as one read-only vector, the offsets that
    split it back into sets, and each set's shape."""
    nodes = np.concatenate([H.ravel() for H in node_sets])
    nodes.flags.writeable = False
    return (nodes, np.cumsum([H.size for H in node_sets])[:-1],
            [H.shape for H in node_sets])


def _batched(G: Callable, nodes: np.ndarray, ends: np.ndarray,
             shapes: list) -> list:
    """G read once on the _stacked nodes, handed back as one fresh array
    per set, shaped like the set (rows of a row-valued G in front)."""
    vals = G(nodes)
    return [np.array(v).reshape(vals.shape[:-1] + shape)
            for v, shape in zip(np.split(vals, ends, axis=-1), shapes)]


def _panel_sum(vals: np.ndarray, weight: np.ndarray, half: np.ndarray,
               w: np.ndarray):
    """The Gauss panels' sum of F(h) h^(-1-beta), from F on their nodes
    and weight = h^(-1-beta) there; no panels sum to 0.0."""
    if weight.size == 0:
        return 0.0
    return _rowdot((vals * weight) @ w, half)


def _tail_rule(R: float, beta: float, order: int):
    """Nodes in h, half-widths and weights of the tail's panels in v."""
    v_hi = 2.0 ** -np.arange(TAIL_PANELS)
    V, half, w = gauss_panels(v_hi / 2.0, v_hi, order)
    return R * V ** (-1.0 / beta), half, w


def _tail_sum(vals: np.ndarray, scale: float, half: np.ndarray,
              w: np.ndarray):
    """int_R^inf F(h) h^(-1-beta) dh from F on _tail_rule's nodes, for
    scale = R^-beta/beta.

    Substituting v = (R/h)^beta maps the tail to (R^-beta/beta) int_0^1
    F(R v^(-1/beta)) dv, integrated on geometrically refined panels toward
    v = 0 so logarithmically growing F converges cleanly. Returns (value,
    remainder bound), per row for row-valued F.
    """
    body = _rowdot(vals @ w, half)
    # remainder below the last panel: F grows at most logarithmically there
    v_min = 2.0 ** -TAIL_PANELS
    f_last = np.mean(vals[..., -1, :], axis=-1)
    rem = np.abs(f_last) * v_min
    return scale * body, scale * rem


class RulePlan:
    """weighted_singular's rules for (beta, edges), built before any
    integrand is read: the two Jacobi rules' nodes on the inner disc,
    stacked, and their weights; the six rules beyond it -- the near and
    far Gauss panels at both orders and the tail at both -- with their
    nodes stacked into the one read-only vector F is called on, and each
    Gauss rule's h^(-1-beta) at its nodes. edges are increasing panel
    edges, and edges[0] > 0 is the inner disc's radius; the plan keeps a
    read-only copy of them.
    """

    def __init__(self, beta: float, edges: np.ndarray):
        self.edges = edges = np.array(edges, dtype=float)
        edges.flags.writeable = False
        delta, R = float(edges[0]), float(edges[-1])
        jacobi = [_jacobi(order, 1.0 - beta) for order in (INNER_ORDER,
                                                            INNER_ORDER - 4)]
        self.disc = _stacked([delta * (x + 1.0) / 2.0 for x, _ in jacobi])
        self.disc_w = [w for _, w in jacobi]
        self.disc_scale = (delta / 2.0) ** (2.0 - beta)

        lo, hi = edges[:-1], edges[1:]
        k = min(NEAR_CELLS, len(lo))
        near, far, near_lo, far_lo = (
            gauss_panels(lo[:k], hi[:k], GAUSS_ORDER),
            gauss_panels(lo[k:], hi[k:], FAR_ORDER),
            gauss_panels(lo[:k], hi[:k], GAUSS_ORDER // 2),
            gauss_panels(lo[k:], hi[k:], FAR_ORDER // 2))
        tail, tail_lo = (_tail_rule(R, beta, TAIL_ORDER),
                         _tail_rule(R, beta, TAIL_ORDER // 2))
        # far_lo comes last: it is the one rule whose node count may not be
        # a multiple of 4, and BLAS's gemv rounds a trailing 1-3 rows of a
        # call its own way, so an integrand that reduces its rows in blocks
        # of a multiple of 4 rows (J's sphere sum) rounds each row as on its
        # own rule
        self.nodes = _stacked([H for H, _, _ in (near, far, near_lo, tail,
                                                  tail_lo, far_lo)])
        self.panels = [(H ** (-1.0 - beta), half, w)
                       for H, half, w in (near, far, near_lo, far_lo)]
        self.tails = [tail[1:], tail_lo[1:]]
        self.tail_scale = R ** -beta / beta


def weighted_singular(F: Callable, F2: Callable, plan: RulePlan) -> QuadResult:
    """Assemble int_0^inf F(h) h^(-1-beta) dh on the plan's (beta, edges).

    F      integrand numerator on [edges[0], infinity), vectorized; it must
           apply the declared far-field rule beyond edges[-1]
    F2     F(h)/h^2 on the inner disc (0, edges[0]), stable as h -> 0

    F is called once, on the plan's stacked nodes beyond the disc, and F2
    once, on both Jacobi rules. Integrands returning shape (m, k) for k
    nodes give per-row value and error arrays, one row per base point; 1-d
    integrands give floats.
    """
    inner, inner_lo = (plan.disc_scale * _rowdot(v, w) for v, w in
                       zip(_batched(F2, *plan.disc), plan.disc_w))
    v_near, v_far, v_near_lo, v_tail, v_tail_lo, v_far_lo = _batched(
        F, *plan.nodes)
    near, far, near_lo, far_lo = plan.panels
    mid = _panel_sum(v_near, *near) + _panel_sum(v_far, *far)
    mid_lo = _panel_sum(v_near_lo, *near_lo) + _panel_sum(v_far_lo, *far_lo)
    tl, tl_rem = _tail_sum(v_tail, plan.tail_scale, *plan.tails[0])
    tl_lo, _ = _tail_sum(v_tail_lo, plan.tail_scale, *plan.tails[1])

    pieces = np.array([inner, mid, tl])
    finite = np.isfinite(pieces)
    diverged = ~np.all(finite, axis=0)
    value = np.nansum(np.where(finite, pieces, 0.0), axis=0)
    with np.errstate(invalid="ignore"):  # diverged rows: inf - inf
        err = (np.abs(inner - inner_lo) + np.abs(mid - mid_lo)
               + np.abs(tl - tl_lo) + tl_rem + 1e-15 * np.abs(value))
    err = np.where(diverged, np.inf, err)
    if value.ndim == 0:
        value, err = float(value), float(err)
    return QuadResult(value, err, bool(np.any(diverged)))


def grid_cell_edges(spacing: float, cutoff: float,
                    max_width: float | None = None) -> np.ndarray:
    """Panel edges from one grid cell, spacing, out to cutoff > spacing.

    One panel per grid cell near the singularity (where the weight varies
    fastest), then geometrically widening panels so that wide grids do not
    cost one Gauss rule per cell; widths are capped at cutoff/16 unless the
    caller passes a tighter max_width > 0 (oscillatory fields need panels
    that resolve the oscillation period out to the cutoff).
    """
    if max_width is not None and not max_width > 0:  # NaN fails it too
        raise ValueError("max_width must be > 0")
    edges = [spacing]
    w = spacing
    k = 0
    w_cap = max(cutoff / 16.0, spacing)
    if max_width is not None:
        w_cap = max(min(w_cap, max_width), spacing)
    while edges[-1] < cutoff:
        if k >= EXACT_CELLS:
            w = min(w * GROWTH, w_cap)
        edges.append(min(edges[-1] + w, cutoff))
        k += 1
    return np.asarray(edges)


def log_panel_edges(delta: float, R: float,
                    refine_center: float | None = None) -> np.ndarray:
    """Log-spaced panel edges on [delta, R], linearly refined near a feature.

    Used for smooth radial integrands whose only structure away from the
    origin sits near |h| = refine_center (an argument sign change).
    """
    n = max(2, int(np.ceil(LOG_PER_DECADE * np.log10(R / delta))))
    edges = np.geomspace(delta, R, n + 1)
    if refine_center is not None and refine_center > 0:
        lo = max(delta, refine_center - REFINE_HALFWIDTH)
        hi = min(R, refine_center + REFINE_HALFWIDTH)
        if hi > lo:
            k = int(np.ceil((hi - lo) / REFINE_STEP))
            extra = np.linspace(lo, hi, k + 1)
            edges = np.unique(np.concatenate([edges, extra]))
    return edges


def golden_section_max(f: Callable[[float], float], a: float, b: float,
                       tol: float) -> tuple[float, float]:
    """Locate the maximum of a unimodal f on [a, b] to a bracket of tol.

    Returns (x_star, f(x_star)). Iteration count follows from the bracket
    contraction rate log(tol/(b-a)) / log(invphi), capped at
    GOLDEN_ITERATIONS.
    """
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    invphi2 = (3.0 - np.sqrt(5.0)) / 2.0
    h = b - a
    if h <= tol:
        xm = 0.5 * (a + b)
        return xm, f(xm)
    c, d = a + invphi2 * h, a + invphi * h
    fc, fd = f(c), f(d)
    for _ in range(GOLDEN_ITERATIONS):
        if h <= tol:
            break
        if fc > fd:
            b, d, fd = d, c, fc
            h = b - a
            c = a + invphi2 * h
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            h = b - a
            d = a + invphi * h
            fd = f(d)
    return (c, fc) if fc > fd else (d, fd)
