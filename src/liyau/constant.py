"""The sharp constant of the kernel inequality and its radial functional J.

With L = log Phi_beta, the functional

    J(y) = int (2 L(|Y|) - L(|Y + sigma|) - L(|Y - sigma|)) |sigma|^(-d-beta) dsigma

depends on |Y| only; the constant equals (c_{beta,d}/2) sup_y J(y), and the
self-similar structure of the kernel turns the time-t inequality into the
t = 1 functional evaluated at |x| t^(-1/beta). For beta = 1 a closed form
pins down the constant in every dimension and anchors the numeric path.

The search's two settings are SearchSpec's radial scan, y_max and nodes
(the liyau-const flags). J's panel layout and the refinement's tolerance
are fixed: default_inner_radius, singular.LOG_PER_DECADE and REFINE_TOL.
"""
from __future__ import annotations

from dataclasses import astuple, dataclass, field as dc_field
from functools import lru_cache

import numpy as np

from .singular import (QuadResult, RulePlan, gauss_panels, golden_section_max,
                       log_panel_edges, weighted_singular)
from .stable import StableDensityProfile, ball_volume, normalizing_constant

# angular resolutions; the integrand is entire in the angle
THETA_NODES_D2 = 128
MU_ORDER_D3 = 64

# below this displacement the log-profile is replaced by its second-order
# Taylor expansion at y (relative to 1 + y to stay scale-aware)
_TAYLOR_THR = 1e-4
# interval width at which the golden-section refinement of sup J stops
REFINE_TOL = 1e-3
# J_of_y hands _sphere_deficit at most this many points (radii times angular
# nodes) at a time, so that each of its temporaries is 64 KB: small enough
# that the search's speed does not depend on what the process freed before
# it. The rows of a block are a multiple of 4 (see weighted_singular)
ROW_BLOCK = 8192


@dataclass(frozen=True)
class SearchSpec:
    """Radial scan of the constant's search: nodes radii from 0 to y_max."""

    y_max: float = 50.0
    nodes: int = 49


@dataclass
class LiYauConstantResult:
    beta: float
    d: int
    value: float
    error: float
    y_star: float
    j_table: list = dc_field(default_factory=list)  # (y, J, err) rows
    method: str = "numeric"
    warning: str | None = None


@lru_cache(maxsize=None)
def _angular_rule(d: int):
    """(mu_nodes, weights) with sum(weights) = |S^(d-1)|, built once per d.

    W(rho) = sum_i w_i * pair(rho, mu_i) discretizes the sphere integral.
    For d = 2, 3 the rule is folded by its +-mu symmetry: mu[::-1] == -mu
    exactly and the weights are symmetric, so |Y - rho mu_i| is
    |Y + rho mu_(n-1-i)|. d = 3 is the Gauss rule on [-1, 1], antisymmetric
    as it stands. d = 2 is the midpoint rule in theta, whose cos theta_k
    takes each value four times up to sign: kept are the N/4 values below
    theta = pi/2 and their exact negatives, each weighted for its two nodes.
    """
    if d == 1:
        mu, w = np.array([1.0]), np.array([2.0])
    elif d == 2:
        theta = (np.arange(THETA_NODES_D2 // 4) + 0.5) * 2.0 * np.pi / THETA_NODES_D2
        half = np.cos(theta)
        mu = np.concatenate([half, -half[::-1]])
        w = np.full(mu.size, 4.0 * np.pi / THETA_NODES_D2)
    elif d == 3:
        # the Gauss rule on the one panel [-1, 1]
        nodes, _, gw = gauss_panels(np.array([-1.0]), np.array([1.0]), MU_ORDER_D3)
        mu, w = nodes[0], 2.0 * np.pi * gw
    else:
        raise ValueError("d must be 1, 2, or 3")
    mu.flags.writeable = w.flags.writeable = False
    return mu, w


def _sphere_deficit(profile: StableDensityProfile, y: float, derivs: tuple,
                    rho: np.ndarray, desingularized: bool) -> np.ndarray:
    """W(rho) = int_{S^{d-1}} (2L(y) - L(|Y+rho w|) - L(|Y-rho w|)) dw.

    derivs is profile.log_derivs(y), (L, L', L'') at y, which the caller
    reads once per y. The displaced radii come from the cancellation-free
    form a - y = (2 y rho mu + rho^2)/(a + y); once both displacements drop
    below the Taylor threshold thr the log-derivatives at y take over, which
    keeps W/rho^2 meaningful down to rho = 0 (desingularized = True divides
    the quadratic vanishing out exactly). By the parallelogram law,
    rho^2 = y (d+ + d-) + (d+^2 + d-^2)/2 for the displacements d+- of one
    node, so a row with rho^2 >= 2 y thr + thr^2 holds no Taylor point; the
    displacements and the threshold mask are formed only on the rows below
    twice that bound.

    The log-profile is evaluated once per distinct radius: for d = 2 and 3
    the folded angular rule makes the minus side the column mirror
    [:, ::-1] of the plus side (same floats as evaluating it), so only
    |Y + rho mu_i| is evaluated; d = 1 evaluates both sides of its one node
    in one call, as the columns of mu and -mu.
    """
    mu, w = _angular_rule(profile.d)
    Ly, L1, L2 = derivs
    P = rho[:, None]
    M = np.array([1.0, -1.0]) if profile.d == 1 else mu

    def sides(X):
        # the plus side and the minus side of the columns of X
        return (X[:, :1], X[:, 1:]) if profile.d == 1 else (X, X[:, ::-1])

    # t = a^2 - y^2 for a = |Y + rho M|, so that a - y = t / (a + y)
    t = 2.0 * y * P * M
    t += P * P
    a = y * y + t
    np.maximum(a, 0.0, out=a)
    np.sqrt(a, out=a)
    Lp, Lm = sides(profile.log_value(a))

    thr = _TAYLOR_THR * (1.0 + y)
    rows = rho * rho < 2.0 * (2.0 * y * thr + thr * thr)
    taylor = None
    if rows.any():
        ay = a[rows] + y
        dap, dam = sides(np.where(ay > 0, t[rows] / ay, 0.0))
        small = (np.abs(dap) < thr) & (np.abs(dam) < thr)
        if small.any():
            s1 = dap[small] + dam[small]
            s2 = dap[small] ** 2 + dam[small] ** 2
            i, j = np.nonzero(small)
            taylor = (np.flatnonzero(rows)[i], j), -(L1 * s1 + 0.5 * L2 * s2)
    # S = 2 L(y) - L(a+) - L(a-), into t's array where it has t's shape
    S = np.subtract(2.0 * Ly, Lp, out=t if profile.d > 1 else None)
    S -= Lm
    if taylor is not None:
        S[taylor[0]] = taylor[1]
    W = S @ w
    if desingularized:
        return W / (rho * rho)
    return W


def default_inner_radius(y: float) -> float:
    """Split radius keeping the inner disc clear of the |Y - sigma| = 0 ridge."""
    if y == 0.0:
        return 0.1
    return min(0.1, max(y / 4.0, 1e-3))


def J_of_y(profile: StableDensityProfile, y_norm: float) -> QuadResult:
    """J at radius |y| = y_norm, with error estimate.

    Inner disc of radius default_inner_radius(y_norm): Gauss-Jacobi on
    W/rho^2 (the integrand vanishes quadratically). Middle: LOG_PER_DECADE
    log panels per decade out to max(100, 8 (1 + y_norm)), refined around
    rho = y_norm, where the second displaced radius crosses zero. Tail:
    power substitution, on the profile's large-r series beyond its table.
    The integrand reads its radii ROW_BLOCK sphere points at a time.
    """
    if y_norm < 0:
        raise ValueError("y_norm must be non-negative")
    y = float(y_norm)
    delta = default_inner_radius(y)
    R = max(100.0, 8.0 * (1.0 + y))
    edges = log_panel_edges(delta, R, refine_center=y if y > delta else None)

    derivs = profile.log_derivs(y)
    # points per radius: the angular nodes, or d = 1's two sides
    rows = ROW_BLOCK // max(_angular_rule(profile.d)[0].size, 2)

    def deficit(desingularized):
        return lambda rho: np.concatenate([
            _sphere_deficit(profile, y, derivs, rho[i:i + rows], desingularized)
            for i in range(0, rho.size, rows)])

    res = weighted_singular(deficit(False), deficit(True),
                            RulePlan(profile.beta, edges))
    # profile tabulation error enters linearly through the log values
    res = QuadResult(res.value,
                     res.error + 4.0 * profile.error_estimate * (1.0 + abs(res.value)),
                     res.diverged)
    if res.value < 0:
        # locally negative log-ratio mass dominated; widen rather than hide
        res = QuadResult(res.value, max(res.error, -res.value), res.diverged)
    return res


def liyau_constant_numeric(profile: StableDensityProfile,
                           search: SearchSpec | None = None) -> LiYauConstantResult:
    """Maximize (c/2) J over |y| >= 0: log-spaced scan + golden refinement."""
    spec = search or SearchSpec()
    c = normalizing_constant(profile.beta, profile.d)
    ys = np.concatenate([[0.0], np.geomspace(1e-2, spec.y_max, spec.nodes - 1)])
    evals = {}  # every J the scan and the refinement compute, by y

    def J(y):
        evals[y] = J_of_y(profile, y)
        return evals[y]

    table = [(float(y),) + tuple(J(y)[:2]) for y in ys]
    js = np.array([row[1] for row in table])
    k = int(np.argmax(js))
    lo = ys[k - 1] if k > 0 else 0.0
    hi = ys[k + 1] if k + 1 < len(ys) else ys[-1]

    warning = None
    if k == len(ys) - 1:
        warning = "maximum sits on the search boundary; enlarge y_max"
    y_star, j_star = golden_section_max(
        lambda y: J(y).value, lo, hi, tol=REFINE_TOL)
    if j_star < js[k]:
        # scan node wins: the maximum sits on a node (often y = 0, where the
        # even profile peaks); keep it, no pathology
        y_star, j_star = float(ys[k]), float(js[k])
    # y_star is a node the scan or the refinement evaluated
    err_star = evals[y_star].error
    value = 0.5 * c * j_star
    error = 0.5 * c * (err_star + abs(j_star) * 1e-6)
    return LiYauConstantResult(beta=profile.beta, d=profile.d, value=value,
                               error=error, y_star=float(y_star),
                               j_table=table, method="numeric", warning=warning)


def liyau_constant_beta1(d: int) -> float:
    """Closed form at beta = 1: pi d (d+1) c_{1,d} omega_d / 2."""
    if d < 1:
        raise ValueError("d must be a positive integer")
    return np.pi * d * (d + 1) * normalizing_constant(1.0, d) * ball_volume(d) / 2.0


# constant_for keeps at most this many results, oldest dropped first
CACHE_SIZE = 64
_CONSTANT_CACHE: dict[tuple, LiYauConstantResult] = {}


def constant_for(profile: StableDensityProfile,
                 search: SearchSpec | None = None) -> LiYauConstantResult:
    """Numeric constant memoized on everything the search reads: (beta, d),
    which fix the large-r series, the profile's table and the spec (None:
    the default)."""
    key = (profile.beta, profile.d, profile.r_table.tobytes(),
           profile.values.tobytes(), profile.error_estimate,
           astuple(search or SearchSpec()))
    if key in _CONSTANT_CACHE:
        return _CONSTANT_CACHE[key]
    result = liyau_constant_numeric(profile, search)
    if len(_CONSTANT_CACHE) >= CACHE_SIZE:
        del _CONSTANT_CACHE[next(iter(_CONSTANT_CACHE))]
    _CONSTANT_CACHE[key] = result
    return result


def heat_kernel_liyau_margin(profile: StableDensityProfile, t: float,
                             x) -> QuadResult:
    """Slack of the kernel inequality at (t, x): C/t - (-Delta)^(beta/2) log G.

    Self-similarity reduces the time-t operator to the t = 1 functional:
    the margin equals (C - (c/2) J(|x| t^(-1/beta))) / t, so positivity at
    every t follows from the single radial profile of J.
    """
    if not t > 0:
        raise ValueError("t must be positive")
    x = np.asarray(x, dtype=float)
    r = float(np.sqrt(np.sum(x ** 2))) if x.ndim else float(abs(x))
    const = constant_for(profile)
    c = normalizing_constant(profile.beta, profile.d)
    j = J_of_y(profile, r * t ** (-1.0 / profile.beta))
    value = (const.value - 0.5 * c * j.value) / t
    error = (const.error + 0.5 * c * j.error) / t
    return QuadResult(value, error, j.diverged)
