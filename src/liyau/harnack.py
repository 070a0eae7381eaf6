"""Harnack-bound calculators and solution-based checks.

Three settings: the complete graph (integral of the closed-form phi), the
fractional heat equation (every constant of the proof assembled explicitly,
including the M(alpha, d, beta) the source argument only asserts to exist),
and the classical Gaussian bound as a plumbing reference.
"""
from __future__ import annotations

import time

import numpy as np
from scipy.special import spence

from .constant import LiYauConstantResult, constant_for
from .fields import GridField
from .fraclap import solve_fractional_at
from .markov import complete_graph, solve_markov
from .stable import StableDensityProfile, ball_volume, normalizing_constant
from .verify import VerificationReport

KN_TOL = 1e-10


# ---- complete graph ---------------------------------------------------------

def harnack_rhs_kn(n: int, t1: float, t2: float) -> float:
    """log-Harnack constant on K_n: int_t1^t2 phi(t) dt + 2/(t2 - t1)."""
    return harnack_integral_term_kn(n, t1, t2) + 2.0 / (t2 - t1)


def harnack_integral_term_kn(n: int, t1: float, t2: float) -> float:
    """Just the phi integral (monotone in t1; the full bound is not).

    In closed form, with u = e^(-n t) and Li2(x) = spence(1 - x):
    int phi dt = ((n-1)/n) [Li2(-(n-1) u) - Li2(u)], from t1 to t2.
    """
    if not 0 < t1 < t2:
        raise ValueError("need 0 < t1 < t2")

    def antiderivative(t):
        # 1 - u as -expm1(-n t), exact for small n t
        return spence(1.0 + (n - 1) * np.exp(-n * t)) - spence(-np.expm1(-n * t))

    return float((n - 1) / n * (antiderivative(t2) - antiderivative(t1)))


def harnack_check_kn(n: int, u0, t1: float, t2: float) -> VerificationReport:
    """log u(t1,x1) - log u(t2,x2) <= rhs for every state pair."""
    start = time.perf_counter()
    chain = complete_graph(n)
    ua = np.log(solve_markov(chain, u0, t1))
    ub = np.log(solve_markov(chain, u0, t2))
    rhs = harnack_rhs_kn(n, t1, t2)
    report = VerificationReport(name="harnack-kn",
                                params={"n": n, "t1": t1, "t2": t2})
    for x1 in range(n):
        for x2 in range(n):
            report.add_sample(rhs - (ua[x1] - ub[x2]), KN_TOL)
    report.runtime = time.perf_counter() - start
    return report


# ---- fractional: the explicit proof constants -------------------------------

def admissible_alpha(alpha: float, beta: float, d: int) -> bool:
    return alpha > 0.5 * max(0.0, d / beta - 1.0)


def default_alpha(beta: float, d: int) -> float:
    """The suggested weight exponent alpha = d/beta."""
    return d / beta


def eta_weight(t, t1: float, t2: float, alpha: float) -> np.ndarray:
    """Tent-like time weight (t-t1)^alpha then (t2-t)^alpha, peak at t*."""
    t = np.asarray(t, dtype=float)
    t_star = 0.5 * (t1 + t2)
    return np.where(t < t_star, (t - t1) ** alpha, (t2 - t) ** alpha)


def eta_tail_integral(t, t1: float, t2: float, alpha: float) -> np.ndarray:
    """int_t^t2 of the weight, closed form on both branches."""
    t = np.asarray(t, dtype=float)
    t_star = 0.5 * (t1 + t2)
    delta = t_star - t1
    # right branch written as eta(t) (t2-t)/(1+alpha): the factorization is
    # exact, and it keeps the A1 identity below exact in floating point too
    right = (t2 - t) ** alpha * (t2 - t) / (1.0 + alpha)
    left = (2.0 * delta ** (1.0 + alpha) - (t - t1) ** (1.0 + alpha)) / (1.0 + alpha)
    return np.where(t < t_star, left, right)


def factor_for_a1(t, t1: float, t2: float, alpha: float) -> np.ndarray:
    """eta(t)(t2-t)/(1+alpha) - int_t^t2 eta: identically 0 for t >= t*,
    negative and increasing on [t1, t*)."""
    t = np.asarray(t, dtype=float)
    return (eta_weight(t, t1, t2, alpha) * (t2 - t) / (1.0 + alpha)
            - eta_tail_integral(t, t1, t2, alpha))


def _averaged_square_terms(alpha: float, beta: float,
                           d: int) -> tuple[float, float, float]:
    """(K, p1, p2) with averaged-square term K (p1 Delta^(-1-d/beta) + p2)
    for Delta = (t2 - t1)/2."""
    if not admissible_alpha(alpha, beta, d):
        raise ValueError("alpha must exceed max{0, d/beta - 1}/2")
    c = normalizing_constant(beta, d)
    w = ball_volume(d)
    K = 2.0 ** (d + beta - 2.0) / c * (1.0 + alpha) / 2.0
    p1 = ((1.0 + alpha) ** (1.0 + d / beta) / (w ** (1.0 + d / beta) * c ** (d / beta))
          * (1.0 / alpha + 1.0 / (2.0 * alpha - d / beta + 1.0)))
    p2 = 2.0 * c / alpha + c / (2.0 * alpha + 1.0)
    return K, p1, p2


def fractional_m_constant(alpha: float, beta: float, d: int) -> float:
    """M(alpha, d, beta) in the factored bound M (1 + (t2-t1)^(-1-d/beta)).

    Assembled from the four-term time integral of the averaged-square
    estimate divided by the weight mass; the two Delta^(alpha-d/beta) terms
    supply the (t2-t1)^(-1-d/beta) coefficient, the two Delta^(1+alpha)
    terms the constant one.
    """
    K, p1, p2 = _averaged_square_terms(alpha, beta, d)
    return float(max(K * p2, K * p1 * 2.0 ** (1.0 + d / beta)))


def _log_harnack_head(t1: float, t2: float,
                      constant: LiYauConstantResult) -> float:
    """C_LY log(t2/t1) + 1, the part both fractional bounds share, for C_LY
    the constant's value."""
    if not 0 < t1 < t2:
        raise ValueError("need 0 < t1 < t2")
    return constant.value * np.log(t2 / t1) + 1.0


def harnack_bound_fractional(alpha: float, beta: float, d: int, t1: float,
                             t2: float, constant: LiYauConstantResult) -> float:
    """log-Harnack bound for |x1 - x2| <= 1:

        C_LY log(t2/t1) + 1 + [assembled averaged-square term],

    with C_LY the value of constant, e.g. constant_for(profile). The +1 is
    the weighted first average's exact contribution; the assembled term is
    bounded by M(alpha,d,beta)(1 + (t2-t1)^(-1-d/beta)).
    """
    head = _log_harnack_head(t1, t2, constant)
    K, p1, p2 = _averaged_square_terms(alpha, beta, d)
    delta = 0.5 * (t2 - t1)
    # exact assembled average (tighter than the factored M form)
    a2 = float(K * (p1 * delta ** (-1.0 - d / beta) + p2))
    return float(head + a2)


def harnack_m_form_bound(alpha: float, beta: float, d: int, t1: float,
                         t2: float, constant: LiYauConstantResult) -> float:
    """The looser factored form C_LY log(t2/t1) + 1 + M (1 + (t2-t1)^(-1-d/beta)),
    with C_LY the value of constant."""
    head = _log_harnack_head(t1, t2, constant)
    M = fractional_m_constant(alpha, beta, d)
    return float(head + M * (1.0 + (t2 - t1) ** (-1.0 - d / beta)))


def harnack_check_fractional(u0: GridField, beta: float, t1: float, t2: float,
                             x1: float, x2: float, alpha: float,
                             profile: StableDensityProfile) -> VerificationReport:
    """Solution-based check of the fractional Harnack bound (d = 1).

    Separations beyond 1 are handled by the exact rescaling u(lambda^beta t,
    lambda x), which shrinks |x1 - x2| to 1 and divides the times by
    lambda^beta; the bound is then evaluated at the rescaled times. Both
    points must lie on u0's grid, |x| <= X.
    """
    start = time.perf_counter()
    if not 0 < t1 < t2:
        raise ValueError("need 0 < t1 < t2")
    scale = max(abs(x1 - x2), 1.0) ** beta
    bound = harnack_bound_fractional(alpha, beta, 1, t1 / scale, t2 / scale,
                                     constant=constant_for(profile))
    # u at two points only: windowed solves, see solve_fractional_at
    ua = solve_fractional_at(u0, beta, t1, x1, profile)
    ub = solve_fractional_at(u0, beta, t2, x2, profile)
    lhs = float(np.log(ua) - np.log(ub))
    report = VerificationReport(
        name="harnack-fractional",
        params={"beta": beta, "alpha": alpha, "t1": t1, "t2": t2,
                "x1": x1, "x2": x2, "bound": bound, "lhs": lhs})
    # solver + interpolation allowance on the two log evaluations
    report.add_sample(bound - lhs, 1e-6 * (1.0 + abs(lhs)))
    report.runtime = time.perf_counter() - start
    return report


# ---- Gaussian reference -----------------------------------------------------

def gaussian_harnack_rhs(d: int, t1: float, t2: float, x1, x2) -> float:
    """(d/2) log(t2/t1) + |x1 - x2|^2 / (4 (t2 - t1))."""
    if not 0 < t1 < t2:
        raise ValueError("need 0 < t1 < t2")
    dx = np.asarray(x1, dtype=float) - np.asarray(x2, dtype=float)
    return float(d / 2.0 * np.log(t2 / t1) + np.dot(dx, dx) / (4.0 * (t2 - t1)))


def gaussian_kernel_log_ratio(d: int, t1: float, t2: float, x1, x2,
                              x0) -> float:
    """log of G_heat(t1, x1 - x0) / G_heat(t2, x2 - x0) for the classical kernel."""
    x1 = np.atleast_1d(np.asarray(x1, dtype=float))
    x2 = np.atleast_1d(np.asarray(x2, dtype=float))
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    q1 = float(np.dot(x1 - x0, x1 - x0))
    q2 = float(np.dot(x2 - x0, x2 - x0))
    return (-d / 2.0 * np.log(4.0 * np.pi * t1) - q1 / (4.0 * t1)
            + d / 2.0 * np.log(4.0 * np.pi * t2) + q2 / (4.0 * t2))


def gaussian_sharp_source(t1: float, t2: float, x1, x2) -> np.ndarray:
    """Source location maximizing the kernel log ratio: (t2 x1 - t1 x2)/(t2 - t1)."""
    x1 = np.atleast_1d(np.asarray(x1, dtype=float))
    x2 = np.atleast_1d(np.asarray(x2, dtype=float))
    return (t2 * x1 - t1 * x2) / (t2 - t1)
