"""Convexity gauge Upsilon and the non-local carre-du-champ built from it.

Everything downstream rests on Upsilon(z) = e^z - z - 1 >= 0 and the exact
per-jump identity

    Lambda(w, z) + z * Upsilon(log w - log z) ... collapses to

    L(log f) = Lf / f - Psi_Upsilon(log f)

which holds state-by-state for Markov generators and pointwise for the
fractional Laplacian. chain_rule_residual exposes that identity as a
computable check.

Each operator takes the generator L it uses: a MarkovChain, whose
off-diagonal entries Q(x, y) are the jump rates, or the order beta of
L = -(-Delta)^(beta/2) on the line, whose jumps carry the weight
c |y - x|^(-1-beta) with c = normalizing_constant(beta, 1).
"""
from __future__ import annotations

import numpy as np

from .fields import GridField
from .fraclap import frac_laplacian_point
from .markov import MarkovChain
from .singular import QuadResult, weighted_singular
from .stable import normalizing_constant

# below this |z| the alternating rounding of expm1(z) - z dominates; use the
# factored Taylor form instead (exact to < 1e-19 relative there)
_SERIES_CUT = 1e-4
_SERIES_CUT_SQ = 1e-3


def upsilon(z) -> np.ndarray:
    """Upsilon(z) = exp(z) - z - 1, accurate for all finite z."""
    z = np.asarray(z, dtype=float)
    if not np.all(np.isfinite(z)):
        raise ValueError("upsilon requires finite input")
    scalar = z.ndim == 0
    z = np.atleast_1d(z)
    out = np.empty_like(z)
    small = np.abs(z) < _SERIES_CUT
    zs = z[small]
    out[small] = 0.5 * zs * zs * (1.0 + zs / 3.0 * (1.0 + zs / 4.0 * (1.0 + zs / 5.0)))
    zb = z[~small]
    out[~small] = np.expm1(zb) - zb
    return float(out[0]) if scalar else out


def upsilon_over_sq(z) -> np.ndarray:
    """Upsilon(z) / z^2, extended by continuity to 1/2 at z = 0."""
    z = np.asarray(z, dtype=float)
    if not np.all(np.isfinite(z)):
        raise ValueError("upsilon_over_sq requires finite input")
    scalar = z.ndim == 0
    z = np.atleast_1d(z)
    out = np.empty_like(z)
    small = np.abs(z) < _SERIES_CUT_SQ
    zs = z[small]
    out[small] = (0.5 + zs * (1.0 / 6.0 + zs * (1.0 / 24.0 + zs * (1.0 / 120.0 + zs / 720.0))))
    zb = z[~small]
    out[~small] = (np.expm1(zb) - zb) / (zb * zb)
    return float(out[0]) if scalar else out


def lambda_log(w, z) -> np.ndarray:
    """Concavity gap of the logarithm, log(w/z) - (w - z)/z for w, z > 0.

    Evaluated through the exact identity Lambda(w, z) = -Upsilon(log w - log z);
    the direct formula cancels catastrophically near w = z.
    """
    w = np.asarray(w, dtype=float)
    z = np.asarray(z, dtype=float)
    if np.any(w <= 0) or np.any(z <= 0):
        raise ValueError("lambda_log requires positive arguments")
    return -upsilon(np.log(w) - np.log(z))


def psi_upsilon_discrete(f, chain: MarkovChain, x: int) -> float:
    """Sum over jump targets y of Upsilon(f(y) - f(x)) * Q(x, y)."""
    f = np.asarray(f, dtype=float)
    n = chain.n
    if f.shape != (n,):
        raise ValueError(f"f must have shape ({n},)")
    return float(np.dot(chain.jump_rates(x), upsilon(f - f[x])))


def psi_upsilon_continuous(f: GridField, beta: float, x: float) -> QuadResult:
    """Psi_Upsilon(f)(x) = c * int Upsilon(f(y) - f(x)) |y - x|^(-1-beta) dy.

    c = normalizing_constant(beta, 1) makes c |y - x|^(-1-beta) the jump
    weight of L = -(-Delta)^(beta/2), beta in (0, 2). The two sides of x
    are the two rows of one weighted_singular call, with the tail following
    the field's extension model.
    Diverging tails (e.g. growing f under a constant extension) come back
    with error = inf rather than raising.
    """
    c = normalizing_constant(beta, 1)
    exp = f.point_expansion(x, beta)

    # rows x + h and x - h: F(h) = Upsilon(f(x +- h) - f(x)), off-grid
    # through the field's extension model; F2 = F / h^2 stays bounded at
    # h = 0 via the Taylor form
    F = lambda h: upsilon(np.stack(exp.far(h)) - exp.f_x)

    def F2(h):
        d_over_h = np.stack([exp.near_over_h(s, h) for s in (1.0, -1.0)])
        return upsilon_over_sq(h * d_over_h) * d_over_h ** 2

    sides = weighted_singular(F, F2, exp.plan)
    # the rows are added in turn: summed inside F, they would round otherwise
    plus, minus = (QuadResult(v, e) for v, e in zip(sides.value, sides.error))
    budget = QuadResult(0.0, f.tail_model_error_budget(beta, x), sides.diverged)
    return (plus + minus + budget).scaled(c)


def chain_rule_residual(f, generator, x):
    """Residual of L(log f) - Lf/f + Psi_Upsilon(log f) at x.

    generator is a MarkovChain, with f positive on its states: an exact
    arithmetic identity, returned as a float that should vanish to
    rounding. Otherwise it is beta, the order of L = -(-Delta)^(beta/2),
    with f a positive GridField: the three terms are quadratures, and the
    QuadResult's error combines their estimates.
    """
    if isinstance(generator, MarkovChain):
        f = np.asarray(f, dtype=float)
        if np.any(f <= 0):
            raise ValueError("f must be positive for the logarithmic identity")
        w = generator.jump_rates(x)
        logf = np.log(f)
        L_log = float(np.dot(w, logf - logf[x]))
        Lf_over_f = float(np.dot(w, f - f[x])) / f[x]
        psi = psi_upsilon_discrete(logf, generator, x)
        return L_log - Lf_over_f + psi

    if not isinstance(f, GridField):
        raise TypeError("continuous chain_rule_residual expects a GridField")
    if not f.positive:
        raise ValueError("f must be a positive field")
    beta = generator
    logf = f.log()
    L_log = frac_laplacian_point(logf, beta, x)
    L_log = L_log.scaled(-1.0)  # generator L = -(-Delta)^(beta/2)
    Lf = frac_laplacian_point(f, beta, x).scaled(-1.0)
    fx = float(f.eval(x))
    psi = psi_upsilon_continuous(logf, beta, x)
    value = L_log.value - Lf.value / fx + psi.value
    error = L_log.error + Lf.error / abs(fx) + psi.error
    return QuadResult(value, error, L_log.diverged or Lf.diverged or psi.diverged)
