"""Convexity gauge Upsilon and the non-local carre-du-champ built from it.

Everything downstream rests on Upsilon(z) = e^z - z - 1 >= 0 and the exact
per-jump identity

    Lambda(w, z) + z * Upsilon(log w - log z) ... collapses to

    L(log f) = Lf / f - Psi_Upsilon(log f)

which holds state-by-state for Markov generators and pointwise for the
fractional Laplacian. chain_rule_residual exposes that identity as a
computable check.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import GridField
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


@dataclass(frozen=True)
class JumpKernel:
    """Either the continuous beta-stable kernel or a discrete rate table.

    kind 'continuous': jumps weighted by c * |y - x|^(-d-beta).
    kind 'discrete': rates[i, j] is the jump rate from state i to j.
    """

    kind: str
    beta: float | None = None
    dim: int | None = None
    normalization: float | None = None
    rates: np.ndarray | None = None

    @classmethod
    def continuous(cls, beta: float, dim: int,
                   normalization: float | None = None) -> "JumpKernel":
        if not 0 < beta < 2:
            raise ValueError("beta must lie in (0, 2)")
        if dim < 1:
            raise ValueError("dim must be a positive integer")
        c = normalization if normalization is not None else normalizing_constant(beta, dim)
        if not c > 0:
            raise ValueError("normalization must be positive")
        return cls(kind="continuous", beta=float(beta), dim=int(dim),
                   normalization=float(c))

    @classmethod
    def discrete(cls, rates, states: int | None = None) -> "JumpKernel":
        rates = np.asarray(rates, dtype=float)
        if rates.ndim != 2 or rates.shape[0] != rates.shape[1]:
            raise ValueError("rates must be a square matrix")
        if states is not None and rates.shape[0] != states:
            raise ValueError("rates shape disagrees with states")
        off = rates.copy()
        np.fill_diagonal(off, 0.0)
        if np.any(off < 0):
            raise ValueError("off-diagonal rates must be non-negative")
        return cls(kind="discrete", rates=rates)

    @property
    def n_states(self) -> int:
        if self.kind != "discrete":
            raise AttributeError("n_states only defined for discrete kernels")
        return self.rates.shape[0]

    @property
    def c(self) -> float:
        if self.kind != "continuous":
            raise AttributeError("c only defined for continuous kernels")
        return self.normalization


def psi_upsilon_discrete(f, kernel: JumpKernel, x: int) -> float:
    """Sum over jump targets of Upsilon(f(y) - f(x)) * rate(x, y)."""
    if kernel.kind != "discrete":
        raise ValueError("psi_upsilon_discrete needs a discrete kernel")
    f = np.asarray(f, dtype=float)
    n = kernel.n_states
    if f.shape != (n,):
        raise ValueError(f"f must have shape ({n},)")
    if not 0 <= x < n:
        raise IndexError(f"state {x} outside 0..{n - 1}")
    diffs = f - f[x]
    w = kernel.rates[x].copy()
    w[x] = 0.0
    return float(np.dot(w, upsilon(diffs)))


def psi_upsilon_continuous(f: GridField, kernel: JumpKernel,
                           x: float) -> QuadResult:
    """Psi_Upsilon(f)(x) = c * int Upsilon(f(y) - f(x)) |y - x|^(-1-beta) dy.

    One-dimensional fields only; each side of x is handled by the weighted
    singular engine, with the tail following the field's extension model.
    Diverging tails (e.g. growing f under a constant extension) come back
    with error = inf rather than raising.
    """
    if kernel.kind != "continuous":
        raise ValueError("psi_upsilon_continuous needs a continuous kernel")
    if kernel.dim != 1:
        raise ValueError("kernel dimension must match the field (1-d)")
    edges = f.panel_edges()
    exp = f.point_expansion(x)
    total = QuadResult(0.0, 0.0)
    # side s: F(h) = Upsilon(f(x + s h) - f(x)), off-grid through the field's
    # extension model; F2 = F / h^2 stays bounded at h = 0 via the Taylor form
    for s in (+1.0, -1.0):
        def F(h, s=s):
            return upsilon(exp.diff(s, h))

        def F2(h, s=s):
            d = exp.diff(s, h)
            return upsilon_over_sq(d) * exp.diff_over_h(s, h) ** 2

        total = total + weighted_singular(F, F2, kernel.beta, f.spacing, edges)
    total = total + QuadResult(0.0, f.tail_model_error_budget(kernel.beta, x))
    return total.scaled(kernel.c)


def chain_rule_residual(f, kernel: JumpKernel, x):
    """Residual of L(log f) - Lf/f + Psi_Upsilon(log f) at x.

    Discrete kernels: exact arithmetic identity, returns a float that should
    vanish to rounding. Continuous kernels: f is a positive GridField and the
    three terms are quadratures; returns a QuadResult whose error field
    combines the individual estimates.
    """
    if kernel.kind == "discrete":
        f = np.asarray(f, dtype=float)
        if np.any(f <= 0):
            raise ValueError("f must be positive for the logarithmic identity")
        n = kernel.n_states
        if not 0 <= x < n:
            raise IndexError(f"state {x} outside 0..{n - 1}")
        w = kernel.rates[x].copy()
        w[x] = 0.0
        logf = np.log(f)
        L_log = float(np.dot(w, logf - logf[x]))
        Lf_over_f = float(np.dot(w, f - f[x])) / f[x]
        psi = psi_upsilon_discrete(logf, kernel, x)
        return L_log - Lf_over_f + psi

    from .fraclap import frac_laplacian_point  # local: avoids an import cycle

    if not isinstance(f, GridField):
        raise TypeError("continuous chain_rule_residual expects a GridField")
    if not f.positive:
        raise ValueError("f must be a positive field")
    logf = f.log()
    L_log = frac_laplacian_point(logf, kernel.beta, x, normalization=kernel.c)
    L_log = L_log.scaled(-1.0)  # generator L = -(-Delta)^(beta/2)
    Lf = frac_laplacian_point(f, kernel.beta, x,
                              normalization=kernel.c).scaled(-1.0)
    fx = float(f.eval(x))
    psi = psi_upsilon_continuous(logf, kernel, x)
    value = L_log.value - Lf.value / fx + psi.value
    error = L_log.error + Lf.error / abs(fx) + psi.error
    return QuadResult(value, error, L_log.diverged or Lf.diverged or psi.diverged)
