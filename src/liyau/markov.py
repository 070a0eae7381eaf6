"""Finite-state continuous-time Markov chains and the complete-graph closed forms.

A chain is its Q-matrix (finite entries, non-negative off-diagonal rates,
rows summing to zero). The complete graph K_n admits closed forms for
everything downstream: transition probabilities, the logarithmic-derivative
bound phi, and the relaxation ODE phi' + F(phi) = 0 it satisfies. transition_matrix computes
e^{tQ} afresh at every call and keeps nothing; a symmetric chain's
eigendecomposition is computed once, when the chain is built.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

# entries of e^{tQ} in [-CLIP_NEG, 0) are rounding dust and get clipped
CLIP_NEG = 1e-14
ROWSUM_TOL = 1e-12


@dataclass
class MarkovChain:
    """Generator matrix Q. A chain whose Q equals its transpose exactly is
    symmetric, and keeps Q's eigendecomposition for e^{tQ}."""

    Q: np.ndarray

    def __post_init__(self):
        self.Q = np.asarray(self.Q, dtype=float)
        if self.Q.ndim != 2 or self.Q.shape[0] != self.Q.shape[1]:
            raise ValueError("Q must be square")
        if not np.all(np.isfinite(self.Q)):
            # a NaN passes every comparison below and poisons e^{tQ}
            raise ValueError("Q must be finite")
        off = self.Q.copy()
        np.fill_diagonal(off, 0.0)
        if np.any(off < 0):
            raise ValueError("off-diagonal rates must be non-negative")
        rowsums = self.Q.sum(axis=1)
        scale = max(1.0, float(np.abs(self.Q).max()))
        if np.any(np.abs(rowsums) > ROWSUM_TOL * scale):
            raise ValueError("rows of Q must sum to zero")
        # exact: eigh reads one triangle, so near-symmetric Q would lose
        # the other
        self.symmetric = bool(np.array_equal(self.Q, self.Q.T))
        if self.symmetric:
            self._eig = np.linalg.eigh(self.Q)
        else:
            self._eig = None

    @property
    def n(self) -> int:
        return self.Q.shape[0]

    @classmethod
    def from_rates(cls, rates) -> "MarkovChain":
        """Build Q from off-diagonal rates; the diagonal is derived."""
        rates = np.asarray(rates, dtype=float)
        Q = rates.copy()
        np.fill_diagonal(Q, 0.0)
        np.fill_diagonal(Q, -Q.sum(axis=1))
        return cls(Q)

    def jump_rates(self, x: int) -> np.ndarray:
        """Rates of the jumps out of state x: row x of Q, diagonal zeroed."""
        if not 0 <= x < self.n:
            raise IndexError(f"state {x} outside 0..{self.n - 1}")
        w = self.Q[x].copy()
        w[x] = 0.0
        return w


def complete_graph(n: int) -> MarkovChain:
    """Unweighted K_n: unit rate between every pair of distinct states."""
    if n < 2:
        raise ValueError("complete graph needs n >= 2")
    Q = np.ones((n, n)) - n * np.eye(n)
    return MarkovChain(Q)


def transition_matrix(chain: MarkovChain, t: float) -> np.ndarray:
    """e^{tQ}; eigendecomposition for symmetric Q, Pade core otherwise.

    Entries in [-1e-14, 0) are clipped to zero with a warning (the logarithm
    of p is needed downstream); anything more negative is a hard failure.
    """
    if not 0 <= t < np.inf:  # NaN or inf would pass every check below
        raise ValueError("t must be finite and non-negative")
    if chain.symmetric:
        lam, V = chain._eig
        P = (V * np.exp(t * lam)) @ V.T
    else:
        P = expm(t * chain.Q)
    if P.min() < -CLIP_NEG:
        raise RuntimeError(f"matrix exponential produced entry {P.min():.3e}")
    if P.min() < 0:
        warnings.warn("clipping negative rounding dust in e^{tQ}")
        P = np.where(P < 0, 0.0, P)
    if np.max(np.abs(P.sum(axis=1) - 1.0)) > ROWSUM_TOL:
        raise RuntimeError("rows of e^{tQ} failed to sum to 1")
    return P


def transition_kn(n: int, t: float) -> np.ndarray:
    """Closed-form e^{tQ} for K_n: diagonal (1+(n-1)E)/n, off-diagonal (1-E)/n."""
    if n < 2:
        raise ValueError("n must be >= 2")
    if not t >= 0:  # NaN passes t < 0 and every check after it
        raise ValueError("t must be non-negative")
    E = np.exp(-n * t)
    off = -np.expm1(-n * t) / n
    same = (1.0 + (n - 1) * E) / n
    return off * np.ones((n, n)) + (same - off) * np.eye(n)


def L_log_p_kn(n: int, t: float, same_site: bool) -> float:
    """-L(log p(t, ., y))(x) on K_n, closed form.

    same_site (x = y): (n-1) log((1+(n-1)e^{-nt})/(1-e^{-nt})); off-site is
    -1/(n-1) times that. The same-site value dominates for every t.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    if not t > 0:
        raise ValueError("t must be positive")
    E = np.exp(-n * t)
    # log1p/expm1 forms survive both t -> 0 and t -> inf
    core = np.log1p((n - 1) * E) - np.log(-np.expm1(-n * t))
    if same_site:
        return float((n - 1) * core)
    return float(-core)


def phi_kn(n: int, t: float) -> float:
    """The complete-graph bound on -L(log u): phi(t) = (n-1) log((1+(n-1)e^{-nt})/(1-e^{-nt}))."""
    return L_log_p_kn(n, t, same_site=True)


def phi_prime_kn(n: int, t: float) -> float:
    """Analytic phi'(t) = -n^2 (n-1) e^{-nt} / ((1+(n-1)e^{-nt})(1-e^{-nt}))."""
    if n < 2:
        raise ValueError("n must be >= 2")
    if not t > 0:
        raise ValueError("t must be positive")
    E = np.exp(-n * t)
    one_minus = -np.expm1(-n * t)
    return float(-(n ** 2) * (n - 1) * E / ((1.0 + (n - 1) * E) * one_minus))


def cd_function_F(n: int, r: float) -> float:
    """F(r) = (n-1)(e^{r/(n-1)} - (n-1) e^{-r/(n-1)} + n - 2)."""
    if n < 2:
        raise ValueError("n must be >= 2")
    s = r / (n - 1)
    return float((n - 1) * (np.exp(s) - (n - 1) * np.exp(-s) + n - 2))


def relaxation_residual(n: int, t: float) -> float:
    """phi'(t) + F(phi(t)); vanishes identically in exact arithmetic.

    The two routes are evaluated independently (analytic derivative versus
    the CD-function applied to phi), so the residual measures genuine
    floating-point cancellation, not tautology.
    """
    return phi_prime_kn(n, t) + cd_function_F(n, phi_kn(n, t))


def solve_markov(chain: MarkovChain, u0, t: float) -> np.ndarray:
    """u(t) = e^{tQ} u0 for positive initial data."""
    u0 = np.asarray(u0, dtype=float)
    if u0.shape != (chain.n,):
        raise ValueError(f"u0 must have shape ({chain.n},)")
    if np.any(u0 <= 0):
        raise ValueError("u0 must be positive")
    P = transition_matrix(chain, t)
    return P @ u0


def neg_L_log(chain: MarkovChain, v) -> np.ndarray:
    """-L(log v) componentwise; v must be strictly positive."""
    v = np.asarray(v, dtype=float)
    if np.any(v <= 0):
        raise ValueError("logarithm needs strictly positive entries")
    return -(chain.Q @ np.log(v))


def load_edge_list(text: str) -> MarkovChain:
    """Chain from 'src dst rate' lines (0-based states, # comments allowed)."""
    edges = {}
    n = 0
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ValueError(f"line {lineno}: expected 'src dst rate'")
        a, b, rate = int(parts[0]), int(parts[1]), float(parts[2])
        if a < 0 or b < 0 or a == b:
            raise ValueError(f"line {lineno}: bad edge ({a}, {b})")
        if rate < 0:
            raise ValueError(f"line {lineno}: negative rate")
        if (a, b) in edges:
            raise ValueError(f"line {lineno}: duplicate edge ({a}, {b})")
        edges[(a, b)] = rate
        n = max(n, a + 1, b + 1)
    if n < 2:
        raise ValueError("edge list defines fewer than two states")
    R = np.zeros((n, n))
    for (a, b), rate in edges.items():
        R[a, b] = rate
    return MarkovChain.from_rates(R)
