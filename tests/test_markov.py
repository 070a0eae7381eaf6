"""Finite-state chains: closed forms on K_n, the relaxation ODE, margins."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from liyau.markov import (MarkovChain, cd_function_F,
                          complete_graph, L_log_p_kn, load_edge_list,
                          neg_L_log, phi_kn, phi_prime_kn, relaxation_residual,
                          solve_markov, transition_kn, transition_matrix)

# frozen by hand: F(3, 2) = 2(e - 2/e + 1)
F_3_AT_2 = 5.9650458922323211843


# ---------------------------------------------------------------- chains

def test_chain_validation():
    with pytest.raises(ValueError, match="square"):
        MarkovChain(np.zeros((2, 3)))
    with pytest.raises(ValueError, match="non-negative"):
        MarkovChain(np.array([[1.0, -1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError, match="sum to zero"):
        MarkovChain(np.array([[-1.0, 2.0], [1.0, -1.0]]))


def test_from_rates_derives_diagonal():
    chain = MarkovChain.from_rates([[0.0, 2.0], [3.0, 0.0]])
    assert chain.Q[0, 0] == -2.0
    assert chain.Q[1, 1] == -3.0
    assert chain.n == 2


def test_complete_graph_structure():
    chain = complete_graph(4)
    assert chain.symmetric
    assert np.all(chain.Q.sum(axis=1) == 0.0)
    assert chain.Q[0, 0] == -3.0 and chain.Q[0, 1] == 1.0
    with pytest.raises(ValueError):
        complete_graph(1)


def test_load_edge_list():
    chain = load_edge_list("""
        # a weighted 3-cycle
        0 1 1.0
        1 2 2.0
        2 0 0.5
    """)
    assert chain.n == 3
    assert chain.Q[1, 2] == 2.0
    assert chain.Q[1, 1] == -2.0
    with pytest.raises(ValueError, match="expected"):
        load_edge_list("0 1\n")
    with pytest.raises(ValueError, match="duplicate"):
        load_edge_list("0 1 1.0\n0 1 2.0\n")
    with pytest.raises(ValueError, match="negative"):
        load_edge_list("0 1 -1.0\n")
    with pytest.raises(ValueError, match="fewer than two"):
        load_edge_list("# nothing\n")
    for rate in ("nan", "inf"):
        # each gave a chain whose e^{tQ} was all NaN
        with pytest.raises(ValueError, match="finite"):
            load_edge_list(f"0 1 {rate}\n1 0 1.0\n")


# ------------------------------------------------- transition semigroup

def test_transition_kn_matches_matrix_exponential():
    for n in range(2, 11):
        chain = complete_graph(n)
        for t in np.geomspace(1e-2, 10.0, 25):
            gap = np.abs(transition_kn(n, t) - transition_matrix(chain, t))
            assert gap.max() <= 1e-12


def test_k2_transition_anchor():
    # t = ln(2)/2 puts e^{-2t} at exactly 1/2
    P = transition_kn(2, np.log(2.0) / 2.0)
    assert P[0, 0] == pytest.approx(0.75, abs=1e-15)
    assert P[0, 1] == pytest.approx(0.25, abs=1e-15)


def test_transition_rows_are_probabilities():
    chain = load_edge_list("0 1 1.0\n1 0 1.0\n1 2 0.5\n2 1 0.5\n")
    for t in (0.0, 0.1, 1.0, 25.0):
        P = transition_matrix(chain, t)
        assert np.all(P >= 0.0)
        assert np.abs(P.sum(axis=1) - 1.0).max() <= 1e-12


def test_nearly_symmetric_chain_is_not_symmetric():
    # one rate off by 1e-7: within allclose's default rtol, but eigh would
    # read only one triangle of Q and lose it
    rates = np.ones((4, 4))
    rates[0, 1] = 1.0 + 1e-7
    chain = MarkovChain.from_rates(rates)
    assert not chain.symmetric
    P = transition_matrix(chain, 1.0)
    assert np.abs(P.sum(axis=1) - 1.0).max() <= 1e-12
    assert np.array_equal(P, expm(chain.Q))


def test_asymmetric_chain_uses_pade_route():
    chain = MarkovChain.from_rates([[0.0, 2.0, 0.0],
                                    [0.0, 0.0, 1.0],
                                    [0.5, 0.0, 0.0]])
    assert not chain.symmetric
    P = transition_matrix(chain, 0.9)
    assert np.abs(P.sum(axis=1) - 1.0).max() <= 1e-12
    assert P.min() >= 0.0


def test_solve_markov_validation_and_mass():
    chain = complete_graph(3)
    with pytest.raises(ValueError, match="shape"):
        solve_markov(chain, [1.0, 2.0], 1.0)
    with pytest.raises(ValueError, match="positive"):
        solve_markov(chain, [1.0, 0.0, 2.0], 1.0)
    u0 = np.array([1.0, 2.0, 3.0])
    u = solve_markov(chain, u0, 2.0)
    # symmetric generator preserves the total
    assert u.sum() == pytest.approx(u0.sum(), rel=1e-13)
    assert np.all(u > 0)


def test_non_finite_time_is_rejected():
    # NaN passes t < 0, the clip check and the row-sum check alike, and so
    # does the NaN that an infinite t makes of e^{tQ}
    asymmetric = MarkovChain.from_rates([[0.0, 1.0], [2.0, 0.0]])
    for chain in (complete_graph(3), asymmetric):
        for t in (np.nan, np.inf):
            with pytest.raises(ValueError, match="non-negative"):
                transition_matrix(chain, t)
            with pytest.raises(ValueError, match="non-negative"):
                solve_markov(chain, np.ones(chain.n), t)
    with pytest.raises(ValueError, match="non-negative"):
        transition_kn(3, np.nan)
    # the closed form reaches the stationary limit
    assert np.array_equal(transition_kn(3, np.inf), np.full((3, 3), 1 / 3))


# --------------------------------------------------- closed-form pieces

def test_L_log_p_kn_anchor():
    # n = 2, t = ln(3)/2: e^{-2t} = 1/3, so the same-site value is log 2
    val = L_log_p_kn(2, np.log(3.0) / 2.0, same_site=True)
    assert val == pytest.approx(np.log(2.0), rel=1e-14)
    off = L_log_p_kn(2, np.log(3.0) / 2.0, same_site=False)
    assert off == pytest.approx(-np.log(2.0), rel=1e-14)


def test_L_log_p_matches_numeric_route():
    for n in (2, 3, 5, 10):
        chain = complete_graph(n)
        for t in (0.05, 0.5, 2.0):
            p_col = transition_kn(n, t)[:, 0]
            vals = neg_L_log(chain, p_col)
            assert vals[0] == pytest.approx(L_log_p_kn(n, t, True), abs=1e-11)
            assert vals[1] == pytest.approx(L_log_p_kn(n, t, False), abs=1e-11)


def test_cd_function_anchor():
    assert cd_function_F(3, 2.0) == pytest.approx(F_3_AT_2, rel=1e-15)
    assert cd_function_F(4, 0.0) == 0.0


def test_phi_decreases_to_zero():
    for n in (2, 4, 8):
        ts = np.geomspace(1e-2, 30.0, 40)
        vals = [phi_kn(n, t) for t in ts]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 1e-8
        assert all(phi_prime_kn(n, t) < 0 for t in (0.1, 1.0, 5.0))


def test_relaxation_ode_residual():
    for n in range(2, 11):
        for t in np.geomspace(1e-3, 20.0, 50):
            assert abs(relaxation_residual(n, t)) <= 1e-10


# ----------------------------------------------------- the bound itself

def test_margin_nonnegative_for_random_data(rng):
    # -L(log u(t)) <= phi(t) at every site, for every positive u0
    for n in (2, 3, 5, 8):
        chain = complete_graph(n)
        for t in (0.05, 0.3, 1.0, 4.0):
            bound = phi_kn(n, t)
            for _ in range(5):
                u0 = rng.uniform(0.1, 10.0, size=n)
                u = solve_markov(chain, u0, t)
                margin = bound - neg_L_log(chain, u).max()
                assert margin >= -1e-10


def test_bound_sharp_for_point_mass():
    # the transition column is the point-mass solution; it attains phi
    for n in (2, 4, 7, 10):
        chain = complete_graph(n)
        for t in (0.02, 0.4, 3.0):
            p_col = transition_kn(n, t)[:, 0]
            gap = phi_kn(n, t) - neg_L_log(chain, p_col)[0]
            assert abs(gap) <= 1e-10


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 8),
       t=st.floats(0.01, 10.0),
       seed=st.integers(0, 1000))
def test_margin_property(n, t, seed):
    chain = complete_graph(n)
    u0 = np.random.default_rng(seed).uniform(0.05, 20.0, size=n)
    u = solve_markov(chain, u0, t)
    assert neg_L_log(chain, u).max() <= phi_kn(n, t) + 1e-10
