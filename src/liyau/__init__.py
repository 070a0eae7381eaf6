"""Li-Yau inequalities for non-local diffusion: kernels, constants, checks.

The package computes symmetric stable densities and discrete heat kernels,
evaluates the completely-nonlinear operator Psi_Upsilon and the fractional
Laplacian by singular quadrature, locates the sharp Li-Yau constant
C(beta, d), and verifies the resulting differential-Harnack and parabolic
Harnack inequalities on random instances.
"""
from .constant import (J_of_y, LiYauConstantResult, SearchSpec, constant_for,
                       heat_kernel_liyau_margin, liyau_constant_beta1,
                       liyau_constant_numeric)
from .fields import Extension, GridField, PointExpansion
from .fraclap import (dt_log_u, frac_laplacian_point,
                      gaussian_frac_laplacian, solve_fractional,
                      solve_fractional_at)
from .harnack import (admissible_alpha, default_alpha, eta_weight,
                      factor_for_a1, fractional_m_constant,
                      gaussian_harnack_rhs, gaussian_kernel_log_ratio,
                      gaussian_sharp_source, harnack_bound_fractional,
                      harnack_check_fractional, harnack_check_kn,
                      harnack_integral_term_kn, harnack_m_form_bound,
                      harnack_rhs_kn)
from .markov import (MarkovChain, cd_function_F, complete_graph,
                     load_edge_list, neg_L_log, phi_kn, phi_prime_kn,
                     relaxation_residual, solve_markov, transition_kn,
                     transition_matrix, L_log_p_kn)
from .ops import (chain_rule_residual, lambda_log, psi_upsilon_continuous,
                  psi_upsilon_discrete, upsilon, upsilon_over_sq)
from .singular import QuadResult, golden_section_max, weighted_singular
from .stable import (StableDensityProfile, ball_volume, build_profile,
                     eval_G, normalizing_constant, poisson_profile,
                     profile_at_zero)
from .verify import (VerificationReport, key_inequality_margin_discrete,
                     reduction_theorem_check_discrete, sweep_dh_consistency,
                     sweep_fractional_liyau, sweep_key_inequality,
                     sweep_reduction)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
