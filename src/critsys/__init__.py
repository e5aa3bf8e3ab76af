"""Solver/verifier toolkit for synchronized least-energy states of a
coupled critical fractional-order system."""

from .algebraic import (CouplingSolution, CurveDiagnostics, check_domination,
                        curve_diagnostics, curve_k_of_l, curve_l_of_k,
                        eval_F1, eval_F2, eval_f, find_k0_l0,
                        solve_ratio_reduction)
from .asymptotics import (ContinuationPath, OverlapQuadrature,
                          PerturbationSolution, continuation_branch,
                          energy_gap_vs_R, overlap_theta, solve_tR_sR)
from .bubbles import (BubbleSpec, SobolevConstant, bubble_eval,
                      normalized_bubble_field, sobolev_constant_closed_form,
                      sobolev_constant_spectral)
from .errors import CritsysError, DomainError, NumericalError
from .params import (DerivedExponents, SystemParams, derived_exponents,
                     make_params, params_from_dict, params_from_json)
from .regimes import (EnergyReport, Regime, classify, energy_ordering_check,
                      gamma_threshold_A, gamma_threshold_B, least_energy)
from .spectral import (GridField, ResidualReport, frac_laplacian,
                       pde_residual_single, pde_residual_system)

__version__ = "0.1.0"
