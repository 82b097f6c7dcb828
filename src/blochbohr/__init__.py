"""Bohr radii of weighted Bloch spaces.

Numerical machinery for majorant power series on the unit disc: truncated
series with certified tails, weighted Bloch norms, the admissibility
criterion for weights at the scale 1/sqrt(2), degree-one Blaschke extremal
functions with end-to-end sharpness verification, and the quantitative
bound computations (root-finding lower bound, test-function upper bound,
the bounded-function majorant supremum, and a strictness probe that reuses
the upper bound's test functions).

Everything is pure and deterministic; suprema are grid scans with a
golden-section or derivative-root polish and report their witness points.
"""

from .bounds import (ScanReport, avkhadiev_coefficients, avkhadiev_eval,
                     avkhadiev_majorant_closed_form, best_test_ratio, bombieri_m_infty,
                     cauchy_chain_check, mobius_majorant_sum, mobius_majorant_sup,
                     mobius_series, theorem1_optimize, theorem1_root, theorem4_expression,
                     theorem4_sup, theorem4_upper_bound, theorem5_ratios)
from .errors import (BlochBohrError, ConvergenceError, DivergenceRegionError,
                     EvaluatorDomainError, NoSignChangeError, ParameterDomainError,
                     PoleError, PreconditionError, ZeroDenominatorError)
from .extremal import (ExtremalSpec, SharpnessReport, blaschke_degree,
                       blaschke_degree_montecarlo, extremal_coefficients,
                       extremal_eval, extremal_majorant_sum, extremal_sup_modulus,
                       verify_sharpness)
from .norms import (RadialSupReport, weighted_bloch_norm, weighted_bloch_seminorm,
                    weighted_radial_sup)
from .search import bisect_root, golden_max, grid_golden_max, trisect_min
from .series import (CircleNorms, SeriesValue, TruncatedSeries, circle_norms,
                     circle_sup, coefficient_sum, derivative, eval_series,
                     majorant, scale_argument, tail_bound)
from .weights import (CriterionReport, Weight, builtin_weight, criterion_bound,
                      criterion_check, find_admissible_r0, h_profile,
                      weight_from_token)

__version__ = "0.1.0"

__all__ = [
    "BlochBohrError", "CircleNorms", "ConvergenceError", "CriterionReport",
    "DivergenceRegionError", "EvaluatorDomainError", "ExtremalSpec",
    "NoSignChangeError", "ParameterDomainError", "PoleError", "PreconditionError",
    "RadialSupReport", "ScanReport", "SeriesValue", "SharpnessReport",
    "TruncatedSeries", "Weight", "ZeroDenominatorError",
    "avkhadiev_coefficients", "avkhadiev_eval", "avkhadiev_majorant_closed_form",
    "best_test_ratio", "bisect_root", "blaschke_degree",
    "blaschke_degree_montecarlo", "bombieri_m_infty", "builtin_weight",
    "cauchy_chain_check", "circle_norms", "circle_sup", "coefficient_sum",
    "criterion_bound", "criterion_check", "derivative",
    "eval_series", "extremal_coefficients", "extremal_eval",
    "extremal_majorant_sum", "extremal_sup_modulus", "find_admissible_r0",
    "golden_max", "grid_golden_max", "h_profile", "majorant",
    "mobius_majorant_sum", "mobius_majorant_sup", "mobius_series",
    "scale_argument", "tail_bound", "theorem1_optimize", "theorem1_root",
    "theorem4_expression", "theorem4_sup", "theorem4_upper_bound",
    "theorem5_ratios", "trisect_min", "verify_sharpness",
    "weight_from_token", "weighted_bloch_norm", "weighted_bloch_seminorm",
    "weighted_radial_sup",
]
