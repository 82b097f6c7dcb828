"""Bohr radii of weighted Bloch spaces.

Numerical machinery for majorant power series on the unit disc: truncated
series with certified tails, weighted Bloch norms, the admissibility
criterion for weights at the scale 1/sqrt(2), degree-one Blaschke extremal
functions with end-to-end sharpness verification, and the quantitative
bound computations (root-finding lower bound, test-function upper bound,
the bounded-function majorant supremum, and a strictness probe that reuses
the upper bound's test functions).

Everything is pure and deterministic; suprema are grid scans polished at a
root of their slope (golden section without one) and report their witnesses.

Importing the package loads no layer and not numpy: each exported name is imported
from its submodule on first access (PEP 562), so a subcommand loads only its layers.
The result records are NamedTuples, so no layer loads ``dataclasses`` either.
"""

import importlib

__version__ = "0.1.0"

#: the submodule that defines each exported name
_EXPORTS = {
    "bounds": """ScanReport avkhadiev_coefficients avkhadiev_eval avkhadiev_majorant_closed_form
        best_test_ratio bombieri_m_infty cauchy_chain_check mobius_majorant_sum
        mobius_majorant_sup theorem1_optimize theorem1_root theorem4_expression theorem4_sup
        theorem4_upper_bound""",
    "errors": """BlochBohrError ConvergenceError DivergenceRegionError NoSignChangeError
        ParameterDomainError PoleError PreconditionError ZeroDenominatorError""",
    "extremal": """ExtremalSpec SharpnessReport blaschke_degree blaschke_degree_montecarlo
        extremal_coefficients extremal_eval extremal_majorant_sum extremal_sup_modulus
        verify_sharpness""",
    "norms": "RadialSupReport weighted_bloch_norm weighted_bloch_seminorm weighted_radial_sup",
    "series": """CircleNorms SeriesValue TruncatedSeries circle_norms circle_sup coefficient_sum
        derivative eval_series majorant scale_argument tail_bound""",
    "weights": """CriterionReport Weight builtin_weight criterion_bound criterion_check
        find_admissible_r0 h_profile weight_from_token""",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
