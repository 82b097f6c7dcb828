"""Quantitative Bohr-radius bounds.

* ``theorem1_root`` / ``theorem1_optimize``: the lower bound for the
  Bloch-to-bounded Bohr radius.  For each exponent s in (0, 1) the radius
  solves log(1 - r^{2s}) = (r^{2(1-s)} - 1) / r^{2(1-s)}; maximizing the
  root over s gives r* = 0.5637769 at s* = 0.3337112, where the envelope
  condition reduces the problem to 2 ln r + r^{-2} = 2 (the paper prints
  s* = 0.333771, which looks like a transposition of 0.333711).  At
  s = 1/2 the equation reduces to 1 - r + r log(1 - r) = 0 with root
  0.55356.
* ``cauchy_chain_check``: the three-term Cauchy-Schwarz chain
  w(r) R sum |a_n| (Rr)^n <= w(r) ||f||_L2 R/sqrt(1-R^2)
  <= w(r) ||f||_Linf R/sqrt(1-R^2), tight multiplier 1 at R = 1/sqrt(2).
* ``theorem4_*``: the upper-bound certificate via the unit-sup test
  function; its scaled majorant R (1-r^2) sum |a_n| (Rr)^n exceeds 1 for
  suitable (a, R), e.g. a = 0.35 and R = 0.769.
* ``bombieri_m_infty`` / ``mobius_majorant_sup``: the closed form
  (3 - sqrt(8(1-r^2)))/r of the bounded-function majorant supremum on
  [1/3, 1/sqrt(2)], and its independent realization by the Mobius family
  a + (1-a^2) r / (1-ar).
* ``best_test_ratio`` / ``theorem5_gap``: the best Theorem 4 test-function
  ratio at a scale, which ``theorem4_upper_bound`` drives past 1 and the
  strictness probe of m_Bloch(R) < R/sqrt(1-R^2) subtracts from the bound.
  For f with f' = g_a (``norms.avkhadiev_eval``, sup (1-|z|^2)|g_a| = 1)
  the majorant-to-function Bloch seminorm ratio is exactly
  ``theorem4_sup(a, R)``, because the majorant of g_a has nonnegative
  coefficients.  ``theorem5_ratios`` computes the same ratio for any
  series through the seminorm scans.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import ParameterDomainError, PoleError
from .norms import A_MAX, avkhadiev_majorant_closed_form, weighted_bloch_seminorm
from .search import GridSpec, bisect_flag, bisect_root, grid_golden_max
from .series import TruncatedSeries, circle_norms, coefficient_sum, majorant, scale_argument
from .weights import Weight, builtin_weight

#: exponent grid endpoints: the bound degenerates at both ends of (0, 1)
S_CLIP = (1e-4, 1.0 - 1e-4)

#: "exceeds 1" means strictly above this, to avoid rounding-false positives
EXCEED_THRESHOLD = 1.0 + 1e-9

#: lean scan grid of the seminorms in ``theorem5_ratios`` (margins there are large)
PROBE_GRID = GridSpec(r_points=1024, theta_points=1024)

#: parameter and radial sample counts of the Theorem 4 scans
THEOREM4_A_POINTS = 200
THEOREM4_R_POINTS = 2048


@dataclass(frozen=True)
class SolverConfig:
    """Bracket and tolerance of scalar solves, each capped at 200 halvings."""

    abs_tol: float = 1e-10
    bracket: tuple[float, float] = (1e-6, 1.0 - 1e-6)

    def __post_init__(self) -> None:
        lo, hi = self.bracket
        if not lo < hi:
            raise ParameterDomainError("bracket must satisfy lo < hi")
        if not 0.0 < self.abs_tol < np.inf:
            raise ParameterDomainError("abs_tol must be positive and finite")


#: bisection settings of ``theorem4_upper_bound``: scales in (1/sqrt(2), 0.7691)
THEOREM4_SEARCH = SolverConfig(abs_tol=1e-5, bracket=(1.0 / np.sqrt(2.0), 0.7691))


@dataclass(frozen=True)
class ScanReport:
    """Certificate at the scale a threshold search found, and the cells it scanned."""

    best_value: float
    best_params: dict
    samples: int

    def to_json_dict(self) -> dict:
        return asdict(self)


def _t1_residual(r, s):
    return np.log(1.0 - r ** (2.0 * s)) - 1.0 + r ** (-2.0 * (1.0 - s))


def theorem1_root(s: float, cfg: SolverConfig | None = None) -> float:
    """Radius solving log(1 - r^{2s}) - 1 + r^{-2(1-s)} = 0 for s in (0, 1).

    Bracketing bisection with sign-change verification; the residual is
    driven below cfg.abs_tol.  s is clipped into [1e-4, 1 - 1e-4] where the
    equation is well conditioned.
    """
    s = float(s)
    if not 0.0 < s < 1.0:
        raise ParameterDomainError(f"exponent s must lie in (0, 1), got {s}")
    s = min(max(s, S_CLIP[0]), S_CLIP[1])
    cfg = cfg or SolverConfig()
    lo, hi = cfg.bracket
    return bisect_root(lambda r: _t1_residual(r, s), lo, hi, abs_tol=cfg.abs_tol)


def theorem1_optimize(cfg: SolverConfig | None = None) -> tuple[float, float]:
    """Maximize the radius of ``theorem1_root`` over the exponent s.

    Write F(r, s) = log(1 - r^{2s}) - 1 + r^{-2(1-s)}, so that r(s) solves
    F = 0.  At the maximizer dr/ds = -F_s/F_r vanishes, hence F_s = 0:
    -2 ln r r^{2s}/(1 - r^{2s}) + 2 ln r r^{-2(1-s)} = 0, which gives
    1 - r^{2s} = r^2.  Substituting r^{2s} = 1 - r^2 into F = 0 leaves
    g(r) = 2 ln r + r^{-2} - 2 = 0; g' = 2(r^2 - 1)/r^3 < 0 on (0, 1), so
    the root r* is unique, and s* = ln(1 - r*^2)/(2 ln r*).  F(r*, s*)
    equals g(r*), driven below cfg.abs_tol by bisection on cfg.bracket.
    Returns (s_star, r_star).
    """
    cfg = cfg or SolverConfig()
    lo, hi = cfg.bracket
    r_star = bisect_root(lambda r: 2.0 * np.log(r) + r ** -2.0 - 2.0, lo, hi,
                         abs_tol=cfg.abs_tol)
    s_star = np.log(1.0 - r_star * r_star) / (2.0 * np.log(r_star))
    return float(s_star), float(r_star)


def cauchy_chain_check(s: TruncatedSeries, w: Weight, scale: float, r: float,
                       grid: GridSpec | None = None) -> tuple[float, float, float]:
    """The three chain values at (R, r); weakly increasing for every input.

    v1 = w(r) R sum |a_n| (R r)^n, v2 = w(r) ||f||_L2(r) R/sqrt(1-R^2),
    v3 = w(r) ||f||_Linf(r) R/sqrt(1-R^2).
    """
    scale = float(scale)
    if not 0.0 < scale < 1.0:
        raise ParameterDomainError("the scale R must lie in (0, 1)")
    norms = circle_norms(s, r, grid)
    wr = float(w(float(r)))
    multiplier = float(scale / np.sqrt(1.0 - scale * scale))
    v1 = wr * scale * coefficient_sum(majorant(s), scale * r)
    v2 = wr * norms.l2_norm * multiplier
    v3 = wr * norms.sup_norm * multiplier
    return v1, v2, v3


def theorem4_expression(a, scale: float, r):
    """R (1-r^2) (3 sqrt(3)(1-a^2)/2) ((Rr-a)/(1-aRr)^3 + 2a) on r in [0, 1].

    Broadcasts over a and r.
    """
    scale = float(scale)
    if not 0.0 <= scale:
        raise ParameterDomainError("the scale R must be nonnegative")
    r = np.asarray(r, dtype=float)
    if np.any(r < 0.0) or np.any(r > 1.0):
        raise ParameterDomainError("radius must lie in [0, 1]")
    out = scale * (1.0 - r * r) * avkhadiev_majorant_closed_form(a, scale * r)
    if np.ndim(out) == 0:
        return float(out)
    return out


def theorem4_table(scale: float, a_points: int = THEOREM4_A_POINTS,
                   r_points: int = THEOREM4_R_POINTS) -> tuple[np.ndarray, np.ndarray]:
    """``theorem4_expression`` on the (a, r) scan grid -> (a_grid, table).

    a runs over (0, 1/sqrt(3)) and r over [0, 1], each with at least 2 points.
    """
    if min(a_points, r_points) < 2:
        raise ParameterDomainError(f"a scan needs at least 2 points, got {a_points} x {r_points}")
    a_grid = np.linspace(1e-6, A_MAX - 1e-9, a_points)
    r_grid = np.linspace(0.0, 1.0, r_points)
    return a_grid, theorem4_expression(a_grid[:, None], scale, r_grid[None, :])


def theorem4_sup(a: float, scale: float,
                 r_points: int = THEOREM4_R_POINTS) -> tuple[float, float]:
    """sup over r in [0, 1] of ``theorem4_expression`` -> (value, witness_r)."""
    x, v = grid_golden_max(lambda r: theorem4_expression(a, scale, r), 0.0, 1.0, r_points)
    return v, x


def best_test_ratio(scale: float,
                    r_points: int = THEOREM4_R_POINTS) -> tuple[float, float, float]:
    """Best ``theorem4_sup`` over the a grid at the scale R -> (value, a, r).

    The (a, r) table picks the best a, and ``theorem4_sup`` polishes the
    radial supremum there.  The value is the majorant-to-function Bloch
    seminorm ratio of the best test function f' = g_a.
    """
    scale = float(scale)
    if not 0.0 < scale < 1.0:
        raise ParameterDomainError("the scale R must lie in (0, 1)")
    a_grid, table = theorem4_table(scale, THEOREM4_A_POINTS, r_points)
    i, _ = np.unravel_index(int(np.argmax(table)), table.shape)
    a_star = float(a_grid[i])
    value, r_star = theorem4_sup(a_star, scale, r_points)
    return value, a_star, r_star


def theorem4_upper_bound(cfg: SolverConfig | None = None,
                         r_points: int = THEOREM4_R_POINTS) -> ScanReport:
    """Least scale R (by bisection) at which ``best_test_ratio`` exceeds 1.

    Any such R is an upper bound for the Bloch-space Bohr radius.  The
    expression grows monotonically in R, so bisection on the exceedance
    flag is valid; ``cfg`` defaults to ``THEOREM4_SEARCH``, and the bracket
    is halved until it is within cfg.abs_tol, at most 200 times.  Each scale
    scans ``THEOREM4_A_POINTS`` x ``r_points`` cells.  The report carries
    the certificate at the returned scale: best_params holds (R, a, r) and
    best_value the expression value there.
    """
    cfg = cfg or THEOREM4_SEARCH
    samples = 0

    def exceeds(scale: float) -> tuple[float, float, float] | None:
        nonlocal samples
        samples += THEOREM4_A_POINTS * r_points
        found = best_test_ratio(scale, r_points)
        return found if found[0] > EXCEED_THRESHOLD else None

    lo, hi = cfg.bracket
    if exceeds(lo) is not None:
        raise ParameterDomainError(
            f"bracket low end {lo} already exceeds 1; lower it")
    found = exceeds(hi)
    if found is None:
        raise ParameterDomainError(
            f"bracket high end {hi} does not exceed 1; raise it")
    hi, (v_hi, a_hi, r_hi) = bisect_flag(exceeds, lo, hi, found, cfg.abs_tol, 200)
    return ScanReport(best_value=v_hi, best_params={"R": hi, "a": a_hi, "r": r_hi},
                      samples=samples)


def bombieri_m_infty(r):
    """m_infty(r) = (3 - sqrt(8 (1 - r^2))) / r on [1/3, 1/sqrt(2)].

    Endpoint values: 1 at r = 1/3 and sqrt(2) at r = 1/sqrt(2).
    """
    arr = np.asarray(r, dtype=float)
    if np.any(arr < 1.0 / 3.0 - 1e-12) or np.any(arr > 1.0 / np.sqrt(2.0) + 1e-12):
        raise ParameterDomainError(
            "the closed form holds for r in [1/3, 1/sqrt(2)] only")
    out = (3.0 - np.sqrt(8.0 * (1.0 - arr * arr))) / arr
    if arr.ndim == 0:
        return float(out)
    return out


def mobius_majorant_sum(a, r):
    """Majorant sum of (a - z)/(1 - az) at radius r: a + (1 - a^2) r / (1 - ar)."""
    a = np.asarray(a, dtype=float)
    r = np.asarray(r, dtype=float)
    if np.any(a * r == 1.0):
        raise PoleError("pole at ar = 1")
    return a + (1.0 - a * a) * r / (1.0 - a * r)


def mobius_majorant_sup(r: float, a_points: int = 2048) -> float:
    """max over a in [0, 1) of the Mobius-family majorant sum at radius r.

    On [1/3, 1/sqrt(2)] this reproduces the closed form
    ``bombieri_m_infty``; it never exceeds the Cauchy-Schwarz bound
    1/sqrt(1 - r^2), with equality only at r = 1/sqrt(2).
    """
    r = float(r)
    if not 0.0 < r < 1.0:
        raise ParameterDomainError("radius must lie in (0, 1)")
    _, v = grid_golden_max(lambda a: mobius_majorant_sum(a, r), 0.0, 1.0 - 1e-9, a_points)
    return v


def mobius_series(alpha: float, n_terms: int = 257) -> TruncatedSeries:
    """Coefficients of the disc automorphism (alpha - z)/(1 - alpha z).

    c_0 = alpha and c_n = -(1 - alpha^2) alpha^{n-1} for n >= 1, with a
    geometric tail of ratio alpha.
    """
    alpha = float(alpha)
    if not 0.0 <= alpha < 1.0:
        raise ParameterDomainError("alpha must lie in [0, 1)")
    if n_terms < 2:
        raise ParameterDomainError("need at least 2 coefficient terms")
    coeffs = np.empty(n_terms, dtype=complex)
    coeffs[0] = alpha
    coeffs[1:] = -(1.0 - alpha * alpha) * alpha ** np.arange(0, n_terms - 1, dtype=float)
    if alpha == 0.0:
        return TruncatedSeries.polynomial(coeffs[:2])
    return TruncatedSeries(coeffs, alpha, (1.0 - alpha * alpha) / alpha)


@dataclass
class ProbeFunction:
    """A named test function with a per-grid cache of its Bloch seminorm."""

    name: str
    series: TruncatedSeries
    _norms: dict = field(default_factory=dict, repr=False, compare=False)

    def bloch_seminorm(self, w: Weight, grid: GridSpec) -> float:
        key = (w.name, tuple(sorted(w.params.items())), grid)
        if key not in self._norms:
            self._norms[key] = weighted_bloch_seminorm(self.series, w, grid)
        return self._norms[key]


def theorem5_ratios(scale: float, family,
                    grid: GridSpec = PROBE_GRID) -> dict[str, float]:
    """Majorant-to-function Bloch seminorm ratio per member of ``family``.

    The ratio uses the gradient seminorm sup omega |f'| on both sides:
    with the |a_0| term included, constants alone would push the ratio to 1
    and the strict bound could not hold for small scales.  Members must
    have positive seminorm.  This is the generic route for any series; for
    the Theorem 4 test functions ``best_test_ratio`` gives the ratio in
    closed form.
    """
    scale = float(scale)
    if not 0.0 < scale < 1.0:
        raise ParameterDomainError("the scale R must lie in (0, 1)")
    std = builtin_weight("standard")
    ratios = {}
    for member in family:
        denominator = member.bloch_seminorm(std, grid)
        if denominator <= 0.0:
            raise ParameterDomainError(
                f"probe member {member.name} has zero Bloch seminorm")
        scaled = scale_argument(majorant(member.series), scale)
        numerator = weighted_bloch_seminorm(scaled, std, grid)
        ratios[member.name] = numerator / denominator
    return ratios


def theorem5_gap(scale: float) -> float:
    """R/sqrt(1-R^2) minus ``best_test_ratio`` at the scale R.

    A positive value is consistent with strictness of the bound; only a
    negative value would be decisive (falsification).
    """
    value, _, _ = best_test_ratio(scale)
    return scale / np.sqrt(1.0 - scale * scale) - value
