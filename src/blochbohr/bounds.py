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
* ``best_test_ratio``: the best Theorem 4 test-function ratio at a scale,
  which ``theorem4_upper_bound`` drives past 1 and the strictness probe of
  m_Bloch(R) < R/sqrt(1-R^2) subtracts from the bound; a rigorous cell bound
  prunes its (a, r) table, keeping the full table's argmax exactly.  For f with
  f' = g_a (``norms.avkhadiev_eval``, sup (1-|z|^2)|g_a| = 1) the majorant-to-
  function Bloch seminorm ratio is exactly ``theorem4_sup(a, R)``, because the
  majorant of g_a has nonnegative coefficients.  ``theorem5_ratios`` computes
  the same ratio for any series through the seminorm scans.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterDomainError, PoleError
from .norms import _COEF, A_MAX, avkhadiev_majorant_closed_form, weighted_bloch_seminorm
from .search import bisect_flag, bisect_root, grid_golden_max, scan_polish
from .series import TruncatedSeries, circle_norms, coefficient_sum, majorant, scale_argument
from .weights import Weight, builtin_weight

#: exponent grid endpoints: the bound degenerates at both ends of (0, 1)
S_CLIP = (1e-4, 1.0 - 1e-4)

#: "exceeds 1" means strictly above this, to avoid rounding-false positives
EXCEED_THRESHOLD = 1.0 + 1e-9

#: radial samples of the seminorms in ``theorem5_ratios`` (margins there are large)
PROBE_R_POINTS = 1024

#: radius bracket and residual tolerance of the Theorem 1 root solves
THEOREM1_BRACKET = (1e-6, 1.0 - 1e-6)
THEOREM1_TOL = 1e-10

#: parameter and radial sample counts of the Theorem 4 scans, and the scale
#: bracket and scale tolerance of ``theorem4_upper_bound``
THEOREM4_A_POINTS = 200
THEOREM4_R_POINTS = 2048
THEOREM4_BRACKET = (1.0 / np.sqrt(2.0), 0.7691)
THEOREM4_TOL = 1e-5


def _check_solver_tol(tol: float) -> float:
    if not 0.0 < tol < np.inf:
        raise ParameterDomainError(f"tol must be positive and finite, got {tol}")
    return tol


@dataclass(frozen=True)
class ScanReport:
    """Certificate (R, value, a, r) a threshold search found, and its (a, r) table
    cells, ``THEOREM4_A_POINTS`` x r_points per scale, evaluated or pruned."""

    upper_bound: float
    best_value: float
    witness_a: float
    witness_r: float
    samples: int


def _t1_residual(r, s):
    return np.log(1.0 - r ** (2.0 * s)) - 1.0 + r ** (-2.0 * (1.0 - s))


def theorem1_root(s: float, tol: float = THEOREM1_TOL) -> float:
    """Radius solving log(1 - r^{2s}) - 1 + r^{-2(1-s)} = 0 for s in (0, 1).

    Bisection on ``THEOREM1_BRACKET`` with sign-change verification, at most
    200 halvings; the residual is driven below tol.  s is clipped into
    [1e-4, 1 - 1e-4] where the equation is well conditioned.
    """
    tol = _check_solver_tol(tol)
    s = float(s)
    if not 0.0 < s < 1.0:
        raise ParameterDomainError(f"exponent s must lie in (0, 1), got {s}")
    s = min(max(s, S_CLIP[0]), S_CLIP[1])
    return bisect_root(lambda r: _t1_residual(r, s), *THEOREM1_BRACKET, abs_tol=tol)


def theorem1_optimize(tol: float = THEOREM1_TOL) -> tuple[float, float]:
    """Maximize the radius of ``theorem1_root`` over the exponent s.

    Write F(r, s) = log(1 - r^{2s}) - 1 + r^{-2(1-s)}, so that r(s) solves
    F = 0.  At the maximizer dr/ds = -F_s/F_r vanishes, hence F_s = 0:
    -2 ln r r^{2s}/(1 - r^{2s}) + 2 ln r r^{-2(1-s)} = 0, which gives
    1 - r^{2s} = r^2.  Substituting r^{2s} = 1 - r^2 into F = 0 leaves
    g(r) = 2 ln r + r^{-2} - 2 = 0; g' = 2(r^2 - 1)/r^3 < 0 on (0, 1), so
    the root r* is unique, and s* = ln(1 - r*^2)/(2 ln r*).  F(r*, s*)
    equals g(r*), driven below tol by bisection on ``THEOREM1_BRACKET``.
    Returns (s_star, r_star).
    """
    tol = _check_solver_tol(tol)
    r_star = bisect_root(lambda r: 2.0 * np.log(r) + r ** -2.0 - 2.0, *THEOREM1_BRACKET,
                         abs_tol=tol)
    s_star = np.log(1.0 - r_star * r_star) / (2.0 * np.log(r_star))
    return float(s_star), float(r_star)


def cauchy_chain_check(s: TruncatedSeries, w: Weight, scale: float,
                       r: float) -> tuple[float, float, float]:
    """The three chain values at (R, r); weakly increasing for every input.

    v1 = w(r) R sum |a_n| (R r)^n, v2 = w(r) ||f||_L2(r) R/sqrt(1-R^2),
    v3 = w(r) ||f||_Linf(r) R/sqrt(1-R^2), the sup on the default angle grid.
    """
    scale = float(scale)
    if not 0.0 < scale < 1.0:
        raise ParameterDomainError("the scale R must lie in (0, 1)")
    norms = circle_norms(s, r)
    wr = float(w(float(r)))
    multiplier = float(scale / np.sqrt(1.0 - scale * scale))
    v1 = wr * scale * coefficient_sum(s, scale * r)
    v2 = wr * norms.l2_norm * multiplier
    v3 = wr * norms.sup_norm * multiplier
    return v1, v2, v3


def theorem4_expression(a, scale: float, r):
    """R (1-r^2) (3 sqrt(3)(1-a^2)/2) ((Rr-a)/(1-aRr)^3 + 2a) on r in [0, 1].

    Broadcasts over a and r.  R >= 1 is allowed (a pole may then lie on the disc).
    Float a and r in the domain take a float path with the 0-d array path's bits.
    """
    scale = float(scale)
    if not 0.0 <= scale < np.inf:
        raise ParameterDomainError("the scale R must be nonnegative and finite")
    if isinstance(a, float) and isinstance(r, float) and 0.0 < a < A_MAX and 0.0 <= r <= 1.0:
        a, r, x = float(a), float(r), scale * float(r)
        if a * x < 1.0:
            return scale * (1.0 - r * r) * (_COEF * (1.0 - a * a)
                                             * ((x - a) / (1.0 - a * x) ** 3 + 2.0 * a))
    r = np.asarray(r, dtype=float)
    if not np.all((r >= 0.0) & (r <= 1.0)):
        raise ParameterDomainError("radius must lie in [0, 1]")
    out = scale * (1.0 - r * r) * avkhadiev_majorant_closed_form(a, scale * r)
    if np.ndim(out) == 0:
        return float(out)
    return out


def theorem4_best_row(scale: float,
                      r_points: int = THEOREM4_R_POINTS) -> tuple[float, np.ndarray, float]:
    """First row of the (a, r) scan table to hold its maximum -> (a, row, max).

    The table is ``theorem4_expression`` at R in (0, 1) on ``THEOREM4_A_POINTS``
    a in (0, 1/sqrt(3)) by r_points >= 2 r in [0, 1].  Every 16th column (and the
    last) bounds the maximum below by L.  On a cell [r_k, r_k+1] between them the
    value is at most R (1 - r_k^2), as R (1 - r^2) falls, times the majorant sum
    at R r_k+1, which is positive and rises ((x - a)/(1 - ax)^3 has derivative
    (1 + 2ax - 3a^2)/(1 - ax)^4 > 0 for a < 1/sqrt(3)).  Only rows with a cell
    bound within a 1e-9 rounding slack of L are evaluated: argmax and max are exact.
    """
    if not 0.0 < float(scale) < 1.0:
        raise ParameterDomainError("the scale R must lie in (0, 1)")
    if r_points < 2:
        raise ParameterDomainError(
            f"a scan needs at least 2 points, got {THEOREM4_A_POINTS} x {r_points}")
    a_grid = np.linspace(1e-6, A_MAX - 1e-9, THEOREM4_A_POINTS)
    r_grid = np.linspace(0.0, 1.0, r_points)
    cols = np.append(np.arange(0, r_points - 1, 16), r_points - 1)
    lower = theorem4_expression(a_grid[:, None], scale, r_grid[None, cols]).max()
    cell_max = (scale * (1.0 - r_grid[cols[:-1]] ** 2)
                * avkhadiev_majorant_closed_form(a_grid[:, None], scale * r_grid[cols[1:]]))
    rows = np.flatnonzero(np.any(cell_max * (1.0 + 1e-9) >= lower, axis=1))
    table = theorem4_expression(a_grid[rows, None], scale, r_grid[None, :])
    i, j = np.unravel_index(int(np.argmax(table)), table.shape)
    return float(a_grid[rows[i]]), table[i], float(table[i, j])


def theorem4_sup(a: float, scale: float,
                 r_points: int = THEOREM4_R_POINTS) -> tuple[float, float]:
    """sup over r in [0, 1] of ``theorem4_expression`` -> (value, witness_r)."""
    x, v = grid_golden_max(lambda r: theorem4_expression(a, scale, r), 0.0, 1.0, r_points)
    return v, x


def best_test_ratio(scale: float,
                    r_points: int = THEOREM4_R_POINTS) -> tuple[float, float, float]:
    """Best ``theorem4_sup`` over the a grid at the scale R -> (value, a, r).

    ``theorem4_best_row`` picks the best a, and ``scan_polish`` polishes its
    row as in ``theorem4_sup``.  The value is the majorant-to-function Bloch
    seminorm ratio of the best test function f' = g_a.  Up to about R = 1/2
    it is R, at the last a-grid point and r = 0 up to the polish, since
    T4(a, 0) = R (3 sqrt(3)/2) a (1 - a^2) peaks at exactly R at a = 1/sqrt(3).
    """
    a_star, row, _ = theorem4_best_row(scale, r_points)
    r_star, value = scan_polish(lambda r: theorem4_expression(a_star, scale, r),
                                np.linspace(0.0, 1.0, r_points), row)
    return value, a_star, r_star


def theorem4_upper_bound(tol: float = THEOREM4_TOL,
                         r_points: int = THEOREM4_R_POINTS) -> ScanReport:
    """Least scale R (by bisection) at which ``best_test_ratio`` exceeds 1.

    Any such R is an upper bound for the Bloch-space Bohr radius.  The
    expression grows monotonically in R, so bisection on the exceedance
    flag is valid; ``THEOREM4_BRACKET`` is halved until it is within tol,
    at most 200 times.  Each scale covers ``THEOREM4_A_POINTS`` x
    ``r_points`` table cells, the ``samples`` count, evaluated or pruned by
    ``theorem4_best_row``.  The report carries the certificate at the
    returned scale upper_bound: the expression value and witness (a, r).
    """
    tol = _check_solver_tol(tol)
    samples = 0

    def exceeds(scale: float) -> tuple[float, float, float] | None:
        nonlocal samples
        samples += THEOREM4_A_POINTS * r_points
        found = best_test_ratio(scale, r_points)
        return found if found[0] > EXCEED_THRESHOLD else None

    lo, hi = THEOREM4_BRACKET
    if exceeds(lo) is not None:
        raise ParameterDomainError(
            f"bracket low end {lo} already exceeds 1; lower it")
    found = exceeds(hi)
    if found is None:
        raise ParameterDomainError(
            f"bracket high end {hi} does not exceed 1; raise it")
    hi, (value, a, r) = bisect_flag(exceeds, lo, hi, found, tol, 200)
    return ScanReport(hi, value, a, r, samples)


def bombieri_m_infty(r):
    """m_infty(r) = (3 - sqrt(8 (1 - r^2))) / r on [1/3, 1/sqrt(2)].

    Endpoint values: 1 at r = 1/3 and sqrt(2) at r = 1/sqrt(2).
    """
    arr = np.asarray(r, dtype=float)
    if not np.all((arr >= 1.0 / 3.0 - 1e-12) & (arr <= 1.0 / np.sqrt(2.0) + 1e-12)):
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


def mobius_majorant_sup(r: float) -> float:
    """max over a in [0, 1) of the Mobius-family majorant sum at radius r.

    On [1/3, 1/sqrt(2)] this reproduces the closed form
    ``bombieri_m_infty``; it never exceeds the Cauchy-Schwarz bound
    1/sqrt(1 - r^2), with equality only at r = 1/sqrt(2).
    """
    r = float(r)
    if not 0.0 < r < 1.0:
        raise ParameterDomainError("radius must lie in (0, 1)")
    _, v = grid_golden_max(lambda a: mobius_majorant_sum(a, r), 0.0, 1.0 - 1e-9, 2048)
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
    """A named test function with a per-weight, per-scan-size cache of its
    Bloch seminorm."""

    name: str
    series: TruncatedSeries
    _norms: dict = field(default_factory=dict, repr=False, compare=False)

    def bloch_seminorm(self, w: Weight, r_points: int) -> float:
        key = (w.name, tuple(sorted(w.params.items())), r_points)
        if key not in self._norms:
            self._norms[key] = weighted_bloch_seminorm(self.series, w, r_points)
        return self._norms[key]


def theorem5_ratios(scale: float, family) -> dict[str, float]:
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
        denominator = member.bloch_seminorm(std, PROBE_R_POINTS)
        if denominator <= 0.0:
            raise ParameterDomainError(
                f"probe member {member.name} has zero Bloch seminorm")
        scaled = scale_argument(majorant(member.series), scale)
        numerator = weighted_bloch_seminorm(scaled, std, PROBE_R_POINTS)
        ratios[member.name] = numerator / denominator
    return ratios

