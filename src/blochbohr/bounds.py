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
* ``avkhadiev_*``: the test function g_a(z) = (3 sqrt(3)/2)(1-a^2)(z-a)/(1-az)^3,
  0 < a < 1/sqrt(3), with weighted sup 1 under 1-r^2, its coefficients
  C(a) (n+1)(n/2 - a^2/(1-a^2)) a^n and the closed form of its majorant sum.
* ``theorem4_*``: the upper-bound certificate via that test function; its
  scaled majorant T4 = R (1-r^2) sum |a_n| (Rr)^n exceeds 1 for suitable
  (a, R), e.g. a = 0.35 and R = 0.769; its sup over r is exact at the
  roots of a quintic in r (``_stationary_sups``).
* ``bombieri_m_infty`` / ``mobius_majorant_sup``: the closed form
  (3 - sqrt(8(1-r^2)))/r of the bounded-function majorant supremum on
  [1/3, 1/sqrt(2)], and its independent realization by the Mobius family
  a + (1-a^2) r / (1-ar).
* ``best_test_ratio``: the best Theorem 4 test-function ratio at a scale,
  which ``theorem4_upper_bound`` drives past 1 and the strictness probe of
  m_Bloch(R) < R/sqrt(1-R^2) subtracts from the bound: the quintic sups on
  an a grid, the best a polished at a root of the envelope slope.  For f with
  f' = g_a (``avkhadiev_eval``) the majorant-to-function Bloch seminorm ratio
  is exactly ``theorem4_sup(a, R)``, because the majorant of g_a has nonnegative
  coefficients.  ``theorem5_ratios`` computes it for any series by seminorm scans.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DivergenceRegionError, ParameterDomainError, PoleError
from .search import bisect_flag, bisect_root, grid, grid_golden_max, scan_polish
from .series import TruncatedSeries, circle_norms, coefficient_sum, majorant, scale_argument

#: exponents s ``theorem1_root`` accepts; the root is ill conditioned beyond them
S_RANGE = (1e-4, 1.0 - 1e-4)

#: the Theorem 4 test function g_a takes a in (0, A_MAX)
A_MAX = 1.0 / np.sqrt(3.0)
_COEF = float(1.5 * np.sqrt(3.0))  # 3 sqrt(3) / 2

#: "exceeds 1" means strictly above this, to avoid rounding-false positives
EXCEED_THRESHOLD = 1.0 + 1e-9

#: radial samples of the seminorms in ``theorem5_ratios`` (margins there are large)
PROBE_R_POINTS = 1024

#: radius bracket and residual tolerance of the Theorem 1 root solves
THEOREM1_BRACKET = (1e-6, 1.0 - 1e-6)
THEOREM1_TOL = 1e-10

#: the a values of the Theorem 4 scans; scale bracket and tolerance of ``theorem4_upper_bound``
THEOREM4_A_GRID = grid(1e-6, A_MAX - 1e-9, 200)
THEOREM4_BRACKET = (1.0 / np.sqrt(2.0), 0.7691)
THEOREM4_TOL = 1e-5


def _check_solver_tol(tol: float) -> float:
    if not 0.0 < tol < np.inf:
        raise ParameterDomainError(f"tol must be positive and finite, got {tol}")
    return tol


@dataclass(frozen=True)
class ScanReport:
    """Certificate (R, value, a, r) a threshold search found, and the number of
    sups over r it took on the a grid, ``THEOREM4_A_GRID.size`` per scale tried."""

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
    200 halvings; the residual is driven below tol.  s must lie in ``S_RANGE``
    = [1e-4, 1 - 1e-4], where the equation is well conditioned.
    """
    tol = _check_solver_tol(tol)
    s = float(s)
    if not S_RANGE[0] <= s <= S_RANGE[1]:
        raise ParameterDomainError(f"exponent s must lie in [1e-4, 1 - 1e-4], got {s}")
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


def _check_scale(scale: float) -> float:
    scale = float(scale)
    if not 0.0 < scale < 1.0:
        raise ParameterDomainError("the scale R must lie in (0, 1)")
    return scale


def cauchy_chain_check(s: TruncatedSeries, w: Weight, scale: float,
                       r: float) -> tuple[float, float, float]:
    """The three chain values at (R, r); weakly increasing for every input.

    v1 = w(r) R sum |a_n| (R r)^n, v2 = w(r) ||f||_L2(r) R/sqrt(1-R^2),
    v3 = w(r) ||f||_Linf(r) R/sqrt(1-R^2), the sup on the default angle grid.
    """
    scale = _check_scale(scale)
    norms = circle_norms(s, r)
    wr = float(w(float(r)))
    multiplier = float(scale / np.sqrt(1.0 - scale * scale))
    v1 = wr * scale * coefficient_sum(s, scale * r)
    v2 = wr * norms.l2_norm * multiplier
    v3 = wr * norms.sup_norm * multiplier
    return v1, v2, v3


def _check_a(a):
    arr = np.asarray(a, dtype=float)
    if not np.all((0.0 < arr) & (arr < A_MAX)):
        raise ParameterDomainError(
            f"parameter a must lie in (0, 1/sqrt(3)) = (0, {A_MAX:.6f})")
    return float(arr) if arr.ndim == 0 else arr


def avkhadiev_eval(a: float, z):
    """The unit-sup Bloch test function (3 sqrt(3)/2)(1-a^2)(z-a)/(1-az)^3.

    Under the standard weight, sup_z (1 - |z|^2) |f(z)| = 1 for every
    a in (0, 1/sqrt(3)).
    """
    a = _check_a(float(a))
    z = np.asarray(z, dtype=complex)
    den = 1.0 - a * z
    if np.any(den == 0.0):
        raise PoleError(f"pole at z = 1/a = {1.0 / a:.6g}")
    out = _COEF * (1.0 - a * a) * (z - a) / den ** 3
    if z.ndim == 0:
        return complex(out)
    return out


def avkhadiev_coefficients(a: float, n_terms: int = 257) -> TruncatedSeries:
    """Maclaurin coefficients C(a) (n+1)(n/2 - t) a^n with t = a^2/(1-a^2).

    The normalizer C(a) = (3 sqrt(3)/2)(1-a^2)^2 / a makes the series match
    avkhadiev_eval; then a_0 = -(3 sqrt(3)/2) a (1-a^2) < 0 and a_n > 0 for
    n >= 1 exactly when 0 < a < 1/sqrt(3).  Outside that range positivity
    fails and the parameter is rejected.
    """
    a = _check_a(float(a))
    if n_terms < 2:
        raise ParameterDomainError("need at least 2 coefficient terms")
    atil = a * a / (1.0 - a * a)
    norm = _COEF * (1.0 - a * a) ** 2 / a
    n = np.arange(n_terms, dtype=float)
    coeffs = norm * (n + 1.0) * (0.5 * n - atil) * a ** n
    rho = 0.5 * (1.0 + a)
    t = a / rho
    ks = np.arange(0, int(6.0 / np.log(1.0 / t)) + 8, dtype=float)
    m = norm * float(np.max((ks + 1.0) * (0.5 * ks + atil) * t ** ks))
    return TruncatedSeries(coeffs.astype(complex), rho, m)


def avkhadiev_majorant_closed_form(a, x):
    """sum |a_n| x^n = (3 sqrt(3)(1-a^2)/2) ((x-a)/(1-ax)^3 + 2a) for x >= 0.

    Broadcasts over both arguments; the cube is a product, so scalars and
    arrays get the same bits at every SIMD level.
    """
    a = _check_a(a)
    x = np.asarray(x, dtype=float)
    if not np.all(x >= 0.0):
        raise ParameterDomainError("majorant argument must be nonnegative")
    if np.any(a * x == 1.0):
        raise PoleError("pole at x = 1/a")
    if np.any(a * x > 1.0):
        raise DivergenceRegionError("majorant sum diverges past x = 1/a")
    u = 1.0 - a * x
    out = _COEF * (1.0 - a * a) * ((x - a) / (u * u * u) + 2.0 * a)
    return float(out) if np.ndim(out) == 0 else out


def theorem4_expression(a, scale: float, r):
    """R (1-r^2) (3 sqrt(3)(1-a^2)/2) ((Rr-a)/(1-aRr)^3 + 2a) on r in [0, 1].

    Broadcasts over a and r.  R >= 1 is allowed (a pole may then lie on the disc).
    """
    scale = float(scale)
    if not 0.0 <= scale < np.inf:
        raise ParameterDomainError("the scale R must be nonnegative and finite")
    r = np.asarray(r, dtype=float)
    if not np.all((r >= 0.0) & (r <= 1.0)):
        raise ParameterDomainError("radius must lie in [0, 1]")
    out = scale * (1.0 - r * r) * avkhadiev_majorant_closed_form(a, scale * r)
    return float(out) if np.ndim(out) == 0 else out


def _stationary_sups(a: np.ndarray, scale: float) -> tuple[np.ndarray, np.ndarray]:
    """Sups over r in [0, 1] of T4 at each a of a 1-D array, aR < 1 -> (values, radii).

    dT4/dr has the sign of P(r) = R(1-3a^2) + 2a(R^2-1) r + R(17a^2-3) r^2
    - 24a^3R^2 r^3 + 16a^4R^3 r^4 - 4a^5R^4 r^5, in t = aRr of the monic quintic
    t^5 - 4t^4 + 6t^3 + (3-17a^2)/(4a^2) t^2 + (1-R^2)/2 t - R^2(1-3a^2)/4, which
    does not underflow; its powers are products, so its companion eigenvalues
    keep their bits at every SIMD level.  The sup is the best T4 at r = 0 (first,
    so it wins ties) and at the real parts of the roots clipped to [0, 1].
    """
    ar = a * scale
    if not np.all((a >= 1e-150) & (ar >= 1e-300)):
        raise ParameterDomainError("the stationarity quintic needs a >= 1e-150 and aR >= 1e-300")
    a2, r2 = a * a, scale * scale
    companion = np.zeros((a.size, 5, 5))
    companion[:, range(1, 5), range(4)] = 1.0
    companion[:, 0] = np.transpose(np.broadcast_arrays(
        4.0, -6.0, (17.0 * a2 - 3.0) / (4.0 * a2), 0.5 * (r2 - 1.0), 0.25 * r2 * (1.0 - 3.0 * a2)))
    t = np.clip(np.linalg.eigvals(companion).real, 0.0, ar[:, None])
    radii = np.concatenate((np.zeros((a.size, 1)), t / ar[:, None]), axis=1)
    values = theorem4_expression(a[:, None], scale, radii)
    best = np.arange(a.size), np.argmax(values, axis=1)
    return values[best], radii[best]


def theorem4_sup(a: float, scale: float) -> tuple[float, float]:
    """sup over r in [0, 1] of ``theorem4_expression`` -> (value, witness_r),
    exact up to rounding (``_stationary_sups``).  A pole on the disc raises."""
    theorem4_expression(a, scale, 1.0)  # the domain, pole and divergence checks
    return tuple(float(v[0]) for v in _stationary_sups(np.array([float(a)]), float(scale)))


def best_test_ratio(scale: float) -> tuple[float, float, float]:
    """sup over a and r of ``theorem4_expression`` at the scale R -> (value, a, r).

    The best sup over r on ``THEOREM4_A_GRID``, its a polished at a root of
    the a slope if its bracket holds one: the majorant-to-function Bloch
    seminorm ratio of the best f' = g_a.  Up to about R = 1/2 it is R, at the
    last a and r = 0 up to rounding: T4(a, 0) = R (3 sqrt(3)/2) a (1 - a^2)
    peaks at exactly R at a = 1/sqrt(3).
    """
    scale = _check_scale(scale)

    def slope(a: float) -> float:
        # the sign of d/da sup_r T4: d[(1 - a^2) g(x)]/da at x = R r* (envelope theorem)
        x = scale * theorem4_sup(a, scale)[1]
        u = 1.0 - a * x
        return (-2.0 * a * ((x - a) / (u * u * u) + 2.0 * a)
                + (1.0 - a * a) * ((3.0 * x * (x - a) - u) / (u * u * u * u) + 2.0))

    values, _ = _stationary_sups(THEOREM4_A_GRID, scale)
    a_star, _ = scan_polish(lambda a: theorem4_sup(a, scale)[0], THEOREM4_A_GRID, values,
                            slope=slope)
    value, r_star = theorem4_sup(a_star, scale)
    return value, a_star, r_star


def theorem4_upper_bound(tol: float = THEOREM4_TOL) -> ScanReport:
    """Least scale R (by bisection) at which ``best_test_ratio`` exceeds 1.

    Any such R is an upper bound for the Bloch-space Bohr radius.  The
    expression grows monotonically in R, so bisection on the exceedance
    flag is valid; ``THEOREM4_BRACKET`` is halved until it is within tol,
    at most 200 times.  Each scale tried adds the ``THEOREM4_A_GRID`` sups
    over r to the ``samples`` count.  The report carries the certificate at
    the returned scale upper_bound: the expression value and witness (a, r).
    """
    tol = _check_solver_tol(tol)
    samples = 0

    def exceeds(scale: float) -> tuple[float, float, float] | None:
        nonlocal samples
        samples += THEOREM4_A_GRID.size
        found = best_test_ratio(scale)
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
    # alpha^k as repeated products: numpy's SIMD ** rounds by CPU
    powers = np.full(n_terms - 1, alpha)
    powers[0] = 1.0
    coeffs[1:] = -(1.0 - alpha * alpha) * np.cumprod(powers)
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
            from .norms import weighted_bloch_seminorm
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
    from .norms import weighted_bloch_seminorm
    from .weights import builtin_weight
    scale = _check_scale(scale)
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

