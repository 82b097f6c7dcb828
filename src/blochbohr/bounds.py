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
  roots of a quintic in r, solved on floats (``theorem4_sup``).
* ``bombieri_m_infty`` / ``mobius_majorant_sup``: the closed form
  (3 - sqrt(8(1-r^2)))/r of the bounded-function majorant supremum on
  [1/3, 1/sqrt(2)], and its independent realization by the Mobius family
  a + (1-a^2) r / (1-ar).
* ``best_test_ratio``: the best Theorem 4 test-function ratio at a scale,
  which ``theorem4_upper_bound`` drives past 1 by Newton's method on R, and
  which the strictness probe of m_Bloch(R) < R/sqrt(1-R^2) subtracts from
  the bound: the quintic sups on an a grid, R checked once, the best a polished
  at a root of the envelope slope.  For f with f' = g_a (``avkhadiev_eval``) the
  majorant-to-function Bloch seminorm ratio is exactly ``theorem4_sup(a, R)``,
  because the majorant of g_a has nonnegative coefficients.  All of this runs
  on floats; only series and array inputs import numpy and ``series``.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import DivergenceRegionError, ParameterDomainError, PoleError
from .search import bisect_root, grid, mapped, scan_polish

#: exponents s ``theorem1_root`` accepts; the root is ill conditioned beyond them
S_RANGE = (1e-4, 1.0 - 1e-4)

#: the Theorem 4 test function g_a takes a in (0, A_MAX)
A_MAX = 1.0 / math.sqrt(3.0)
_COEF = 1.5 * math.sqrt(3.0)  # 3 sqrt(3) / 2

#: "exceeds 1" means strictly above this, to avoid rounding-false positives
EXCEED_THRESHOLD = 1.0 + 1e-9

#: radius bracket of the Theorem 1 root solves
THEOREM1_BRACKET = (1e-6, 1.0 - 1e-6)

#: the a values of the Theorem 4 scans; the scale bracket of ``theorem4_upper_bound``
THEOREM4_A_GRID = grid(1e-6, A_MAX - 1e-9, 200)
THEOREM4_BRACKET = (1.0 / math.sqrt(2.0), 0.7691)


class ScanReport(NamedTuple):
    """Certificate (R, value, a, r) the root search on R found, and the sups over r
    it took, ``len(THEOREM4_A_GRID)`` per scale evaluated (bracket ends included)."""

    upper_bound: float
    best_value: float
    witness_a: float
    witness_r: float
    samples: int


def _t1_residual(r: float, s: float) -> tuple[float, float]:
    """(F, F_r) of ``theorem1_root`` at r."""
    p, q = r ** (2.0 * s), r ** (-2.0 * (1.0 - s))
    return math.log(1.0 - p) - 1.0 + q, -2.0 * (s * p / (1.0 - p) + (1.0 - s) * q) / r


def theorem1_root(s: float) -> float:
    """Radius solving F(r) = log(1 - r^{2s}) - 1 + r^{-2(1-s)} = 0 for s in (0, 1).

    ``bisect_root`` on ``THEOREM1_BRACKET`` with the slope F_r = -2s r^{2s-1}/(1 - r^{2s})
    - 2(1-s) r^{-2(1-s)-1}, to a Newton step of a few ulps.  s must lie in
    ``S_RANGE`` = [1e-4, 1 - 1e-4], where the equation is well conditioned.
    """
    s = float(s)
    if not S_RANGE[0] <= s <= S_RANGE[1]:
        raise ParameterDomainError(f"exponent s must lie in [1e-4, 1 - 1e-4], got {s}")
    return bisect_root(lambda r: _t1_residual(r, s), *THEOREM1_BRACKET)


def theorem1_optimize() -> tuple[float, float]:
    """Maximize the radius of ``theorem1_root`` over the exponent s.

    Write F(r, s) = log(1 - r^{2s}) - 1 + r^{-2(1-s)}, so that r(s) solves
    F = 0.  At the maximizer dr/ds = -F_s/F_r vanishes, hence F_s = 0:
    -2 ln r r^{2s}/(1 - r^{2s}) + 2 ln r r^{-2(1-s)} = 0, which gives
    1 - r^{2s} = r^2.  Substituting r^{2s} = 1 - r^2 into F = 0 leaves
    g(r) = 2 ln r + r^{-2} - 2 = 0; g' = 2(r^2 - 1)/r^3 < 0 on (0, 1), so
    the root r* is unique, and s* = ln(1 - r*^2)/(2 ln r*).  F(r*, s*)
    equals g(r*), whose root ``bisect_root`` finds on ``THEOREM1_BRACKET`` to
    a Newton step of a few ulps.  Returns (s_star, r_star).
    """
    r_star = bisect_root(lambda r: (2.0 * math.log(r) + r ** -2.0 - 2.0,
                                    2.0 * (r * r - 1.0) / (r * r * r)), *THEOREM1_BRACKET)
    s_star = math.log(1.0 - r_star * r_star) / (2.0 * math.log(r_star))
    return s_star, r_star


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
    from .series import circle_norms, coefficient_sum
    scale = _check_scale(scale)
    norms = circle_norms(s, r)
    wr = float(w(float(r)))
    multiplier = scale / math.sqrt(1.0 - scale * scale)
    v1 = wr * scale * coefficient_sum(s, scale * r)
    v2 = wr * norms.l2_norm * multiplier
    v3 = wr * norms.sup_norm * multiplier
    return v1, v2, v3


def _lift(*xs):
    """(xs, all, any): floats and ``bool`` if all are numbers, else numpy's (imported then)."""
    if all(isinstance(x, (float, int)) for x in xs):
        return [float(x) for x in xs], bool, bool
    import numpy as np
    return [np.asarray(x, dtype=float) for x in xs], np.all, np.any


def _check_a(a):
    (a,), every, _ = _lift(a)
    if not every((0.0 < a) & (a < A_MAX)):
        raise ParameterDomainError(
            f"parameter a must lie in (0, 1/sqrt(3)) = (0, {A_MAX:.6f})")
    return float(a) if getattr(a, "ndim", 0) == 0 else a


def avkhadiev_eval(a: float, z):
    """The unit-sup Bloch test function (3 sqrt(3)/2)(1-a^2)(z-a)/(1-az)^3.

    Under the standard weight, sup_z (1 - |z|^2) |f(z)| = 1 for every
    a in (0, 1/sqrt(3)).
    """
    import numpy as np
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
    import numpy as np
    from .series import TruncatedSeries
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


def _majorant(a, x):
    u = 1.0 - a * x
    return _COEF * (1.0 - a * a) * ((x - a) / (u * u * u) + 2.0 * a)


def _t4(a, scale, r):
    """The body of ``theorem4_expression``, unchecked, on floats and arrays alike."""
    return scale * (1.0 - r * r) * _majorant(a, scale * r)


def _check_majorant(a, x):
    """(a, x) as floats, or as arrays if either is one, checked for the majorant sum."""
    (a, x), every, some = _lift(_check_a(a), x)
    if not every(x >= 0.0):
        raise ParameterDomainError("majorant argument must be nonnegative")
    if some(a * x == 1.0):
        raise PoleError("pole at x = 1/a")
    if some(a * x > 1.0):
        raise DivergenceRegionError("majorant sum diverges past x = 1/a")
    return a, x


def avkhadiev_majorant_closed_form(a, x):
    """sum |a_n| x^n = (3 sqrt(3)(1-a^2)/2) ((x-a)/(1-ax)^3 + 2a) for x >= 0.

    Floats give a float; an array in either argument broadcasts.  The cube
    is a product, so scalars and arrays get the same bits at every SIMD level.
    """
    out = _majorant(*_check_majorant(a, x))
    return float(out) if getattr(out, "ndim", 0) == 0 else out


def theorem4_expression(a, scale: float, r):
    """R (1-r^2) (3 sqrt(3)(1-a^2)/2) ((Rr-a)/(1-aRr)^3 + 2a) on r in [0, 1].

    Floats give a float, arrays broadcast.  R >= 1 is allowed (a pole may then lie on the disc).
    """
    scale = float(scale)
    if not 0.0 <= scale < math.inf:
        raise ParameterDomainError("the scale R must be nonnegative and finite")
    (r,), every, _ = _lift(r)
    if not every((r >= 0.0) & (r <= 1.0)):
        raise ParameterDomainError("radius must lie in [0, 1]")
    a, _ = _check_majorant(a, scale * r)
    out = _t4(a, scale, r)
    return float(out) if getattr(out, "ndim", 0) == 0 else out


def _monotone_root(f: tuple, lo: float, hi: float, flo: float, fhi: float) -> float:
    """The root of the polynomial f on [lo, hi], where it is monotone and changes
    sign, by ``bisect_root``'s iteration with Horner's rule inlined: kept apart, since
    a callback per step (same bits) makes ``best_test_ratio`` a fifth to a third slower."""
    below = flo < 0.0
    x = lo - flo * (hi - lo) / (fhi - flo)
    for _ in range(200):
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
            if not lo < x < hi:
                break
        fx = dfx = 0.0
        for c in f:  # Horner's rule, highest degree first, for f and its slope
            dfx = dfx * x + fx
            fx = fx * x + c
        if (fx < 0.0) == below:
            lo, flo = x, fx
        else:
            hi, fhi = x, fx
        nx = x - fx / dfx if dfx != 0.0 else lo
        if abs(nx - x) <= 4e-16 * x:  # a step of a few ulps: converged
            return nx if lo <= nx <= hi else x
        x = nx
    return lo if abs(flo) < abs(fhi) else hi


def _quintic_sup(a: float, scale: float) -> tuple[float, float]:
    """``theorem4_sup`` without its checks, for floats a and R that pass them."""
    ar, a2, r2 = a * scale, a * a, scale * scale
    c2, c1 = (3.0 - 17.0 * a2) / (4.0 * a2), 0.5 * (1.0 - r2)
    breaks = [0.0, 0.6, 1.0, ar] if ar > 1.0 else [0.0, 0.6, ar] if ar > 0.6 else [0.0, ar]
    for f in ((20.0, -48.0, 36.0, 2.0 * c2), (5.0, -16.0, 18.0, 2.0 * c2, c1),
              (1.0, -4.0, 6.0, c2, c1, -0.25 * r2 * (1.0 - 3.0 * a2))):
        roots, lo, flo = [0.0], 0.0, f[-1]
        for hi in breaks[1:]:
            fhi = 0.0
            for c in f:
                fhi = fhi * hi + c
            if (flo < 0.0) != (fhi < 0.0):
                roots.append(_monotone_root(f, lo, hi, flo, fhi))
            lo, flo = hi, fhi
        breaks = roots + [ar]
    value, witness = _t4(a, scale, 0.0), 0.0
    for t in breaks[1:-1]:
        v = _t4(a, scale, t / ar)
        if v > value:
            value, witness = v, t / ar
    return value, witness


def theorem4_sup(a: float, scale: float) -> tuple[float, float]:
    """sup over r in [0, 1] of ``theorem4_expression`` -> (value, witness_r), on floats.

    dT4/dr has the sign of P(r) = R(1-3a^2) + 2a(R^2-1) r + R(17a^2-3) r^2
    - 24a^3R^2 r^3 + 16a^4R^3 r^4 - 4a^5R^4 r^5 = -(4/R) q(t), t = aRr, for the
    monic quintic q = t^5 - 4t^4 + 6t^3 + (3-17a^2)/(4a^2) t^2 + (1-R^2)/2 t
    - R^2(1-3a^2)/4 (for a >= 1e-150 and aR >= 1e-300).  q''' = 12(5t-3)(t-1)
    has the fixed roots 3/5 and 1, so q'' is monotone between them, q' between
    the roots of q'' and q between those of q', each solved on its monotone
    pieces of [0, aR] in turn by the float kernel ``_quintic_sup``.  The sup is the best T4
    at r = 0 (first, so it wins ties) and at the roots of q.  Inputs are checked; a pole raises.
    """
    theorem4_expression(a, scale, 1.0)  # the domain, pole and divergence checks
    a, scale = float(a), float(scale)
    if not (a >= 1e-150 and a * scale >= 1e-300):
        raise ParameterDomainError("the stationarity quintic needs a >= 1e-150 and aR >= 1e-300")
    return _quintic_sup(a, scale)


def best_test_ratio(scale: float) -> tuple[float, float, float]:
    """sup over a and r of ``theorem4_expression`` at the scale R -> (value, a, r).

    The best sup over r on ``THEOREM4_A_GRID``, its a polished at a root of
    the a slope if its bracket holds one: the majorant-to-function Bloch
    seminorm ratio of the best f' = g_a.  Up to about R = 1/2 it is R, at the
    last a and r = 0 up to rounding: T4(a, 0) = R (3 sqrt(3)/2) a (1 - a^2)
    peaks at exactly R at a = 1/sqrt(3).  R is checked once, by the sup at the least a.
    """
    scale = _check_scale(scale)

    def slope(a: float) -> float:
        # the sign of d/da sup_r T4: d[(1 - a^2) g(x)]/da at x = R r* (envelope theorem)
        x = scale * _quintic_sup(a, scale)[1]
        u = 1.0 - a * x
        return (-2.0 * a * ((x - a) / (u * u * u) + 2.0 * a)
                + (1.0 - a * a) * ((3.0 * x * (x - a) - u) / (u * u * u * u) + 2.0))

    # the other a lie in the grid's range, in (0, 1/sqrt(3)) with aR < 1: unchecked sups
    values = [theorem4_sup(THEOREM4_A_GRID[0], scale)[0]]
    values += [_quintic_sup(a, scale)[0] for a in THEOREM4_A_GRID[1:]]
    a_star, _ = scan_polish(lambda a: _quintic_sup(a, scale)[0], THEOREM4_A_GRID, values,
                            slope=slope)
    value, r_star = _quintic_sup(a_star, scale)
    return value, a_star, r_star


def theorem4_upper_bound() -> ScanReport:
    """Least scale R at which ``best_test_ratio`` exceeds ``EXCEED_THRESHOLD``.

    Any such R is an upper bound for the Bloch-space Bohr radius.  The root
    of best_test_ratio(R) = ``EXCEED_THRESHOLD`` (not 1, so the certificate
    agrees with the ``exceeded`` flag of a single ``theorem4`` check) is
    found by ``bisect_root`` on ``THEOREM4_BRACKET``, whose ends must fall
    on either side of it (NoSignChangeError otherwise).  By the envelope
    theorem the ratio's slope is dT4/dR at its witness (a, r),
    (1-r^2) (3 sqrt(3)/2)(1-a^2) [g(x) + x g'(x)] with x = Rr and g the
    majorant's bracket (x-a)/(1-ax)^3 + 2a.  The ratio rises and is convex
    on the bracket, so the secant point falls short of the root and every
    Newton iterate after it exceeds.  The report carries the least evaluated
    scale that exceeds, with that call's value and witness (a, r).
    """
    tried = []

    def excess(scale: float) -> tuple[float, float]:
        value, a, r = best_test_ratio(scale)
        tried.append((scale, value, a, r))
        x = scale * r
        u = 1.0 - a * x
        dg = (1.0 + 2.0 * a * x - 3.0 * a * a) / (u * u * u * u)  # g'(x)
        slope = (1.0 - r * r) * _COEF * (1.0 - a * a) * ((x - a) / (u * u * u) + 2.0 * a + x * dg)
        return value - EXCEED_THRESHOLD, slope

    bisect_root(excess, *THEOREM4_BRACKET)
    return ScanReport(*min(t for t in tried if t[1] > EXCEED_THRESHOLD),
                      len(THEOREM4_A_GRID) * len(tried))


def bombieri_m_infty(r):
    """m_infty(r) = (3 - sqrt(8 (1 - r^2))) / r on [1/3, 1/sqrt(2)], mapped.

    Endpoint values: 1 at r = 1/3 and sqrt(2) at r = 1/sqrt(2).
    """
    def m_infty(x: float) -> float:
        if not 1.0 / 3.0 - 1e-12 <= x <= 1.0 / math.sqrt(2.0) + 1e-12:
            raise ParameterDomainError(
                "the closed form holds for r in [1/3, 1/sqrt(2)] only")
        return (3.0 - math.sqrt(8.0 * (1.0 - x * x))) / x
    return mapped(m_infty, r)


def mobius_majorant_sum(a: float, r):
    """Majorant sum of (a - z)/(1 - az) at radius r: a + (1 - a^2) r / (1 - ar),
    mapped over r."""
    a = float(a)
    def majorant_sum(x: float) -> float:
        if a * x == 1.0:
            raise PoleError("pole at ar = 1")
        return a + (1.0 - a * a) * x / (1.0 - a * x)
    return mapped(majorant_sum, r)


def mobius_majorant_sup(r: float) -> float:
    """sup over a in [0, 1) of the Mobius-family majorant sum at radius r.

    It is the sum at the root a* = (4 - sqrt(8 (1 - r^2)))/(4 r) of the
    a-slope 1 - 4ar + 2a^2 r^2 + r^2, or at a = 1 when a* >= 1 (r <= 1/3).
    On [1/3, 1/sqrt(2)] this reproduces the closed form ``bombieri_m_infty``;
    it never exceeds the Cauchy-Schwarz bound 1/sqrt(1 - r^2), with
    equality only at r = 1/sqrt(2).
    """
    r = float(r)
    if not 0.0 < r < 1.0:
        raise ParameterDomainError("radius must lie in (0, 1)")
    return mobius_majorant_sum(min(1.0, (4.0 - math.sqrt(8.0 * (1.0 - r * r))) / (4.0 * r)), r)


class ProbeFunction:
    """A named test function with a per-weight cache of its Bloch seminorm."""

    def __init__(self, name: str, series: TruncatedSeries):
        self.name, self.series, self._norms = name, series, {}

    def bloch_seminorm(self, w: Weight) -> float:
        key = (w.name, tuple(sorted(w.params.items())))
        if key not in self._norms:
            from .norms import weighted_bloch_seminorm
            self._norms[key] = weighted_bloch_seminorm(self.series, w)
        return self._norms[key]
