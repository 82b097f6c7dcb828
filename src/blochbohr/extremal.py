"""Degree-one Blaschke extremals and end-to-end sharpness verification.

The extremal family is the Mobius map
f(z) = (z/r0 - e^{i phi}/sqrt(2)) / (1 - e^{-i phi} z / (sqrt(2) r0)),
a degree-1 Blaschke factor with zero of modulus 1/sqrt(2) composed with
z/r0.  Its coefficient moduli obey |a_n| r0^n = (1/sqrt(2))^{n+1}; its
circle maximum is a closed form (``extremal_sup_modulus``), and its majorant
sum at radius r/sqrt(2) is (1/sqrt(2)) / (1 - r/(2 r0)).

For a weight that passes the admissibility criterion at r0 the weighted
majorant side, omega(r) r0/(2 r0 - r) = omega(r0) rho(r)/omega1(r) with
rho = omega/omega(r0) <= h <= omega1 = 2 - r/r0, peaks at r0, where
``verify_sharpness`` takes it.  The weighted sup side peaks there too, and
the sharpness identity holds, only when rho stays below the reciprocal
circle maximum beyond r0, which the criterion does not imply; it is scanned
on floats by branch-and-bound on ``interval`` boxes.  Only the functions
that build or read a series import numpy and ``series``.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import (DivergenceRegionError, ParameterDomainError, PoleError,
                     PreconditionError)
from .interval import Radii
from .search import SQRT2, mapped, scan_polish
from .weights import CRITERION_R_POINTS, Weight, _check_r0, criterion_check

_C = 0.5 * SQRT2  # 1/sqrt(2) correctly rounded; 1/SQRT2 is one ulp low
DEFAULT_ORDER = 256  # truncation of ``extremal_coefficients``


class _ExtremalSpec(NamedTuple):
    r0: float
    phi: float = 0.0
    truncation: int = DEFAULT_ORDER


class ExtremalSpec(_ExtremalSpec):
    """Parameters of the extremal: anchor radius, rotation, truncation order."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace validates too

    def __new__(cls, r0: float, phi: float = 0.0, truncation: int = DEFAULT_ORDER):
        _check_r0(r0)
        if truncation < 1:
            raise ParameterDomainError("truncation order must be >= 1")
        if not math.isfinite(phi):
            raise ParameterDomainError(f"rotation phi must be finite, got {phi}")
        return super().__new__(cls, r0, float(phi) % (2.0 * math.pi), truncation)


class SharpnessReport(NamedTuple):
    """Both sides of the sharpness identity with their witness radii.

    ``lhs_sup`` is sup_r omega(r)/sqrt(2) * sum |a_n| (r/sqrt(2))^n, which the
    criterion at r0 puts at r0 (so ``lhs_witness_r`` is r0), ``rhs_sup`` is
    sup_r omega(r) * max_theta |f(r e^{i theta})|, and ``relative_gap`` =
    |lhs - rhs| / max(lhs, rhs); ``r0`` is echoed.  The identity holds when
    the gap vanishes up to rounding, and then both witnesses are r0.
    """

    lhs_sup: float
    rhs_sup: float
    lhs_witness_r: float
    rhs_witness_r: float
    relative_gap: float
    r0: float


def extremal_eval(spec: ExtremalSpec, z):
    """Closed-form value of the extremal Mobius map at z (scalar or array)."""
    import numpy as np
    z = np.asarray(z, dtype=complex)
    rot = np.exp(1j * spec.phi)
    den = 1.0 - np.conj(rot) * z / (SQRT2 * spec.r0)
    if np.any(den == 0.0):
        raise PoleError(f"pole at z = sqrt(2) r0 e^(i phi), |z| = {SQRT2 * spec.r0:.6g}")
    out = (z / spec.r0 - rot / SQRT2) / den
    if z.ndim == 0:
        return complex(out)
    return out


def extremal_coefficients(spec: ExtremalSpec) -> TruncatedSeries:
    """Maclaurin coefficients of the extremal via its geometric expansion.

    a_0 = -e^{i phi}/sqrt(2) and a_n = e^{i phi (1-n)} (sqrt(2) r0)^{1-n} / (2 r0)
    for n >= 1, so |a_n| r0^n = (1/sqrt(2))^{n+1} for every n.  The geometric
    tail ratio is 1/(sqrt(2) r0); at r0 = 1/sqrt(2) exactly that ratio is 1
    and no tail certificate can be attached.
    """
    import numpy as np
    from .series import TruncatedSeries
    n = spec.truncation
    rot = np.exp(1j * spec.phi)
    q = np.conj(rot) / (SQRT2 * spec.r0)
    coeffs = np.empty(n + 1, dtype=complex)
    coeffs[0] = -rot * _C
    coeffs[1:] = q ** np.arange(0, n, dtype=float) / (2.0 * spec.r0)
    rho = 1.0 / (SQRT2 * spec.r0)
    if rho < 1.0:
        return TruncatedSeries(coeffs, rho, _C)
    return TruncatedSeries(coeffs)


def _sup_modulus(r0: float, x):
    """max(A, B) of ``extremal_sup_modulus`` at a float or an Interval x."""
    if not x >= 0.0:
        raise ParameterDomainError("radius must be nonnegative")
    den = r0 - _C * x
    if den == 0.0:
        raise PoleError(f"circle through the pole at r = sqrt(2) r0 = {SQRT2 * r0:.6g}")
    return max((x + _C * r0) / (r0 + _C * x), abs(x - _C * r0) / abs(den))


def extremal_sup_modulus(r0: float, r):
    """max_theta |f(r e^{i theta})| = max(A, B), with x = r/r0.

    A = (x + 1/sqrt(2)) / (1 + x/sqrt(2)), at theta = pi + phi, is the
    maximum up to r0; B = |x - 1/sqrt(2)| / |1 - x/sqrt(2)|, at theta = phi,
    is the maximum beyond it (at r0 = 0.8, r = 0.85: 1.42901, where A is the
    circle minimum 1.01045).  The value does not depend on phi.  Mapped.
    """
    r0 = _check_r0(r0)
    return mapped(lambda x: _sup_modulus(r0, x), r)


def extremal_majorant_sum(r0: float, r):
    """sum |a_n| (r/sqrt(2))^n = (1/sqrt(2)) / (1 - r/(2 r0)) for r < 2 r0, mapped."""
    r0 = _check_r0(r0)
    def majorant_sum(x: float) -> float:
        if not x >= 0.0:
            raise ParameterDomainError("radius must be nonnegative")
        if x == 2.0 * r0:
            raise PoleError(f"majorant sum has a pole at r = 2 r0 = {2.0 * r0:.6g}")
        if not x < 2.0 * r0:
            raise DivergenceRegionError("majorant sum diverges past r = 2 r0")
        return _C / (1.0 - x / (2.0 * r0))
    return mapped(majorant_sum, r)


def blaschke_degree(s: TruncatedSeries, r0: float) -> float:
    """Degree of a Blaschke product composed with z/r0, from the area formula.

    (1/pi) int_D |(f(r0 z))'|^2 dA = sum_{n>=1} n |a_n|^2 r0^{2n}; for a true
    degree-d product the value is the integer d.  The coefficient tail must
    be certified at r0.
    """
    import numpy as np
    from .series import _check_certified
    if r0 <= 0.0:
        raise ParameterDomainError("composition radius must be positive")
    if not s.has_tail:
        raise DivergenceRegionError("degree formula requires a tail-certified series")
    _check_certified(s, r0, "degree formula")
    n = np.arange(s.coeffs.size, dtype=float)
    return float(np.sum(n * np.abs(s.coeffs) ** 2 * r0 ** (2.0 * n)))


def blaschke_degree_montecarlo(s: TruncatedSeries, r0: float,
                               samples: int = 200_000, seed: int = 0) -> float:
    """Monte-Carlo disc integral (1/pi) int_D |(f(r0 z))'|^2 dA.

    Independent oracle for ``blaschke_degree``: uniform points on the disc,
    averaging |r0 f'(r0 z)|^2.
    """
    import numpy as np
    from .series import _check_certified, _horner, derivative
    if r0 <= 0.0:
        raise ParameterDomainError("composition radius must be positive")
    _check_certified(s, r0, "Monte-Carlo degree")
    rng = np.random.default_rng(seed)
    pts = np.sqrt(rng.random(samples)) * np.exp(2j * np.pi * rng.random(samples))
    ds = derivative(s)
    vals = _horner(ds.coeffs, r0 * pts)
    return float(np.mean(np.abs(r0 * vals) ** 2))


def verify_sharpness(w: Weight, r0: float,
                     r_points: int = CRITERION_R_POINTS) -> SharpnessReport:
    """Compare both weighted suprema of the sharpness identity at anchor r0.

    Requires the weight to pass the admissibility criterion at r0
    (PreconditionError otherwise), which bounds the majorant side by its
    value at r0 up to a relative 1.71 ``CRITERION_TOL``: that side is taken
    there, witness r0.  The sup side is scanned on ``radii(r_points)`` plus
    r0, its kink, by branch-and-bound and polished at a root of its slope
    omega' M + omega M', M' = r0/(2 (r0 +- r/sqrt(2))^2) (+ up to r0, -
    beyond it), or by golden section for a weight without ``slope``.
    """
    report = criterion_check(w, r0, r_points)
    if not report.passed:
        raise PreconditionError(
            f"weight {w.name} fails the sharpness criterion at r0 = {r0} "
            f"(worst margin {report.worst_margin:.3g} at "
            f"r = {report.violation_witness})")

    lhs_sup = w(r0) / SQRT2 * extremal_majorant_sum(r0, r0)
    omega = lambda r: w.fn(r) if r < 1.0 else w(r)  # fn takes boxes; w(1.0) the limit
    rhs_slope = None if w.slope is None else (
        lambda r: (w.slope(r) * _sup_modulus(r0, r) + w(r) * 0.5
                   * r0 / (r0 + (_C if r <= r0 else -_C) * r) ** 2))
    rhs_wit, rhs_sup = scan_polish(lambda r: omega(r) * _sup_modulus(r0, r),
                                   Radii(r_points, r0), slope=rhs_slope, kink=r0)
    gap = abs(lhs_sup - rhs_sup) / max(lhs_sup, rhs_sup)
    return SharpnessReport(lhs_sup=lhs_sup, rhs_sup=rhs_sup,
                           lhs_witness_r=r0, rhs_witness_r=rhs_wit,
                           relative_gap=gap, r0=r0)
