"""Weighted Bloch norms and radial suprema.

The Bloch norm of f = sum a_n z^n under a radial weight omega is
|a_0| + sup_{z in D} omega(|z|) |f'(z)|.  It and the derivative-free problem
sup_r omega(r) max_theta |f(r e^{i theta})| share one scan: rough circle
maxima on a radial grid, then a polish of the best bracket.  For a series
whose weight has a slope the radius is polished at a root of
d/dr [omega M] (M the circle maximum, M' by the envelope theorem), a weight
kink being a candidate of its own; otherwise by golden section.  A series'
rough scan runs in three levels and skips each radius whose weight times a
rigorous bound on its circle maximum stays below the best score so far.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

from .errors import BlochBohrError, EvaluatorDomainError, ParameterDomainError
from .search import R_MAX, R_POINTS, THETA_POINTS, radii, scan_polish
from .series import (TruncatedSeries, _angle_count, _angle_grid_values, _check_certified,
                     _check_moduli, _horner_pair, circle_sup, coefficient_sum, derivative)
from .weights import Weight

#: strides of the radii the pruned rough scan transforms, level by level (the
#: first level adds the last radius)
_STRIDES = (256, 16, 1)
#: slack of that scan's bounds, in units of sum |a_k| r^k; the FFT rounds
#: within c log2(count) eps of that sum
_EPS = 1e-9


class RadialSupReport(NamedTuple):
    """Result of a weighted radial supremum scan with its witness point."""

    value: float
    witness_r: float
    witness_theta: float


def _batch_circle_max(s: TruncatedSeries, rs: np.ndarray, theta_points: int,
                      weights: np.ndarray) -> np.ndarray:
    """max_theta |f(r e^{i theta})| on the raw angle grid at each radius that
    can hold the argmax of ``weights * out`` (see ``_series_radial_sup``),
    0.0 elsewhere; negative or non-finite weights get every radius."""
    count = _angle_count(theta_points, s.coeffs.size)
    out = np.zeros(rs.size)
    rows = np.arange(rs.size)
    scanned = np.zeros(rs.size, dtype=bool)
    prunable = np.all((weights >= 0.0) & (weights < np.inf))
    maj = None
    for stride in _STRIDES:
        level = (rows % stride == 0) & ~scanned
        level[-1] = not scanned[-1]
        best = np.max(weights * out) if prunable else 0.0
        if 0.0 < best < np.inf:
            if maj is None:
                maj = coefficient_sum(s, rs)
            upper = (1.0 + _EPS) * maj
            if np.pi * s.order < count:
                done = rows[scanned]
                up = done[np.searchsorted(done, rows)]
                upper = np.minimum(upper, _EPS * maj + (out[up] + _EPS * maj[up])
                                   / (1.0 - np.pi * s.order / count))
            level &= weights * upper >= best
        todo = rows[level]
        for part, values in _angle_grid_values(s.coeffs, rs[todo], count):
            out[todo[part]] = np.abs(values).max(axis=1)
        _check_moduli(out[todo])
        scanned |= level
    return out


def _radial_sup(rs: np.ndarray, rough: np.ndarray, weights: np.ndarray,
                circle_max: Callable, w: Weight,
                circle_slope: Callable | None = None) -> tuple[float, float, float]:
    """sup_r w(r) circle_max(r) -> (value, witness_r, witness_theta).

    ``rough`` holds the unpolished circle maxima on the radii ``rs`` and
    ``weights`` the weight there; the argmax of their product picks the
    radial bracket.  ``circle_max(r)`` returns the polished (max, theta) at
    one radius and runs once per radius.  Given ``circle_slope(r, theta)``,
    the derivative M'(r) of the circle maximum at its witness angle, and a
    weight with a slope, the bracket is polished at the root of
    d/dr [w M] = w' M + w M' (``scan_polish`` with the weight's kink), else
    by golden section.  Ties resolve to the smallest witness radius.
    """
    circles = {}

    def circle(r: float) -> tuple[float, float]:
        if r not in circles:
            circles[r] = circle_max(r)
        return circles[r]

    def weighted(r: float) -> float:
        return float(w(r)) * circle(r)[0]

    slope = None
    if circle_slope is not None and w.slope is not None:
        def slope(r: float) -> float:
            sup, theta = circle(r)
            return w.slope(r) * sup + w(r) * circle_slope(r, theta)

    r, v = scan_polish(weighted, rs, weights * rough, rescore=True, slope=slope,
                       kink=w.kink)
    return v, r, circle(r)[1]


def _modulus_slope(cs: list, r: float, theta: float) -> float:
    """d/dr |f(r e^{i theta})| = Re(conj(f) e^{i theta} f'(z))/|f| at z = r e^{i theta},
    the coefficients ``cs`` as Python complex; where f = 0 (r = 0 with
    a_0 = 0, as a circle maximum) the right derivative |f'(z)|."""
    e = complex(math.cos(theta), math.sin(theta))
    f, d = _horner_pair(cs, r * e)
    m = abs(f)
    return (f.conjugate() / m * e * d).real if m else abs(d)


def _series_radial_sup(s: TruncatedSeries, w: Weight,
                       r_points: int = R_POINTS) -> tuple[float, float, float]:
    """sup_r w(r) max_theta |f(r e^{i theta})| -> (value, witness_r, witness_theta).

    Ties resolve to the smallest witness radius.  The rough scan picks the
    bracket: for real nonnegative coefficients the majorant sum (the circle
    maximum, at theta = 0); else it transforms the radii level by level,
    every ``_STRIDES``-th one (the first level with the last radius), and
    radius r only if w(r) u(r) >= best, the best weighted row scanned so
    far.  Here u(r) = (1 + eps) maj(r) with maj(r) = sum |a_k| r^k, or, when
    pi n < count (degree n, FFT size count), the smaller Bernstein bound
    (rough(r_c) + eps maj(r_c)) / (1 - pi n / count) + eps maj(r): M(r) =
    max_theta |f| grows with r and is within pi n M / count of the samples
    at the next scanned radius r_c above.  eps = 1e-9 dwarfs the FFT's
    rounding, so u bounds the computed rough(r) and each skipped row (0.0)
    scores below best: the argmax is that of the full scan.  By the
    envelope theorem M'(r) = d/dr |f(r e^{i theta*})| at the angle witness
    theta*, so a weight with a slope polishes the radius at a root of
    w' M + w M', each side of a weight kink on its own.
    """
    rs = np.asarray(radii(r_points))
    _check_certified(s, R_MAX, "radial scan")
    weights = np.asarray(w(rs))
    rough = (coefficient_sum(s, rs) if s.is_nonnegative
             else _batch_circle_max(s, rs, THETA_POINTS, weights))
    cs = s.coeffs.tolist()
    return _radial_sup(rs, rough, weights, lambda r: circle_sup(s, r), w,
                       lambda r, theta: _modulus_slope(cs, r, theta))


def weighted_bloch_seminorm(s: TruncatedSeries, w: Weight,
                            r_points: int = R_POINTS) -> float:
    """sup_r omega(r) max_theta |f'(r e^{i theta})| (the norm without |a_0|).

    This is the gradient part of the Bloch norm; constants have seminorm
    zero.  The majorant-ratio bound R/sqrt(1-R^2) controls exactly this
    quantity, which is why the strictness probe divides seminorms.
    """
    sup, _, _ = _series_radial_sup(derivative(s), w, r_points)
    return sup


def weighted_bloch_norm(s: TruncatedSeries, w: Weight,
                        r_points: int = R_POINTS) -> float:
    """|a_0| + sup_r omega(r) max_theta |f'(r e^{i theta})|.

    The series must be certified up to the scan radius (polynomials always
    are), else DivergenceRegionError; a norm past the float range raises too.
    """
    norm = float(abs(s.coeffs[0])) + weighted_bloch_seminorm(s, w, r_points)
    if not norm < np.inf:
        raise ParameterDomainError("the Bloch norm |a_0| + seminorm overflows")
    return norm


def _call_evaluator(evaluator: Callable, z: np.ndarray) -> np.ndarray:
    try:
        out = np.asarray(evaluator(z), dtype=complex)
        if out.shape != z.shape:
            raise ValueError("shape mismatch")
    except BlochBohrError:
        raise
    except Exception:
        try:
            out = np.array([evaluator(complex(p)) for p in z.ravel()],
                           dtype=complex).reshape(z.shape)
        except BlochBohrError:
            raise
        except Exception as exc:
            raise EvaluatorDomainError(f"evaluator failed on the scan disc: {exc}")
    if not np.all(np.isfinite(out)):
        raise EvaluatorDomainError("evaluator produced non-finite values on the scan disc")
    return out


def weighted_radial_sup(evaluator: Callable, w: Weight,
                        r_points: int = R_POINTS) -> RadialSupReport:
    """sup_r omega(r) max_theta |f(r e^{i theta})| for an arbitrary evaluator.

    ``evaluator`` maps complex points to complex values and must be defined
    on the closed disc of radius ``R_MAX``; vectorized callables are
    used as-is, scalar ones fall back to an elementwise loop.  The best
    radial bracket is polished monotonically; ties report the smallest
    witness radius.
    """
    rs = np.asarray(radii(r_points))
    angles = np.linspace(0.0, 2.0 * np.pi, THETA_POINTS, endpoint=False)
    rough = np.empty(rs.size)
    chunk = max(1, 2_000_000 // angles.size)
    for start in range(0, rs.size, chunk):
        rr = rs[start:start + chunk]
        z = rr[:, None] * np.exp(1j * angles)[None, :]
        rough[start:start + chunk] = np.abs(_call_evaluator(evaluator, z)).max(axis=1)

    def circle_max(r: float) -> tuple[float, float]:
        f = lambda th: np.abs(_call_evaluator(
            evaluator, np.asarray(r * np.exp(1j * th), dtype=complex)))
        theta, sup = scan_polish(f, angles, period=2.0 * np.pi)
        return sup, theta

    value, r, theta = _radial_sup(rs, rough, np.asarray(w(rs)), circle_max, w)
    return RadialSupReport(value=value, witness_r=r, witness_theta=theta)
