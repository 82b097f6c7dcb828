"""Weighted Bloch norms and radial suprema.

The Bloch norm of f = sum a_n z^n under a radial weight omega is
|a_0| + sup_{z in D} omega(|z|) |f'(z)|.  The same two-stage scan (radial
grid, then golden-section polish, with an inner angle scan per radius)
also serves the derivative-free problem sup_r omega(r) max_theta |f(r e^{i
theta})| for arbitrary evaluators.  For a series the rough radial scan skips
each radius whose weight times a rigorous bound on its circle maximum (the
majorant sum, or Bernstein's) stays below the best score: the argmax stays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import BlochBohrError, EvaluatorDomainError
from .search import R_MAX, R_POINTS, THETA_POINTS, grid_golden_max, radii, scan_polish
from .series import (TruncatedSeries, _angle_count, _angle_grid_values, _check_certified,
                     circle_sup, coefficient_sum, derivative)
from .weights import Weight

#: stride of the radii the pruned rough scan transforms first (plus the last)
_COARSE = 16
#: slack of that scan's bounds, in units of sum |a_k| r^k; the FFT rounds
#: within c log2(count) eps of that sum
_EPS = 1e-9


@dataclass(frozen=True)
class RadialSupReport:
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

    def scan(rows: np.ndarray) -> None:
        for part, values in _angle_grid_values(s.coeffs, rs[rows], count):
            out[rows[part]] = np.abs(values).max(axis=1)

    rows = np.arange(rs.size)
    coarse = np.append(rows[:-1:_COARSE], rows[-1])
    scan(coarse)
    best = np.max(weights[coarse] * out[coarse])
    rest = (rows % _COARSE != 0) & (rows < rows[-1])
    if np.all((weights >= 0.0) & (weights < np.inf)) and 0.0 < best < np.inf:
        maj = coefficient_sum(s, rs)
        upper = (1.0 + _EPS) * maj
        n = s.order
        if np.pi * n < count:
            up = coarse[np.searchsorted(coarse, rows)]
            upper = np.minimum(upper, _EPS * maj + (out[up] + _EPS * maj[up])
                               / (1.0 - np.pi * n / count))
        rest &= weights * upper >= best
    scan(rows[rest])
    return out


def _radial_sup(rs: np.ndarray, rough: np.ndarray, weights: np.ndarray,
                circle_max: Callable, w: Weight) -> tuple[float, float, float]:
    """sup_r w(r) circle_max(r) -> (value, witness_r, witness_theta).

    ``rough`` holds the unpolished circle maxima on the radii ``rs`` and
    ``weights`` the weight there; the argmax of their product picks the
    radial bracket.  ``circle_max(r)`` returns the polished (max, theta) at
    one radius.  Ties resolve to the smallest witness radius.
    """
    thetas = {}

    def weighted(r: float) -> float:
        sup, thetas[r] = circle_max(r)
        return float(w(r)) * sup

    r, v = scan_polish(weighted, rs, weights * rough, rescore=True)
    return v, r, thetas[r]


def _series_radial_sup(s: TruncatedSeries, w: Weight,
                       r_points: int = R_POINTS) -> tuple[float, float, float]:
    """sup_r w(r) max_theta |f(r e^{i theta})| -> (value, witness_r, witness_theta).

    Ties resolve to the smallest witness radius.  The rough scan picks the
    bracket; it transforms every ``_COARSE``-th radius and the last, then
    radius r only if w(r) u(r) >= best, the best weighted coarse row.  Here
    u(r) = (1 + eps) maj(r) with maj(r) = sum |a_k| r^k, or, when pi n < count
    (degree n, FFT size count), the smaller Bernstein bound
    (rough(r_c) + eps maj(r_c)) / (1 - pi n / count) + eps maj(r): M(r) =
    max_theta |f| grows with r and is within pi n M / count of the samples at
    the next coarse radius r_c.  eps = 1e-9 dwarfs the FFT's rounding, so u
    bounds the computed rough(r) and each skipped row (0.0) scores below
    best: the argmax, and every polished probe and output, is unchanged.
    """
    rs = radii(r_points)
    _check_certified(s, R_MAX, "radial scan")
    if s.is_nonnegative:
        profile = lambda r: np.asarray(w(r)) * coefficient_sum(s, r)
        x, v = grid_golden_max(profile, 0.0, R_MAX, r_points)
        return v, x, 0.0
    weights = np.asarray(w(rs))
    rough = _batch_circle_max(s, rs, THETA_POINTS, weights)
    return _radial_sup(rs, rough, weights, lambda r: circle_sup(s, r), w)


def weighted_bloch_seminorm(s: TruncatedSeries, w: Weight,
                            r_points: int = R_POINTS) -> float:
    """sup_r omega(r) max_theta |f'(r e^{i theta})| (the norm without |a_0|).

    This is the gradient part of the Bloch norm; constants have seminorm
    zero.  The majorant-ratio bound R/sqrt(1-R^2) controls exactly this
    quantity, which is why ``bounds.theorem5_ratios`` divides seminorms.
    """
    sup, _, _ = _series_radial_sup(derivative(s), w, r_points)
    return sup


def weighted_bloch_norm(s: TruncatedSeries, w: Weight,
                        r_points: int = R_POINTS) -> float:
    """|a_0| + sup_r omega(r) max_theta |f'(r e^{i theta})|.

    The series must be certified up to the scan radius (polynomials always
    are); otherwise a DivergenceRegionError is raised.
    """
    return float(abs(s.coeffs[0])) + weighted_bloch_seminorm(s, w, r_points)


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
    rs = radii(r_points)
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
