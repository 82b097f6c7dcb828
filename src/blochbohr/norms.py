"""Weighted Bloch norms and radial suprema of power series.

The Bloch norm of f = sum a_n z^n under a radial weight omega is
|a_0| + sup_{z in D} omega(|z|) |f'(z)|, so it rests on the radial supremum
sup_r omega(r) max_theta |g(r e^{i theta})| of the series g = f'.  That
supremum has one implementation (``_series_radial_sup``, public as
``weighted_radial_sup``): rough circle maxima on a radial grid, pruned by
rigorous bounds on the circle maximum, then a polish of the best bracket.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from .errors import ParameterDomainError
from .search import R_MAX, R_POINTS, THETA_POINTS, grid, scan_polish
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


def _circle_max_bound(rs: np.ndarray, out: np.ndarray, scanned: np.ndarray,
                      maj: np.ndarray, q: float) -> np.ndarray:
    """u(r) of ``_series_radial_sup`` at the rows of ``rs`` between ``scanned`` ones."""
    if not q < 1.0:
        return (1.0 + _EPS) * maj
    done = np.flatnonzero(scanned)
    k = np.searchsorted(done, np.arange(rs.size))
    lo, up = done[np.maximum(k - 1, 0)], done[k]
    hat = (out + _EPS * maj) / math.sqrt(1.0 - q * q / 2.0)
    with np.errstate(all="ignore"):  # s = 0 at r_lo = 0; Mh(r_lo) = 0 masked, NaN: the cap
        s = np.log(rs[up] / rs) / np.log(rs[up] / rs[lo])
        three = np.exp(s * np.log(hat[lo]) + (1.0 - s) * np.log(hat[up]))
    return np.fmin((1.0 + _EPS) * maj, _EPS * maj + np.where(hat[lo] > 0.0, three, hat[up]))


def _batch_circle_max(s: TruncatedSeries, rs: np.ndarray, theta_points: int,
                      weights: np.ndarray) -> np.ndarray:
    """max_theta |f(r e^{i theta})| on the raw angle grid at each radius whose
    weight times ``_circle_max_bound`` (three circles in r, second order in
    theta, an eps maj slack) reaches the best row so far, 0.0 elsewhere;
    negative or non-finite weights get every radius."""
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
            level &= weights * _circle_max_bound(rs, out, scanned, maj,
                                                 np.pi * s.order / count) >= best
        todo = rows[level]
        for part, values in _angle_grid_values(s.coeffs, rs[todo], count):
            out[todo[part]] = np.abs(values).max(axis=1)
        _check_moduli(out[todo])
        scanned |= level
    return out


def _modulus_slope(cs: list, r: float, theta: float) -> float:
    """d/dr |f(r e^{i theta})| = Re(conj(f) e^{i theta} f'(z))/|f| at z = r e^{i theta},
    the coefficients ``cs`` as Python complex; where f = 0 (r = 0 with
    a_0 = 0, as a circle maximum) the right derivative |f'(z)|."""
    e = complex(math.cos(theta), math.sin(theta))
    f, d = _horner_pair(cs, r * e)
    m = abs(f)
    return (f.conjugate() / m * e * d).real if m else abs(d)


def _series_radial_sup(s: TruncatedSeries, w: Weight) -> RadialSupReport:
    """sup_r w(r) max_theta |f(r e^{i theta})| with its witness point.

    The circle maximum M(r) and its witness angle come from ``circle_sup``,
    once per radius of ``grid(0, R_MAX, R_POINTS)``.  Ties resolve to the smallest
    witness radius.  The rough scan picks the bracket: for real nonnegative
    coefficients the majorant sum (the circle maximum, at theta = 0); else it
    transforms the radii level by level, every ``_STRIDES``-th one (the first
    level with the last radius), and radius r only if w(r) u(r) >= best, the
    best weighted row scanned so far.  u = (1 + eps) maj, maj(r) = sum |a_k|
    r^k, or, for q = pi n / count < 1 (degree n, FFT size count), the smaller
    eps maj + H.  As |f|^2 is a trig polynomial of degree n, Bernstein twice
    bounds its d^2/dtheta^2 by n^2 M^2, and a grid angle lies within pi / count
    of the maximum: M <= Mh = (rough + eps maj) / sqrt(1 - q^2 / 2).  log M is
    convex in log r (Hadamard's three circles): between scanned r_lo and r_up,
    H = Mh(r_lo)^s Mh(r_up)^(1 - s), s = log(r_up / r) / log(r_up / r_lo) (0
    at r_lo = 0; H = Mh(r_up) where Mh(r_lo) = 0).  eps = 1e-9 dwarfs the
    FFT's rounding and H's log/exp rounding (near 1e-12 relative at any SIMD
    level, and H <= maj where it undercuts the cap), so u bounds the computed
    rough(r), a skipped row (0.0) cannot win, and the argmax is the full scan's.
    By the envelope theorem M'(r) = d/dr |f(r e^{i theta*})| at the angle
    witness theta*, so a weight with a slope polishes the radius at a root of
    w' M + w M' (``scan_polish`` with the weight's kink), each side of the
    kink on its own; a weight without a slope polishes each by golden section.
    """
    rs = np.asarray(grid(0.0, R_MAX, R_POINTS))
    _check_certified(s, R_MAX, "radial scan")
    weights = np.asarray(w(rs))
    rough = (coefficient_sum(s, rs) if s.is_nonnegative
             else _batch_circle_max(s, rs, THETA_POINTS, weights))
    cs = s.coeffs.tolist()
    circle = functools.cache(lambda r: circle_sup(s, r))

    def weighted(r: float) -> float:
        return float(w(r)) * circle(r)[0]

    slope = None
    if w.slope is not None:
        def slope(r: float) -> float:
            sup, theta = circle(r)
            return w.slope(r) * sup + w(r) * _modulus_slope(cs, r, theta)

    # the rough winner scores its polished circle maximum, at least its row (up
    # to rounding where |f| is constant on the circle), so the winner stays put
    values = weights * rough
    i = int(values.argmax())
    values[i] = weighted(float(rs[i]))
    r, v = scan_polish(weighted, rs, values, slope=slope, kink=w.kink)
    return RadialSupReport(v, r, circle(r)[1])


def weighted_bloch_seminorm(s: TruncatedSeries, w: Weight) -> float:
    """sup_r omega(r) max_theta |f'(r e^{i theta})| (the norm without |a_0|).

    This is the gradient part of the Bloch norm; constants have seminorm
    zero.  The majorant-ratio bound R/sqrt(1-R^2) controls exactly this
    quantity, which is why the strictness probe divides seminorms.
    """
    sup, _, _ = _series_radial_sup(derivative(s), w)
    return sup


def weighted_bloch_norm(s: TruncatedSeries, w: Weight) -> float:
    """|a_0| + sup_r omega(r) max_theta |f'(r e^{i theta})|.

    The series must be certified up to the scan radius (polynomials always
    are), else DivergenceRegionError; a norm past the float range raises too.
    """
    norm = float(abs(s.coeffs[0])) + weighted_bloch_seminorm(s, w)
    if not norm < np.inf:
        raise ParameterDomainError("the Bloch norm |a_0| + seminorm overflows")
    return norm


def weighted_radial_sup(s: TruncatedSeries, w: Weight) -> RadialSupReport:
    """sup_r omega(r) max_theta |f(r e^{i theta})| of a series, with its witness
    point; the series must be certified up to the scan radius."""
    return _series_radial_sup(s, w)
