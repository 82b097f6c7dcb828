"""Scan sizes, the constant sqrt(2), and 1-D search primitives.

Every grid supremum in the library (and the worst criterion margin, an
infimum) goes through one primitive, ``scan_polish``: a uniform grid scan
(radial scans start at 0), by branch-and-bound on ``interval`` boxes where no
values come precomputed, then a polish of the best grid point's bracket
to a 1e-12 width.  A maximum with an analytic slope (``series.circle_sup``
over the angle, the radial sups of ``norms`` and ``extremal.verify_sharpness``
over r, ``bounds.best_test_ratio`` over a) is polished by Illinois regula
falsi on its root (``falsi_peak``), to about eps, not sqrt(eps); one under a
weight without a slope by golden section, the worst criterion margin by
trisection.  On the angle circle the bracket wraps; elsewhere it is clipped.
The Theorem 1 roots and the least Theorem 4 scale come from ``bisect_root``,
Newton in a sign-change bracket, to a step of a few ulps, with no tolerance.
Grids are lists of floats, or ``Radii``, the radial grid with an anchor added
as a point, computed as it is read; all of this runs without numpy.  The scan
sizes (``R_POINTS``, ``THETA_POINTS``, ``PROFILE_POINTS``, ``CRITERION_R_POINTS``)
and ``SQRT2`` live here, so the CLI's parser reads its defaults without loading
``weights``.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Callable

from .errors import ConvergenceError, NoSignChangeError, ParameterDomainError

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
SQRT2 = math.sqrt(2.0)

#: the radial sample count of the series sups and of theorem2-check's table,
#: the number of angles of a circle scan, the default sample count of
#: ``weights.h_profile``, the radial sample count of criterion checks and
#: sharpness scans, and the outer radius of every radial scan
R_POINTS = 2048
THETA_POINTS = 4096
PROFILE_POINTS = 512
CRITERION_R_POINTS = 10_000
R_MAX = 1.0 - 1e-6


def grid(lo: float, hi: float, n_points: int) -> list[float]:
    """``n_points`` uniform points covering [lo, hi] (a scan needs at least 2):
    lo + i step, the last one hi itself, bit for bit ``np.linspace``'s."""
    if n_points < 2:
        raise ParameterDomainError(f"a scan needs at least 2 points, got {n_points}")
    step = (hi - lo) / (n_points - 1)
    return [lo + i * step for i in range(n_points - 1)] + [hi]


class Radii:
    """``grid(0, R_MAX, n)``, bit for bit, with ``extra`` in its place unless it
    is a point already, as a sequence that computes each point when it is read."""

    def __init__(self, n: int, extra: float | None = None):
        if n < 2:
            raise ParameterDomainError(f"a scan needs at least 2 points, got {n}")
        # ``at`` is the index of ``extra``; n, past the end, while there is none
        self.n, self.last, self.step, self.at = n, n - 1, R_MAX / (n - 1), n
        if extra is not None:
            at = bisect_left(self, extra)
            if at == n or self[at] != extra:
                self.n, self.at, self.extra = n + 1, at, extra

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, k: int) -> float:
        if not 0 <= k < self.n:
            raise IndexError(k)
        if k == self.at:
            return self.extra
        k -= k > self.at
        return R_MAX if k == self.last else k * self.step


def mapped(body: Callable, x):
    """``body`` (written on floats) at a number x, and at each element, as a float,
    of a list (a list back) or an array (an ndarray back; numpy imported then)."""
    if isinstance(x, list):
        return list(map(body, map(float, x)))
    if isinstance(x, (float, int)):
        return body(float(x))
    import numpy as np
    arr = np.asarray(x, dtype=float)
    out = np.array(list(map(body, arr.ravel().tolist())), dtype=float)
    return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)


def golden_max(f: Callable, lo: float, hi: float) -> tuple[float, float]:
    """Maximize a scalar function on [lo, hi] by golden-section search to a 1e-12 bracket.

    Assumes unimodality on the bracket.  Ties keep the left subinterval, so
    plateaus drift toward the smaller argument.  Returns (argmax, max).
    """
    a, b = float(lo), float(hi)
    if not b > a:
        return a, float(f(a))
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = float(f(c)), float(f(d))
    for _ in range(200):
        if b - a <= 1e-12:
            break
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = float(f(c))
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = float(f(d))
    x = 0.5 * (a + b)
    fx = float(f(x))
    # never report worse than an interior probe
    for xe, fe in ((c, fc), (d, fd)):
        if fe > fx:
            x, fx = xe, fe
    return x, fx


def falsi_peak(f: Callable, slope: Callable, lo: float, hi: float) -> tuple:
    """(x, f(x)) at the root where ``slope`` (sign of f') falls from + to - on [lo, hi].

    Illinois regula falsi (an end kept twice running has its slope halved),
    to a 1e-12 bracket, a zero slope or a secant point that rounds onto an
    end; x is the probe of least |slope|.  No such root: (None, -inf)."""
    a, b, ga, gb = lo, hi, slope(lo), slope(hi)
    if not ga > 0.0 > gb:
        return None, -math.inf
    best, side = min((ga, a), (-gb, b)), 0
    for _ in range(100):
        if b - a <= 1e-12 or best[0] == 0.0:
            break
        x = float(a + ga * (b - a) / (ga - gb))
        if not a < x < b:
            break
        gx = slope(x)
        best = min(best, (abs(gx), x))
        if gx > 0.0:
            a, ga, gb, side = x, gx, (0.5 * gb if side > 0 else gb), 1
        else:
            b, gb, ga, side = x, gx, (0.5 * ga if side < 0 else ga), -1
    return best[1], float(f(best[1]))


def trisect_min(f: Callable, lo: float, hi: float) -> tuple[float, float]:
    """Minimize a scalar function on [lo, hi] by trisection to a 1e-12 bracket.

    Returns the best (argmin, min) among all probed points.
    """
    a, b = float(lo), float(hi)
    best_x, best_f = a, float(f(a))
    fb = float(f(b))
    if fb < best_f:
        best_x, best_f = b, fb
    for _ in range(300):
        if b - a <= 1e-12:
            break
        m1 = a + (b - a) / 3.0
        m2 = b - (b - a) / 3.0
        f1, f2 = float(f(m1)), float(f(m2))
        if f1 < best_f:
            best_x, best_f = m1, f1
        if f2 < best_f:
            best_x, best_f = m2, f2
        if f1 <= f2:
            b = m2
        else:
            a = m1
    return best_x, best_f


def bisect_root(g: Callable, lo: float, hi: float) -> float:
    """The root of g on [lo, hi], where g(x) returns (value, slope) and the
    value changes sign (NoSignChangeError otherwise; an end where it is 0 is the root).

    Newton steps from the secant point, bisecting when one leaves the
    bracket (safeguarded Newton, "rtsafe" of Numerical Recipes, section 9.4),
    until a step is a few ulps, or no float is left inside the bracket: then
    the end of smaller |g|.  ConvergenceError after 200 steps.
    """
    a, b = float(lo), float(hi)
    ga, gb = float(g(a)[0]), float(g(b)[0])
    if ga == 0.0:
        return a
    if gb == 0.0:
        return b
    if (ga > 0.0) == (gb > 0.0):
        raise NoSignChangeError(
            f"no sign change on [{a}, {b}]: g(lo)={ga:.6g}, g(hi)={gb:.6g}")
    below = ga < 0.0
    x = a - ga * (b - a) / (gb - ga)
    for _ in range(200):
        if not a < x < b:
            x = 0.5 * (a + b)
            if not a < x < b:
                return a if abs(ga) < abs(gb) else b
        gx, dgx = g(x)
        if (gx < 0.0) == below:
            a, ga = x, gx
        else:
            b, gb = x, gx
        nx = x - gx / dgx if dgx != 0.0 else a
        if abs(nx - x) <= 4e-16 * abs(x):  # a step of a few ulps: converged
            return nx if a <= nx <= b else x
        x = nx
    raise ConvergenceError(f"no convergence in 200 steps on [{a}, {b}]")


def scan_polish(f: Callable, xs, values=None, *, minimize: bool = False,
                period: float | None = None, rescore: bool = False,
                slope: Callable | None = None,
                kink: float | None = None) -> tuple[float, float]:
    """Best point of f on the uniform grid ``xs``, polished; returns (x, value).

    ``values`` are f already computed on ``xs``, both lists or arrays; without
    them ``interval.grid_best`` finds the winner of ``list(map(f, xs))``,
    evaluating f (on floats, and on Interval boxes) only where a box bound
    cannot exclude it.  The grid winner is the argmax (argmin when
    ``minimize``), ties going to the smallest argument; with ``rescore`` the
    values are only a cheap stand-in (an unpolished profile) and f scores the winner.  Its
    bracket of one step either side wraps around when ``xs`` covers one
    ``period`` (the witness then reduced to [0, period)) and is clipped to
    the grid otherwise.  ``golden_max`` (``trisect_min``) polishes it to a
    1e-12 width, or, given a ``slope`` with the sign of f', ``falsi_peak``.
    A ``kink`` of f (where f' jumps) in the bracket is then a candidate of its
    own, and each side of it is polished with the slope taken off the kink,
    the one-sided slope.  The best candidate, ties going to the smallest
    argument, is kept only when strictly better, so plateau witnesses stay put.
    """
    if len(xs) < 2:
        raise ParameterDomainError(f"a scan needs at least 2 points, got {len(xs)}")
    if values is None:
        from .interval import grid_best
        i, best_f = grid_best(f, xs, minimize)
    else:
        if isinstance(values, list):
            i = values.index(min(values) if minimize else max(values))
        else:
            i = int(values.argmin() if minimize else values.argmax())
        best_f = values[i]
    best_x = float(xs[i])
    best_f = float(f(best_x) if rescore else best_f)
    if period is None:
        a, b = float(xs[max(i - 1, 0)]), float(xs[min(i + 1, len(xs) - 1)])
    else:
        step = float(xs[1] - xs[0])
        a, b = best_x - step, best_x + step
    if b > a:
        if minimize:
            x, fx = trisect_min(f, a, b)
        elif slope is None:
            x, fx = golden_max(f, a, b)
        elif kink is not None and a <= kink <= b:
            x, fx = max((falsi_peak(f, slope, a, math.nextafter(kink, a)),
                         (kink, float(f(kink))),
                         falsi_peak(f, slope, math.nextafter(kink, b), b)),
                        key=lambda p: p[1])
        else:
            x, fx = falsi_peak(f, slope, a, b)
        if (fx < best_f) if minimize else (fx > best_f):
            best_x, best_f = (x if period is None else x % period), fx
    return best_x, best_f


def grid_golden_max(f: Callable, lo: float, hi: float, n_points: int) -> tuple[float, float]:
    """Maximize f on [lo, hi]: an n-point ``scan_polish`` of the float ``grid``."""
    return scan_polish(f, grid(lo, hi, n_points))
