"""Radial weights for Bloch spaces and the sharpness criterion.

The criterion bounds are omega1(r) = 2 - r/r0 and
omega2(r) = (sqrt(2) r0 + r) / (sqrt(2) r + r0); a weight is admissible at
an anchor r0 in [1/sqrt(2), 1] when omega(r)/omega(r0) stays below their
pointwise minimum h(r) for every r in [0, 1).  h equals omega2 left of r0
and omega1 right of it, and is decreasing and convex on [0, r0).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional

import numpy as np

from .errors import ParameterDomainError, ZeroDenominatorError
from .search import R_MAX, bisect_flag, radii, scan_polish

SQRT2 = float(np.sqrt(2.0))
R0_MIN = 1.0 / SQRT2

#: default radial sample count of criterion checks
CRITERION_R_POINTS = 10_000

#: equality in the criterion is admissible, so passing tolerates tiny rounding
CRITERION_TOL = 1e-12

#: default sample count of ``h_profile``
PROFILE_POINTS = 512


@dataclass(frozen=True)
class Weight:
    """A nonnegative radial weight on [0, 1).

    ``fn`` must be vectorized over numpy arrays.  Calls at exactly r = 1 are
    answered with ``limit_at_one`` when that limit is finite and rejected
    otherwise; the open-interval domain is the contract everywhere else.
    ``slope``, when known, is omega' on [0, 1), vectorized like ``fn``; at a
    ``kink`` (a radius where omega' jumps) it may take either one-sided
    value, so polishes evaluate it only off the kink.  Radial sups of a
    series polish at a root of the weighted slope when it is given.
    """

    name: str
    fn: Callable = field(repr=False)
    params: Mapping[str, float] = field(default_factory=dict)
    limit_at_one: float = np.inf
    slope: Optional[Callable] = field(default=None, repr=False)
    kink: Optional[float] = None

    def __call__(self, r):
        """omega(r).  A float r in [0, 1) skips the domain checks, but ``fn``
        still gets the 0-d array of the general path, so the bits agree."""
        if isinstance(r, float) and 0.0 <= r < 1.0:
            return float(self.fn(np.asarray(r)))
        arr = np.asarray(r, dtype=float)
        if not np.all((arr >= 0.0) & (arr <= 1.0)):
            raise ParameterDomainError(f"weight {self.name} is defined on [0, 1)")
        if np.any(arr == 1.0) and not np.isfinite(self.limit_at_one):
            raise ParameterDomainError(
                f"weight {self.name} has no finite limit at r = 1")
        at_one = arr == 1.0
        inner = np.where(at_one, 0.0, arr)
        out = np.asarray(self.fn(inner), dtype=float)
        out = np.where(at_one, self.limit_at_one, out)
        if arr.ndim == 0:
            return float(out)
        return out

    def scaled(self, c: float) -> "Weight":
        """The weight multiplied by a positive finite constant."""
        if not 0.0 < c < np.inf:
            raise ParameterDomainError("scale must be positive and finite")
        slope = None if self.slope is None else lambda r: c * self.slope(r)
        return Weight(name=f"{c}*{self.name}", fn=lambda r: c * self.fn(r),
                      params=dict(self.params),
                      limit_at_one=c * self.limit_at_one, slope=slope, kink=self.kink)


@dataclass(frozen=True)
class CriterionReport:
    """Verdict of the admissibility inequality at an anchor radius r0.

    ``worst_margin`` is the minimum over the scan of h(r) - omega(r)/omega(r0);
    the check passes when it is >= -tolerance.  On failure
    ``violation_witness`` holds a radius where the inequality breaks.
    """

    r0: float
    passed: bool
    worst_margin: float
    violation_witness: Optional[float]


def builtin_weight(kind: str, **params) -> Weight:
    """Construct one of the built-in weights.

    Kinds: ``standard`` (1 - r^2), ``constant`` (identically 1),
    ``example2`` (1 left of r0, ((1-r)/(1-r0))^alpha right of it) and
    ``example3`` ((1 - |(r-r0)/(1-r0 r)|)^alpha).  The example weights
    require r0 in [1/sqrt(2), 1) and a finite alpha >= 1, and have their
    kink at r0.  Every kind carries its closed-form slope.
    """
    if kind == "standard":
        if params:
            raise ParameterDomainError("standard weight takes no parameters")
        return Weight(name="standard", fn=lambda r: 1.0 - r * r, limit_at_one=0.0,
                      slope=lambda r: -2.0 * r)
    if kind == "constant":
        if params:
            raise ParameterDomainError("constant weight takes no parameters")
        return Weight(name="constant", fn=lambda r: np.ones_like(np.asarray(r, float)),
                      limit_at_one=1.0, slope=lambda r: np.zeros_like(np.asarray(r, float)))
    if kind in ("example2", "example3"):
        if "r0" not in params:
            raise ParameterDomainError("example weights need r0")
        r0 = float(params.pop("r0"))
        alpha = float(params.pop("alpha", 1.0))
        if params:
            raise ParameterDomainError(f"unknown parameters {sorted(params)}")
        if not R0_MIN - 1e-12 <= r0 < 1.0:
            raise ParameterDomainError(
                f"example weights need r0 in [1/sqrt(2), 1), got {r0}")
        if not 1.0 <= alpha < np.inf:
            raise ParameterDomainError(
                f"example weights need a finite alpha >= 1, got {alpha}")
        if kind == "example2":
            fn = lambda r: np.where(r <= r0, 1.0, ((1.0 - r) / (1.0 - r0)) ** alpha)
            slope = lambda r: np.where(r <= r0, 0.0, -alpha / (1.0 - r0)
                                       * ((1.0 - r) / (1.0 - r0)) ** (alpha - 1.0))
        else:
            fn = lambda r: (1.0 - np.abs((r - r0) / (1.0 - r0 * r))) ** alpha
            slope = lambda r: _example3_slope(r, r0, alpha)
        return Weight(name=kind, fn=fn, params={"r0": r0, "alpha": alpha},
                      limit_at_one=0.0, slope=slope, kink=r0)
    raise ParameterDomainError(f"unknown weight kind {kind!r}")


def _example3_slope(r, r0: float, alpha: float):
    """d/dr (1 - |u|)^alpha with u = (r - r0)/(1 - r0 r), du/dr = (1 - r0^2)/(1 - r0 r)^2."""
    u = (r - r0) / (1.0 - r0 * r)
    return (-alpha * (1.0 - np.abs(u)) ** (alpha - 1.0) * np.sign(u)
            * (1.0 - r0 * r0) / (1.0 - r0 * r) ** 2)


def weight_from_token(token: str) -> Weight:
    """Parse a CLI weight token.

    ``standard``, ``constant``, ``example2:r0=0.8,alpha=2``,
    ``example3:r0=0.75,alpha=1``.  Each parameter may appear once.
    """
    kind, _, tail = token.partition(":")
    params = {}
    if tail:
        for item in tail.split(","):
            key, _, value = item.partition("=")
            if not _ or not key:
                raise ParameterDomainError(f"malformed weight parameter {item!r}")
            if key.strip() in params:
                raise ParameterDomainError(f"weight parameter {key.strip()!r} is repeated")
            try:
                params[key.strip()] = float(value)
            except ValueError:
                raise ParameterDomainError(
                    f"weight parameter {key!r} needs a decimal literal, got {value!r}")
    return builtin_weight(kind.strip(), **params)


def _check_r0(r0: float) -> float:
    if not R0_MIN - 1e-12 <= r0 <= 1.0:
        raise ParameterDomainError(f"anchor r0 must lie in [1/sqrt(2), 1], got {r0}")
    return float(r0)


def _omegas(r, r0: float):
    return 2.0 - r / r0, (SQRT2 * r0 + r) / (SQRT2 * r + r0)


def criterion_bound(r, r0: float):
    """h(r) = min(2 - r/r0, (sqrt(2) r0 + r)/(sqrt(2) r + r0)).

    A float r in [0, 1] takes plain float arithmetic: the same IEEE bits."""
    r0 = _check_r0(r0)
    if isinstance(r, float) and 0.0 <= r <= 1.0:
        return float(min(_omegas(r, r0)))
    arr = np.asarray(r, dtype=float)
    if not np.all((arr >= 0.0) & (arr <= 1.0)):
        raise ParameterDomainError("criterion bound is evaluated on [0, 1)")
    out = np.minimum(*_omegas(arr, r0))
    if arr.ndim == 0:
        return float(out)
    return out


def _margin(r, r0: float, w_r, w0: float):
    return criterion_bound(r, r0) - w_r / w0


def _check_tol(tol: float) -> float:
    if not tol >= 0.0:
        raise ParameterDomainError(f"tolerance must be >= 0, got {tol}")
    return tol


def criterion_check(w: Weight, r0: float, r_points: int = CRITERION_R_POINTS,
                    tol: float = CRITERION_TOL) -> CriterionReport:
    """Scan h(r) - omega(r)/omega(r0) over [0, 1) and report the worst margin.

    The minimum over ``r_points`` radii is polished by trisection to a 1e-12
    width.  A zero weight value at the anchor raises ZeroDenominatorError;
    an infinite one is rejected as a parameter-domain error.
    """
    rs = radii(r_points)
    r0 = _check_r0(r0)
    tol = _check_tol(tol)
    w0 = float(w(r0))
    if w0 == 0.0:
        raise ZeroDenominatorError(f"weight {w.name} vanishes at r0 = {r0}")
    if not np.isfinite(w0):
        raise ParameterDomainError(f"weight {w.name} is not finite at r0 = {r0}")

    def margin(r):
        return _margin(r, r0, w(r), w0)

    worst_r, worst = scan_polish(margin, rs, minimize=True)
    passed = worst >= -tol
    return CriterionReport(r0=r0, passed=passed, worst_margin=worst,
                           violation_witness=None if passed else worst_r)


def _with_point(xs: np.ndarray, x: float) -> np.ndarray:
    """The sorted, distinct ``xs`` with ``x`` in its place (``np.union1d``
    without loading ``numpy.ma``)."""
    i = int(np.searchsorted(xs, x))
    return xs if i < xs.size and xs[i] == x else np.insert(xs, i, x)


def find_admissible_r0(w: Weight, r_points: int = CRITERION_R_POINTS,
                       tol: float = CRITERION_TOL,
                       ) -> Optional[tuple[float, CriterionReport]]:
    """Search [1/sqrt(2), 1] for an anchor where the criterion passes.

    Scans 100 uniform anchors (plus the weight's own r0 parameter when it
    declares one: piecewise weights may be admissible at a single anchor
    that no uniform grid hits), takes the first passing candidate, and
    sharpens the pass/fail boundary against the preceding failing candidate
    by bisection.  Anchors where the weight vanishes count as failures.
    Returns (r0, report) or None when every candidate fails.

    omega is evaluated on the scan radii once.  An anchor whose grid margin
    dips below -tol fails without ``criterion_check``: its polish keeps only
    strictly lower points, so that verdict is final.  Anchors where omega is
    zero or not finite still go through it, so the errors are unchanged.
    """
    rs = radii(r_points)
    tol = _check_tol(tol)
    w_rs = w(rs)
    candidates = np.linspace(R0_MIN, 1.0, 100)
    own = w.params.get("r0")
    if own is not None and R0_MIN - 1e-12 <= own <= 1.0:
        candidates = _with_point(candidates, float(own))

    def check(r0: float) -> Optional[CriterionReport]:
        w0 = w(r0)
        # np.min, not nanmin: a NaN margin falls through to the full check
        if 0.0 < abs(w0) < np.inf and np.min(_margin(rs, r0, w_rs, w0)) < -tol:
            return None
        try:
            report = criterion_check(w, r0, r_points=r_points, tol=tol)
        except ZeroDenominatorError:
            return None
        return report if report.passed else None

    previous_fail = None
    for r0 in candidates:
        report = check(float(r0))
        if report is None:
            previous_fail = float(r0)
            continue
        if previous_fail is None:
            return float(r0), report
        return bisect_flag(check, previous_fail, float(r0), report, 1e-12, 60)
    return None


def h_profile(r0: float, n_points: int = PROFILE_POINTS) -> np.ndarray:
    """Tabulate (r, omega1, omega2, h) for plotting.

    Returns the rows over ``radii(n_points)`` plus the anchor r0 when it
    lies there, so the h(r0) = 1 corner is present.  h is decreasing
    everywhere and convex left of r0.
    """
    r0 = _check_r0(r0)
    rs = radii(n_points)
    if r0 <= R_MAX:
        rs = _with_point(rs, r0)
    w1, w2 = _omegas(rs, r0)
    return np.column_stack([rs, w1, w2, np.minimum(w1, w2)])
