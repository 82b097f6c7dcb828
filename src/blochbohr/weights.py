"""Radial weights for Bloch spaces and the sharpness criterion.

The criterion bounds are omega1(r) = 2 - r/r0 and
omega2(r) = (sqrt(2) r0 + r) / (sqrt(2) r + r0); a weight is admissible at
an anchor r0 in [1/sqrt(2), 1] when omega(r)/omega(r0) stays below their
pointwise minimum h(r) for every r in [0, 1).  h equals omega2 left of r0
and omega1 right of it, and is decreasing and convex on [0, r0).  Its corner
at r0 is too sharp for a weight differentiable there, so an anchor below 1
can only be admissible at a kink of the weight.  Weights, slopes and h are
written on floats, and weights and h are mapped over lists and arrays: no
numpy is loaded here, and the records are NamedTuples, so neither is
``dataclasses``.  The margin's scan takes the same bodies on ``interval``
boxes.
"""

from __future__ import annotations

import math
from types import MappingProxyType
from typing import Callable, Mapping, NamedTuple, Optional

from .errors import ParameterDomainError, ZeroDenominatorError
from .search import (CRITERION_R_POINTS, PROFILE_POINTS, R_MAX, SQRT2, Radii, mapped,
                     scan_polish)

R0_MIN = 1.0 / SQRT2

#: equality in the criterion is admissible, so passing tolerates tiny rounding
CRITERION_TOL = 1e-12


class Weight(NamedTuple):
    """A nonnegative radial weight on [0, 1).

    ``fn`` and ``slope`` take a float; the weight maps lists and arrays
    element by element.  Criterion and sharpness scans may pass ``fn`` an
    ``interval.Interval`` box instead; a body that cannot take one raises,
    and the scan evaluates those radii one by one.  Calls at exactly r = 1
    are answered with ``limit_at_one`` when that limit is finite (an
    infinite one fails the criterion) and rejected otherwise; the
    open-interval domain is the contract everywhere else.  ``slope``, when
    known, is omega' on [0, 1); at a ``kink`` (a radius where omega' jumps)
    it may take either one-sided value, so polishes evaluate it only off the
    kink.  Radial sups of a series polish at a root of the weighted slope
    when it is given.  The kink is also the only anchor below 1 that
    ``find_admissible_r0`` tries.  ``params`` is a read-only mapping of the
    values the built-in ``fn`` closes over.
    """

    name: str
    fn: Callable
    params: Mapping[str, float] = MappingProxyType({})
    limit_at_one: float = math.inf
    slope: Optional[Callable] = None
    kink: Optional[float] = None

    def __call__(self, r):
        """omega(r) at a number, element by element over a list or an array."""
        def value(x: float) -> float:
            if 0.0 <= x < 1.0:
                return float(self.fn(x))
            if x != 1.0:
                raise ParameterDomainError(f"weight {self.name} is defined on [0, 1)")
            if not self.limit_at_one < math.inf:
                raise ParameterDomainError(f"weight {self.name} has no finite limit at r = 1")
            return self.limit_at_one
        return mapped(value, r)


class CriterionReport(NamedTuple):
    """Verdict of the admissibility inequality at an anchor radius r0.

    ``worst_margin`` is the minimum of h(r) - omega(r)/omega(r0) over the
    scan, r0 and r = 1; the check passes when it is >= -``CRITERION_TOL``.
    On failure ``violation_witness`` holds a radius where the inequality
    breaks.
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
        return Weight(name="constant", fn=lambda r: 1.0, limit_at_one=1.0,
                      slope=lambda r: 0.0)
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
        if not 1.0 <= alpha < math.inf:
            raise ParameterDomainError(
                f"example weights need a finite alpha >= 1, got {alpha}")
        if kind == "example2":
            fn = lambda r: 1.0 if r <= r0 else ((1.0 - r) / (1.0 - r0)) ** alpha
            slope = lambda r: 0.0 if r <= r0 else -alpha / (1.0 - r0) * (
                (1.0 - r) / (1.0 - r0)) ** (alpha - 1.0)
        else:
            fn = lambda r: (1.0 - abs((r - r0) / (1.0 - r0 * r))) ** alpha
            def slope(r: float) -> float:
                """fn' with u = (r - r0)/(1 - r0 r) and du/dr = (1 - r0^2)/(1 - r0 r)^2."""
                u = (r - r0) / (1.0 - r0 * r)
                return (-alpha * (1.0 - abs(u)) ** (alpha - 1.0) * ((u > 0.0) - (u < 0.0))
                        * (1.0 - r0 * r0) / (1.0 - r0 * r) ** 2)
        return Weight(name=kind, fn=fn, params=MappingProxyType({"r0": r0, "alpha": alpha}),
                      limit_at_one=0.0, slope=slope, kink=r0)
    raise ParameterDomainError(f"unknown weight kind {kind!r}")


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


def _omegas(r0: float) -> Callable:  # r -> (omega1(r), omega2(r)) at the anchor r0
    return lambda r: (2.0 - r / r0, (SQRT2 * r0 + r) / (SQRT2 * r + r0))


def criterion_bound(r, r0: float):
    """h(r) = min(2 - r/r0, (sqrt(2) r0 + r)/(sqrt(2) r + r0)) on [0, 1], mapped."""
    omegas = _omegas(_check_r0(r0))
    def h(x: float) -> float:
        if not 0.0 <= x <= 1.0:
            raise ParameterDomainError("criterion bound is evaluated on [0, 1)")
        return min(omegas(x))
    return mapped(h, r)


def criterion_check(w: Weight, r0: float) -> CriterionReport:
    """Scan h(r) - omega(r)/omega(r0) over [0, 1) and report the worst margin.

    The minimum is the maximum of the negated margin omega(r)/omega(r0) - h(r)
    over ``Radii(CRITERION_R_POINTS)``, found by branch-and-bound on boxes and
    polished by golden section to a 1e-12 width, the weight's ``kink`` a
    candidate of the polish.  Two more named candidates join it:
    r0, where h(r0) = 1 = omega(r0)/omega(r0) makes the margin exactly 0, so
    a passing anchor reports its true minimum; and the margin's limit
    h(1) - ``limit_at_one``/omega(r0) at r = 1, so anchors past the last
    radius see h < 1 on (r0, 1).
    A zero weight value at the anchor raises ZeroDenominatorError; an
    infinite one is rejected as a parameter-domain error.
    """
    r0 = _check_r0(r0)
    w0 = w(r0)
    if w0 == 0.0:
        raise ZeroDenominatorError(f"weight {w.name} vanishes at r0 = {r0}")
    if not math.isfinite(w0):
        raise ParameterDomainError(f"weight {w.name} is not finite at r0 = {r0}")

    omegas = _omegas(r0)
    worst_r, excess = scan_polish(lambda r: w.fn(r) / w0 - min(omegas(r)),
                                  Radii(CRITERION_R_POINTS), kink=w.kink)
    # 0.0 - excess, not -excess: an exact zero excess is a margin of 0.0, not -0.0
    worst, worst_r = min((0.0 - excess, worst_r), (0.0, r0),
                         (min(omegas(1.0)) - w.limit_at_one / w0, 1.0))
    passed = worst >= -CRITERION_TOL
    return CriterionReport(r0=r0, passed=passed, worst_margin=worst,
                           violation_witness=None if passed else worst_r)


def find_admissible_r0(w: Weight) -> Optional[tuple[float, CriterionReport]]:
    """The first of the weight's ``kink`` and 1 where the criterion passes.

    h has a corner at r0, where rho = omega/omega(r0) touches it: rho passes
    only if rho'(r0-) >= -(3 - 2 sqrt(2))/r0 and rho'(r0+) <= -1/r0, which no
    weight differentiable at r0 < 1 does, so every admissible anchor below 1
    is a kink; a hand-built weight must declare its ``kink`` to be found
    there.  An anchor where the weight vanishes fails.  Returns (r0, report),
    or None.
    """
    anchors = [1.0]
    if w.kink is not None and R0_MIN - 1e-12 <= w.kink < 1.0:
        anchors.insert(0, float(w.kink))
    for r0 in anchors:
        try:
            report = criterion_check(w, r0)
        except ZeroDenominatorError:
            continue
        if report.passed:
            return r0, report
    return None


def h_profile(r0: float, n_points: int = PROFILE_POINTS) -> list[list[float]]:
    """Tabulate (r, omega1, omega2, h) for plotting.

    Returns the rows (lists of floats) over ``Radii(n_points)`` plus the
    anchor r0 when it lies there, so the h(r0) = 1 corner is present.  h is
    decreasing everywhere and convex left of r0.
    """
    r0 = _check_r0(r0)
    rs = list(Radii(n_points, r0 if r0 <= R_MAX else None))
    return [[r, *omegas, min(omegas)] for r, omegas in zip(rs, map(_omegas(r0), rs))]
