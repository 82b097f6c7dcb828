"""Degree-one Blaschke extremals and end-to-end sharpness verification.

The extremal family is the Mobius map
f(z) = (z/r0 - e^{i phi}/sqrt(2)) / (1 - e^{-i phi} z / (sqrt(2) r0)),
a degree-1 Blaschke factor with zero of modulus 1/sqrt(2) composed with
z/r0.  Its coefficient moduli obey |a_n| r0^n = (1/sqrt(2))^{n+1}; for
r <= r0 its circle sup has the closed form
(r/r0 + 1/sqrt(2)) / (1 + r/(sqrt(2) r0)), attained at theta = pi + phi
(for r > r0 the same expression is the circle minimum, and the maximum
sits at theta = phi); its majorant sum at radius r/sqrt(2) is
(1/sqrt(2)) / (1 - r/(2 r0)).

For a weight that passes the admissibility criterion at r0, the weighted
suprema of the majorant side and of the sup side coincide, both attained
at r0; ``verify_sharpness`` checks this numerically.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .errors import (DivergenceRegionError, ParameterDomainError, PoleError,
                     PreconditionError)
from .search import GridSpec, grid_golden_max
from .series import DEFAULT_ORDER, TruncatedSeries, _check_certified, derivative, _horner
from .weights import CRITERION_GRID, SQRT2, Weight, _check_r0, criterion_check


@dataclass(frozen=True)
class ExtremalSpec:
    """Parameters of the extremal: anchor radius, rotation, truncation order."""

    r0: float
    phi: float = 0.0
    truncation: int = DEFAULT_ORDER

    def __post_init__(self) -> None:
        _check_r0(self.r0)
        if self.truncation < 1:
            raise ParameterDomainError("truncation order must be >= 1")
        object.__setattr__(self, "phi", float(self.phi) % (2.0 * np.pi))


@dataclass(frozen=True)
class SharpnessReport:
    """Both sides of the sharpness identity with their witness radii.

    ``lhs_sup`` is sup_r omega(r)/sqrt(2) * sum |a_n| (r/sqrt(2))^n,
    ``rhs_sup`` is sup_r omega(r) * max_theta |f(r e^{i theta})|, and
    ``relative_gap`` = |lhs - rhs| / max(lhs, rhs).  ``r0`` and
    ``grid_step`` are echoed so callers can apply witness tolerances.
    """

    lhs_sup: float
    rhs_sup: float
    lhs_witness_r: float
    rhs_witness_r: float
    relative_gap: float
    r0: float
    grid_step: float

    def to_json_dict(self) -> dict:
        return asdict(self)


def extremal_eval(spec: ExtremalSpec, z):
    """Closed-form value of the extremal Mobius map at z (scalar or array)."""
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
    n = spec.truncation
    rot = np.exp(1j * spec.phi)
    q = np.conj(rot) / (SQRT2 * spec.r0)
    coeffs = np.empty(n + 1, dtype=complex)
    coeffs[0] = -rot / SQRT2
    coeffs[1:] = q ** np.arange(0, n, dtype=float) / (2.0 * spec.r0)
    rho = 1.0 / (SQRT2 * spec.r0)
    if rho < 1.0:
        return TruncatedSeries(coeffs, rho, 1.0 / SQRT2)
    return TruncatedSeries(coeffs)


def extremal_sup_modulus(r0: float, r):
    """(r/r0 + 1/sqrt(2)) / (1 + r/(sqrt(2) r0)) = |f(r e^{i (pi + phi)})|.

    This is the circle maximum max_theta |f(r e^{i theta})| only for
    r <= r0.  For r > r0 it is the circle minimum, and the maximum sits at
    theta = phi (at r0 = 0.8, r = 0.85: maximum 1.42901, this value
    1.01045).  The value does not depend on phi.
    """
    _check_r0(r0)
    r = np.asarray(r, dtype=float)
    if np.any(r < 0.0):
        raise ParameterDomainError("radius must be nonnegative")
    out = (r / r0 + 1.0 / SQRT2) / (1.0 + r / (SQRT2 * r0))
    if r.ndim == 0:
        return float(out)
    return out


def extremal_majorant_sum(r0: float, r):
    """sum |a_n| (r/sqrt(2))^n = (1/sqrt(2)) / (1 - r/(2 r0)) for r < 2 r0."""
    _check_r0(r0)
    r = np.asarray(r, dtype=float)
    if np.any(r == 2.0 * r0):
        raise PoleError(f"majorant sum has a pole at r = 2 r0 = {2.0 * r0:.6g}")
    if np.any(r > 2.0 * r0):
        raise DivergenceRegionError("majorant sum diverges past r = 2 r0")
    out = (1.0 / SQRT2) / (1.0 - r / (2.0 * r0))
    if r.ndim == 0:
        return float(out)
    return out


def blaschke_degree(s: TruncatedSeries, r0: float) -> float:
    """Degree of a Blaschke product composed with z/r0, from the area formula.

    (1/pi) int_D |(f(r0 z))'|^2 dA = sum_{n>=1} n |a_n|^2 r0^{2n}; for a true
    degree-d product the value is the integer d.  The coefficient tail must
    be certified at r0.
    """
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
    if r0 <= 0.0:
        raise ParameterDomainError("composition radius must be positive")
    _check_certified(s, r0, "Monte-Carlo degree")
    rng = np.random.default_rng(seed)
    pts = np.sqrt(rng.random(samples)) * np.exp(2j * np.pi * rng.random(samples))
    ds = derivative(s)
    vals = _horner(ds.coeffs, r0 * pts)
    return float(np.mean(np.abs(r0 * vals) ** 2))


def _sup_with_candidate(f, grid: GridSpec, candidate: float) -> tuple[float, float]:
    """Grid+golden supremum that also probes an explicit candidate radius.

    The candidate wins ties, so a supremum attained exactly there reports
    it as the witness.
    """
    x, v = grid_golden_max(f, 0.0, grid.r_max, grid.r_points)
    cv = float(np.asarray(f(candidate)))
    if cv >= v:
        return candidate, cv
    return x, v


def verify_sharpness(w: Weight, r0: float,
                     grid: GridSpec | None = None) -> SharpnessReport:
    """Compare both weighted suprema of the sharpness identity at anchor r0.

    Requires the weight to pass the admissibility criterion at r0
    (PreconditionError otherwise).  Both sides are evaluated through their
    closed forms on the scan grid plus the anchor itself; when the
    criterion holds, both witnesses equal r0 and the relative gap vanishes
    up to rounding.
    """
    grid = grid or CRITERION_GRID
    report = criterion_check(w, r0, grid=grid)
    if not report.passed:
        raise PreconditionError(
            f"weight {w.name} fails the sharpness criterion at r0 = {r0} "
            f"(worst margin {report.worst_margin:.3g} at "
            f"r = {report.violation_witness})")

    lhs = lambda r: np.asarray(w(r)) / SQRT2 * extremal_majorant_sum(r0, r)
    rhs = lambda r: np.asarray(w(r)) * extremal_sup_modulus(r0, r)
    lhs_wit, lhs_sup = _sup_with_candidate(lhs, grid, r0)
    rhs_wit, rhs_sup = _sup_with_candidate(rhs, grid, r0)
    gap = abs(lhs_sup - rhs_sup) / max(lhs_sup, rhs_sup)
    return SharpnessReport(lhs_sup=lhs_sup, rhs_sup=rhs_sup,
                           lhs_witness_r=lhs_wit, rhs_witness_r=rhs_wit,
                           relative_gap=gap, r0=r0, grid_step=grid.r_step)
