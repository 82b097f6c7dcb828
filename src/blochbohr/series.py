"""Truncated Maclaurin series with certified geometric tails.

A series f(z) = sum a_n z^n is stored through its first N+1 coefficients.
Optional tail data (rho, M) certifies |a_n| <= M rho^n for every n > N, so
each evaluation returns a value together with a rigorous truncation bound
M (rho|z|)^{N+1} / (1 - rho|z|).  Polynomials carry the exact tail (0, 0);
series without tail data are evaluated only on |z| <= 0.9 and their results
are flagged as truncation-uncertified.

All values are immutable after construction and safe to share across
workers.
"""

from __future__ import annotations

import json
import math
from typing import NamedTuple, Optional

import numpy as np

from .errors import DivergenceRegionError, ParameterDomainError
from .search import THETA_POINTS, mapped, scan_polish

#: largest |z| at which a series without tail data may be evaluated
UNCERTIFIED_RADIUS = 0.9

#: elements per inverse FFT of the angle-grid scans: 2 MiB buffers, below the
#: 4 MiB from which numpy asks for transparent huge pages, which at 2^18
#: elements raised a norms op's peak RSS by about 4 MB and slowed the
#: transforms by a fifth; 2M-element chunks were slower still
_FFT_CHUNK = 1 << 17


class _TruncatedSeries(NamedTuple):
    coeffs: np.ndarray
    tail_rho: Optional[float] = None
    tail_m: Optional[float] = None


class TruncatedSeries(_TruncatedSeries):
    """Coefficients a_0..a_N plus an optional geometric tail bound.

    ``tail_rho``/``tail_m`` certify |a_n| <= tail_m * tail_rho**n for n > N;
    given, they are stored as floats.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace validates too

    def __new__(cls, coeffs, tail_rho: Optional[float] = None, tail_m: Optional[float] = None):
        c = np.asarray(coeffs, dtype=complex)
        if c.ndim != 1 or c.size == 0:
            raise ParameterDomainError("coeffs must be a nonempty 1-D sequence")
        if not np.all(np.isfinite(c)):
            raise ParameterDomainError("coefficients must be finite")
        c = c.copy()
        c.flags.writeable = False
        if (tail_rho is None) != (tail_m is None):
            raise ParameterDomainError("tail_rho and tail_m must be given together")
        if tail_rho is not None:
            tail_rho, tail_m = float(tail_rho), float(tail_m)
            if not 0.0 <= tail_rho < 1.0:
                raise ParameterDomainError("tail ratio must lie in [0, 1)")
            if tail_m < 0.0:
                raise ParameterDomainError("tail constant must be nonnegative")
            if not tail_m < np.inf:
                raise ParameterDomainError("tail constant must be finite")
        return super().__new__(cls, c, tail_rho, tail_m)

    @classmethod
    def polynomial(cls, coeffs) -> "TruncatedSeries":
        """A polynomial: the stored coefficients are all there is (tail 0)."""
        return cls(np.asarray(coeffs, dtype=complex), 0.0, 0.0)

    @property
    def order(self) -> int:
        return self.coeffs.size - 1

    @property
    def has_tail(self) -> bool:
        return self.tail_rho is not None

    @property
    def is_nonnegative(self) -> bool:
        """True when every stored coefficient is real and >= 0."""
        return bool(np.all(self.coeffs.imag == 0.0) and np.all(self.coeffs.real >= 0.0))

    def dumps(self) -> str:
        """The JSON wire format {"coeffs": [[re, im], ...], "tail": {"rho", "M"} or null}."""
        tail = {"rho": self.tail_rho, "M": self.tail_m} if self.has_tail else None
        return json.dumps({"coeffs": [[float(c.real), float(c.imag)] for c in self.coeffs],
                           "tail": tail})

    @classmethod
    def loads(cls, text: str) -> "TruncatedSeries":
        d = json.loads(text)
        coeffs = np.array([complex(re, im) for re, im in d["coeffs"]])
        tail = d.get("tail")
        if tail is None:
            return cls(coeffs)
        return cls(coeffs, float(tail["rho"]), float(tail["M"]))


class SeriesValue(NamedTuple):
    """A partial-sum evaluation plus its truncation bound.

    ``tail_bound`` is None when the series carries no tail certificate, in
    which case the value is truncation-uncertified.
    """

    value: complex
    tail_bound: Optional[float]

    @property
    def certified(self) -> bool:
        return self.tail_bound is not None


class CircleNorms(NamedTuple):
    """Norms of f on the circle |z| = r.

    ``l2_norm`` is the angle-averaged L2 norm sqrt(sum |a_n|^2 r^{2n})
    (Parseval), ``sup_norm`` the maximum modulus over the circle, and
    ``coeff_sum`` the majorant value sum |a_n| r^n.  For any series
    l2_norm <= sup_norm <= coeff_sum.
    """

    r: float
    sup_norm: float
    l2_norm: float
    coeff_sum: float


def majorant(s: TruncatedSeries) -> TruncatedSeries:
    """Replace every coefficient by its modulus; the tail bound carries over.

    A modulus past the float range (finite parts, as in 1.7e308 + 1.7e308j)
    is a ParameterDomainError."""
    mods = np.abs(s.coeffs)
    if not np.all(mods < np.inf):
        raise ParameterDomainError("coefficient moduli |a_n| overflow")
    return TruncatedSeries(mods.astype(complex), s.tail_rho, s.tail_m)


def derivative(s: TruncatedSeries) -> TruncatedSeries:
    """Termwise derivative: coefficients n a_n shifted down one index.

    The geometric tail cannot keep its ratio under differentiation (the
    factor n grows), so the ratio is enlarged to (1 + rho)/2 and the
    constant adjusted to absorb sup_n (n+1) (rho/rho')^n.
    """
    n = s.order
    if n == 0:
        if s.has_tail and s.tail_rho > 0.0 and s.tail_m > 0.0:
            raise ParameterDomainError(
                "cannot differentiate a constant-only series with a nonzero tail: "
                "all derivative coefficients would be unstored")
        return TruncatedSeries.polynomial([0.0])
    with np.errstate(over="ignore"):
        d = s.coeffs[1:] * np.arange(1, n + 1)
    if not np.all(np.isfinite(d)):
        raise ParameterDomainError("derivative coefficients n a_n overflow")
    if not s.has_tail:
        return TruncatedSeries(d)
    rho, m = s.tail_rho, s.tail_m
    if rho == 0.0 or m == 0.0:
        return TruncatedSeries(d, 0.0, 0.0)
    rho2 = 0.5 * (1.0 + rho)
    t = rho / rho2
    ks = np.arange(0, int(np.ceil(-2.0 / np.log(t))) + 2)
    growth = float(np.max((ks + 1) * t ** ks))
    return TruncatedSeries(d, rho2, m * rho * growth)


def scale_argument(s: TruncatedSeries, scale: float) -> TruncatedSeries:
    """Map f(z) to f(scale * z): coefficients a_n scale^n.

    The tail ratio is multiplied by the scale; if that pushes it to 1 or
    beyond, the certificate is dropped.
    """
    if not 0.0 <= scale < np.inf:
        raise ParameterDomainError("argument scale must be finite and nonnegative")
    with np.errstate(over="ignore", invalid="ignore"):
        c = s.coeffs * float(scale) ** np.arange(s.coeffs.size)
    if not np.all(np.isfinite(c)):
        raise ParameterDomainError("scaled coefficients a_n scale^n overflow")
    if s.has_tail and s.tail_rho * scale < 1.0:
        return TruncatedSeries(c, s.tail_rho * scale, s.tail_m)
    return TruncatedSeries(c)


def _horner(coeffs: np.ndarray, z) -> np.ndarray:
    """Evaluate the partial sum at z (scalar or array), highest degree first."""
    z = np.asarray(z, dtype=complex)
    acc = np.full(z.shape, coeffs[-1], dtype=complex)
    for c in coeffs[-2::-1]:
        acc = acc * z + c
    return acc


def _check_certified(s: TruncatedSeries, radius: float, what: str = "evaluation") -> None:
    if not 0.0 <= radius < np.inf:
        raise ParameterDomainError(f"{what} needs a finite radius >= 0, got {radius}")
    if s.has_tail:
        if s.tail_rho * radius >= 1.0:
            raise DivergenceRegionError(
                f"{what} at |z|={radius:.6g} leaves the certified region "
                f"(tail ratio {s.tail_rho:.6g})")
    elif radius > UNCERTIFIED_RADIUS:
        raise DivergenceRegionError(
            f"{what} at |z|={radius:.6g} requires tail certification "
            f"beyond |z| = {UNCERTIFIED_RADIUS}")


def tail_bound(s: TruncatedSeries, radius):
    """Rigorous bound on the dropped terms at |z| = radius (broadcasts), or None."""
    r = np.asarray(radius, dtype=float)
    if not np.all((r >= 0.0) & (r < np.inf)):
        raise ParameterDomainError("tail bound needs finite radii >= 0")
    if not s.has_tail:
        return None
    x = s.tail_rho * r
    if np.any(x >= 1.0):
        raise DivergenceRegionError(f"tail diverges at |z|={np.max(r):.6g}")
    # libm's pow at each radius: numpy's array ** rounds by SIMD level
    out = s.tail_m * mapped(lambda v: v ** (s.order + 1), x) / (1.0 - x)
    return float(out) if out.ndim == 0 else out


def eval_series(s: TruncatedSeries, z) -> SeriesValue:
    """Horner-evaluate the partial sum with a rigorous truncation bound.

    ``z`` may be a scalar or an array; the certified region is checked at
    the largest modulus present.  Without tail data the result is flagged
    uncertified (tail_bound None) and |z| must stay within 0.9.  With a
    nonzero tail the bound also covers the rounding of the partial sum, so
    value +- tail_bound encloses f(z); polynomials report 0.  An overflow raises.
    """
    z = np.asarray(z, dtype=complex)
    radius = float(np.max(np.abs(z))) if z.size else 0.0
    _check_certified(s, radius)
    with np.errstate(over="ignore", invalid="ignore"):
        value = _horner(s.coeffs, z)
    if not np.all(np.isfinite(value)):
        raise ParameterDomainError("partial sum overflows")
    if z.ndim == 0:
        value = complex(value)
    bound = tail_bound(s, np.abs(z))
    if bound is None:
        return SeriesValue(value, None)
    if s.tail_rho > 0.0 and s.tail_m > 0.0:
        # a geometric tail can equal this bound, so add the complex Horner
        # rounding bound gamma_{4(N+1)} sum |a_n| |z|^n (4 u = 2 eps)
        k = 2.0 * s.coeffs.size * np.finfo(float).eps
        bound = bound + k / (1.0 - k) * _modulus_horner(s, np.abs(z), False, "rounding bound")
    if z.ndim == 0:
        bound = float(bound)
    return SeriesValue(value, bound)


def _modulus_horner(s: TruncatedSeries, x, square: bool, what: str):
    """sum |a_n|^k x^n, k = 2 if ``square`` else 1, by real Horner on libm's |a_n|: one set of
    bits for float and array x on every ISA.  An overflow raises, naming ``what``."""
    out = 0.0
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            for c in map(abs, s.coeffs[::-1].tolist()):
                out = out * x + (c * c if square else c)
    except OverflowError:  # |a_n| itself beyond the float range
        out = np.inf
    if not np.all(np.isfinite(out)):
        raise ParameterDomainError(f"{what} overflows")
    return out


def coefficient_sum(s: TruncatedSeries, radius):
    """The majorant value sum |a_n| radius^n of the stored coefficients (broadcasts)."""
    r = np.asarray(radius, dtype=float)
    if np.any(r < 0.0):
        raise ParameterDomainError("radius must be nonnegative")
    _check_certified(s, float(np.max(r, initial=0.0)), "majorant sum")
    return _modulus_horner(s, float(r) if r.ndim == 0 else r, False, "majorant sum")


def _angle_count(requested: int, n_coeffs: int) -> int:
    """Angle count for an aliasing-free FFT scan (raised to cover the degree)."""
    count = max(int(requested), 1)
    if count < n_coeffs:
        count = 1 << (n_coeffs - 1).bit_length()
    return count


def _power_table(radii: np.ndarray, n: int) -> np.ndarray:
    """r^k for k < n in row r: repeated products (``cumprod``), correctly rounded
    steps, so the bits do not depend on numpy's SIMD level as ``**`` does."""
    table = np.empty((radii.size, n))
    table[:, 0] = 1.0
    table[:, 1:] = radii[:, None]
    return np.cumprod(table, axis=1, out=table)


def _horner_pair(cs: list, z: complex) -> tuple[complex, complex]:
    """f(z) and f'(z) of the partial sum with coefficients ``cs`` (Python
    complex, lowest degree first) in one scalar Horner pass."""
    f, d = cs[-1], 0j
    for c in cs[-2::-1]:
        d, f = d * z + f, f * z + c
    return f, d


def _angle_grid_values(coeffs: np.ndarray, radii: np.ndarray, count: int):
    """Yield (rows, values): f(r e^{i theta_k}) on the ``count``-point angle grid.

    One padded inverse FFT per radius, taken unscaled, in chunks of about
    ``_FFT_CHUNK`` elements through one reused input buffer; row k of
    ``values`` belongs to ``radii[rows][k]``.  ``count`` must cover the
    coefficients (see ``_angle_count``).  At a power-of-two count the values
    equal those of the scaled transform ``ifft(buf) * count`` bit for bit.
    """
    chunk = max(1, _FFT_CHUNK // count)
    buf = np.zeros((min(chunk, radii.size), count), dtype=complex)
    for start in range(0, radii.size, chunk):
        rr = radii[start:start + chunk]
        block = buf[:rr.size]
        block[:, :coeffs.size] = coeffs[None, :] * _power_table(rr, coeffs.size)
        with np.errstate(over="ignore", invalid="ignore"):  # callers check |f|
            values = np.fft.ifft(block, axis=1, norm="forward")
        yield slice(start, start + rr.size), values


def _check_moduli(mags: np.ndarray) -> None:
    """Reject circle moduli |f| past the float range (or NaN) from an angle-grid scan."""
    if not np.all(mags < np.inf):
        raise ParameterDomainError("circle moduli |f(r e^{i theta})| are not finite")


def circle_sup(s: TruncatedSeries, r: float) -> tuple[float, float]:
    """max_theta |f(r e^{i theta})| with its witness angle.

    FFT scan of ``THETA_POINTS`` angles (raised to cover the degree); the best
    bracket, wrapping around the 0/2 pi seam, is polished at the root of
    d/dtheta |f|^2 = 2 Im(f conj(z f')), f and f' from one scalar Horner pass,
    each times one power of two near 1/max |f| so that the product cannot
    overflow (without a root the grid winner stays).  A plateau, |f| constant
    up to rounding (c z^n, or r = 0), reports theta = 0.  Real coefficients
    make |f| even in theta, so only [0, pi] is scanned; real nonnegative ones
    peak at theta = 0 (the coefficient sum).  A negative or non-finite radius,
    or a scanned modulus past the float range, is a ParameterDomainError."""
    _check_certified(s, r, "circle scan")
    if s.is_nonnegative:
        return coefficient_sum(s, r), 0.0
    count = _angle_count(THETA_POINTS, s.coeffs.size)
    (_, values), = _angle_grid_values(s.coeffs, np.array([float(r)]), count)
    angles = np.linspace(0.0, 2.0 * np.pi, count, endpoint=False)
    mags = np.abs(values[0, :count if s.coeffs.imag.any() else count // 2 + 1])
    _check_moduli(mags)
    if np.ptp(mags) <= 4.0 * count.bit_length() * np.finfo(float).eps * mags.max():
        return float(mags[0]), 0.0  # a plateau: |f| is constant up to rounding

    def at(th: float, cs: list = s.coeffs.tolist(),
           scale: float = math.ldexp(1.0, -max(math.frexp(mags.max())[1], -1000))) -> tuple:
        """|f| and Im(f conj(z f')) times scale^2 (at most 2^2000) at z = r e^{i th}."""
        z = complex(r * math.cos(th), r * math.sin(th))
        f, d = _horner_pair(cs, z)
        return abs(f), (f * scale * (z * d * scale).conjugate()).imag

    theta, sup = scan_polish(lambda th: at(th)[0], angles[:mags.size], mags,
                             period=2.0 * np.pi if mags.size == count else None,
                             slope=lambda th: at(th)[1])
    return sup, theta


def circle_norms(s: TruncatedSeries, r: float) -> CircleNorms:
    """Sup, L2, and majorant norms of f on the circle |z| = r.

    The L2 norm comes from the coefficients by Parseval (real Horner on
    sum |a_n|^2 r^{2n}); the sup norm from an angle scan with local
    refinement; coeff_sum is sum |a_n| r^n.
    """
    if r < 0.0 or r >= 1.0:
        raise ParameterDomainError("circle radius must lie in [0, 1)")
    _check_certified(s, r, "circle norms")
    l2 = math.sqrt(_modulus_horner(s, float(r) * r, True, "L2 sum"))
    sup, _ = circle_sup(s, r)
    return CircleNorms(r=float(r), sup_norm=sup, l2_norm=l2,
                       coeff_sum=coefficient_sum(s, r))
