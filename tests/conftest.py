import math

import numpy as np
import pytest

from blochbohr import ParameterDomainError, TruncatedSeries, Weight, builtin_weight


@pytest.fixture
def std():
    return builtin_weight("standard")


@pytest.fixture
def const():
    return builtin_weight("constant")


def scaled(w: Weight, c: float) -> Weight:
    """The weight ``w`` multiplied by a positive finite constant, kink and params kept."""
    if not 0.0 < c < math.inf:
        raise ParameterDomainError("scale must be positive and finite")
    slope = None if w.slope is None else lambda r: c * w.slope(r)
    return w._replace(name=f"{c}*{w.name}", fn=lambda r: c * w.fn(r),
                      limit_at_one=c * w.limit_at_one, slope=slope)


def hand_built(rs: list) -> dict:
    """Weights a box cannot bound everywhere, each an example2 base changed
    away from its anchor 0.8; "zero-band" and "step" pass the criterion there."""
    base = builtin_weight("example2", r0=0.8, alpha=2)
    return {
        "spike": lambda r: base.fn(r) + 9.0 * (abs(r - 0.3) < 2e-4),
        "zero-band": lambda r: 0.0 if 0.5 <= r <= 0.6 else base.fn(r),
        "step": lambda r: base.fn(r) if r < 0.85 else 0.5 * base.fn(r),
        "exp": lambda r: math.exp(-3.0 * r),
        "int": lambda r: 1 if r < 0.9 else 2,
        "grid-point": lambda r: 3.0 if r == rs[9000] else base.fn(r),
        "numpy": lambda r: np.where(np.abs(r - 0.5) < 0.01, 2.0, 1.0 - r * r),
    }


def random_polynomial(rng, max_degree=16, scale=1.0):
    degree = int(rng.integers(1, max_degree + 1))
    coeffs = scale * (rng.normal(size=degree + 1) + 1j * rng.normal(size=degree + 1))
    return TruncatedSeries.polynomial(coeffs)


def trig_quadrature_l2(coeffs, r, n_angles=512):
    """Independent L2 oracle: direct Horner on a uniform angle grid, then
    the periodic trapezoid rule (exact for trigonometric polynomials)."""
    theta = np.linspace(0.0, 2.0 * np.pi, n_angles, endpoint=False)
    z = r * np.exp(1j * theta)
    vals = np.zeros_like(z)
    for c in coeffs[::-1]:
        vals = vals * z + c
    return float(np.sqrt(np.mean(np.abs(vals) ** 2)))


def mobius_series(alpha: float, n_terms: int = 257) -> TruncatedSeries:
    """Coefficients of the disc automorphism (alpha - z)/(1 - alpha z).

    c_0 = alpha and c_n = -(1 - alpha^2) alpha^{n-1} for n >= 1, with a
    geometric tail of ratio alpha.
    """
    alpha = float(alpha)
    if not 0.0 <= alpha < 1.0:
        raise ParameterDomainError("alpha must lie in [0, 1)")
    if n_terms < 2:
        raise ParameterDomainError("need at least 2 coefficient terms")
    coeffs = np.empty(n_terms, dtype=complex)
    coeffs[0] = alpha
    # alpha^k as repeated products: numpy's SIMD ** rounds by CPU
    powers = np.full(n_terms - 1, alpha)
    powers[0] = 1.0
    coeffs[1:] = -(1.0 - alpha * alpha) * np.cumprod(powers)
    if alpha == 0.0:
        return TruncatedSeries.polynomial(coeffs[:2])
    return TruncatedSeries(coeffs, alpha, (1.0 - alpha * alpha) / alpha)
