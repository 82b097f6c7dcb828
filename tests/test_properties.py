import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blochbohr import (TruncatedSeries, builtin_weight,
                       cauchy_chain_check, circle_norms, criterion_check,
                       eval_series, majorant, scale_argument,
                       weighted_bloch_norm)
from conftest import scaled

finite = st.floats(min_value=-10.0, max_value=10.0,
                   allow_nan=False, allow_infinity=False)
coeff_lists = st.lists(st.tuples(finite, finite), min_size=1, max_size=10)


def to_series(pairs):
    return TruncatedSeries.polynomial([complex(re, im) for re, im in pairs])


@given(coeff_lists)
def test_majorant_idempotent(pairs):
    s = to_series(pairs)
    once = majorant(s)
    twice = majorant(once)
    np.testing.assert_array_equal(once.coeffs, twice.coeffs)
    assert once.is_nonnegative


@given(coeff_lists, st.floats(min_value=0.0, max_value=2.0))
def test_majorant_commutes_with_scaling(pairs, scale):
    s = to_series(pairs)
    left = majorant(scale_argument(s, scale))
    right = scale_argument(majorant(s), scale)
    np.testing.assert_allclose(left.coeffs, right.coeffs, atol=1e-12)


@given(coeff_lists, st.floats(min_value=0.05, max_value=0.89))
@settings(max_examples=40, deadline=None)
def test_circle_norm_chain(pairs, r):
    cn = circle_norms(to_series(pairs), r)
    assert cn.l2_norm <= cn.sup_norm + 1e-9
    assert cn.sup_norm <= cn.coeff_sum + 1e-9


@given(coeff_lists, st.floats(min_value=0.05, max_value=0.9),
       st.floats(min_value=0.05, max_value=0.9))
@settings(max_examples=30, deadline=None)
def test_chain_weakly_increasing(pairs, scale, r):
    std = builtin_weight("standard")
    v1, v2, v3 = cauchy_chain_check(to_series(pairs), std, scale, r)
    assert v1 <= v2 + 1e-9
    assert v2 <= v3 + 1e-9


@given(coeff_lists, st.floats(min_value=0.01, max_value=50.0))
@settings(max_examples=20, deadline=None)
def test_bloch_norm_homogeneous(pairs, c):
    std = builtin_weight("standard")
    s = to_series(pairs)
    base = weighted_bloch_norm(s, std)
    scaled = TruncatedSeries.polynomial(c * s.coeffs)
    assert weighted_bloch_norm(scaled, std) == pytest.approx(
        c * base, rel=1e-12, abs=1e-12)


@given(st.floats(min_value=1e-3, max_value=1e3),
       st.sampled_from(["example2", "example3"]),
       st.sampled_from([0.75, 0.8, 0.9]))
@settings(max_examples=20, deadline=None)
def test_criterion_invariant_under_positive_scaling(c, kind, r0):
    w = builtin_weight(kind, r0=r0, alpha=1)
    assert criterion_check(scaled(w, c), r0).passed == criterion_check(w, r0).passed


@given(st.floats(min_value=0.05, max_value=0.9),
       st.floats(min_value=0.05, max_value=0.95),
       st.floats(min_value=0.1, max_value=2.0))
@example(q=0.80250135770242, x=0.7591631150995447, m=1.875)
def test_geometric_tail_bound_is_rigorous(q, x, m):
    # partial sum + certified bound must cover the closed form m/(1-qz)
    n = 30
    s = TruncatedSeries(m * q ** np.arange(n + 1), q, m)
    out = eval_series(s, x)
    truth = m / (1.0 - q * x)
    assert abs(truth - out.value) <= out.tail_bound * (1 + 1e-12) + 1e-15


@given(coeff_lists, st.floats(min_value=0.05, max_value=0.89),
       st.integers(min_value=0, max_value=63))
@settings(max_examples=40, deadline=None)
def test_majorant_dominates_on_circle(pairs, r, k):
    s = to_series(pairs)
    theta = 2.0 * np.pi * k / 64.0
    value = abs(eval_series(s, r * np.exp(1j * theta)).value)
    assert value <= eval_series(majorant(s), r).value.real + 1e-10
