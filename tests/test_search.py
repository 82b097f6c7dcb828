import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blochbohr import (ConvergenceError, NoSignChangeError,
                       ParameterDomainError, bisect_root, golden_max, grid_golden_max,
                       trisect_min)
from blochbohr.search import R_MAX, R_POINTS, bisect_flag, radii, scan_polish
from blochbohr.series import _horner


def test_golden_max_quadratic():
    x, fx = golden_max(lambda x: 1.0 - (x - 0.3) ** 2, 0.0, 1.0)
    assert abs(x - 0.3) < 5e-8
    assert abs(fx - 1.0) < 1e-12


def test_golden_max_degenerate_bracket():
    x, fx = golden_max(lambda x: x, 0.5, 0.5)
    assert x == 0.5 and fx == 0.5


def _circle_objective(coeffs, r, seen):
    """|f(r e^{i theta})| by Horner, as ``series.circle_sup`` polishes it;
    every point it is called at goes to ``seen``."""
    def f(th):
        seen.extend(np.atleast_1d(th).tolist())
        return np.abs(_horner(coeffs, r * np.exp(1j * th)))
    return f


@given(coeffs=st.lists(st.complex_numbers(max_magnitude=2.0), min_size=1, max_size=70),
       r=st.floats(min_value=0.0, max_value=0.999),
       lo=st.floats(min_value=-7.0, max_value=7.0),
       width=st.one_of(st.just(0.0), st.floats(min_value=-1.0, max_value=7.0),
                       st.floats(min_value=1e-15, max_value=1e-2)),
       tol=st.one_of(st.floats(min_value=1e-14, max_value=1e-6),
                     st.floats(min_value=1e-6, max_value=10.0)),
       max_iter=st.one_of(st.integers(0, 12), st.just(200)))
@example(coeffs=[1.0, 2j, -0.5], r=0.9, lo=0.0, width=2.0 * np.pi / 4096 * 2, tol=1e-12,
         max_iter=200)
@example(coeffs=[1.0, 2j], r=0.5, lo=1.0, width=0.0, tol=1e-12, max_iter=200)
@example(coeffs=[1.0, 2j], r=0.5, lo=1.0, width=0.5, tol=1.0, max_iter=200)
@example(coeffs=[1.0, 2j], r=0.5, lo=1.0, width=0.5, tol=1e-12, max_iter=0)
@example(coeffs=[3.0], r=0.0, lo=0.0, width=1.0, tol=1e-12, max_iter=200)
@settings(max_examples=150, deadline=None)
def test_golden_max_lookahead_equals_sequential(coeffs, r, lo, width, tol, max_iter):
    # the look-ahead evaluates a superset of the sequential probes and must
    # end at the same point with the same value
    coeffs = np.array(coeffs, dtype=complex)
    seq_seen, vec_seen = [], []
    expected = golden_max(_circle_objective(coeffs, r, seq_seen), lo, lo + width,
                          tol=tol, max_iter=max_iter)
    got = golden_max(_circle_objective(coeffs, r, vec_seen), lo, lo + width,
                     tol=tol, max_iter=max_iter, vectorized=True)
    assert got == expected
    assert set(seq_seen) <= set(vec_seen)


def test_trisect_min_quadratic():
    x, fx = trisect_min(lambda x: (x - 0.7) ** 2 + 2.0, 0.0, 1.0)
    assert abs(x - 0.7) < 5e-8
    assert abs(fx - 2.0) < 1e-12


def test_bisect_root_cosine():
    root = bisect_root(np.cos, 0.0, 3.0, abs_tol=1e-12)
    assert abs(root - np.pi / 2) < 1e-11


def test_bisect_root_requires_sign_change():
    with pytest.raises(NoSignChangeError):
        bisect_root(lambda x: x * x + 1.0, -1.0, 1.0)


def test_bisect_root_exact_endpoint():
    assert bisect_root(lambda x: x, 0.0, 1.0) == 0.0


def test_bisect_root_convergence_cap():
    with pytest.raises(ConvergenceError):
        bisect_root(lambda x: x - 0.123456, 0.0, 1.0, abs_tol=1e-18, max_iter=4)


def _threshold_test(threshold, calls):
    def test(x):
        calls.append(x)
        return ("pass", x) if x >= threshold else None
    return test


def test_bisect_flag_finds_threshold_within_tol():
    calls = []
    hi, result = bisect_flag(_threshold_test(0.3, calls), 0.0, 1.0, ("pass", 1.0),
                             tol=1e-9, max_iter=200)
    assert 0.3 <= hi <= 0.3 + 1e-9
    # the result is the one test() returned at the passing end
    assert result == ("pass", hi)
    assert len(calls) == 30  # ceil(log2(1 / 1e-9)) halvings


def test_bisect_flag_honours_max_iter():
    calls = []
    hi, result = bisect_flag(_threshold_test(0.3, calls), 0.0, 1.0, ("pass", 1.0),
                             tol=1e-12, max_iter=5)
    # 0.5 pass, 0.25 fail, 0.375 pass, 0.3125 pass, 0.28125 fail
    assert calls == [0.5, 0.25, 0.375, 0.3125, 0.28125]
    assert hi == 0.3125 and result == ("pass", 0.3125)


def test_bisect_flag_tight_bracket_keeps_found():
    calls = []
    hi, result = bisect_flag(_threshold_test(0.3, calls), 0.3, 0.3 + 1e-13, "given",
                             tol=1e-12, max_iter=60)
    assert calls == [] and hi == 0.3 + 1e-13 and result == "given"


def test_grid_golden_max_vectorized():
    f = lambda x: np.sin(np.asarray(x))
    x, fx = grid_golden_max(f, 0.0, 3.0, 64)
    assert abs(x - np.pi / 2) < 5e-8
    assert abs(fx - 1.0) < 1e-12


@pytest.mark.parametrize("scan", [
    lambda f, lo, hi, n: grid_golden_max(f, lo, hi, n),
    lambda f, lo, hi, n: scan_polish(f, np.linspace(lo, hi, n)),
    lambda f, lo, hi, n: scan_polish(f, np.linspace(lo, hi, n), minimize=True),
], ids=["grid_golden_max", "scan_polish", "scan_polish_minimize"])
def test_grid_golden_max_plateau_reports_smallest(scan):
    f = lambda x: np.ones_like(np.asarray(x, dtype=float))
    x, fx = scan(f, 0.2, 0.9, 32)
    assert x == 0.2
    assert fx == 1.0


@pytest.mark.parametrize("scan", [
    lambda f: grid_golden_max(f, 0.0, 1.0, 1),
    lambda f: scan_polish(f, np.array([0.5]), minimize=True),
    lambda f: scan_polish(f, np.array([])),
], ids=["grid_golden_max", "scan_polish_minimize", "empty"])
def test_scan_needs_two_points(scan):
    with pytest.raises(ParameterDomainError, match="at least 2 points"):
        scan(lambda x: np.sin(np.asarray(x)))


def test_scan_polish_periodic_bracket_wraps_below_zero():
    # the maximum sits just below theta = 0, so the grid winner is theta = 0
    # and only a bracket reaching past the seam can find it
    shift = 1e-3
    angles = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
    f = lambda th: np.cos(np.asarray(th) + shift)
    theta, fx = scan_polish(f, angles, period=2.0 * np.pi)
    assert abs(theta - (2.0 * np.pi - shift)) < 1e-7
    assert abs(fx - 1.0) < 1e-13
    # clipped to the grid, the same scan stops at the grid point
    x, fx_clipped = scan_polish(f, angles)
    assert x == 0.0 and fx_clipped == np.cos(shift)


def test_scan_polish_uses_supplied_values_without_recomputing():
    xs = np.linspace(0.0, 3.0, 64)
    calls = []

    def f(x):
        calls.append(np.ndim(x))
        return np.sin(x)

    x, fx = scan_polish(f, xs, np.sin(xs))
    assert calls and all(ndim == 0 for ndim in calls)
    assert abs(x - np.pi / 2) < 5e-8
    assert abs(fx - 1.0) < 1e-12
    # a stand-in profile only picks the winner, which f itself then scores:
    # no stand-in value (all above 1) reaches the polished result
    calls.clear()
    x, fx = scan_polish(f, xs, np.sin(xs) + 1.0, rescore=True)
    assert calls and all(ndim == 0 for ndim in calls)
    assert fx == np.sin(x) and abs(x - np.pi / 2) < 5e-8


def test_scan_polish_minimizes_a_kink():
    c = 0.3141592
    x, fx = scan_polish(lambda x: np.abs(np.asarray(x) - c), np.linspace(0.0, 1.0, 11),
                        minimize=True)
    assert abs(x - c) < 1e-10
    assert 0.0 <= fx < 1e-10


def test_radii():
    for r_points in (1, 0, -1):
        with pytest.raises(ParameterDomainError, match=f"got {r_points}$"):
            radii(r_points)
    rs = radii(11)
    assert rs[0] == 0.0 and rs[-1] == R_MAX and rs.size == 11
    assert np.array_equal(radii(R_POINTS), np.linspace(0.0, 1.0 - 1e-6, 2048))
