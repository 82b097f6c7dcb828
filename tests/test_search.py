import math
import random

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from blochbohr import ConvergenceError, NoSignChangeError, ParameterDomainError
from blochbohr.search import (CRITERION_R_POINTS, R_MAX, R_POINTS, Radii, bisect_root,
                              falsi_peak, golden_max, grid, grid_golden_max, scan_polish,
                              trisect_min)


def test_golden_max_quadratic():
    x, fx = golden_max(lambda x: 1.0 - (x - 0.3) ** 2, 0.0, 1.0)
    assert abs(x - 0.3) < 5e-8
    assert abs(fx - 1.0) < 1e-12


def test_golden_max_degenerate_bracket():
    x, fx = golden_max(lambda x: x, 0.5, 0.5)
    assert x == 0.5 and fx == 0.5


def test_falsi_peak_finds_the_falling_root():
    x, fx = falsi_peak(np.sin, np.cos, 1.0, 2.5)
    assert abs(x - np.pi / 2) <= 1e-15 and fx == np.sin(x)
    # a slope that falls through 0 only near the bracket end
    x, _ = falsi_peak(np.sin, lambda t: 1.0 - np.exp(40.0 * (t - 0.9)), 0.0, 1.0)
    assert abs(x - 0.9) <= 1e-14


def test_falsi_peak_stops_when_the_secant_lands_on_an_end():
    # the slope's root lies within rounding of the left end, so the first
    # secant point rounds onto it: no probe beyond the two ends, and the end
    # of least |slope| is the witness
    probes = []

    def slope(t):
        probes.append(t)
        return 1e-300 - (t - 0.25)

    f = lambda t: 1e-300 * t - 0.5 * (t - 0.25) ** 2
    x, fx = falsi_peak(f, slope, 0.25, 0.75)
    assert probes == [0.25, 0.75]
    assert x == 0.25 and fx == f(0.25)


@pytest.mark.parametrize("slope,lo,hi", [
    (lambda t: -np.cos(t), 1.0, 2.5),   # a minimum: - to +
    (lambda t: 1.0, 0.0, 1.0),          # no sign change
    (lambda t: 0.0, 0.0, 1.0),          # a plateau
    (np.sin, 0.0, 1.0),                 # a root at the bracket end is not inside it
], ids=["minimum", "monotone", "plateau", "end_root"])
def test_falsi_peak_without_a_falling_root(slope, lo, hi):
    assert falsi_peak(np.cos, slope, lo, hi) == (None, -np.inf)


def test_scan_polish_with_a_slope():
    f = lambda x: np.cos(x - 0.3)
    x, fx = scan_polish(f, np.linspace(-3.0, 3.0, 7), slope=lambda x: -np.sin(x - 0.3))
    assert abs(x - 0.3) <= 1e-15 and fx == 1.0
    # a slope without a sign change on the bracket keeps the grid winner
    assert scan_polish(f, np.linspace(-3.0, 3.0, 7), slope=lambda x: 1.0) == (0.0, float(f(0.0)))


def test_trisect_min_quadratic():
    x, fx = trisect_min(lambda x: (x - 0.7) ** 2 + 2.0, 0.0, 1.0)
    assert abs(x - 0.7) < 5e-8
    assert abs(fx - 2.0) < 1e-12


def test_bisect_root_cosine():
    root = bisect_root(lambda x: (math.cos(x), -math.sin(x)), 0.0, 3.0)
    assert abs(root - math.pi / 2) <= math.ulp(math.pi / 2)


def test_bisect_root_requires_sign_change():
    with pytest.raises(NoSignChangeError):
        bisect_root(lambda x: (x * x + 1.0, 2.0 * x), -1.0, 1.0)


def test_bisect_root_exact_endpoint():
    assert bisect_root(lambda x: (x, 1.0), 0.0, 1.0) == 0.0


def test_bisect_root_convergence_cap():
    # the misleading slope throws every Newton step out of the bracket, and
    # bisection from [0, 1] toward 1e-300 needs about 1000 halvings
    g = lambda x: (x - 1e-300, 1e-300)
    with pytest.raises(ConvergenceError):
        bisect_root(g, -1.0, 1.0)
    # on [0, 1] the secant point is the root itself
    assert bisect_root(g, 0.0, 1.0) == 1e-300


@pytest.mark.parametrize("g,lo,hi,root", [
    (lambda x: (x * x - 2.0, 2.0 * x), 1.0, 2.0, math.sqrt(2.0)),
    (lambda x: (math.exp(x) - 2.0, math.exp(x)), 0.0, 1.0, math.log(2.0)),
    (lambda x: (x ** 3 - 3.0, 3.0 * x * x), 1.0, 2.0, 3.0 ** (1.0 / 3.0)),
    (lambda x: (1.0 / x - 3.0, -1.0 / (x * x)), 0.1, 1.0, 1.0 / 3.0),
    (lambda x: (math.sin(x), math.cos(x)), 3.0, 3.5, math.pi),
    (lambda x: (x * math.exp(x) - 1.0, (1.0 + x) * math.exp(x)), 0.0, 1.0,
     0.56714329040978387),  # the omega constant W(1)
], ids=["sqrt2", "log2", "cbrt3", "falling", "pi", "omega"])
def test_bisect_root_to_the_last_ulp(g, lo, hi, root):
    # no tolerance to set: the Newton step stops at a few ulps, rising or
    # falling, and every probe stays inside the bracket
    probes = []

    def traced(x):
        probes.append(x)
        return g(x)

    assert abs(bisect_root(traced, lo, hi) - root) <= math.ulp(root)
    assert all(lo <= x <= hi for x in probes) and len(probes) <= 12


def test_bisect_root_with_no_float_left_returns_the_end_of_smaller_residual():
    # the root lies between two adjacent floats, and a zero slope leaves
    # only bisection, which finds no float inside the bracket
    lo = 0.5
    hi = math.nextafter(lo, 1.0)
    for frac, end in ((0.25, lo), (0.75, hi)):
        assert bisect_root(lambda x: ((x - lo) / (hi - lo) - frac, 0.0), lo, hi) == end


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


@pytest.mark.parametrize("n", [1, 0, -1])
def test_h_profile_size_shares_the_grid_rule(n):
    # the one library scan size a caller sets (h-profile --n) meets ``Radii``'s
    # check, with ``grid``'s message
    from blochbohr.weights import h_profile
    with pytest.raises(ParameterDomainError) as exc:
        h_profile(0.8, n_points=n)
    assert str(exc.value) == f"a scan needs at least 2 points, got {n}"


def _scan_calls():
    """Each library scan the CLI runs at a fixed size, with that size."""
    from blochbohr.bounds import ProbeFunction
    from blochbohr.extremal import verify_sharpness
    from blochbohr.norms import (_series_radial_sup, weighted_bloch_norm,
                                 weighted_bloch_seminorm, weighted_radial_sup)
    from blochbohr.series import TruncatedSeries
    from blochbohr.weights import builtin_weight, criterion_check
    std, const = builtin_weight("standard"), builtin_weight("constant")
    z = TruncatedSeries.polynomial([0.0, 1.0])
    signed = TruncatedSeries.polynomial([1.0, -2.0, 3.0])
    return {
        # nonnegative and signed coefficients take different rough radial scans
        "weighted_bloch_norm-nonneg": (lambda **kw: weighted_bloch_norm(z, std, **kw), R_POINTS),
        "weighted_bloch_norm-signed": (lambda **kw: weighted_bloch_norm(signed, std, **kw),
                                       R_POINTS),
        "weighted_bloch_seminorm": (lambda **kw: weighted_bloch_seminorm(signed, std, **kw),
                                    R_POINTS),
        "weighted_radial_sup": (lambda **kw: weighted_radial_sup(z, std, **kw), R_POINTS),
        "_series_radial_sup": (lambda **kw: _series_radial_sup(signed, std, **kw), R_POINTS),
        "ProbeFunction.bloch_seminorm": (
            lambda **kw: ProbeFunction("z", z).bloch_seminorm(std, **kw), R_POINTS),
        "criterion_check": (lambda **kw: criterion_check(std, 0.8, **kw), CRITERION_R_POINTS),
        "verify_sharpness": (lambda **kw: verify_sharpness(const, 1.0, **kw),
                             CRITERION_R_POINTS),
    }


@pytest.mark.parametrize("name", list(_scan_calls()))
def test_scans_run_at_the_library_size(name, monkeypatch):
    # every radial grid a scan hands to ``scan_polish`` has the library's size,
    # whatever the input; the sharpness sup side adds its anchor, r0 = 1, past R_MAX
    from blochbohr import extremal, norms, search, weights
    sizes = []

    def recorded(f, xs, *args, **kw):
        sizes.append(len(xs))
        return search.scan_polish(f, xs, *args, **kw)

    for module in (weights, extremal, norms):
        monkeypatch.setattr(module, "scan_polish", recorded)
    call, size = _scan_calls()[name]
    call()
    want = {size, size + 1} if name == "verify_sharpness" else {size}
    assert set(sizes) == want


@pytest.mark.parametrize("name,keyword", [
    *((name, "r_points") for name in _scan_calls()), ("criterion_check", "tol")])
def test_scans_take_no_size_or_tolerance_keyword(name, keyword):
    # the sizes and the criterion tolerance are constants: not even the
    # library's own value is accepted as an argument
    from blochbohr.weights import CRITERION_TOL
    call, size = _scan_calls()[name]
    with pytest.raises(TypeError, match=keyword):
        call(**{keyword: CRITERION_TOL if keyword == "tol" else size})


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


class TestRadii:
    """``Radii(n, x)`` is the sorted union of ``grid(0, R_MAX, n)`` and x."""

    def test_points_are_the_grid_with_the_anchor_added(self):
        rng = random.Random(6)
        for n in [2, 3, 7, 100, R_POINTS, CRITERION_R_POINTS] + [
                rng.randint(2, 5000) for _ in range(20)]:
            rs = grid(0.0, R_MAX, n)
            assert _bits(list(Radii(n))) == _bits(rs) and len(Radii(n)) == n
            # 0.0, R_MAX and a middle radius are grid points; 1 (the anchor of
            # ``sharpness --r0 1``) lies past R_MAX
            for x in (0.0, R_MAX, 1.0, rs[n // 2], rng.uniform(0.0, 1.0),
                      rng.uniform(R_MAX, 1.0)):
                want = sorted({*rs, x})
                assert _bits(want) == _bits(np.union1d(np.linspace(0.0, R_MAX, n), [x]))
                got = Radii(n, x)
                assert len(got) == len(want) and _bits(list(got)) == _bits(want)

    @pytest.mark.parametrize("x", [None, 0.5, 1.0])
    def test_index_range(self, x):
        rs = Radii(5, x)
        for k in (len(rs), -1):
            with pytest.raises(IndexError):
                rs[k]

    @pytest.mark.parametrize("n", [1, 0, -1])
    def test_grid_rule(self, n):
        with pytest.raises(ParameterDomainError) as exc:
            Radii(n)
        assert str(exc.value) == f"a scan needs at least 2 points, got {n}"


def _bits(xs) -> bytes:
    return np.asarray(xs, dtype=float).tobytes()


@given(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0), st.integers(2, 4096))
@example(0.0, R_MAX, R_POINTS)
@example(1.0 / 3.0, 1.0 / math.sqrt(2.0), 20)
@settings(max_examples=300, deadline=None)
def test_grid_is_linspace_bit_for_bit(lo, hi, n):
    # np.linspace takes another route only when the step underflows to 0
    assume((hi - lo) / (n - 1) != 0.0 or hi == lo)
    xs = grid(lo, hi, n)
    assert type(xs) is list and all(type(x) is float for x in xs)
    assert _bits(xs) == _bits(np.linspace(lo, hi, n))


def test_library_grids_are_linspace_bit_for_bit():
    from blochbohr.bounds import A_MAX, THEOREM4_A_GRID
    from blochbohr.cli import BOMBIERI_RADII
    from blochbohr.weights import SQRT2
    for n in range(2, 5000):
        assert _bits(grid(0.0, R_MAX, n)) == _bits(np.linspace(0.0, R_MAX, n)), n
    assert _bits(THEOREM4_A_GRID) == _bits(np.linspace(1e-6, A_MAX - 1e-9, 200))
    assert _bits(grid(0.0, 1.0, R_POINTS)) == _bits(np.linspace(0.0, 1.0, R_POINTS))
    assert _bits(grid(1 / 3, 1 / SQRT2, BOMBIERI_RADII)) == _bits(
        np.linspace(1 / 3, 1 / SQRT2, BOMBIERI_RADII))
