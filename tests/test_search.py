import numpy as np
import pytest

from blochbohr import (ConvergenceError, NoSignChangeError,
                       ParameterDomainError, bisect_root, golden_max, grid_golden_max,
                       trisect_min)
from blochbohr.search import R_MAX, R_POINTS, bisect_flag, falsi_peak, radii, scan_polish


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


def _scan_size_calls():
    from blochbohr.bounds import ProbeFunction
    from blochbohr.extremal import verify_sharpness
    from blochbohr.norms import weighted_bloch_norm, weighted_radial_sup
    from blochbohr.series import TruncatedSeries
    from blochbohr.weights import builtin_weight, criterion_check, find_admissible_r0, h_profile
    std, const = builtin_weight("standard"), builtin_weight("constant")
    return {
        # nonnegative and signed coefficients take different rough radial scans
        "weighted_bloch_norm-nonneg":
            lambda n: weighted_bloch_norm(TruncatedSeries.polynomial([0.0, 1.0]), std, n),
        "weighted_bloch_norm-signed":
            lambda n: weighted_bloch_norm(TruncatedSeries.polynomial([1.0, -2.0, 3.0]), std, n),
        "weighted_radial_sup": lambda n: weighted_radial_sup(lambda z: z, std, r_points=n),
        "ProbeFunction.bloch_seminorm": lambda n: ProbeFunction(
            "z", TruncatedSeries.polynomial([0.0, 1.0])).bloch_seminorm(std, n),
        "criterion_check": lambda n: criterion_check(std, 0.8, r_points=n),
        "find_admissible_r0": lambda n: find_admissible_r0(std, r_points=n),
        "verify_sharpness": lambda n: verify_sharpness(const, 1.0, r_points=n),
        "h_profile": lambda n: h_profile(0.8, n_points=n),
    }


@pytest.mark.parametrize("name", list(_scan_size_calls()))
@pytest.mark.parametrize("n", [1, 0, -1])
def test_scan_size_keywords_share_the_grid_rule(name, n):
    # every library scan-size keyword goes through ``grid``'s check and message
    call = _scan_size_calls()[name]
    with pytest.raises(ParameterDomainError) as exc:
        call(n)
    assert str(exc.value) == f"a scan needs at least 2 points, got {n}"


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
