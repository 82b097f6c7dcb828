from dataclasses import asdict

import numpy as np
import pytest

from blochbohr import (DivergenceRegionError, NoSignChangeError, ParameterDomainError, PoleError,
                       TruncatedSeries, avkhadiev_coefficients,
                       best_test_ratio, bombieri_m_infty, builtin_weight,
                       cauchy_chain_check, coefficient_sum, majorant,
                       mobius_majorant_sum, mobius_majorant_sup, mobius_series,
                       theorem1_optimize, theorem1_root, theorem4_expression,
                       theorem4_sup, theorem4_upper_bound, theorem5_ratios)
from blochbohr import bounds
from blochbohr.bounds import (_COEF, A_MAX, S_RANGE, THEOREM4_A_GRID, ProbeFunction,
                              _stationary_sups, _t1_residual, avkhadiev_majorant_closed_form)
from conftest import random_polynomial

SQRT2 = np.sqrt(2.0)


class TestTheorem1Root:
    def test_reported_optimum_pair(self):
        assert abs(theorem1_root(0.333771) - 0.563777) < 1e-5

    def test_half_exponent_reduces_to_prior_constant(self):
        # at s = 1/2 the equation is 1 - r + r log(1 - r) = 0
        root = theorem1_root(0.5)
        assert abs(root - 0.55356) < 1e-4
        assert abs(1.0 - root + root * np.log(1.0 - root)) < 1e-9

    def test_residual_and_interior(self):
        for s in (0.2, 0.333771, 0.5, 0.8):
            r = theorem1_root(s, 1e-11)
            assert 0.0 < r < 1.0
            assert abs(_t1_residual(r, s)) <= 1e-11

    def test_bracket_sign_change(self):
        s = 0.333771
        assert _t1_residual(0.01, s) > 0.0 > _t1_residual(0.99, s)

    def test_domain(self):
        # the roots at 1e-5 and 0.99999 (0.2934 and 0.00964) differ from
        # those at the ends of the range, so no clamped answer may stand in
        for bad in (0.0, 1.0, -0.3, 1.5, 1e-5, 0.99999, float("nan")):
            with pytest.raises(ParameterDomainError, match=r"\[1e-4, 1 - 1e-4\]"):
                theorem1_root(bad)

    def test_bad_bracket(self, monkeypatch):
        monkeypatch.setattr(bounds, "THEOREM1_BRACKET", (0.9, 0.99))
        with pytest.raises(NoSignChangeError):
            theorem1_root(0.333771)


class TestTheorem1Optimize:
    def test_reproduces_reported_values(self):
        s_star, r_star = theorem1_optimize()
        assert abs(r_star - 0.563777) < 1e-5
        assert abs(s_star - 0.333771) < 1e-3

    def test_envelope_optimum_pinned(self):
        # r* = (-W_{-1}(-e^{-2}))^{-1/2}, the root of 2 ln r + r^-2 = 2, and
        # s* = ln(1 - r*^2) / (2 ln r*), both from Lambert W at 40 digits
        r_exact, s_exact = 0.56377693540918529, 0.33371122426485821
        s_star, r_star = theorem1_optimize()
        assert abs(r_star - r_exact) < 1e-10
        assert abs(s_star - s_exact) < 1e-10
        s_star, r_star = theorem1_optimize(tol=1e-14)
        assert abs(r_star - r_exact) < 1e-15
        assert abs(s_star - s_exact) < 1e-15

    def test_envelope_point_solves_the_root_equation(self):
        s_star, r_star = theorem1_optimize()
        assert abs(_t1_residual(r_star, s_star)) <= 1e-9
        assert r_star ** (2.0 * s_star) == pytest.approx(1.0 - r_star ** 2, abs=1e-12)

    def test_dominates_prior_constant(self):
        _, r_star = theorem1_optimize()
        assert r_star >= theorem1_root(0.5)

    def test_argmax_property(self):
        # an independent scan of r(s) never beats the envelope optimum and
        # its best grid point comes within the grid's quadratic loss of it
        _, r_star = theorem1_optimize()
        roots = [theorem1_root(float(s)) for s in np.linspace(S_RANGE[0], S_RANGE[1], 2001)]
        assert max(roots) <= r_star + 1e-9
        assert max(roots) >= r_star - 1e-7

    def test_bad_bracket(self, monkeypatch):
        monkeypatch.setattr(bounds, "THEOREM1_BRACKET", (0.6, 0.99))
        with pytest.raises(NoSignChangeError):
            theorem1_optimize()


class TestCauchyChain:
    def test_multiplier_is_one_at_sqrt2(self, std):
        s = TruncatedSeries.polynomial([0.5, 0.5])
        r = 0.5
        scale = 1.0 / SQRT2
        v1, v2, v3 = cauchy_chain_check(s, std, scale, r)
        from blochbohr import circle_norms
        cn = circle_norms(s, r)
        assert v2 == pytest.approx(std(r) * cn.l2_norm, rel=1e-14)
        assert v3 == pytest.approx(std(r) * cn.sup_norm, rel=1e-14)

    def test_tight_on_proportional_coefficients(self, const):
        # Cauchy-Schwarz is equality iff |a_n| r^n is proportional to R^n
        scale, r = 0.3, 0.5
        coeffs = (scale / r) ** np.arange(61)
        s = TruncatedSeries.with_geometric_tail(coeffs, scale / r, 1.0)
        v1, v2, v3 = cauchy_chain_check(s, const, scale, r)
        assert v1 == pytest.approx(v2, rel=1e-12)
        assert v2 <= v3 + 1e-12

    def test_strictly_increasing_for_constant(self, const):
        v1, v2, v3 = cauchy_chain_check(TruncatedSeries.polynomial([2.0]),
                                        const, 0.6, 0.5)
        assert v1 < v2 <= v3 + 1e-15
        assert v1 == pytest.approx(0.6 * 2.0, abs=1e-14)

    def test_weakly_increasing_random(self, std):
        rng = np.random.default_rng(31)
        for _ in range(60):
            s = random_polynomial(rng)
            scale = float(rng.uniform(0.05, 0.95))
            r = float(rng.uniform(0.05, 0.95))
            v1, v2, v3 = cauchy_chain_check(s, std, scale, r)
            assert v1 <= v2 + 1e-10
            assert v2 <= v3 + 1e-10

    def test_scale_domain(self, std):
        s = TruncatedSeries.polynomial([1.0])
        with pytest.raises(ParameterDomainError):
            cauchy_chain_check(s, std, 1.0, 0.5)


class TestTheorem4:
    def test_vanishes_at_unit_radius(self):
        assert theorem4_expression(0.35, 0.769, 1.0) == 0.0

    def test_certificate_at_reported_point(self):
        value, witness = theorem4_sup(0.35, 0.769)
        assert value > 1.0 + 1e-9
        assert 0.0 < witness < 1.0

    def test_no_certificate_at_sqrt2(self):
        value, _ = theorem4_sup(0.35, 1.0 / SQRT2)
        assert value <= 1.0 + 1e-9

    def test_consistency_scan_at_sqrt2(self):
        a = np.linspace(1e-6, 1 / np.sqrt(3.0) - 1e-9, 200)[:, None]
        r = np.linspace(0.0, 1.0, 2048)[None, :]
        table = theorem4_expression(a, 1.0 / SQRT2, r)
        assert table.max() <= 1.0 + 1e-9

    def test_pole(self):
        with pytest.raises(PoleError):
            theorem4_expression(0.5, 4.0, 0.5)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("scale", [float("inf"), -1.0, float("nan")])
    def test_scale_domain(self, scale):
        with pytest.raises(ParameterDomainError):
            theorem4_expression(0.35, scale, 0.5)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("r", [-0.1, 1.5, float("nan"), np.array([0.5, np.nan])])
    def test_radius_domain(self, r):
        with pytest.raises(ParameterDomainError, match=r"radius must lie in \[0, 1\]"):
            theorem4_expression(0.35, 0.769, r)

    def test_upper_bound_bracket(self):
        scan = theorem4_upper_bound()
        assert 1.0 / SQRT2 <= scan.upper_bound <= 0.7691
        assert scan.best_value > 1.0 + 1e-9
        assert scan.samples > 0
        assert list(asdict(scan)) == ["upper_bound", "best_value", "witness_a",
                                      "witness_r", "samples"]

    def test_upper_bound_certificate_is_best_test_ratio(self):
        scan = theorem4_upper_bound()
        assert best_test_ratio(scan.upper_bound) \
            == (scan.best_value, scan.witness_a, scan.witness_r)
        assert scan.samples % THEOREM4_A_GRID.size == 0

    @pytest.mark.parametrize("bracket,end", [((0.5, 0.6), "high end"),
                                             ((0.77, 0.8), "low end")])
    def test_upper_bound_bad_bracket(self, monkeypatch, bracket, end):
        monkeypatch.setattr(bounds, "THEOREM4_BRACKET", bracket)
        with pytest.raises(ParameterDomainError, match=f"bracket {end}"):
            theorem4_upper_bound()


class TestBombieri:
    def test_endpoint_values(self):
        assert abs(bombieri_m_infty(1.0 / SQRT2) - SQRT2) < 4 * np.finfo(float).eps
        assert abs(bombieri_m_infty(1.0 / 3.0) - 1.0) < 1e-12

    def test_midpoint_arithmetic(self):
        assert bombieri_m_infty(0.5) == pytest.approx(2.0 * (3.0 - np.sqrt(6.0)),
                                                      abs=1e-15)
        assert bombieri_m_infty(0.5) == pytest.approx(1.1010205, abs=1e-7)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_domain(self):
        for bad in (0.2, 0.8, 1.0, np.nan, np.array([0.5, np.nan])):
            with pytest.raises(ParameterDomainError, match="closed form holds"):
                bombieri_m_infty(bad)

    def test_vectorized(self):
        r = np.linspace(1.0 / 3.0, 1.0 / SQRT2, 7)
        out = bombieri_m_infty(r)
        assert out.shape == (7,)


class TestMobiusMajorantSup:
    @pytest.mark.parametrize("r", [0.35, 0.5, 0.6, 1.0 / SQRT2])
    def test_matches_closed_form(self, r):
        assert abs(mobius_majorant_sup(r) - bombieri_m_infty(r)) < 1e-6

    def test_degenerate_at_third(self):
        assert abs(mobius_majorant_sup(1.0 / 3.0) - 1.0) < 1e-6

    def test_never_exceeds_cauchy_bound(self):
        for r in np.linspace(0.05, 0.95, 37):
            assert mobius_majorant_sup(float(r)) <= 1.0 / np.sqrt(1 - r * r) + 1e-12

    def test_equality_gap_closes_only_near_sqrt2(self):
        radii = np.linspace(0.35, 0.95, 61)
        gaps = np.array([1.0 / np.sqrt(1 - r * r) - mobius_majorant_sup(float(r))
                         for r in radii])
        assert np.all(gaps >= -1e-9)
        assert abs(radii[np.argmin(gaps)] - 1.0 / SQRT2) < 0.02
        far = np.abs(radii - 1.0 / SQRT2) > 0.1
        assert gaps[far].min() > 1e-3

    def test_family_series_route(self):
        # the grid searched family member must realize its stated majorant sum
        for alpha, r in ((0.3, 0.5), (0.6, 0.4)):
            s = mobius_series(alpha)
            term_sum = coefficient_sum(majorant(s), r)
            assert term_sum == pytest.approx(float(mobius_majorant_sum(alpha, r)),
                                             abs=1e-12)

    def test_domain(self):
        with pytest.raises(ParameterDomainError):
            mobius_majorant_sup(0.0)
        with pytest.raises(ParameterDomainError):
            mobius_majorant_sup(1.0)


def antiderivative_of_test_function(a):
    """f with f(0) = 0 and f' = g_a, the unit-sup test function of Theorem 4."""
    g = avkhadiev_coefficients(a)
    k = np.arange(1, g.coeffs.size + 1)
    coeffs = np.concatenate(([0.0], g.coeffs / k))
    # |b_k|/(k+1) <= M rho^k = (M/rho) rho^(k+1)
    return TruncatedSeries(coeffs, g.tail_rho, g.tail_m / g.tail_rho)


class TestTheorem5:
    @pytest.mark.parametrize("scale", [0.3, 0.5, 1.0 / SQRT2, 0.9])
    def test_gap_positive_default_family(self, scale):
        assert scale / np.sqrt(1.0 - scale * scale) - best_test_ratio(scale)[0] > 0.0

    @pytest.mark.parametrize("scale", [0.3, 0.5, 1.0 / SQRT2, 0.9])
    def test_best_ratio_at_least_identity_map(self, scale):
        # z has ratio exactly R, so the test functions never do worse
        assert best_test_ratio(scale)[0] >= scale - 1e-12

    @pytest.mark.parametrize("scale", [0.01, 0.1, 0.2, 0.3, 0.45, 0.5])
    def test_small_scales_take_the_closed_form_at_the_origin(self, scale):
        # T4(a, 0) = R (3 sqrt(3)/2) a (1 - a^2) peaks at exactly R at a = 1/sqrt(3)
        value, a, r = best_test_ratio(scale)
        assert value == pytest.approx(scale, rel=4 * np.finfo(float).eps)
        assert a == A_MAX - 1e-9
        # at that a, 1e-9 below 1/sqrt(3), T4 peaks within 1e-8 of r = 0, and
        # rounding decides between the root and the end
        assert 0.0 <= r <= 1e-8

    @pytest.mark.parametrize("a,scale", [(0.339448, 1.0 / SQRT2), (0.35, 0.769)])
    def test_closed_form_matches_seminorm_route(self, a, scale):
        family = (ProbeFunction("f_a", antiderivative_of_test_function(a)),)
        ratio = theorem5_ratios(scale, family)["f_a"]
        assert ratio == pytest.approx(theorem4_sup(a, scale)[0], abs=1e-12)

    def test_single_member_identity_map(self):
        family = (ProbeFunction("z", TruncatedSeries.polynomial([0.0, 1.0])),)
        for scale in (0.3, 0.7):
            assert theorem5_ratios(scale, family)["z"] == pytest.approx(scale, abs=1e-10)

    def test_ratio_scale_invariant(self):
        base = TruncatedSeries.polynomial([0.3, 1.0, -0.5j])
        family = (ProbeFunction("f", base),
                  ProbeFunction("5f", TruncatedSeries.polynomial(5.0 * base.coeffs)))
        ratios = theorem5_ratios(0.5, family)
        assert ratios["f"] == pytest.approx(ratios["5f"], rel=1e-12)

    def test_constant_member_rejected(self):
        family = (ProbeFunction("const", TruncatedSeries.polynomial([1.0])),)
        with pytest.raises(ParameterDomainError):
            theorem5_ratios(0.5, family)


def dense_sup(a, scale, r_points=100_001):
    """max of ``theorem4_expression`` on a dense r grid, a lower bound of the sup."""
    return float(theorem4_expression(a, scale, np.linspace(0.0, 1.0, r_points)).max())


class TestQuinticSup:
    """The sup over r at the roots of the stationarity quintic."""

    def test_quintic_is_the_scaled_radial_derivative(self):
        # u^4 dT4/dr / (R C (1 - a^2)) with u = 1 - aRr, against a central difference
        rng = np.random.default_rng(3)
        for a, scale, r in zip(rng.uniform(0.01, A_MAX, 200), rng.uniform(0.05, 0.99, 200),
                               rng.uniform(0.01, 0.99, 200)):
            h = 1e-6
            slope = (theorem4_expression(a, scale, r + h)
                     - theorem4_expression(a, scale, r - h)) / (2.0 * h)
            u = 1.0 - a * scale * r
            coeffs = [scale * (1 - 3 * a**2), 2 * a * (scale**2 - 1), scale * (17 * a**2 - 3),
                      -24 * a**3 * scale**2, 16 * a**4 * scale**3, -4 * a**5 * scale**4]
            p = sum(c * r**k for k, c in enumerate(coeffs))
            assert u**4 * slope / (scale * _COEF * (1 - a * a)) == pytest.approx(p, abs=1e-7)

    @pytest.mark.parametrize("seed", range(10))
    def test_never_below_a_dense_scan(self, seed):
        rng = np.random.default_rng(seed)
        for a, scale in zip(rng.uniform(1e-6, A_MAX, 20), rng.uniform(0.01, 0.999, 20)):
            value, r = theorem4_sup(float(a), float(scale))
            assert value == theorem4_expression(float(a), float(scale), r)
            assert dense_sup(a, scale) <= value * (1.0 + 4 * np.finfo(float).eps), (a, scale)

    @pytest.mark.parametrize("a,scale", [(0.5, 0.3), (0.35, 0.769), (0.2, 0.5), (0.5, 0.9),
                                         (0.1, 0.9), (0.3, 0.6), (0.55, 0.99)])
    def test_interior_witness_is_a_peak(self, a, scale):
        value, r = theorem4_sup(a, scale)
        assert 0.0 < r < 1.0
        h = 1e-7
        assert theorem4_expression(a, scale, r - h) <= value
        assert theorem4_expression(a, scale, r + h) <= value
        assert value == pytest.approx(dense_sup(a, scale), rel=1e-9)

    def test_scales_past_one(self):
        # R >= 1 is allowed while the pole 1/(aR) stays off the disc
        value, _ = theorem4_sup(0.35, 2.0)
        assert value == pytest.approx(dense_sup(0.35, 2.0), rel=1e-9)
        with pytest.raises(DivergenceRegionError):
            theorem4_sup(0.35, 3.0)
        with pytest.raises(PoleError):
            theorem4_sup(0.5, 2.0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("a,scale", [(0.35, 0.0), (1e-200, 0.5), (0.35, float("inf")),
                                         (float("nan"), 0.5), (0.7, 0.5)])
    def test_domain(self, a, scale):
        with pytest.raises(ParameterDomainError):
            theorem4_sup(a, scale)

    @pytest.mark.parametrize("scale", [0.3, 0.5, 0.7, 0.769, 0.9, 0.99])
    def test_batch_matches_single_sups(self, scale):
        values, radii = _stationary_sups(THEOREM4_A_GRID, scale)
        for a, v, r in zip(THEOREM4_A_GRID.tolist(), values.tolist(), radii.tolist()):
            assert theorem4_sup(a, scale) == (v, r)


class TestBestTestRatio:
    @pytest.mark.parametrize("scale", [0.5, 0.52, 0.55])
    def test_two_local_maxima_agree_with_a_dense_table(self, scale):
        # the sup over r has a local maximum in a at the end 1/sqrt(3) and one
        # inside; 0.5 takes the end, 0.52 and 0.55 the inside
        a_grid = np.linspace(1e-6, A_MAX - 1e-9, 2001)
        r_grid = np.linspace(0.0, 1.0, 2001)
        table = theorem4_expression(a_grid[:, None], scale, r_grid[None, :])
        value, a, r = best_test_ratio(scale)
        assert table.max() <= value * (1.0 + 4 * np.finfo(float).eps)
        assert value - table.max() <= 1e-6
        i = int(np.argmax(table)) // r_grid.size
        assert abs(a - a_grid[i]) <= 2 * (a_grid[1] - a_grid[0])
        assert value == theorem4_expression(a, scale, r)

    @pytest.mark.parametrize("scale", [0.56, 0.6, 0.65, 1.0 / SQRT2, 0.75, 0.769, 0.8, 0.9,
                                       0.95, 0.99])
    def test_polished_a_is_a_peak(self, scale):
        value, a, r = best_test_ratio(scale)
        assert value == theorem4_expression(a, scale, r)
        for da in (-1e-6, 1e-6):
            assert theorem4_sup(a + da, scale)[0] <= value

    def test_theorem4_threshold(self):
        # the family sup crosses 1 at R* = 0.7683632197 (secant root)
        assert best_test_ratio(0.76836)[0] < 1.0 < best_test_ratio(0.76837)[0]

    @pytest.mark.parametrize("scale", [0.0, 1.0, float("nan")])
    def test_scale_domain(self, scale):
        with pytest.raises(ParameterDomainError, match=r"lie in \(0, 1\)"):
            best_test_ratio(scale)


class TestClosedFormFloatPath:
    def test_float_path_matches_the_array_path(self):
        rng = np.random.default_rng(14)
        a = rng.uniform(0.0, A_MAX, 10_000)
        scale = rng.uniform(0.0, 1.0, 10_000)
        r = rng.uniform(0.0, 1.0, 10_000)
        for ak, sk, rk in zip(a.tolist(), scale.tolist(), r.tolist()):
            fast = theorem4_expression(ak, sk, rk)
            assert type(fast) is float
            assert fast == theorem4_expression(np.asarray(ak), sk, np.asarray(rk))

    def test_closed_form_float_path_matches_the_array_path(self):
        rng = np.random.default_rng(15)
        a = rng.uniform(0.0, A_MAX, 10_000).tolist()
        x = (rng.uniform(0.0, 1.0, 10_000) / np.asarray(a)).tolist()
        a_top = float(np.nextafter(A_MAX, 0.0))
        edges = [(0.35, 0.0), (a_top, 0.0), (a_top, 0.9), (a_top, 1.7),
                 (0.35, float(np.nextafter(1.0 / 0.35, 0.0)))]
        for ak, xk in list(zip(a, x)) + edges:
            assert ak * xk < 1.0
            fast = avkhadiev_majorant_closed_form(ak, xk)
            assert type(fast) is float
            slow = avkhadiev_majorant_closed_form(np.asarray(ak), np.asarray(xk))
            assert fast.hex() == slow.hex(), (ak, xk)


@pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), float("inf")])
@pytest.mark.parametrize("solve", [lambda tol: theorem1_root(0.5, tol), theorem1_optimize,
                                   theorem4_upper_bound],
                         ids=["theorem1_root", "theorem1_optimize", "theorem4_upper_bound"])
def test_solver_tol_must_be_positive_and_finite(solve, tol):
    with pytest.raises(ParameterDomainError):
        solve(tol)
