import numpy as np
import pytest

from blochbohr import (NoSignChangeError, ParameterDomainError, PoleError,
                       SolverConfig, TruncatedSeries, avkhadiev_coefficients,
                       best_test_ratio, bombieri_m_infty, builtin_weight,
                       cauchy_chain_check, coefficient_sum, majorant,
                       mobius_majorant_sum, mobius_majorant_sup, mobius_series,
                       theorem1_optimize, theorem1_root, theorem4_expression,
                       theorem4_sup, theorem4_upper_bound, theorem5_gap,
                       theorem5_ratios)
from blochbohr.bounds import (S_CLIP, THEOREM4_A_POINTS, THEOREM4_R_POINTS,
                              ProbeFunction, _t1_residual)
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
        cfg = SolverConfig(abs_tol=1e-11)
        for s in (0.2, 0.333771, 0.5, 0.8):
            r = theorem1_root(s, cfg)
            assert 0.0 < r < 1.0
            assert abs(_t1_residual(r, s)) <= 1e-11

    def test_bracket_sign_change(self):
        s = 0.333771
        assert _t1_residual(0.01, s) > 0.0 > _t1_residual(0.99, s)

    def test_domain(self):
        for bad in (0.0, 1.0, -0.3, 1.5):
            with pytest.raises(ParameterDomainError):
                theorem1_root(bad)

    def test_bad_bracket(self):
        with pytest.raises(NoSignChangeError):
            theorem1_root(0.333771, SolverConfig(bracket=(0.9, 0.99)))


class TestTheorem1Optimize:
    def test_reproduces_reported_values(self):
        s_star, r_star = theorem1_optimize()
        assert abs(r_star - 0.563777) < 1e-5
        assert abs(s_star - 0.333771) < 1e-3

    def test_envelope_optimum_pinned(self):
        # root of 2 ln r + r^-2 = 2 and s* = ln(1 - r*^2) / (2 ln r*)
        s_star, r_star = theorem1_optimize()
        assert abs(s_star - 0.3337112243) < 1e-8
        assert abs(r_star - 0.5637769354) < 1e-9

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
        roots = [theorem1_root(float(s)) for s in np.linspace(S_CLIP[0], S_CLIP[1], 2001)]
        assert max(roots) <= r_star + 1e-9
        assert max(roots) >= r_star - 1e-7

    def test_bad_bracket(self):
        with pytest.raises(NoSignChangeError):
            theorem1_optimize(SolverConfig(bracket=(0.6, 0.99)))


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

    def test_upper_bound_bracket(self):
        scan = theorem4_upper_bound()
        ub = scan.best_params["R"]
        assert 1.0 / SQRT2 <= ub <= 0.7691
        assert scan.best_value > 1.0 + 1e-9
        assert scan.samples > 0
        assert set(scan.to_json_dict()) == {"best_value", "best_params", "samples"}

    def test_upper_bound_certificate_is_best_test_ratio(self):
        scan = theorem4_upper_bound()
        params = scan.best_params
        assert best_test_ratio(params["R"]) == (scan.best_value, params["a"], params["r"])
        assert scan.samples % (THEOREM4_A_POINTS * THEOREM4_R_POINTS) == 0

    def test_upper_bound_bad_bracket(self):
        with pytest.raises(ParameterDomainError):
            theorem4_upper_bound(SolverConfig(bracket=(0.5, 0.6)))


class TestBombieri:
    def test_endpoint_values(self):
        assert abs(bombieri_m_infty(1.0 / SQRT2) - SQRT2) < 4 * np.finfo(float).eps
        assert abs(bombieri_m_infty(1.0 / 3.0) - 1.0) < 1e-12

    def test_midpoint_arithmetic(self):
        assert bombieri_m_infty(0.5) == pytest.approx(2.0 * (3.0 - np.sqrt(6.0)),
                                                      abs=1e-15)
        assert bombieri_m_infty(0.5) == pytest.approx(1.1010205, abs=1e-7)

    def test_domain(self):
        for bad in (0.2, 0.8, 1.0):
            with pytest.raises(ParameterDomainError):
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
        assert theorem5_gap(scale) > 0.0

    @pytest.mark.parametrize("scale", [0.3, 0.5, 1.0 / SQRT2, 0.9])
    def test_best_ratio_at_least_identity_map(self, scale):
        # z has ratio exactly R, so the test functions never do worse
        assert best_test_ratio(scale)[0] >= scale - 1e-12

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

    def test_scale_domain(self):
        with pytest.raises(ParameterDomainError):
            theorem5_gap(1.0)
        with pytest.raises(ParameterDomainError):
            best_test_ratio(0.0)


class TestSolverConfig:
    def test_validation(self):
        with pytest.raises(ParameterDomainError):
            SolverConfig(bracket=(0.5, 0.4))
        with pytest.raises(ParameterDomainError):
            SolverConfig(abs_tol=0.0)
        for tol in (float("nan"), float("inf")):
            with pytest.raises(ParameterDomainError):
                SolverConfig(abs_tol=tol)
