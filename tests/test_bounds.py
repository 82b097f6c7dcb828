import json
import math
import random
from typing import get_type_hints

import numpy as np
import pytest

from blochbohr import (DivergenceRegionError, NoSignChangeError,
                       ParameterDomainError, PoleError, TruncatedSeries, avkhadiev_coefficients,
                       best_test_ratio, bombieri_m_infty, builtin_weight,
                       cauchy_chain_check, coefficient_sum, majorant,
                       mobius_majorant_sum, mobius_majorant_sup, scale_argument,
                       theorem1_optimize, theorem1_root, theorem4_expression,
                       theorem4_sup, theorem4_upper_bound, weighted_bloch_seminorm)
from blochbohr import bounds
from blochbohr.bounds import (_COEF, A_MAX, EXCEED_THRESHOLD, S_RANGE, THEOREM4_A_GRID,
                              ProbeFunction, ScanReport, _t1_residual,
                              avkhadiev_majorant_closed_form)
from blochbohr.search import scan_polish
from conftest import mobius_series, random_polynomial

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
            r = theorem1_root(s)
            assert 0.0 < r < 1.0
            assert abs(_t1_residual(r, s)[0]) <= 1e-11

    @pytest.mark.parametrize("s", [1e-4, 0.2, 0.333771, 0.5, 0.8, 1.0 - 1e-4])
    def test_residual_slope_is_the_derivative(self, s):
        # the Newton step's closed-form F_r against a central difference, at
        # the root and at both sides of it
        root = theorem1_root(s)
        for r in (0.5 * root, root, 0.5 * (1.0 + root)):
            h = 1e-6 * r
            diff = (_t1_residual(r + h, s)[0] - _t1_residual(r - h, s)[0]) / (2.0 * h)
            assert _t1_residual(r, s)[1] == pytest.approx(diff, rel=1e-6), r

    def test_bracket_sign_change(self):
        s = 0.333771
        assert _t1_residual(0.01, s)[0] > 0.0 > _t1_residual(0.99, s)[0]

    def test_roots_match_mpmath(self):
        # the 40-digit root of F(r) = 0 at 500 seeded s; near the ends of
        # S_RANGE the root is ill conditioned, and rounding F costs more ulps
        mp = pytest.importorskip("mpmath")
        rng = random.Random(32)
        for s in [rng.uniform(*S_RANGE) for _ in range(500)] + list(S_RANGE):
            r = theorem1_root(s)
            with mp.workdps(40):
                t = mp.mpf(s)
                exact = mp.findroot(lambda x: mp.log(1 - x ** (2 * t)) - 1 + x ** (-2 * (1 - t)),
                                    mp.mpf(r))
                err = float(abs(mp.mpf(r) - exact))
            assert err <= (16 if 0.002 <= s <= 0.995 else 256) * math.ulp(r), s

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
        assert abs(r_star - r_exact) <= math.ulp(r_exact)
        assert abs(s_star - s_exact) <= 4 * math.ulp(s_exact)
        # the s = 1/2 root of 1 - r + r log(1 - r) = 0, at 40 digits from mpmath
        assert abs(theorem1_root(0.5) - 0.55356702157172037) <= 2 * math.ulp(0.55356702157172037)

    def test_envelope_point_solves_the_root_equation(self):
        s_star, r_star = theorem1_optimize()
        assert abs(_t1_residual(r_star, s_star)[0]) <= 1e-9
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
        s = TruncatedSeries(coeffs, scale / r, 1.0)
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
        assert list(scan._asdict()) == ["upper_bound", "best_value", "witness_a",
                                        "witness_r", "samples"]

    def test_upper_bound_certificate_is_best_test_ratio(self):
        scan = theorem4_upper_bound()
        assert best_test_ratio(scan.upper_bound) \
            == (scan.best_value, scan.witness_a, scan.witness_r)
        assert scan.samples % len(THEOREM4_A_GRID) == 0

    def test_report_fields_have_their_declared_types(self):
        scan = theorem4_upper_bound()
        hints = get_type_hints(ScanReport)
        assert list(hints) == list(ScanReport._fields)
        for name, declared in hints.items():
            assert declared in (float, int) and type(getattr(scan, name)) is declared, name
        # the bytes theorem4 --search prints: the two bracket ends, the secant
        # point and two Newton scales
        assert json.dumps(scan._asdict()) == json.dumps({
            "upper_bound": 0.7683632200962442, "best_value": 1.0000000010000003,
            "witness_a": 0.3369594838831111, "witness_r": 0.5648101014996535,
            "samples": 1000})
        assert scan.samples == 5 * len(THEOREM4_A_GRID)

    def test_upper_bound_is_the_mpmath_root_at_the_threshold(self):
        # the stationarity system dT4/da = dT4/dr = 0, T4 = EXCEED_THRESHOLD in
        # (a, r, R), solved at 40 digits from the float certificate
        mp = pytest.importorskip("mpmath")
        scan = theorem4_upper_bound()
        assert scan.upper_bound == 0.7683632200962442
        with mp.workdps(40):
            coef = mp.mpf(3) * mp.sqrt(3) / 2

            def t4(a, r, R):
                x = R * r
                return R * (1 - r * r) * coef * (1 - a * a) * ((x - a) / (1 - a * x) ** 3 + 2 * a)

            _, _, root = mp.findroot(
                lambda a, r, R: [mp.diff(lambda t: t4(t, r, R), a),
                                 mp.diff(lambda t: t4(a, t, R), r),
                                 t4(a, r, R) - mp.mpf(EXCEED_THRESHOLD)],
                (scan.witness_a, scan.witness_r, scan.upper_bound))
            assert abs(root - scan.upper_bound) <= 4 * math.ulp(scan.upper_bound)

    def test_upper_bound_is_the_least_certifying_scale(self):
        scan = theorem4_upper_bound()
        assert best_test_ratio(scan.upper_bound - 1e-12)[0] <= EXCEED_THRESHOLD
        # the witness a alone certifies the bound: its sup over r exceeds
        assert theorem4_sup(scan.witness_a, scan.upper_bound)[0] > EXCEED_THRESHOLD

    def test_upper_bound_exceeding_on_the_whole_bracket_raises(self, monkeypatch):
        # a ratio above the threshold at both ends has no root to find
        monkeypatch.setattr(bounds, "best_test_ratio",
                            lambda scale: (EXCEED_THRESHOLD + 1e-6, 0.337, 0.565))
        with pytest.raises(NoSignChangeError):
            theorem4_upper_bound()

    @pytest.mark.parametrize("bracket,end", [((0.5, 0.6), "high end"),
                                             ((0.77, 0.8), "low end")])
    def test_upper_bound_bad_bracket(self, monkeypatch, bracket, end):
        # the high end falls short of the threshold, or the low end exceeds it
        monkeypatch.setattr(bounds, "THEOREM4_BRACKET", bracket)
        match = r"g\(hi\)=-" if end == "high end" else r"g\(lo\)=\d"
        with pytest.raises(NoSignChangeError, match=match):
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
        # the sum at the slope root a* and the closed form agree to a few ulps
        m = bombieri_m_infty(r)
        assert abs(mobius_majorant_sup(r) - m) <= 3 * np.spacing(m)

    def test_matches_closed_form_on_the_cli_table(self):
        for r in np.linspace(1.0 / 3.0, 1.0 / SQRT2, 20):
            m = bombieri_m_infty(float(r))
            assert abs(mobius_majorant_sup(float(r)) - m) <= 3 * np.spacing(m)

    def test_degenerate_at_third(self):
        # for r <= 1/3 the sum increases in a up to its limit 1 at a = 1
        for r in (1e-3, 0.2, 1.0 / 3.0):
            assert mobius_majorant_sup(r) == 1.0

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


def theorem5_ratios(scale, family):
    """Majorant-to-function Bloch seminorm ratio per member of ``family``.

    The ratio uses the gradient seminorm sup omega |f'| on both sides:
    with the |a_0| term included, constants alone would push the ratio to 1
    and the strict bound could not hold for small scales.  Members must
    have positive seminorm.  This is the generic route for any series; for
    the Theorem 4 test functions ``best_test_ratio`` gives the ratio in
    closed form.
    """
    std = builtin_weight("standard")
    ratios = {}
    for member in family:
        denominator = member.bloch_seminorm(std)
        if denominator <= 0.0:
            raise ParameterDomainError(
                f"probe member {member.name} has zero Bloch seminorm")
        scaled = scale_argument(majorant(member.series), scale)
        numerator = weighted_bloch_seminorm(scaled, std)
        ratios[member.name] = numerator / denominator
    return ratios


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


EPS = 2.0 ** -53

#: seeded (a, R) across the grid's a-range and R in (0, 1), then the edges: the
#: smallest a the quintic takes, R near 0 and 1, a next to 1/sqrt(3), R in
#: [1, sqrt(3)) with 3/5 < aR < 1 (the third derivative of the quintic changes
#: sign inside [0, aR]), the pin's interior root near r = 0.085 and the README's
#: certificate
_rng = random.Random(24)
ORACLE_CASES = [(_rng.uniform(1e-6, A_MAX - 1e-9), _rng.uniform(1e-3, 1.0 - 1e-3))
                for _ in range(40)] + [
    (1e-150, 0.01), (1e-150, 0.5), (1e-150, 0.99), (0.3, 0.01), (0.3, 0.99),
    (A_MAX - 1e-9, 0.01), (A_MAX - 1e-9, 0.99), (0.4, 1.6), (0.45, 1.7), (0.55, 1.5),
    (0.57, 1.7), (0.5, 0.3), (0.35, 0.769)]


def _mp_t4(mp, a, scale, r):
    return scale * (1 - r * r) * 3 * mp.sqrt(3) / 2 * (1 - a * a) * (
        (scale * r - a) / (1 - a * scale * r) ** 3 + 2 * a)


def _mp_sup(mp, a, scale):
    """The 40-digit sup over r of T4 -> (value, witness): T4 at r = 0 and at the
    roots of P(r) in [0, 1], each bracketed by a sign change on a 1001-point grid
    and solved by mpmath's Anderson-Bjorck (independent of the float cascade)."""
    P = [-4 * a**5 * scale**4, 16 * a**4 * scale**3, -24 * a**3 * scale**2,
         scale * (17 * a * a - 3), 2 * a * (scale * scale - 1), scale * (1 - 3 * a * a)]
    best = (_mp_t4(mp, a, scale, mp.mpf(0)), mp.mpf(0))
    rs = [mp.mpf(k) / 1000 for k in range(1001)]
    ps = [mp.polyval(P, r) for r in rs]
    for lo, hi, plo, phi in zip(rs, rs[1:], ps, ps[1:]):
        if plo == 0 or (plo < 0) != (phi < 0):
            r = lo if plo == 0 else mp.findroot(lambda x: mp.polyval(P, x), (lo, hi),
                                                solver="anderson")
            if _mp_t4(mp, a, scale, r) > best[0]:
                best = (_mp_t4(mp, a, scale, r), r)
    return best


def _t4_rounding_bound(mp, a, scale, r):
    """First-order bound on the rounding error of the float T4 body at (a, R, r):
    eps |v dT4/dv| summed over its intermediates v.  The eight products and
    differences that T4 is proportional to give 8 |T4|, 1 - a^2 and 1 - r^2 their
    cancellation, and the sum S = D + 2a, D = (x - a)/u^3, u = 1 - a x, x = Rr,
    passes on the errors of D, of u (cubed) and of x relative to |S|."""
    x = scale * r
    ax, t4 = a * x, _mp_t4(mp, a, scale, r)
    u = 1 - ax
    d = (x - a) / u**3
    rel = 8 + a * a / (1 - a * a) + r * r / (1 - r * r)
    rel += (abs(d) * (6 + 6 * ax / u) + abs(x / u**3)) / abs(d + 2 * a)
    return EPS * rel * abs(t4)


def _root_error_bound(mp, a, scale, r):
    """Twice the first-order error of the root t = aRr of the float quintic:
    the float coefficients' distance from the exact ones plus Horner's rounding
    (at most 10 eps sum |c_i| t^i for degree 5), over |q'(t)|, back in r."""
    a2, r2 = float(a) ** 2, float(scale) ** 2
    floats = [1.0, -4.0, 6.0, (3.0 - 17.0 * a2) / (4.0 * a2), 0.5 * (1.0 - r2),
              -0.25 * r2 * (1.0 - 3.0 * a2)]
    exact = [1, -4, 6, (3 - 17 * a * a) / (4 * a * a), (1 - scale * scale) / 2,
             -scale * scale * (1 - 3 * a * a) / 4]
    t = a * scale * r
    powers = [t ** (5 - i) for i in range(6)]
    slope = sum((5 - i) * c * t ** (4 - i) for i, c in enumerate(exact[:5]))
    err = sum((abs(mp.mpf(f) - c) + 10 * EPS * abs(f)) * w
              for f, c, w in zip(floats, exact, powers))
    return 2 * err / abs(slope) / (a * scale)


@pytest.mark.parametrize("a,scale", ORACLE_CASES, ids=lambda v: f"{v:.6g}")
def test_quintic_sup_against_mpmath(a, scale):
    """``theorem4_sup`` against a 40-digit mpmath sup.

    The value is within 2 ulp of the exact sup plus the rounding bound of the
    float T4 body at the witness: that body rounds a dozen times and its sum
    (Rr - a)/u^3 + 2a cancels, so it alone is up to about 5 ulp off (the solver's
    own loss at an accurate root is second order, far below 1 ulp).  The witness
    is within 2 ulp plus twice the first-order error of the quintic's root in
    floats (``_root_error_bound``), unless the float witness is r = 0 and T4(0)
    ties the sup within 1 ulp: at a = 1/sqrt(3) - 1e-9, R = 0.01, the root near
    r = 3e-11 is higher than T4(0) by about 1e-19 relative, which no float shows.
    """
    mp = pytest.importorskip("mpmath")
    value, r = theorem4_sup(a, scale)
    with mp.workdps(40):
        ma, ms = mp.mpf(a), mp.mpf(scale)
        sup, witness = _mp_sup(mp, ma, ms)
        ulp = math.ulp(float(sup))
        assert abs(value - sup) <= 2 * ulp + _t4_rounding_bound(mp, ma, ms, mp.mpf(r))
        if r == 0.0 and sup - _mp_t4(mp, ma, ms, mp.mpf(0)) <= ulp:
            return
        assert witness > 0
        assert abs(r - witness) <= (2 * math.ulp(float(witness))
                                    + _root_error_bound(mp, ma, ms, witness))


def test_readme_certificate_pinned():
    # mpmath at 40 digits: sup 1.00086002450361704..., witness 0.56531139659036183224...
    assert theorem4_sup(0.35, 0.769) == (1.000860024503617, 0.5653113965903618)


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

    def test_tiny_scale_fails_the_quintic_check(self):
        # aR = 1e-306 at the least a of the grid: the checked sup there raises
        with pytest.raises(ParameterDomainError,
                           match=r"^the stationarity quintic needs a >= 1e-150 and aR >= 1e-300$"):
            best_test_ratio(1e-300)

    @pytest.mark.parametrize("scale", [0.3, 0.769])
    def test_scale_is_checked_once(self, monkeypatch, scale):
        calls = []
        checked = bounds.theorem4_expression
        monkeypatch.setattr(bounds, "theorem4_expression",
                            lambda *args: calls.append(args) or checked(*args))
        best_test_ratio(scale)
        assert len(calls) <= 1


def _reference_horner(coeffs, t):
    value = slope = 0.0
    for c in coeffs:
        slope = slope * t + value
        value = value * t + c
    return value, slope


def _reference_monotone_root(f, lo, hi, flo, fhi):
    below = flo < 0.0
    x = lo - flo * (hi - lo) / (fhi - flo)
    for _ in range(200):
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
            if not lo < x < hi:
                break
        fx, dfx = _reference_horner(f, x)
        if (fx < 0.0) == below:
            lo, flo = x, fx
        else:
            hi, fhi = x, fx
        nx = x - fx / dfx if dfx != 0.0 else lo
        if abs(nx - x) <= 4e-16 * x:
            return nx if lo <= nx <= hi else x
        x = nx
    return lo if abs(flo) < abs(fhi) else hi


def _reference_theorem4_sup(a, scale):
    """The quintic sup as first written: a Horner helper and a generator cascade."""
    theorem4_expression(a, scale, 1.0)
    a, scale = float(a), float(scale)
    ar, a2, r2 = a * scale, a * a, scale * scale
    if not (a >= 1e-150 and ar >= 1e-300):
        raise ParameterDomainError("the stationarity quintic needs a >= 1e-150 and aR >= 1e-300")
    c2, c1 = (3.0 - 17.0 * a2) / (4.0 * a2), 0.5 * (1.0 - r2)
    breaks = [0.0, *(t for t in (0.6, 1.0) if t < ar), ar]
    for f in ((20.0, -48.0, 36.0, 2.0 * c2), (5.0, -16.0, 18.0, 2.0 * c2, c1),
              (1.0, -4.0, 6.0, c2, c1, -0.25 * r2 * (1.0 - 3.0 * a2))):
        fs = [f[-1], *(_reference_horner(f, t)[0] for t in breaks[1:])]
        breaks = [0.0, *(_reference_monotone_root(f, lo, hi, flo, fhi) for lo, hi, flo, fhi
                         in zip(breaks, breaks[1:], fs, fs[1:]) if (flo < 0.0) != (fhi < 0.0)),
                  ar]
    return max(((bounds._t4(a, scale, t / ar), t / ar) for t in breaks[:-1]),
               key=lambda p: p[0])


def _reference_best_test_ratio(scale):
    """``best_test_ratio`` composed of checked reference sups, one per a."""
    def slope(a):
        x = scale * _reference_theorem4_sup(a, scale)[1]
        u = 1.0 - a * x
        return (-2.0 * a * ((x - a) / (u * u * u) + 2.0 * a)
                + (1.0 - a * a) * ((3.0 * x * (x - a) - u) / (u * u * u * u) + 2.0))

    values = [_reference_theorem4_sup(a, scale)[0] for a in THEOREM4_A_GRID]
    a_star, _ = scan_polish(lambda a: _reference_theorem4_sup(a, scale)[0], THEOREM4_A_GRID,
                            values, slope=slope)
    value, r_star = _reference_theorem4_sup(a_star, scale)
    return value, a_star, r_star


def _outcome(sup, a, scale):
    try:
        return sup(a, scale)
    except Exception as exc:  # any error: its type and message are compared
        return type(exc), str(exc)


_SEEDED_SCALES = [random.Random(32).uniform(0.0, 1.0) for _ in range(50)]


class TestQuinticKernelOracle:
    """The float kernel gives the reference sup's bits, and its errors where it raises."""

    def test_whole_a_grid(self):
        rng = random.Random(30)
        for _ in range(100):
            scale = rng.uniform(0.0, 1.0)
            for a in THEOREM4_A_GRID:
                assert bounds._quintic_sup(a, scale) == _reference_theorem4_sup(a, scale), \
                    (a, scale)

    def test_seeded_parameters_with_errors(self):
        rng = random.Random(31)
        raised = 0
        for _ in range(20_000):
            a, scale = 10.0 ** rng.uniform(-150.0, math.log10(0.6)), rng.uniform(0.0, 2.5)
            expected = _outcome(_reference_theorem4_sup, a, scale)
            assert _outcome(theorem4_sup, a, scale) == expected, (a, scale)
            if isinstance(expected[0], type):
                raised += 1
            else:
                assert bounds._quintic_sup(a, scale) == expected, (a, scale)
        assert 0 < raised < 20_000  # both sides of the checks were reached

    @pytest.mark.parametrize("scale", [0.3, 0.5, 1.0 / SQRT2, 0.9] + _SEEDED_SCALES)
    def test_best_test_ratio(self, scale):
        assert best_test_ratio(scale) == _reference_best_test_ratio(float(scale))


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

