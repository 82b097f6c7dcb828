from dataclasses import asdict

import numpy as np
import pytest

from blochbohr import (DivergenceRegionError, ExtremalSpec,
                       ParameterDomainError, PoleError, PreconditionError,
                       TruncatedSeries, blaschke_degree,
                       blaschke_degree_montecarlo, builtin_weight, circle_norms,
                       eval_series, extremal_coefficients, extremal_eval,
                       extremal_majorant_sum, extremal_sup_modulus,
                       verify_sharpness)

SQRT2 = np.sqrt(2.0)


class TestExtremalSpec:
    def test_anchor_domain(self):
        with pytest.raises(ParameterDomainError):
            ExtremalSpec(r0=0.5)
        with pytest.raises(ParameterDomainError):
            ExtremalSpec(r0=1.1)
        with pytest.raises(ParameterDomainError):
            ExtremalSpec(r0=0.8, truncation=0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("phi", [np.nan, np.inf, -np.inf])
    def test_phase_must_be_finite(self, phi):
        with pytest.raises(ParameterDomainError, match="phi must be finite"):
            ExtremalSpec(r0=0.8, phi=phi)

    def test_phase_normalized(self):
        spec = ExtremalSpec(r0=0.8, phi=2.0 * np.pi + 0.5)
        assert spec.phi == pytest.approx(0.5, abs=1e-12)


class TestExtremalEval:
    def test_origin_modulus(self):
        for phi in (0.0, 1.0, np.pi):
            spec = ExtremalSpec(r0=0.8, phi=phi)
            value = extremal_eval(spec, 0.0)
            assert abs(value + np.exp(1j * phi) / SQRT2) < 1e-15
            assert abs(abs(value) - 1.0 / SQRT2) < 1e-15

    def test_unimodular_on_anchor_ray(self):
        for phi in (0.0, 0.7):
            spec = ExtremalSpec(r0=0.9, phi=phi)
            z = 0.9 * np.exp(1j * phi)
            value = extremal_eval(spec, z)
            assert abs(value - np.exp(1j * phi)) < 1e-14

    def test_minus_anchor_value(self):
        spec = ExtremalSpec(r0=0.8)
        assert abs(extremal_eval(spec, -0.8) + 1.0) < 1e-14

    def test_pole(self):
        spec = ExtremalSpec(r0=0.8)
        with pytest.raises(PoleError):
            extremal_eval(spec, SQRT2 * 0.8)


class TestExtremalCoefficients:
    def test_modulus_law(self):
        for r0 in (0.75, 0.8, 0.9, 1.0):
            s = extremal_coefficients(ExtremalSpec(r0=r0))
            n = np.arange(s.coeffs.size, dtype=float)
            law = np.abs(s.coeffs) * r0 ** n * SQRT2 ** (n + 1)
            assert np.max(np.abs(law - 1.0)) < 1e-12

    def test_frozen_low_order_moduli(self):
        s = extremal_coefficients(ExtremalSpec(r0=0.8))
        mods = np.abs(s.coeffs)
        assert mods[0] == pytest.approx(1.0 / SQRT2, abs=1e-15)
        assert mods[1] == pytest.approx(0.625, abs=1e-15)
        assert mods[2] == pytest.approx(0.5524271728019903, abs=1e-12)

    def test_series_matches_closed_form_at_random_points(self):
        rng = np.random.default_rng(17)
        spec = ExtremalSpec(r0=0.8)
        s = extremal_coefficients(spec)
        z = 0.99 * np.sqrt(rng.random(100)) * np.exp(2j * np.pi * rng.random(100))
        got = eval_series(s, z).value
        expected = extremal_eval(spec, z)
        assert np.max(np.abs(got - expected)) < 1e-10

    def test_rotated_phase(self):
        spec = ExtremalSpec(r0=0.8, phi=1.3)
        s = extremal_coefficients(spec)
        for z in (0.3, -0.5 + 0.2j):
            assert abs(eval_series(s, z).value - extremal_eval(spec, z)) < 1e-12

    def test_tail_certificate(self):
        s = extremal_coefficients(ExtremalSpec(r0=0.8))
        assert s.tail_rho == pytest.approx(1.0 / (SQRT2 * 0.8), abs=1e-15)
        assert s.tail_m == pytest.approx(1.0 / SQRT2, abs=1e-15)
        # at the left edge of the anchor domain the ratio hits 1: no tail
        edge = extremal_coefficients(ExtremalSpec(r0=1.0 / SQRT2))
        assert edge.has_tail is False


class TestSupModulus:
    def test_anchor_and_origin(self):
        assert extremal_sup_modulus(0.8, 0.8) == pytest.approx(1.0, abs=1e-15)
        assert extremal_sup_modulus(0.8, 0.0) == pytest.approx(1.0 / SQRT2,
                                                               abs=1e-15)

    @pytest.mark.parametrize("r", [0.3, 0.6, 0.8])
    def test_matches_circle_scan_below_anchor(self, r):
        s = extremal_coefficients(ExtremalSpec(r0=0.8))
        cn = circle_norms(s, r)
        assert cn.sup_norm == pytest.approx(extremal_sup_modulus(0.8, r), abs=1e-8)

    def test_circle_values_dominated_below_anchor(self):
        spec = ExtremalSpec(r0=0.8, phi=0.4)
        theta = np.linspace(0.0, 2 * np.pi, 256, endpoint=False)
        for r in (0.2, 0.5, 0.8):
            values = np.abs(extremal_eval(spec, r * np.exp(1j * theta)))
            bound = extremal_sup_modulus(0.8, r)
            assert np.all(values <= bound + 1e-12)
            at_peak = abs(extremal_eval(spec, r * np.exp(1j * (np.pi + spec.phi))))
            assert at_peak == pytest.approx(bound, abs=1e-12)

    @pytest.mark.parametrize("r", [-0.1, np.nan, np.array([0.5, np.nan])])
    def test_radius_domain(self, r):
        with pytest.raises(ParameterDomainError, match="radius must be nonnegative"):
            extremal_sup_modulus(0.8, r)


class TestMajorantSum:
    def test_origin_and_anchor(self):
        assert extremal_majorant_sum(0.8, 0.0) == pytest.approx(1.0 / SQRT2,
                                                                abs=1e-15)
        assert extremal_majorant_sum(0.8, 0.8) == pytest.approx(SQRT2, abs=1e-14)

    def test_matches_term_sums(self):
        r0 = 0.8
        s = extremal_coefficients(ExtremalSpec(r0=r0, truncation=400))
        n = np.arange(s.coeffs.size, dtype=float)
        for r in (0.3, 0.7, 1.0 - 1e-6):
            term_sum = float(np.abs(s.coeffs) @ (r / SQRT2) ** n)
            assert abs(term_sum - extremal_majorant_sum(r0, r)) < 1e-12

    def test_pole_and_divergence(self):
        with pytest.raises(PoleError):
            extremal_majorant_sum(0.75, 1.5)
        with pytest.raises(DivergenceRegionError):
            extremal_majorant_sum(0.75, 1.6)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("r", [-1.0, -0.1, np.nan, np.array([0.5, np.nan]),
                                   np.array([0.5, -1.0])])
    def test_radius_domain(self, r):
        # as in extremal_sup_modulus: the alternating sum at r < 0 and NaN are
        # domain errors, not a majorant value or a divergence
        with pytest.raises(ParameterDomainError, match="radius must be nonnegative"):
            extremal_majorant_sum(0.8, r)


class TestBlaschkeDegree:
    def test_extremal_is_degree_one(self):
        for r0 in (0.75, 0.8, 0.9):
            s = extremal_coefficients(ExtremalSpec(r0=r0))
            assert abs(blaschke_degree(s, r0) - 1.0) < 1e-8

    def test_monomials(self):
        assert blaschke_degree(TruncatedSeries.polynomial([0.0, 1.0]), 1.0) == 1.0
        assert blaschke_degree(TruncatedSeries.polynomial([0.0, 0.0, 1.0]), 1.0) == 2.0

    def test_closed_form_tail_sum(self):
        # sum n 2^{-(n+1)} = 1 via sum n x^n = x/(1-x)^2
        n = np.arange(1, 200, dtype=float)
        assert abs(np.sum(n * 0.5 ** (n + 1)) - 1.0) < 1e-14

    def test_requires_certificate(self):
        with pytest.raises(DivergenceRegionError):
            blaschke_degree(TruncatedSeries([0.0, 1.0]), 1.0)
        s = extremal_coefficients(ExtremalSpec(r0=0.8))
        with pytest.raises(DivergenceRegionError):
            blaschke_degree(s, 1.2)

    def test_montecarlo_oracle(self):
        s = extremal_coefficients(ExtremalSpec(r0=0.8))
        estimate = blaschke_degree_montecarlo(s, 0.8, samples=400_000, seed=1)
        assert abs(estimate - 1.0) < 0.02
        z2 = TruncatedSeries.polynomial([0.0, 0.0, 1.0])
        estimate = blaschke_degree_montecarlo(z2, 1.0, samples=400_000, seed=2)
        assert abs(estimate - 2.0) < 0.03


class TestVerifySharpness:
    def test_constant_weight_at_one(self):
        rep = verify_sharpness(builtin_weight("constant"), 1.0)
        assert rep.lhs_sup == pytest.approx(1.0, abs=1e-12)
        assert rep.rhs_sup == pytest.approx(1.0, abs=1e-12)
        assert rep.lhs_witness_r == pytest.approx(1.0, abs=1e-12)
        assert rep.rhs_witness_r == pytest.approx(1.0, abs=1e-12)
        assert rep.relative_gap <= 1e-9

    def test_example2_weight(self):
        rep = verify_sharpness(builtin_weight("example2", r0=0.8, alpha=1), 0.8)
        assert rep.relative_gap <= 1e-9
        assert abs(rep.lhs_witness_r - 0.8) <= 2 * rep.grid_step
        assert abs(rep.rhs_witness_r - 0.8) <= 2 * rep.grid_step
        assert rep.lhs_sup == pytest.approx(1.0, abs=1e-9)

    def test_example3_weight(self):
        rep = verify_sharpness(builtin_weight("example3", r0=0.75, alpha=2), 0.75)
        assert rep.relative_gap <= 1e-9
        assert abs(rep.lhs_witness_r - 0.75) <= 2 * rep.grid_step

    def test_standard_weight_rejected(self):
        with pytest.raises(PreconditionError):
            verify_sharpness(builtin_weight("standard"), 0.8)

    def test_report_serialization(self):
        rep = verify_sharpness(builtin_weight("constant"), 1.0)
        d = asdict(rep)
        assert d["relative_gap"] == rep.relative_gap
        assert "grid_step" in d
