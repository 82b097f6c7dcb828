import json
import warnings

import numpy as np
import pytest

from blochbohr import (DivergenceRegionError, ExtremalSpec,
                       ParameterDomainError, TruncatedSeries, circle_norms,
                       coefficient_sum, derivative, eval_series,
                       extremal_coefficients, extremal_eval, majorant,
                       scale_argument, tail_bound)
from blochbohr.cli import main
from blochbohr.norms import _batch_circle_max
from blochbohr.search import THETA_POINTS, scan_polish
from blochbohr.series import (_angle_count, _angle_grid_values, _horner, _power_table,
                              circle_sup)
from conftest import random_polynomial, trig_quadrature_l2

SQRT2 = np.sqrt(2.0)


def geometric_series(q, n, m=1.0):
    return TruncatedSeries.with_geometric_tail(m * q ** np.arange(n + 1), q, m)


def extremal_moduli_oracle(r0, count):
    """Expand (z/r0 - 1/sqrt(2)) * sum q^n z^n by direct convolution."""
    q = 1.0 / (SQRT2 * r0)
    coeffs = [-1.0 / SQRT2]
    for n in range(1, count):
        coeffs.append(q ** (n - 1) / r0 - (1.0 / SQRT2) * q ** n)
    return np.abs(np.array(coeffs))


class TestConstruction:
    def test_rejects_empty_and_nonfinite(self):
        with pytest.raises(ParameterDomainError):
            TruncatedSeries(np.array([]))
        with pytest.raises(ParameterDomainError):
            TruncatedSeries([1.0, np.inf])

    def test_tail_validation(self):
        with pytest.raises(ParameterDomainError):
            TruncatedSeries([1.0], 1.0, 1.0)
        with pytest.raises(ParameterDomainError):
            TruncatedSeries([1.0], 0.5, -1.0)
        with pytest.raises(ParameterDomainError):
            TruncatedSeries([1.0], 0.5, None)
        for m in (np.nan, np.inf):
            with pytest.raises(ParameterDomainError):
                TruncatedSeries([1.0], 0.5, m)
        with pytest.raises(ParameterDomainError):
            TruncatedSeries.loads('{"coeffs": [[1.0, 0.0]], "tail": {"rho": 0.5, "M": NaN}}')
        with pytest.raises(ParameterDomainError, match="tail ratio"):
            TruncatedSeries.polynomial([1.0])._replace(tail_rho=1.0)

    def test_immutable(self):
        s = TruncatedSeries.polynomial([1.0, 2.0])
        with pytest.raises(ValueError):
            s.coeffs[0] = 5.0

    def test_polynomial_is_exact(self):
        s = TruncatedSeries.polynomial([1.0, 2.0])
        assert s.has_tail and s.tail_rho == 0.0 and s.tail_m == 0.0


class TestMajorant:
    def test_moduli(self):
        s = TruncatedSeries.polynomial([1.0, -1.0j, 2.0])
        np.testing.assert_allclose(majorant(s).coeffs, [1.0, 1.0, 2.0])

    def test_idempotent_on_nonnegative(self):
        s = TruncatedSeries.polynomial([0.5, 1.0, 0.0, 2.0])
        np.testing.assert_array_equal(majorant(s).coeffs, s.coeffs)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_modulus_rejected(self):
        # both parts finite, the modulus past the float range
        with pytest.raises(ParameterDomainError, match=r"moduli \|a_n\| overflow"):
            majorant(TruncatedSeries.polynomial([1.7e308 + 1.7e308j, 1.0]))

    def test_extremal_moduli_against_expansion_oracle(self):
        spec = ExtremalSpec(r0=0.8, truncation=8)
        got = np.abs(majorant(extremal_coefficients(spec)).coeffs)
        expected = extremal_moduli_oracle(0.8, 9)
        np.testing.assert_allclose(got, expected, atol=1e-14)
        # frozen oracle values
        assert abs(got[0] - 0.7071067811865476) < 1e-12
        assert abs(got[1] - 0.625) < 1e-12
        assert abs(got[2] - 0.5524271728019903) < 1e-8

    def test_preserves_tail(self):
        s = geometric_series(0.5, 10)
        m = majorant(s)
        assert m.tail_rho == 0.5 and m.tail_m == 1.0


class TestDerivative:
    def test_constant(self):
        d = derivative(TruncatedSeries.polynomial([3.0]))
        np.testing.assert_array_equal(d.coeffs, [0.0])

    def test_linear_quadratic(self):
        d = derivative(TruncatedSeries.polynomial([0.0, 1.0, 1.0]))
        np.testing.assert_allclose(d.coeffs, [1.0, 2.0])

    def test_geometric_spot_value(self):
        s = TruncatedSeries.polynomial(0.5 ** np.arange(8))
        d = derivative(s)
        assert abs(d.coeffs[2] - 3 * 0.125) < 1e-15

    def test_tail_remains_sound(self):
        # beyond the stored range, |(n+1) a_{n+1}| must stay below M' rho'^n
        q, n_stored = 0.6, 12
        d = derivative(geometric_series(q, n_stored))
        assert d.tail_rho > q
        n = np.arange(n_stored, 200)
        true_next = (n + 1) * q ** (n + 1)
        assert np.all(true_next <= d.tail_m * d.tail_rho ** n + 1e-300)

    def test_constant_with_real_tail_rejected(self):
        s = TruncatedSeries.with_geometric_tail([1.0], 0.5, 1.0)
        with pytest.raises(ParameterDomainError):
            derivative(s)

    @pytest.mark.parametrize("coeffs", [[1e308, 1e308, -1e308], [0.0, 0.0, 1.7e308j]])
    def test_overflowing_coefficients_rejected(self, coeffs):
        # finite input whose n a_n overflows: the library's error, naming the
        # derivative, and no RuntimeWarning on the way
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterDomainError, match="derivative"):
                derivative(TruncatedSeries.polynomial(coeffs))

    def test_cli_overflow_blames_the_derivative(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["norms", "--coeffs=1e308,1e308,-1e308"]) == 1
        err = capsys.readouterr().err
        assert err == "error: derivative coefficients n a_n overflow\n"


class TestScaleArgument:
    def test_identity(self):
        s = random_polynomial(np.random.default_rng(0))
        np.testing.assert_array_equal(scale_argument(s, 1.0).coeffs, s.coeffs)

    def test_zero_keeps_constant_term(self):
        s = TruncatedSeries.polynomial([2.0, 3.0, 4.0])
        np.testing.assert_allclose(scale_argument(s, 0.0).coeffs, [2.0, 0.0, 0.0])

    def test_powers_of_inv_sqrt2(self):
        s = TruncatedSeries.polynomial([1.0, 1.0, 1.0])
        got = scale_argument(s, 1.0 / SQRT2).coeffs
        np.testing.assert_allclose(got, [1.0, 1.0 / SQRT2, 0.5], atol=1e-15)

    def test_tail_ratio_scales(self):
        s = geometric_series(0.5, 10)
        assert scale_argument(s, 0.5).tail_rho == 0.25
        assert scale_argument(s, 3.0).has_tail is False

    def test_negative_scale_rejected(self):
        # NaN and inf too: their a_n scale^n are not an overflow of finite input
        for scale in (-0.1, np.nan, np.inf):
            with pytest.raises(ParameterDomainError, match="finite and nonnegative"):
                scale_argument(TruncatedSeries.polynomial([1.0, 1.0]), scale)

    @pytest.mark.parametrize("coeffs,scale", [([1e308, 1e308], 2.0),
                                              ([0.0] * 5 + [1.0], 1e100)])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_coefficients_rejected(self, coeffs, scale):
        # a_n scale^n beyond the float range (or 0 * an overflowed power)
        with pytest.raises(ParameterDomainError, match="scale\\^n overflow"):
            scale_argument(TruncatedSeries.polynomial(coeffs), scale)


class TestEval:
    def test_constant(self):
        out = eval_series(TruncatedSeries.polynomial([1.0]), 0.37 + 0.1j)
        assert out.value == 1.0 + 0.0j
        assert out.tail_bound == 0.0 and out.certified

    def test_geometric_closed_form(self):
        s = geometric_series(0.5, 60)
        out = eval_series(s, 0.5)
        assert abs(out.value - 4.0 / 3.0) < 1e-12
        # certified bound must cover the actual truncation error
        actual = abs(1.0 / (1.0 - 0.25) - out.value)
        assert actual <= out.tail_bound

    def test_beyond_unit_disc_with_tail(self):
        s = geometric_series(0.5, 120)
        out = eval_series(s, 1.5)
        assert abs(out.value - 1.0 / (1.0 - 0.75)) < 1e-12

    def test_divergence_region(self):
        s = geometric_series(0.5, 20)
        with pytest.raises(DivergenceRegionError):
            eval_series(s, 2.0)

    def test_uncertified_flag_and_cutoff(self):
        s = TruncatedSeries([1.0, 1.0])
        out = eval_series(s, 0.5)
        assert out.tail_bound is None and not out.certified
        with pytest.raises(DivergenceRegionError):
            eval_series(s, 0.95)

    def test_extremal_value_at_minus_anchor(self):
        spec = ExtremalSpec(r0=0.8)
        s = extremal_coefficients(spec)
        got = eval_series(s, -0.8)
        assert abs(got.value - (-1.0)) < 1e-12
        assert abs(got.value - extremal_eval(spec, -0.8)) < 1e-12

    def test_array_argument(self):
        s = TruncatedSeries.polynomial([1.0, 2.0])
        out = eval_series(s, np.array([0.0, 0.5]))
        np.testing.assert_allclose(out.value, [1.0, 2.0])
        np.testing.assert_array_equal(out.tail_bound, [0.0, 0.0])

    def test_float_and_array_give_the_same_bound_bits(self):
        # the tail power and the rounding term's moduli are libm's at each
        # radius, not numpy's SIMD pow and complex abs
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = int(rng.integers(1, 200))
            q = rng.uniform(0.1, 0.99)
            c = (rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)) * q ** np.arange(n + 1)
            s = TruncatedSeries(c, q, float(np.max(np.abs(c))) + 1.0)
            z = rng.uniform(0.0, 0.99 / q, 9) * np.exp(2j * np.pi * rng.random(9))
            bounds = eval_series(s, z).tail_bound
            assert [float(b).hex() for b in bounds] \
                == [eval_series(s, complex(x)).tail_bound.hex() for x in z]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("z", [0.9, np.array([0.1, 0.9])], ids=["scalar", "array"])
    def test_overflowing_rounding_bound_rejected(self, z):
        # the value 1e308 - 0.9e308 is finite, sum |a_n| |z|^n is not
        s = TruncatedSeries([1e308, -1e308], 0.5, 1.0)
        with pytest.raises(ParameterDomainError, match="rounding bound overflows"):
            eval_series(s, z)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("z", [0.9, np.array([0.1, 0.9]), np.array([[0.9j, 0.9]])],
                             ids=["scalar", "array", "2-d"])
    def test_overflowing_partial_sum_rejected(self, z):
        # finite coefficients whose partial sum 1e308 + 0.9e308 is not: the
        # library's error, not inf with a RuntimeWarning
        with pytest.raises(ParameterDomainError, match="partial sum overflows"):
            eval_series(TruncatedSeries.polynomial([1e308, 1e308]), z)

    def test_partial_sum_near_the_float_range_kept(self):
        # 1e308 + 0.9e308 j: large but finite, so it is returned as it is
        out = eval_series(TruncatedSeries.polynomial([1e308, 1e308]), 0.9j)
        assert out.value == complex(1e308, 0.9e308)


class TestCoefficientSum:
    def test_matches_majorant_eval(self):
        rng = np.random.default_rng(7)
        s = random_polynomial(rng)
        r = 0.6
        direct = coefficient_sum(s, r)
        via_majorant = eval_series(majorant(s), r).value.real
        assert abs(direct - via_majorant) < 1e-12

    def test_tail_bound_helper(self):
        s = geometric_series(0.5, 10)
        assert tail_bound(s, 0.5) == 0.25 ** 11 / 0.75
        assert tail_bound(TruncatedSeries([1.0]), 0.5) is None
        with pytest.raises(ParameterDomainError):
            tail_bound(s, -0.5)

    def test_broadcasts_over_radius(self):
        s = geometric_series(0.5, 10)
        radii = np.array([[0.0, 0.3], [0.6, 1.9]])
        sums, tails = coefficient_sum(s, radii), tail_bound(s, radii)
        assert sums.shape == tails.shape == radii.shape
        for r, got_sum, got_tail in zip(radii.ravel(), sums.ravel(), tails.ravel()):
            assert got_sum == coefficient_sum(s, float(r))
            assert got_tail == tail_bound(s, float(r))
        with pytest.raises(DivergenceRegionError):
            tail_bound(s, np.array([0.5, 2.0]))
        with pytest.raises(ParameterDomainError):
            coefficient_sum(s, np.array([0.5, -0.1]))

    @pytest.mark.parametrize("coeffs,radius", [
        ([1e308, 1e308], np.array([0.5, 0.9])), ([1e308, 1e308], 0.9),
        ([1.7e308 + 1.7e308j], 0.5)], ids=["array", "scalar", "modulus"])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_sum_rejected(self, coeffs, radius):
        with pytest.raises(ParameterDomainError, match="majorant sum overflows"):
            coefficient_sum(TruncatedSeries.polynomial(coeffs), radius)

    @pytest.mark.parametrize("max_degree", [1, 4, 16, 64, 256])
    def test_array_matches_stacked_scalar_calls_bit_for_bit(self, max_degree):
        # one rounding path: the polish of a scanned majorant profile compares
        # scalar values with the array values of the scan
        rng = np.random.default_rng(max_degree)
        for _ in range(40):
            s = random_polynomial(rng, max_degree)
            radii = rng.uniform(0.0, 1.0, 67)
            assert [x.hex() for x in coefficient_sum(s, radii).tolist()] \
                == [coefficient_sum(s, r).hex() for r in radii.tolist()]

    @pytest.mark.parametrize("radius", [np.nan, np.inf])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_radius_rejected(self, radius):
        for s in (geometric_series(0.5, 10), TruncatedSeries.polynomial([1.0, 2.0]),
                  TruncatedSeries([1.0, 2.0])):
            for call in (coefficient_sum, circle_norms, circle_sup, tail_bound,
                         eval_series):
                with pytest.raises(ParameterDomainError):
                    call(s, radius)
            with pytest.raises(ParameterDomainError):
                eval_series(s, np.array([0.1, radius * 1j]))

    @pytest.mark.parametrize("s", [
        TruncatedSeries.polynomial([1.0, 2.0]), TruncatedSeries.polynomial([1.0, -2.0]),
        geometric_series(0.5, 10), TruncatedSeries([1.0, -2.0j])],
        ids=["nonnegative", "polynomial", "geometric", "uncertified"])
    def test_circle_sup_rejects_a_negative_radius(self, s):
        # a mixed-sign series would otherwise scan the circle |z| = 0.5
        # rotated by pi and return (2.0, 0.0) for 1 - 2z
        with pytest.raises(ParameterDomainError):
            circle_sup(s, -0.5)


class TestCircleNorms:
    def test_constant(self):
        cn = circle_norms(TruncatedSeries.polynomial([-2.0j]), 0.7)
        assert cn.sup_norm == pytest.approx(2.0, abs=1e-14)
        assert cn.l2_norm == pytest.approx(2.0, abs=1e-14)
        assert cn.coeff_sum == pytest.approx(2.0, abs=1e-14)

    def test_identity_map(self):
        cn = circle_norms(TruncatedSeries.polynomial([0.0, 1.0]), 0.5)
        for value in (cn.sup_norm, cn.l2_norm, cn.coeff_sum):
            assert value == pytest.approx(0.5, abs=1e-13)

    def test_extremal_sup_is_one_at_anchor(self):
        s = extremal_coefficients(ExtremalSpec(r0=0.8))
        cn = circle_norms(s, 0.8)
        assert cn.sup_norm == pytest.approx(1.0, abs=1e-8)

    def test_norm_chain_random(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            s = random_polynomial(rng)
            r = float(rng.uniform(0.05, 0.89))
            cn = circle_norms(s, r)
            assert cn.l2_norm <= cn.sup_norm + 1e-10
            assert cn.sup_norm <= cn.coeff_sum + 1e-10

    def test_parseval_against_quadrature(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            s = random_polynomial(rng, max_degree=32)
            r = float(rng.uniform(0.1, 0.89))
            cn = circle_norms(s, r)
            assert abs(cn.l2_norm - trig_quadrature_l2(s.coeffs, r)) < 1e-8

    def test_domain_checks(self):
        s = TruncatedSeries.polynomial([1.0])
        with pytest.raises(ParameterDomainError):
            circle_norms(s, 1.0)
        with pytest.raises(DivergenceRegionError):
            circle_norms(TruncatedSeries([1.0, 1.0]), 0.95)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_l2_sum_rejected(self):
        with pytest.raises(ParameterDomainError, match="L2 sum overflows"):
            circle_norms(TruncatedSeries.polynomial([1e200]), 0.5)


class TestMajorantDomination:
    def test_pointwise_on_circle(self):
        rng = np.random.default_rng(5)
        theta = np.linspace(0.0, 2 * np.pi, 64, endpoint=False)
        for _ in range(20):
            s = random_polynomial(rng)
            r = float(rng.uniform(0.1, 0.89))
            dominating = eval_series(majorant(s), r).value.real
            values = np.abs(eval_series(s, r * np.exp(1j * theta)).value)
            assert np.all(values <= dominating + 1e-10)


class TestSerialization:
    def test_round_trip_with_tail(self):
        s = geometric_series(0.5, 6, m=2.0)
        restored = TruncatedSeries.loads(s.dumps())
        np.testing.assert_array_equal(restored.coeffs, s.coeffs)
        assert restored.tail_rho == 0.5 and restored.tail_m == 2.0

    def test_round_trip_without_tail(self):
        s = TruncatedSeries([1.0 + 2.0j, -3.0])
        restored = TruncatedSeries.loads(s.dumps())
        np.testing.assert_array_equal(restored.coeffs, s.coeffs)
        assert restored.has_tail is False

    def test_wire_schema(self):
        payload = json.loads(TruncatedSeries.with_geometric_tail([1.0, -1.0j], 0.25, 3.0).dumps())
        assert payload == {"coeffs": [[1.0, 0.0], [0.0, -1.0]],
                           "tail": {"rho": 0.25, "M": 3.0}}
        assert json.loads(TruncatedSeries([1.0]).dumps())["tail"] is None


class TestAngleGridScan:
    """The unscaled, chunked FFT scan reproduces the plain expressions it
    replaces bit for bit, and the derivative-root polish finds the circle
    maximum and its witness."""

    @pytest.mark.parametrize("count,n_coeffs", [(8, 8), (64, 5), (4096, 65)])
    def test_rough_scan_equals_scaled_inverse_fft(self, count, n_coeffs):
        rng = np.random.default_rng(count)
        coeffs = rng.normal(size=n_coeffs) + 1j * rng.normal(size=n_coeffs)
        # more radii than one chunk holds at count 4096, with a partial last chunk
        radii = np.linspace(0.0, 0.999, 300)
        # the power table is repeated products, the same bits as a Python loop
        powers = _power_table(radii, n_coeffs)
        for i in (0, 1, 299):
            loop = [1.0]
            for _ in range(n_coeffs - 1):
                loop.append(loop[-1] * float(radii[i]))
            assert powers[i].tolist() == loop
        buf = np.zeros((radii.size, count), dtype=complex)
        buf[:, :n_coeffs] = coeffs[None, :] * powers
        expected = np.fft.ifft(buf, axis=1) * count
        rough = np.empty(radii.size)
        for rows, values in _angle_grid_values(coeffs, radii, count):
            rough[rows] = np.abs(values).max(axis=1)
        assert rough.tobytes() == np.abs(expected).max(axis=1).tobytes()
        # the pruned rough scan transforms its rows in other batches, alike
        pruned = _batch_circle_max(TruncatedSeries.polynomial(coeffs), radii, count,
                                   1.0 - radii ** 2)
        kept = pruned != 0.0
        assert kept.sum() > 20 and pruned[kept].tobytes() == rough[kept].tobytes()
        for i in (0, 150, 299):
            (_, values), = _angle_grid_values(coeffs, radii[i:i + 1], count)
            single = np.zeros(count, dtype=complex)
            single[:n_coeffs] = coeffs * powers[i]
            assert values[0].tobytes() == (np.fft.ifft(single) * count).tobytes()
            assert values[0].tobytes() == expected[i].tobytes()

    @pytest.mark.parametrize("coeffs", [[1.7e308 + 1.7e308j, 1.0], [1e308, -1e308, 1e308j]],
                             ids=["modulus", "sum"])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_nonfinite_circle_moduli_rejected(self, coeffs):
        # a modulus past the float range, or an FFT sum that overflows: the
        # scans name it instead of warning on inf - inf
        s = TruncatedSeries.polynomial(coeffs)
        with pytest.raises(ParameterDomainError, match="circle moduli"):
            circle_sup(s, 0.9)
        rs = np.linspace(0.0, 0.9, 300)
        with pytest.raises(ParameterDomainError, match="circle moduli"):
            _batch_circle_max(s, rs, THETA_POINTS, 1.0 - rs * rs)

    @pytest.mark.parametrize("r", [0.2, 0.5, 0.9])
    def test_witnesses_match_closed_forms(self, r):
        # |(a - z)/(1 - conj(a) z)| peaks on |z| = r at z = -r a/|a|
        a = 0.6 * np.exp(1.3j)
        k = np.arange(1, 257)
        mobius = TruncatedSeries.polynomial(
            np.concatenate([[a], -(1.0 - abs(a) ** 2) * np.conj(a) ** (k - 1)]))
        sup, theta = circle_sup(mobius, r)
        assert abs(theta - (1.3 + np.pi)) <= 1e-13
        assert sup == pytest.approx((r + 0.6) / (1.0 + 0.6 * r), rel=1e-14)
        # the extremal peaks at theta = phi beyond r0 and at phi + pi inside it
        s = extremal_coefficients(ExtremalSpec(r0=0.9134, phi=2.2))
        for radius, peak in ((0.95, 2.2), (r, 2.2 + np.pi)):
            assert abs(circle_sup(s, radius)[1] - peak) <= 1e-13
        # z + 0.5i z^2 - 0.25 z^3 attains its majorant sum at z = -i r
        sup, theta = circle_sup(TruncatedSeries.polynomial([0.0, 1.0, 0.5j, -0.25]), r)
        assert abs(theta - 1.5 * np.pi) <= 1e-13
        assert sup == pytest.approx(r + 0.5 * r ** 2 + 0.25 * r ** 3, rel=1e-15)

    def test_sup_never_below_golden_polish_or_dense_scan(self):
        # the previous golden-section polish and a dense Horner scan are both
        # lower bounds of the circle maximum up to rounding.  The golden value
        # is the largest of ~60 rounded probes, so it may exceed the true
        # maximum by the rounding of one Horner evaluation, gamma_{4(N+1)}
        # sum |a_n| r^n, which is its tolerance; the dense scan samples the
        # peak a few times at most and gets 4 ulp.
        rng = np.random.default_rng(16)
        dense = np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 65536, endpoint=False))
        for i in range(300):
            s = random_polynomial(rng, max_degree=256)
            if i % 3 == 0:
                s = TruncatedSeries.polynomial(s.coeffs.real)
            r = float(rng.uniform(0.05, 0.999))
            sup, theta = circle_sup(s, r)
            count = _angle_count(THETA_POINTS, s.coeffs.size)
            (_, values), = _angle_grid_values(s.coeffs, np.array([r]), count)
            angles = np.linspace(0.0, 2.0 * np.pi, count, endpoint=False)
            _, golden = scan_polish(lambda th: np.abs(_horner(s.coeffs, r * np.exp(1j * th))),
                                    angles, np.abs(values[0]), period=2.0 * np.pi)
            gamma = 2.0 * s.coeffs.size * np.finfo(float).eps
            assert sup >= golden - gamma / (1.0 - gamma) * coefficient_sum(s, r)
            z, acc = r * dense, np.full(dense.shape, s.coeffs[-1])
            for c in s.coeffs[-2::-1]:
                acc *= z
                acc += c
            assert sup >= np.abs(acc).max() - 4.0 * np.spacing(sup)

    @pytest.mark.parametrize("c", [-2.0, 1.0 + 2.0j, -1.0j])
    def test_plateaus_report_theta_zero(self, c):
        # |c z^3| is constant on the circle, so the FFT's last bits would pick
        # the grid winner and the slope is rounding noise: theta = 0 instead
        for r in (0.3, 0.7, 0.99):
            sup, theta = circle_sup(TruncatedSeries.polynomial([0.0, 0.0, 0.0, c]), r)
            assert theta == 0.0 and sup == pytest.approx(abs(c) * r ** 3, rel=1e-15)
        # at r = 0 the circle is one point
        assert circle_sup(TruncatedSeries.polynomial([1.0, -1.0j, c]), 0.0) == (1.0, 0.0)

    def test_real_coefficients_report_the_upper_mirror_witness(self):
        # |f(r e^{i theta})| = |f(r e^{-i theta})|, so each maximum has a
        # mirror; the witness is the one in [0, pi], and the value is |f| there
        rng = np.random.default_rng(5)
        for _ in range(40):
            coeffs = rng.normal(size=int(rng.integers(2, 40)))
            r = float(rng.uniform(0.05, 0.999))
            sup, theta = circle_sup(TruncatedSeries.polynomial(coeffs), r)
            assert 0.0 <= theta <= np.pi
            for side in (1.0, -1.0):
                value = abs(np.polyval(coeffs[::-1], r * np.exp(side * 1j * theta)))
                assert value == pytest.approx(sup, rel=1e-12)
