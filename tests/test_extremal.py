import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blochbohr import (DivergenceRegionError, ExtremalSpec,
                       ParameterDomainError, PoleError, PreconditionError,
                       TruncatedSeries, Weight, blaschke_degree,
                       blaschke_degree_montecarlo, builtin_weight, circle_norms,
                       eval_series, extremal_coefficients, extremal_eval,
                       criterion_bound, extremal_majorant_sum,
                       extremal_sup_modulus, interval, verify_sharpness)
from blochbohr.search import CRITERION_R_POINTS, R_MAX, Radii, grid, scan_polish
from blochbohr.weights import CRITERION_TOL, R0_MIN
from conftest import hand_built

SQRT2 = np.sqrt(2.0)


class TestExtremalSpec:
    def test_anchor_domain(self):
        with pytest.raises(ParameterDomainError):
            ExtremalSpec(r0=0.5)
        with pytest.raises(ParameterDomainError):
            ExtremalSpec(r0=1.1)
        with pytest.raises(ParameterDomainError):
            ExtremalSpec(r0=0.8, truncation=0)
        with pytest.raises(ParameterDomainError):
            ExtremalSpec(r0=0.8)._replace(r0=0.5)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("phi", [np.nan, np.inf, -np.inf])
    def test_phase_must_be_finite(self, phi):
        with pytest.raises(ParameterDomainError, match="phi must be finite"):
            ExtremalSpec(r0=0.8, phi=phi)

    def test_phase_normalized(self):
        spec = ExtremalSpec(r0=0.8, phi=2.0 * np.pi + 0.5)
        assert spec.phi == pytest.approx(0.5, abs=1e-12)
        assert spec._replace(phi=2.0 * np.pi + 0.25).phi == pytest.approx(0.25, abs=1e-12)


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

    @pytest.mark.parametrize("r", [0.3, 0.6, 0.8, 0.85, 0.95])
    def test_matches_circle_scan_below_anchor(self, r):
        s = extremal_coefficients(ExtremalSpec(r0=0.8))
        cn = circle_norms(s, r)
        assert cn.sup_norm == pytest.approx(extremal_sup_modulus(0.8, r), abs=1e-8)

    def test_circle_values_dominated_below_anchor(self):
        # the peak sits at theta = pi + phi up to the anchor and at phi past it
        spec = ExtremalSpec(r0=0.8, phi=0.4)
        theta = np.linspace(0.0, 2 * np.pi, 256, endpoint=False)
        for r in (0.2, 0.5, 0.8, 0.85, 0.95):
            values = np.abs(extremal_eval(spec, r * np.exp(1j * theta)))
            bound = extremal_sup_modulus(0.8, r)
            assert np.all(values <= bound + 1e-12)
            peak = spec.phi + (np.pi if r <= 0.8 else 0.0)
            at_peak = abs(extremal_eval(spec, r * np.exp(1j * peak)))
            assert at_peak == pytest.approx(bound, abs=1e-12)

    def test_maximum_past_the_anchor(self):
        # past r0 the closed form (r/r0 + 1/sqrt(2))/(1 + r/(sqrt(2) r0)) is
        # the circle minimum; the maximum is the value at theta = phi
        assert extremal_sup_modulus(0.8, 0.85) == pytest.approx(1.42901, abs=5e-6)
        minimum = (0.85 / 0.8 + 1.0 / SQRT2) / (1.0 + 0.85 / (SQRT2 * 0.8))
        assert minimum == pytest.approx(1.01045, abs=5e-6)

    def test_pole_circle(self):
        # r0 = 1/sqrt(2) rounded up puts the pole sqrt(2) r0 at r = 1 exactly
        with pytest.raises(PoleError):
            extremal_sup_modulus(0.5 * SQRT2, np.array([0.5, 1.0]))

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


@given(r=st.floats(min_value=0.0, max_value=1.4), r0=st.floats(min_value=0.5 * SQRT2,
                                                                max_value=1.0))
@example(r=0.8, r0=0.8)
@example(r=0.0, r0=0.5 * SQRT2)
@settings(max_examples=300, deadline=None)
def test_closed_forms_give_the_same_bits_for_floats_and_arrays(r, r0):
    # the closed forms are written on floats and mapped over arrays
    for closed in (extremal_sup_modulus, extremal_majorant_sum):
        try:
            fast = closed(r0, r)
        except (PoleError, DivergenceRegionError):
            continue
        assert type(fast) is float
        for other in (closed(r0, np.asarray(r)), closed(r0, np.array([r]))[0],
                      closed(r0, [r])[0]):
            assert np.float64(other).tobytes() == np.float64(fast).tobytes()


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


def _readme_example_oracle():
    """Sup over r of omega(r) B(r) for example2 (alpha 1, r0 0.8) in mpmath:
    (1 - r)(r - p)/(q - r) with p = r0/sqrt(2), q = sqrt(2) r0 peaks at
    r* = q - sqrt((q - 1)(q - p)); r0 is the double nearest 0.8."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        r0, c = mp.mpf(0.8), 1 / mp.sqrt(2)
        p, q = c * r0, r0 / c
        r = q - mp.sqrt((q - 1) * (q - p))
        return float(r), float((1 - r) / (1 - r0) * (r - p) / (r0 - c * r))


class TestVerifySharpness:
    def test_constant_weight_at_one(self):
        rep = verify_sharpness(builtin_weight("constant"), 1.0)
        assert rep.lhs_sup == pytest.approx(1.0, abs=1e-12)
        assert rep.rhs_sup == pytest.approx(1.0, abs=1e-12)
        assert rep.lhs_witness_r == rep.rhs_witness_r == 1.0
        assert rep.relative_gap <= 1e-9

    def test_example2_weight(self):
        # the README example passes the criterion but not the identity: past
        # r0 the weight stays above 1/B, so the sup side peaks at r > r0
        rep = verify_sharpness(builtin_weight("example2", r0=0.8, alpha=1), 0.8)
        assert rep.lhs_sup == pytest.approx(1.0, abs=1e-15)
        assert rep.lhs_witness_r == 0.8
        assert rep.rhs_sup == 1.0736870584245609
        assert rep.rhs_witness_r == 0.8587638524630434
        assert rep.relative_gap > 1e-9

    def test_example2_against_mpmath(self):
        witness, value = _readme_example_oracle()
        rep = verify_sharpness(builtin_weight("example2", r0=0.8, alpha=1), 0.8)
        assert (rep.rhs_witness_r, rep.rhs_sup) == (witness, value)

    def test_example3_weight(self):
        rep = verify_sharpness(builtin_weight("example3", r0=0.75, alpha=2), 0.75)
        assert rep.lhs_witness_r == 0.75
        assert rep.rhs_sup == pytest.approx(1.1412561, abs=5e-8)
        assert rep.rhs_witness_r > 0.75
        assert rep.relative_gap > 1e-9

    @pytest.mark.parametrize("alpha,passes", [(1.44, False), (1.46, True), (2.0, True)])
    def test_example2_attainment_threshold(self, alpha, passes):
        # example2 attains the identity at r0 = 0.8 iff
        # alpha >= (1 + sqrt(2))^2 (1 - r0)/r0 = 1.457...
        assert 1.44 < (1.0 + SQRT2) ** 2 * 0.25 < 1.46
        rep = verify_sharpness(builtin_weight("example2", r0=0.8, alpha=alpha), 0.8)
        assert (rep.relative_gap <= 1e-9) == passes
        assert rep.lhs_witness_r == 0.8
        assert (rep.rhs_witness_r == 0.8) == passes

    @pytest.mark.parametrize("kind,params,r0", [
        ("example2", {"r0": 0.8, "alpha": 2.0}, 0.8),
        ("example3", {"r0": 0.75, "alpha": 5.0}, 0.75),
        ("example2", {"r0": 0.7071067811865476, "alpha": 3.0}, 0.7071067811865476),
        ("constant", {}, 1.0),
    ], ids=["example2", "example3", "anchor_1/sqrt2", "anchor_1"])
    def test_attained_at_the_anchor(self, kind, params, r0):
        rep = verify_sharpness(builtin_weight(kind, **params), r0)
        assert rep.relative_gap <= 1e-9
        assert rep.lhs_witness_r == rep.rhs_witness_r == r0
        assert rep.rhs_sup == 1.0
        # a0 = -1/sqrt(2) correctly rounded: the sup side is exactly 1 too
        assert rep.lhs_sup == 1.0 and rep.relative_gap == 0.0

    def test_weight_without_a_slope(self):
        # a hand-built weight polishes by golden section and finds the same sup
        ex2 = builtin_weight("example2", r0=0.8, alpha=1)
        bare = Weight("bare", ex2.fn, limit_at_one=ex2.limit_at_one)
        rep = verify_sharpness(bare, 0.8)
        assert rep.rhs_sup == pytest.approx(1.0736870584245609, rel=1e-15)
        assert rep.rhs_witness_r == pytest.approx(0.8587638524630434, abs=1e-7)

    def test_scans_make_no_weight_grid_pass(self):
        # the criterion and the sup side bound boxes of radii by branch-and-bound,
        # so no scan maps the weight over its 10 000-point grid any more
        passes = []

        class GridCountingWeight(Weight):
            def __call__(self, r):
                if isinstance(r, list):
                    passes.append(len(r))
                return super().__call__(r)

        ex2 = builtin_weight("example2", r0=0.8, alpha=2)
        counting = GridCountingWeight("counting", ex2.fn, ex2.params, ex2.limit_at_one,
                                      ex2.slope, ex2.kink)
        assert verify_sharpness(counting, 0.8) == verify_sharpness(ex2, 0.8)
        assert passes == []

    def test_standard_weight_rejected(self):
        with pytest.raises(PreconditionError):
            verify_sharpness(builtin_weight("standard"), 0.8)

    def test_report_serialization(self):
        rep = verify_sharpness(builtin_weight("constant"), 1.0)
        d = rep._asdict()
        assert d["relative_gap"] == rep.relative_gap
        assert set(d) == {"lhs_sup", "rhs_sup", "lhs_witness_r", "rhs_witness_r",
                          "relative_gap", "r0"}


def majorant_side_scan(w: Weight, r0: float, r_points: int = CRITERION_R_POINTS) -> tuple:
    """Reference for the majorant side: omega(r)/sqrt(2) times the majorant sum
    scanned on ``Radii(r_points, r0)`` and polished at a root of its slope
    (golden section without one), r0 the kink.  Returns (witness, sup)."""
    root2 = math.sqrt(2.0)
    omega = lambda r: w.fn(r) if r < 1.0 else w(r)
    side = lambda r: omega(r) / root2 * (0.5 * root2 / (1.0 - r / (2.0 * r0)))
    slope = None
    if w.slope is not None:
        slope = lambda r: (w.slope(r) + w(r) / (2.0 * r0 - r)) * r0 / (2.0 * r0 - r)
    return scan_polish(side, Radii(r_points, r0), slope=slope, kink=r0)


class TestMajorantSide:
    """The criterion at r0 puts the majorant side's sup at r0, where
    ``verify_sharpness`` evaluates it instead of scanning it."""

    def test_value_at_the_anchor_is_the_scan_bit_for_bit(self):
        rng = random.Random(29)
        cases = [(builtin_weight("constant"), 1.0)]
        for _ in range(40):
            w = builtin_weight(rng.choice(["example2", "example3"]),
                               r0=rng.uniform(R0_MIN, 0.99), alpha=rng.uniform(1.0, 12.0))
            cases.append((w, w.kink))
        for w, r0 in cases:
            rep = verify_sharpness(w, r0)
            assert repr((rep.lhs_witness_r, rep.lhs_sup)) == repr(majorant_side_scan(w, r0))

    def test_slopeless_weights_agree_within_the_criterion_tolerance(self):
        # omega(r) r0/(2 r0 - r) = omega(r0) rho(r)/omega1(r) with rho <= h + tol and
        # omega1 >= 2 - sqrt(2): the scan can exceed the value at r0 by 1.71 tol
        base = builtin_weight("example2", r0=0.8, alpha=2)
        h = lambda r: min(2.0 - r / 0.8, (math.sqrt(2.0) * 0.8 + r) / (math.sqrt(2.0) * r + 0.8))
        fns = dict(hand_built(grid(0.0, R_MAX, CRITERION_R_POINTS)), **{
            "h": h,
            "small-spike": lambda r: base.fn(r) + 0.1 * (abs(r - 0.3) < 2e-4),
            "spike-to-h": lambda r: h(r) if abs(r - 0.9) < 2e-4 else base.fn(r),
        })
        passed = []
        for name, fn in fns.items():
            w = Weight(name, fn, limit_at_one=0.0, kink=0.8)
            try:
                rep = verify_sharpness(w, 0.8)
            except PreconditionError:
                continue
            passed.append(name)
            _, sup = majorant_side_scan(w, 0.8)
            assert rep.lhs_witness_r == 0.8
            assert abs(sup - rep.lhs_sup) <= 2.0 * CRITERION_TOL * rep.lhs_sup
        assert passed == ["zero-band", "step", "h", "small-spike", "spike-to-h"]
        assert h(0.8) == 1.0 and criterion_bound(0.9, 0.8) == h(0.9)

    def test_one_scan_besides_the_criterion(self, monkeypatch):
        scanned = []
        real = interval.grid_best

        def counting(f, xs, minimize=False):
            scanned.append(minimize)
            return real(f, xs, minimize)

        monkeypatch.setattr(interval, "grid_best", counting)
        verify_sharpness(builtin_weight("example3", r0=0.9413, alpha=3.518), 0.9413)
        # the criterion's margin (a minimum), then the sup side
        assert scanned == [True, False]
