import cmath
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blochbohr import (DivergenceRegionError, ExtremalSpec, ParameterDomainError,
                       PoleError, RadialSupReport, TruncatedSeries, avkhadiev_coefficients,
                       avkhadiev_eval, avkhadiev_majorant_closed_form, circle_sup,
                       coefficient_sum, derivative, eval_series, extremal_coefficients,
                       extremal_sup_modulus, majorant,
                       weight_from_token, weighted_bloch_norm,
                       weighted_bloch_seminorm, weighted_radial_sup)
from blochbohr import norms
from blochbohr.norms import _EPS, _batch_circle_max, _circle_max_bound, _series_radial_sup
from blochbohr.search import R_MAX, R_POINTS, THETA_POINTS, grid
from blochbohr.series import _angle_count, _angle_grid_values
from blochbohr.weights import Weight, builtin_weight
from conftest import mobius_series, random_polynomial

A_MAX = 1.0 / np.sqrt(3.0)
COEF = 1.5 * np.sqrt(3.0)


class TestBlochNorm:
    def test_constant(self, std):
        assert weighted_bloch_norm(TruncatedSeries.polynomial([3.0j]), std) == 3.0

    def test_identity_map(self, std):
        s = TruncatedSeries.polynomial([0.0, 1.0])
        assert weighted_bloch_norm(s, std) == pytest.approx(1.0, abs=1e-12)

    def test_square_map_calculus_oracle(self, std):
        # sup over r of (1-r^2) 2r = 4/(3 sqrt(3)) at r = 1/sqrt(3)
        s = TruncatedSeries.polynomial([0.0, 0.0, 1.0])
        assert weighted_bloch_norm(s, std) == pytest.approx(
            0.769800358919501, abs=1e-10)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_homogeneity(self, std):
        # from 1e160 on the angle slope's product f conj(z f') would pass the
        # float range unscaled, and the polish would keep the grid angle
        rng = np.random.default_rng(21)
        s = random_polynomial(rng)
        base = weighted_bloch_norm(s, std)
        for c in (0.25, 3.0, 117.0, 1e150, 1e160, 1e300):
            scaled = TruncatedSeries.polynomial(c * s.coeffs)
            assert weighted_bloch_norm(scaled, std) == pytest.approx(
                c * base, rel=1e-12)

    def test_seminorm_relation(self, std):
        rng = np.random.default_rng(22)
        s = random_polynomial(rng)
        norm = weighted_bloch_norm(s, std)
        semi = weighted_bloch_seminorm(s, std)
        assert norm == pytest.approx(abs(s.coeffs[0]) + semi, abs=1e-14)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_norm_rejected(self, std):
        # |a_0| = 1e308 and the seminorm 1e308 (at r = 0) are finite, their sum is not
        with pytest.raises(ParameterDomainError, match="Bloch norm"):
            weighted_bloch_norm(TruncatedSeries.polynomial([1e308, 1e308]), std)

    def test_complex_coefficient_path_against_dense_scan(self, std):
        s = TruncatedSeries.polynomial([0.0, 1.0j, -0.5, 0.25j])
        norm = weighted_bloch_norm(s, std)
        r = np.linspace(0, 1 - 1e-6, 4000)[:, None]
        theta = np.linspace(0, 2 * np.pi, 512, endpoint=False)[None, :]
        z = r * np.exp(1j * theta)
        deriv = 1.0j - 1.0 * z + 0.75j * z ** 2
        brute = ((1 - r ** 2) * np.abs(deriv)).max()
        assert norm >= brute - 1e-9
        assert norm == pytest.approx(brute, abs=1e-5)


class TestRadialSup:
    def test_constant_function(self, const):
        rep = weighted_radial_sup(TruncatedSeries.polynomial([1.0]), const)
        assert rep.value == pytest.approx(1.0, abs=1e-12)

    def test_extremal_witness_at_anchor(self):
        # example2 at r0 = 0.8 passes the criterion for alpha above the exact
        # threshold (1 + sqrt(2))^2 (1 - r0) / r0 = 1.457..., and the weighted
        # sup of the extremal is then 1, attained at r0
        spec = ExtremalSpec(r0=0.8)
        f = extremal_coefficients(spec)
        rep = weighted_radial_sup(f, weight_from_token("example2:r0=0.8,alpha=2"))
        assert abs(rep.witness_r - 0.8) < 1e-9
        assert rep.value == pytest.approx(1.0, abs=1e-12)
        # below that threshold the full-range sup exceeds 1 past the anchor
        rep = weighted_radial_sup(f, weight_from_token("example2:r0=0.8,alpha=1"))
        assert rep.value == pytest.approx(1.07369, abs=1e-5)
        assert rep.witness_r == pytest.approx(0.859, abs=1e-3)
        # strictly below r0 the circle maximum sits at theta = pi
        # (at r0 itself |f| is constant 1 on the circle, so theta is a plateau)
        sup, theta = circle_sup(f, 0.6)
        assert sup == pytest.approx(extremal_sup_modulus(0.8, 0.6), abs=1e-12)
        assert abs(theta - np.pi) < 1e-6

    @pytest.mark.parametrize("a", [0.1, 0.2, 0.3, 0.35])
    def test_unit_sup_function(self, a, std):
        ring = np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 1024, endpoint=False))
        rough = max(std(r) * np.abs(avkhadiev_eval(a, r * ring)).max()
                    for r in grid(0.0, R_MAX, 1024))
        assert rough == pytest.approx(1.0, abs=1e-4)
        refined = weighted_radial_sup(avkhadiev_coefficients(a), std)
        assert refined.value == pytest.approx(1.0, abs=1e-8)

    def test_majorant_dominates(self, std):
        rng = np.random.default_rng(8)
        for _ in range(5):
            s = random_polynomial(rng)
            m = majorant(s)
            sup_f = weighted_radial_sup(s, std)
            sup_m = weighted_radial_sup(m, std)
            assert sup_m.value >= sup_f.value - 1e-10

    def test_report_serialization(self, const):
        rep = weighted_radial_sup(TruncatedSeries.polynomial([0.0, 1.0]), const)
        assert set(rep._asdict()) == {"value", "witness_r", "witness_theta"}

    def test_public_name_is_the_series_route(self, std):
        # one implementation: the public sup is the series scan, bit for bit
        s = mobius_series(0.9)
        rep = weighted_radial_sup(s, std)
        assert isinstance(rep, RadialSupReport)
        assert rep == _series_radial_sup(s, std)

    def test_uncertified_series_rejected(self, std):
        # a series without a tail bound is trusted only up to |z| = 0.9, short
        # of the scan radius
        with pytest.raises(DivergenceRegionError):
            weighted_radial_sup(TruncatedSeries([1.0, 1.0]), std)


class TestRadialWitnessAtSlopeRoot:
    """Series radial sups polish the radius at a root of d/dr [w(r) M(r)];
    the witnesses below are closed forms or 40-digit mpmath maxima, to the
    1e-12 width of the falsi bracket."""

    def test_mobius_witnesses(self, std):
        # (alpha - z)/(1 - alpha z) peaks on |z| = r at z = -r, so the sup is
        # max (1 - r^2)(alpha + r)/(1 + alpha r); its derivative's weighted
        # sup (1 - r^2)(1 - alpha^2)/(1 - alpha r)^2 is 1, at r = alpha
        s = mobius_series(0.9)
        value, r, theta = _series_radial_sup(s, std)
        assert abs(r - 0.088345568515427321) <= 1e-12
        assert value == pytest.approx(0.90840350915920961, rel=1e-15)
        assert theta == pytest.approx(np.pi, abs=1e-12)
        value, r, theta = _series_radial_sup(derivative(s), std)
        assert abs(r - 0.9) <= 1e-12 and theta == 0.0
        assert value == pytest.approx(1.0, rel=1e-15)
        assert weighted_bloch_norm(s, std) == pytest.approx(1.9, rel=1e-15)

    def test_quartic_witness(self, std):
        s = TruncatedSeries.polynomial([0.25, 0.8, -0.9, 0.3, 0.6])
        value, r, theta = _series_radial_sup(s, std)
        assert abs(r - 0.66755205495633087) <= 1e-12
        assert abs(theta - 1.9035421661932843) <= 1e-12
        assert value == pytest.approx(0.53069942984135190, rel=1e-15)

    def test_nonnegative_witness_is_the_cubic_root(self, std):
        # (1 - r^2)(r + r^2/2) has slope 1 + r - 3r^2 - 2r^3, whose root in
        # (0, 1) is (sqrt5 - 1)/2, where the value is 1/2 exactly
        value, r, theta = _series_radial_sup(TruncatedSeries.polynomial([0.0, 1.0, 0.5]), std)
        assert abs(r - (np.sqrt(5.0) - 1.0) / 2.0) <= 1e-12
        assert theta == 0.0 and value == pytest.approx(0.5, rel=1e-15)

    def test_zero_constant_term_at_the_origin(self):
        # sup_r r e^{-k r} is at r = 1/k, below the first nonzero radius
        # R_MAX/2047 for k = 5000, so the bracket of the grid winner starts at
        # r = 0, where f = iz vanishes and the envelope slope is 0/0; the right
        # derivative |f'(0)| takes its place
        k = 5000.0
        assert 1.0 / k < grid(0.0, R_MAX, R_POINTS)[1]
        w = Weight("exp", lambda r: np.exp(-k * r), slope=lambda r: -k * np.exp(-k * r))
        value, r, _ = _series_radial_sup(TruncatedSeries.polynomial([0.0, 1.0j]), w)
        assert abs(r - 1.0 / k) <= 1e-12
        assert value == pytest.approx(np.exp(-1.0) / k, rel=1e-14)
        # under a constant weight the sup of 2z is the bracket end R_MAX
        value, r, _ = _series_radial_sup(TruncatedSeries.polynomial([0.0, 2.0]),
                                         builtin_weight("constant"))
        assert (value, r) == (2.0 * R_MAX, R_MAX)

    def test_slopeless_weight_keeps_golden_section(self, std):
        # a hand-built weight without a slope polishes by golden section,
        # so its witness lands near, not at, the root
        bare = Weight("bare", std.fn)
        s = TruncatedSeries.polynomial([0.25, 0.8, -0.9, 0.3, 0.6])
        value, r, _ = _series_radial_sup(s, bare)
        root_value, root_r, _ = _series_radial_sup(s, std)
        assert abs(r - root_r) <= 1e-7 and r != root_r
        assert value == pytest.approx(root_value, rel=1e-13)


def _golden_radial_sup(s, w):
    """The radial sup polished by golden section: the weight without its slope."""
    return _series_radial_sup(s, w._replace(slope=None))


def test_root_polish_never_below_golden_polish():
    # golden section reports the largest of its rounded probes, so it may sit
    # above the true sup by the rounding of one Horner evaluation,
    # gamma_{4(N+1)} w(r) sum |a_n| r^n, which is the tolerance
    rng = np.random.default_rng(20)
    for i in range(120):
        s = random_polynomial(rng, max_degree=40)
        if i % 4 == 1:
            s = TruncatedSeries.polynomial(s.coeffs.real)
        elif i % 4 == 2:
            s = majorant(s)
        kind = ("standard", "constant", "example2", "example3")[i // 4 % 4]
        params = ({} if kind in ("standard", "constant")
                  else {"r0": float(rng.uniform(0.71, 0.99)), "alpha": float(rng.uniform(1.0, 4.0))})
        w = builtin_weight(kind, **params)
        value, r, _ = _series_radial_sup(s, w)
        golden, golden_r, _ = _golden_radial_sup(s, w)
        gamma = 2.0 * s.coeffs.size * np.finfo(float).eps
        slack = gamma / (1.0 - gamma) * w(golden_r) * coefficient_sum(s, golden_r)
        assert value >= golden - slack, (i, kind, params)
        if w.kink is not None and abs(golden_r - w.kink) < 1e-9:
            assert r == w.kink


@pytest.mark.parametrize("token", ["example3:r0=0.8,alpha=1.7", "example2:r0=0.8,alpha=3"])
def test_slopeless_weight_meets_the_kink_sup(token):
    # the radial sup sits at the weight's kink, a candidate of every polish, so
    # golden section on each side of it reports the slope path's sup bit for bit
    s, w = _automorphism(cmath.rect(0.72, 4.1), 60), weight_from_token(token)
    value, r, _ = _series_radial_sup(s, w)
    assert (value, r) == (0.9644670050761411, 0.8)
    assert _series_radial_sup(s, w._replace(slope=None))[:2] == (value, r)


class TestAvkhadievEval:
    def test_zero_at_a(self):
        assert avkhadiev_eval(0.35, 0.35) == 0.0

    def test_value_at_origin(self):
        for a in (0.1, 0.35, 0.5):
            expected = -COEF * a * (1.0 - a * a)
            assert avkhadiev_eval(a, 0.0) == pytest.approx(expected, abs=1e-15)

    def test_parameter_domain(self):
        for bad in (0.0, -0.1, A_MAX, 0.6, 1.0):
            with pytest.raises(ParameterDomainError):
                avkhadiev_eval(bad, 0.2)

    def test_pole(self):
        with pytest.raises(PoleError):
            avkhadiev_eval(0.5, 2.0)

    def test_closed_form_against_series(self):
        s = avkhadiev_coefficients(0.35)
        for z in (0.5, -0.3, 0.2 + 0.4j):
            assert abs(eval_series(s, z).value - avkhadiev_eval(0.35, z)) < 1e-10


class TestAvkhadievCoefficients:
    def test_needs_two_terms(self):
        with pytest.raises(ParameterDomainError, match="at least 2 coefficient terms"):
            avkhadiev_coefficients(0.35, n_terms=1)

    @pytest.mark.parametrize("a", [0.1, 0.35, 0.57])
    def test_sign_pattern(self, a):
        s = avkhadiev_coefficients(a)
        coeffs = s.coeffs.real
        assert coeffs[0] < 0.0
        assert np.all(coeffs[1:] > 0.0)
        assert np.all(s.coeffs.imag == 0.0)

    def test_positivity_fails_past_third_root(self):
        with pytest.raises(ParameterDomainError):
            avkhadiev_coefficients(0.6)
        # b_1 = 2 (1/2 - a^2/(1-a^2)) is negative there
        a = 0.6
        atil = a * a / (1.0 - a * a)
        assert 2.0 * (0.5 - atil) < 0.0

    def test_b1_positivity_boundary(self):
        for a in (0.1, 0.35, 0.57):
            atil = a * a / (1.0 - a * a)
            assert 2.0 * (0.5 - atil) > 0.0

    def test_first_coefficient(self):
        s = avkhadiev_coefficients(0.35)
        assert s.coeffs[0].real == pytest.approx(-COEF * 0.35 * (1 - 0.35 ** 2),
                                                 abs=1e-14)

    def test_tail_is_sound(self):
        a = 0.35
        s = avkhadiev_coefficients(a, n_terms=40)
        atil = a * a / (1.0 - a * a)
        norm = COEF * (1.0 - a * a) ** 2 / a
        n = np.arange(40, 400, dtype=float)
        true_tail = np.abs(norm * (n + 1.0) * (0.5 * n - atil) * a ** n)
        assert np.all(true_tail <= s.tail_m * s.tail_rho ** n)


class TestAvkhadievMajorant:
    def test_value_at_origin_is_abs_a0(self):
        for a in (0.1, 0.35):
            got = avkhadiev_majorant_closed_form(a, 0.0)
            assert got == pytest.approx(COEF * a * (1.0 - a * a), abs=1e-15)

    def test_matches_term_sums(self):
        s = avkhadiev_coefficients(0.35)
        for x in (0.2, 0.5, 0.9):
            term_sum = coefficient_sum(majorant(s), x)
            closed = avkhadiev_majorant_closed_form(0.35, x)
            assert abs(term_sum - closed) < 1e-10

    def test_small_a_limit(self):
        got = avkhadiev_majorant_closed_form(1e-7, 0.5)
        assert got == pytest.approx(COEF * 0.5, abs=1e-6)

    def test_domain_and_pole(self):
        with pytest.raises(ParameterDomainError):
            avkhadiev_majorant_closed_form(0.35, -0.5)
        with pytest.raises(PoleError):
            avkhadiev_majorant_closed_form(0.5, 2.0)

    @pytest.mark.parametrize("x", [np.nan, np.array([0.5, np.nan])])
    def test_nan_argument_rejected(self, x):
        with pytest.raises(ParameterDomainError, match="must be nonnegative"):
            avkhadiev_majorant_closed_form(0.35, x)


class TestExtremalSeriesNorms:
    def test_extremal_circle_sup_formula_below_anchor(self):
        from blochbohr import circle_norms, extremal_sup_modulus
        spec = ExtremalSpec(r0=0.8)
        s = extremal_coefficients(spec)
        for r in (0.3, 0.6, 0.8, 0.85, 0.95):
            cn = circle_norms(s, r)
            assert cn.sup_norm == pytest.approx(extremal_sup_modulus(0.8, r),
                                                abs=1e-8)


class TestSeminormClosedForms:
    def test_mobius_seminorm_is_one(self, std):
        # sup (1-r^2)(1-alpha^2)/(1-alpha r)^2 = 1 exactly, at r = alpha
        for alpha in (0.3, 0.5, 0.9):
            s = mobius_series(alpha)
            assert weighted_bloch_seminorm(s, std) == pytest.approx(1.0,
                                                                    abs=1e-10)

    def test_extremal_seminorm_closed_form(self, std):
        # |f'| peaks on the positive axis: sup (1-r^2) (2 r0)^{-1} (1-rho r)^{-2}
        # equals (2 r0)^{-1} / (1-rho^2) at r = rho, rho = 1/(sqrt(2) r0)
        for r0 in (0.8, 0.9):
            s = extremal_coefficients(ExtremalSpec(r0=r0))
            rho = 1.0 / (np.sqrt(2.0) * r0)
            exact = (1.0 / (2.0 * r0)) / (1.0 - rho * rho)
            assert weighted_bloch_seminorm(s, std) == pytest.approx(exact,
                                                                    abs=1e-9)

    def test_radial_sup_dominates_grid_samples(self, std):
        from blochbohr import avkhadiev_eval
        rep = weighted_radial_sup(avkhadiev_coefficients(0.3), std)
        theta = np.linspace(0.0, 2.0 * np.pi, THETA_POINTS, endpoint=False)
        for r in grid(0.0, R_MAX, 128)[::16]:
            sampled = std(float(r)) * np.abs(
                avkhadiev_eval(0.3, r * np.exp(1j * theta))).max()
            assert rep.value >= sampled - 1e-12


def _full_rough(coeffs, radii, theta_points):
    """The unpruned rough scan: the angle-grid maximum at every radius."""
    out = np.empty(radii.size)
    for rows, values in _angle_grid_values(coeffs, radii,
                                           _angle_count(theta_points, coeffs.size)):
        out[rows] = np.abs(values).max(axis=1)
    return out


@pytest.mark.parametrize("kind", ["real", "complex", "nonnegative"])
@pytest.mark.parametrize("order", [1, "seeded", 256])
def test_circle_sup_never_below_its_rough_row(kind, order):
    # ``_series_radial_sup`` overwrites its rough winner's value with the
    # polished circle maximum before the polish, which keeps the winner's
    # index only while that maximum is at least the rough value: the angle
    # grid row's largest modulus, or sum |a_k| r^k for nonnegative
    # coefficients; every radius of the rough scan is checked
    rng = np.random.default_rng(["real", "complex", "nonnegative"].index(kind) + 38)
    n = int(rng.integers(1, 257)) if order == "seeded" else order
    coeffs = rng.normal(size=n + 1) + (1j * rng.normal(size=n + 1) if kind == "complex" else 0.0)
    coeffs[-1] = -abs(coeffs[-1])  # a signed real series takes the scanned route
    s = TruncatedSeries.polynomial(np.abs(coeffs) if kind == "nonnegative" else coeffs)
    rs = np.asarray(grid(0.0, R_MAX, R_POINTS))
    rough = (coefficient_sum(s, rs) if s.is_nonnegative
             else _full_rough(s.coeffs, rs, THETA_POINTS))
    assert s.is_nonnegative == (kind == "nonnegative")
    polished = np.array([circle_sup(s, r)[0] for r in rs.tolist()])
    assert np.all(polished >= rough)


def _check_pruned_scan(coeffs, weights, radii, theta_points):
    """The pruned scan keeps the weighted argmax of the full one; its scanned
    rows are the full rows bit for bit, and every skipped row scores
    strictly below the best.  Returns (pruned, full)."""
    pruned = _batch_circle_max(TruncatedSeries.polynomial(coeffs), radii, theta_points, weights)
    full = _full_rough(coeffs, radii, theta_points)
    assert np.argmax(weights * pruned) == np.argmax(weights * full)
    skipped = pruned != full
    assert np.all(pruned[skipped] == 0.0)
    assert np.all(weights[skipped] * full[skipped] < np.max(weights * full))
    return pruned, full


def _zero_band(lo, width):
    """1 - r^2 with a stretch of zeros on [lo, lo + width]."""
    return Weight("zero-band", lambda r: np.where((r >= lo) & (r <= lo + width), 0.0,
                                                  1.0 - r * r))


def _spike(at, width):
    """Zero except on [at, at + width], where it is 1."""
    return Weight("spike", lambda r: np.where((r >= at) & (r <= at + width), 1.0, 0.0))


@st.composite
def _series_coeffs(draw):
    """Random, aligned-phase (the majorant is the circle maximum) and
    monomial coefficients, and f' = 0."""
    kind = draw(st.sampled_from(["random", "aligned", "monomial", "zero"]))
    degree = draw(st.integers(0, 48))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    mods = 10.0 ** rng.uniform(-3.0, 3.0, degree + 1)
    if kind == "random":
        return mods * np.exp(2j * np.pi * rng.random(degree + 1))
    if kind == "aligned":
        theta0, psi = rng.uniform(0.0, 2.0 * np.pi, 2)
        return mods * np.exp(1j * (psi - theta0 * np.arange(degree + 1)))
    coeffs = np.zeros(degree + 1, dtype=complex)
    if kind == "monomial":
        coeffs[-1] = mods[-1] * np.exp(2j * np.pi * rng.random())
    return coeffs


_WEIGHTS = st.one_of(
    st.sampled_from([builtin_weight("standard"), builtin_weight("constant")]),
    st.builds(lambda kind, r0, alpha: builtin_weight(kind, r0=r0, alpha=alpha),
              st.sampled_from(["example2", "example3"]),
              st.floats(0.71, 0.99), st.floats(1.0, 4.0)),
    st.builds(_zero_band, st.floats(0.0, 0.9), st.floats(0.0, 0.5)),
    st.builds(_spike, st.floats(0.0, 0.95), st.floats(0.0, 0.05)))


@settings(max_examples=300, deadline=None)
@given(coeffs=_series_coeffs(), w=_WEIGHTS,
       r_points=st.one_of(st.sampled_from([2, 3, 16, 17, 257, 258, 273]),
                          st.integers(4, 600)),
       theta_points=st.sampled_from([2, 8, 64, 256, 4096]),
       r_max=st.one_of(st.just(1.0 - 1e-6), st.floats(0.05, 1.0 - 1e-6)))
@example(coeffs=np.array([0.0, 1.0]), w=builtin_weight("standard"),
         r_points=2048, theta_points=4096, r_max=1.0 - 1e-6)
def test_pruned_rough_scan_keeps_the_weighted_argmax(coeffs, w, r_points, theta_points,
                                                     r_max):
    radii = np.linspace(0.0, r_max, r_points)
    _check_pruned_scan(np.asarray(coeffs, dtype=complex), np.asarray(w(radii)), radii,
                       theta_points)


@pytest.mark.parametrize("aligned", [False, True])
def test_pruned_rough_scan_past_the_bernstein_range(aligned):
    # degree 600 on 1024 angles: pi n >= count, only the majorant bound prunes
    rng = np.random.default_rng(600)
    phases = -1.3 * np.arange(601) if aligned else 2.0 * np.pi * rng.random(601)
    coeffs = rng.uniform(0.1, 1.0, 601) * np.exp(1j * phases)
    radii = np.linspace(0.0, 1.0 - 1e-6, 300)
    _check_pruned_scan(coeffs, np.asarray(builtin_weight("standard")(radii)), radii, 64)


@pytest.mark.parametrize("bad", [-1e-3, np.nan, np.inf])
def test_pruned_rough_scan_falls_back_on_bad_weights(bad):
    # a weight that is negative or not finite anywhere scans every radius
    w = Weight("bad", lambda r: np.where(np.abs(r - 0.5) < 0.01, bad, 1.0 - r * r))
    rng = np.random.default_rng(5)
    coeffs = rng.normal(size=20) + 1j * rng.normal(size=20)
    radii = np.linspace(0.0, 1.0 - 1e-6, 257)
    weights = np.asarray(w(radii))
    assert not np.all((weights >= 0.0) & (weights < np.inf))
    pruned, full = _check_pruned_scan(coeffs, weights, radii, 256)
    assert np.array_equal(pruned, full)


def _check_bound(coeffs, radii, theta_points, scanned):
    """``_circle_max_bound`` from the full scan's values at the ``scanned`` rows
    (the first and the last among them) is at least the full scan's value at
    every other row.  Returns (bound, full, maj, q)."""
    s = TruncatedSeries.polynomial(coeffs)
    full = _full_rough(coeffs, radii, theta_points)
    maj = coefficient_sum(s, radii)
    q = np.pi * s.order / _angle_count(theta_points, coeffs.size)
    bound = _circle_max_bound(radii, np.where(scanned, full, 0.0), scanned, maj, q)
    assert np.all(bound[~scanned] >= full[~scanned])
    return bound, full, maj, q


def _scanned(n_rows, stride, extra=0.0, seed=0):
    """Every ``stride``-th row and the last, as the rough scan's levels scan
    them, plus a random share ``extra`` of the others."""
    rows = np.arange(n_rows)
    scanned = (rows % stride == 0) | (rows == n_rows - 1)
    return scanned | (np.random.default_rng(seed).random(n_rows) < extra)


@settings(max_examples=300, deadline=None)
@given(coeffs=_series_coeffs(), r_points=st.integers(3, 600),
       stride=st.sampled_from([2, 3, 16, 256]), extra=st.sampled_from([0.0, 0.05, 0.5]),
       seed=st.integers(0, 2 ** 32 - 1), theta_points=st.sampled_from([2, 8, 64, 256, 4096]),
       r_max=st.one_of(st.just(R_MAX), st.floats(0.05, R_MAX)))
def test_circle_max_bound_covers_every_skipped_row(coeffs, r_points, stride, extra, seed,
                                                   theta_points, r_max):
    _check_bound(np.asarray(coeffs, dtype=complex), np.linspace(0.0, r_max, r_points),
                 theta_points, _scanned(r_points, stride, extra, seed))


def _real_coeffs():
    return np.random.default_rng(12).normal(size=13).astype(complex)


def _aligned_coeffs():
    # |a_k| e^{i (1 - 0.7 k)}: the circle maximum is the majorant sum, at theta = 0.7
    rng = np.random.default_rng(13)
    return rng.uniform(0.1, 2.0, 25) * np.exp(1j * (1.0 - 0.7 * np.arange(25)))


def _degree(n):
    rng = np.random.default_rng(n)
    return rng.uniform(0.5, 1.0, n + 1) * np.exp(2j * np.pi * rng.random(n + 1))


_RADII = np.linspace(0.0, R_MAX, 300)
_SCANNED = _scanned(_RADII.size, 16)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("coeffs,theta_points", [
    (_real_coeffs(), 64),
    # q = 325 pi / 1024 = 0.9971, just below 1: the second-order bounds still apply
    (_degree(325), 1024)], ids=["real", "q-below-1"])
def test_circle_max_bound_undercuts_the_cap(coeffs, theta_points):
    # |f| cancels on the circle, so the bounds come below the majorant sum
    bound, _, maj, q = _check_bound(coeffs, _RADII, theta_points, _SCANNED)
    assert q < 1.0 and np.all(bound <= (1.0 + _EPS) * maj)
    assert np.any(bound[~_SCANNED] < maj[~_SCANNED])


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("coeffs,theta_points", [
    # aligned phases: the majorant sum is the circle maximum, nothing is below it
    (_aligned_coeffs(), 256),
    # q = 326 pi / 1024 = 1.0002: the second-order bounds do not apply
    (_degree(326), 1024)], ids=["aligned", "q-past-1"])
def test_circle_max_bound_is_the_cap(coeffs, theta_points):
    bound, _, maj, _ = _check_bound(coeffs, _RADII, theta_points, _SCANNED)
    assert np.array_equal(bound[~_SCANNED], (1.0 + _EPS) * maj[~_SCANNED])


def _monotone(full, maj, q, up):
    """The bound at the rows below the scanned row ``up``, r_lo = 0 with M(0) = 0:
    the cap or eps maj + Mh(r_up), whichever is smaller."""
    hat = (full[up] + _EPS * maj[up]) / math.sqrt(1.0 - q * q / 2.0)
    return np.minimum((1.0 + _EPS) * maj[1:up], _EPS * maj[1:up] + hat)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_circle_max_bound_is_tight_on_a_monomial():
    # M(r) = |c| r^n: log M is linear in log r, so Hadamard's bound holds with
    # equality and only the angle factor 1/sqrt(1 - q^2/2) and the slack stay;
    # maj, ten times the majorant sum, holds the cap out of the way
    coeffs = np.zeros(31, dtype=complex)
    coeffs[30] = cmath.rect(2.5, 1.1)
    full = _full_rough(coeffs, _RADII, 256)
    maj = 10.0 * coefficient_sum(TruncatedSeries.polynomial(coeffs), _RADII)
    q = 30.0 * np.pi / 256.0
    bound = _circle_max_bound(_RADII, np.where(_SCANNED, full, 0.0), _SCANNED, maj, q)
    inner = ~_SCANNED & (_RADII > _RADII[16])
    assert np.allclose(bound[inner], full[inner] / math.sqrt(1.0 - q * q / 2.0),
                       rtol=1e-7, atol=0.0)
    # M(0) = 0: below the first nonzero scanned radius the bound is Mh(r_up)
    assert np.all(bound[1:16] == _monotone(full, maj, q, 16))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_circle_max_bound_next_to_a_zero_centre():
    # a_0 = 0, so M(0) = 0 at r_lo = 0: log 0 is not taken, and the rows
    # below the first nonzero scanned radius get the monotone bound
    coeffs = np.array([0.0, 1.0, -0.5j, 0.25])
    bound, full, maj, q = _check_bound(coeffs, _RADII, 64, _SCANNED)
    assert np.all(np.isfinite(bound)) and np.all(bound[1:16] == _monotone(full, maj, q, 16))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_circle_max_bound_of_the_zero_series():
    # every circle maximum and majorant is 0: the bound is 0, with no warning
    bound, _, _, _ = _check_bound(np.zeros(6, dtype=complex), _RADII, 64, _SCANNED)
    assert np.all(bound == 0.0)


def _automorphism(a: complex, order: int) -> TruncatedSeries:
    """(a - z)/(1 - conj(a) z) to order ``order``, with its geometric tail."""
    coeffs = [a] + [-(1.0 - abs(a) ** 2) * a.conjugate() ** k for k in range(order)]
    return TruncatedSeries(np.array(coeffs), abs(a), (1.0 - abs(a) ** 2) / abs(a))


#: the norms command's four series shapes with their rough rows and
#: ``circle_sup`` polish calls over the norm and the radial sup, both counted
#: under the first-order bounds (M(r) <= M(r_up), Bernstein's 1/(1 - q))
_NORMS_SHAPES = {
    "automorphism-8-standard": (lambda: _automorphism(cmath.rect(0.6, 0.7), 8),
                                lambda: builtin_weight("standard"), 338, 15),
    "extremal-40-example2": (lambda: extremal_coefficients(ExtremalSpec(0.85, 2.0, 40)),
                             lambda: builtin_weight("example2", r0=0.9, alpha=2.5), 76, 12),
    "automorphism-60-example3": (lambda: _automorphism(cmath.rect(0.75, -2.2), 60),
                                 lambda: builtin_weight("example3", r0=0.8, alpha=1.7), 103, 12),
    "signed-4-standard": (lambda: TruncatedSeries.polynomial([0.3, 0.7, -0.4, 0.2, -0.9]),
                          lambda: builtin_weight("standard"), 411, 14),
}


def test_second_order_bounds_halve_the_rough_rows(monkeypatch):
    # the rough scan transforms fewer radii than under the first-order bounds,
    # half as many over the four shapes, and the polish calls circle_sup as often
    rows, calls = [], []
    grid, sup = norms._angle_grid_values, norms.circle_sup

    def recorded_grid(coeffs, radii, count):
        rows.append(radii.size)
        return grid(coeffs, radii, count)

    def recorded_sup(s, r):
        calls.append(r)
        return sup(s, r)

    monkeypatch.setattr(norms, "_angle_grid_values", recorded_grid)
    monkeypatch.setattr(norms, "circle_sup", recorded_sup)
    total = 0
    for series, weight, parent_rows, parent_calls in _NORMS_SHAPES.values():
        rows.clear()
        calls.clear()
        s, w = series(), weight()
        weighted_bloch_norm(s, w)
        _series_radial_sup(s, w)
        assert sum(rows) < parent_rows and len(calls) == parent_calls
        total += sum(rows)
    assert 2 * total <= sum(shape[2] for shape in _NORMS_SHAPES.values())
