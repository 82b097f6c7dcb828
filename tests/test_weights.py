import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blochbohr import (ParameterDomainError, Weight, ZeroDenominatorError,
                       builtin_weight, criterion_bound, criterion_check,
                       find_admissible_r0, h_profile, weight_from_token)
from blochbohr.search import R_MAX
from blochbohr.weights import CRITERION_TOL
from conftest import scaled

SQRT2 = np.sqrt(2.0)
R0_MIN = 1.0 / SQRT2

#: radial samples of the dense confirmation scans
DENSE = 100_000


class TestBuiltinWeights:
    def test_standard_values(self):
        w = builtin_weight("standard")
        assert w(0.0) == 1.0
        assert w(R0_MIN) == pytest.approx(0.5, abs=1e-15)
        assert w(1.0) == 0.0

    def test_example2_arithmetic(self):
        w = builtin_weight("example2", r0=0.8, alpha=2)
        assert w(0.9) == pytest.approx(0.25, abs=1e-14)
        assert w(0.5) == 1.0
        assert w(0.8) == 1.0

    def test_example3_is_one_at_anchor(self):
        for alpha in (1, 2, 3.5):
            w = builtin_weight("example3", r0=0.75, alpha=alpha)
            assert w(0.75) == 1.0

    def test_parameter_domain(self):
        with pytest.raises(ParameterDomainError):
            builtin_weight("example2", r0=0.8, alpha=0.5)
        with pytest.raises(ParameterDomainError):
            builtin_weight("example2", r0=0.6, alpha=1)
        with pytest.raises(ParameterDomainError):
            builtin_weight("example3", r0=1.0, alpha=1)
        with pytest.raises(ParameterDomainError):
            builtin_weight("nope")
        with pytest.raises(ParameterDomainError):
            builtin_weight("standard", r0=0.8)
        with pytest.raises(ParameterDomainError, match="constant weight takes no parameters"):
            builtin_weight("constant", r0=1)
        with pytest.raises(ParameterDomainError, match=r"unknown parameters \['beta'\]"):
            builtin_weight("example2", r0=0.8, beta=1)
        for kind in ("example2", "example3"):
            for alpha in (np.nan, np.inf, -np.inf):
                with pytest.raises(ParameterDomainError, match="finite alpha"):
                    builtin_weight(kind, r0=0.8, alpha=alpha)

    def test_eval_domain(self):
        w = builtin_weight("standard")
        with pytest.raises(ParameterDomainError):
            w(-0.1)
        with pytest.raises(ParameterDomainError):
            w(1.5)

    def test_vectorized(self):
        w = builtin_weight("example2", r0=0.8, alpha=1)
        np.testing.assert_allclose(w(np.array([0.0, 0.8, 0.9])), [1.0, 1.0, 0.5])

    def test_params_are_read_only(self):
        # fn and kink captured r0 = 0.8: params must not be able to say otherwise
        w = builtin_weight("example2", r0=0.8, alpha=2)
        with pytest.raises(TypeError):
            w.params["r0"] = 0.9
        assert w.params == {"r0": 0.8, "alpha": 2.0} and w.kink == 0.8
        assert w(0.85) == pytest.approx(0.5625)  # ((1 - 0.85)/(1 - 0.8))^2
        # the default is one empty mapping shared by every weight, so it is read-only too
        for plain in (builtin_weight("standard"), Weight(name="w", fn=lambda r: 1.0)):
            with pytest.raises(TypeError):
                plain.params["r0"] = 0.9
            assert plain.params == {}

    def test_tokens(self):
        assert weight_from_token("standard").name == "standard"
        w = weight_from_token("example2:r0=0.8,alpha=2")
        assert w.params == {"r0": 0.8, "alpha": 2.0}
        assert weight_from_token("example3:r0=0.75,alpha=1")(0.75) == 1.0
        with pytest.raises(ParameterDomainError):
            weight_from_token("example2:r0")
        with pytest.raises(ParameterDomainError):
            weight_from_token("example2:r0=x")
        with pytest.raises(ParameterDomainError):
            weight_from_token("gauss")
        for token in ("example2:r0=0.8,r0=0.95", "example3:r0=0.75,alpha=1, alpha =2"):
            with pytest.raises(ParameterDomainError, match="repeated"):
                weight_from_token(token)


#: the built-in weights whose slopes are checked, the examples at several (r0, alpha)
SLOPE_TOKENS = ["standard", "constant"] + [
    f"{kind}:r0={r0},alpha={alpha}" for kind in ("example2", "example3")
    for r0, alpha in ((0.7072, 1), (0.8, 2.5), (0.9413, 3.518), (0.99, 6))]


@pytest.mark.parametrize("token", SLOPE_TOKENS)
def test_slope_matches_a_central_difference_of_fn(token):
    # the slope drives every falsi polish; check it off the kink, on both sides
    w = weight_from_token(token)
    rng = np.random.default_rng(11)
    h = 1e-7
    if w.kink is None:
        rs = rng.uniform(0.05, 0.99, 20)
    else:
        gap = min(1e-2, (1.0 - w.kink) / 4.0)  # keeps r +- h off the kink and below 1
        rs = np.concatenate([rng.uniform(0.0, w.kink - gap, 10),
                             rng.uniform(w.kink + gap, 1.0 - gap, 10)])
    for r in map(float, rs):
        central = (w.fn(r + h) - w.fn(r - h)) / (2.0 * h)
        assert w.slope(r) == pytest.approx(central, rel=1e-6, abs=1e-12), (token, r)


class TestCriterionBound:
    def test_equals_one_at_anchor(self):
        for r0 in (R0_MIN, 0.75, 0.9, 1.0):
            assert criterion_bound(r0, r0) == pytest.approx(1.0, abs=1e-15)

    def test_value_at_origin_anchor_one(self):
        assert criterion_bound(0.0, 1.0) == pytest.approx(SQRT2, abs=1e-15)

    def test_branch_selection(self):
        r0 = 0.8
        r_left, r_right = 0.5, 0.9
        w1 = lambda r: 2.0 - r / r0
        w2 = lambda r: (SQRT2 * r0 + r) / (SQRT2 * r + r0)
        assert criterion_bound(r_left, r0) == pytest.approx(w2(r_left), abs=1e-15)
        assert criterion_bound(r_right, r0) == pytest.approx(w1(r_right), abs=1e-15)

    def test_domain(self):
        with pytest.raises(ParameterDomainError):
            criterion_bound(0.5, 0.5)
        with pytest.raises(ParameterDomainError):
            criterion_bound(-0.1, 0.9)


class TestCriterionCheck:
    def test_constant_passes_at_one(self):
        rep = criterion_check(builtin_weight("constant"), 1.0)
        assert rep.passed
        assert rep.worst_margin >= 0.0
        assert rep.violation_witness is None

    @pytest.mark.parametrize("kind", ["example2", "example3"])
    @pytest.mark.parametrize("r0", [0.75, 0.8, 0.9])
    @pytest.mark.parametrize("alpha", [1, 2])
    def test_example_weights_pass(self, kind, r0, alpha):
        w = builtin_weight(kind, r0=r0, alpha=alpha)
        rep = criterion_check(w, r0)
        assert rep.passed, (kind, r0, alpha, rep.worst_margin)

    @pytest.mark.parametrize("token,r0", [("example2:r0=0.8,alpha=1", 0.8),
                                          ("example3:r0=0.9413,alpha=3.518", 0.9413),
                                          ("example3:r0=0.9606,alpha=2.703", 0.9606),
                                          ("example3:r0=0.75,alpha=1", 0.75)])
    def test_passing_anchor_reports_the_zero_margin_at_r0(self, token, r0):
        # h(r0) = 1 = omega(r0)/omega(r0): the infimum of the margin is 0, at r0,
        # where the scan and its polish stop 1e-14 to 1e-12 above it
        rep = criterion_check(weight_from_token(token), r0)
        assert rep.passed and rep.worst_margin == 0.0 and rep.violation_witness is None

    def test_passing_anchor_margin_is_a_positive_zero(self, capsys):
        # the scan maximizes the negated margin; its report takes 0.0 minus that
        # maximum, so the zero margin of a passing anchor is 0.0, never -0.0,
        # and the CLI prints it as it did when the scan minimized the margin
        from blochbohr.cli import main
        rng = np.random.default_rng(38)
        anchors = [("constant", 1.0)] + [
            (f"{kind}:r0={r0!r},alpha={alpha!r}", r0)
            for kind in ("example2", "example3")
            for r0, alpha in zip(rng.uniform(R0_MIN, 0.99, 8).tolist(),
                                 rng.uniform(1.0, 12.0, 8).tolist())]
        for token, r0 in anchors:
            rep = criterion_check(weight_from_token(token), r0)
            assert rep.passed and math.copysign(1.0, rep.worst_margin) == 1.0, token
            assert main(["weight-check", "--weight", token, "--r0", repr(r0),
                         "--format", "json"]) == 0
            assert '"worst_margin": 0.0,' in capsys.readouterr().out, token

    @pytest.mark.parametrize("token,r0,witness", [("example2:r0=0.8,alpha=1", 0.75, 0.8),
                                                  ("example3:r0=0.75,alpha=1", 0.8, 0.75),
                                                  ("constant", 0.75, 1.0)])
    def test_failing_anchor_keeps_its_margin_and_witness(self, token, r0, witness):
        # the worst margin sits at a named candidate, the weight's kink or r = 1:
        # the witness is that point exactly, and the margin the float margin there
        w = weight_from_token(token)
        rep = criterion_check(w, r0)
        assert not rep.passed and rep.violation_witness == witness
        assert rep.worst_margin == criterion_bound(witness, r0) - w(witness) / w(r0)

    def test_failing_smooth_minimum_meets_mpmath(self):
        # standard at 0.9: the margin omega2(r) - (1 - r^2)/(1 - r0^2) is smooth
        # left of r0, with its minimum at the root of its slope
        # 2r/(1 - r0^2) - r0/(sqrt(2) r + r0)^2, solved by mpmath at 40 digits
        mp = pytest.importorskip("mpmath")
        r0 = 0.9
        with mp.workdps(40):
            x0, s2 = mp.mpf(r0), mp.sqrt(2)
            root = mp.findroot(lambda r: 2 * r / (1 - x0 ** 2) - x0 / (s2 * r + x0) ** 2, 0.08)
            low = (s2 * x0 + root) / (s2 * root + x0) - (1 - root ** 2) / (1 - x0 ** 2)
        rep = criterion_check(builtin_weight("standard"), r0)
        assert not rep.passed
        assert abs(rep.worst_margin - float(low)) <= 2 * math.ulp(float(low))
        assert abs(rep.violation_witness - float(root)) <= 1e-7

    @pytest.mark.parametrize("r0", [R0_MIN, 0.8, 0.9, 0.97])
    def test_standard_weight_fails_with_witness(self, r0):
        rep = criterion_check(builtin_weight("standard"), r0)
        assert not rep.passed
        assert rep.worst_margin < -1e-3
        witness = rep.violation_witness
        assert witness is not None
        w = builtin_weight("standard")
        assert w(witness) / w(r0) > criterion_bound(witness, r0)

    def test_zero_denominator(self):
        with pytest.raises(ZeroDenominatorError):
            criterion_check(builtin_weight("standard"), 1.0)

    @pytest.mark.parametrize("r0", [0.999999, 0.9999995, 1.0 - 1e-9])
    def test_anchor_past_the_scan_meets_the_limit_at_one(self, r0):
        # the scan ends at R_MAX, before (r0, 1), where h < 1; the margin's
        # limit at r = 1, h(1) - 1 = 1 - 1/r0, is its infimum
        rep = criterion_check(builtin_weight("constant"), r0)
        assert not rep.passed and rep.violation_witness == 1.0
        assert rep.worst_margin == pytest.approx(1.0 - 1.0 / r0, rel=1e-6)

    def test_infinite_limit_at_one_fails(self):
        ex2 = builtin_weight("example2", r0=0.8, alpha=1)
        assert criterion_check(ex2, 0.8).passed
        rep = criterion_check(Weight(name="undeclared", fn=ex2.fn), 0.8)
        assert not rep.passed
        assert (rep.worst_margin, rep.violation_witness) == (-np.inf, 1.0)

    def test_anchor_domain(self):
        with pytest.raises(ParameterDomainError):
            criterion_check(builtin_weight("constant"), 0.5)

    @pytest.mark.parametrize("c", [0.0, -1.0, np.inf, np.nan])
    def test_scale_must_be_positive_and_finite(self, c):
        with pytest.raises(ParameterDomainError, match="positive and finite"):
            scaled(builtin_weight("standard"), c)

    def test_positive_scaling_invariance(self):
        w = builtin_weight("example2", r0=0.8, alpha=1)
        for c in (1e-3, 0.5, 7.0, 1e3):
            assert criterion_check(scaled(w, c), 0.8).passed
        std = builtin_weight("standard")
        for c in (0.1, 10.0):
            assert not criterion_check(scaled(std, c), 0.8).passed


def _gapped(base, lo, hi):
    """``base`` with a zero on [lo, hi]: anchors there divide by zero."""
    return Weight(name="gapped", params=dict(base.params),
                  fn=lambda r: np.where((lo <= r) & (r <= hi), 0.0, base.fn(r)),
                  limit_at_one=base.limit_at_one, kink=base.kink)


#: weight tokens and the anchor the search returns: the kink, 1, or none
SWEEP_CASES = [
    ("standard", None),
    ("constant", 1.0),
    ("example2:r0=0.8,alpha=1", 0.8),
    ("example2:r0=0.75,alpha=2.5", 0.75),
    ("example2:r0=0.7071067811865476,alpha=1", 0.7071067811865476),
    ("example3:r0=0.75,alpha=1", 0.75),
    ("example3:r0=0.9,alpha=1.5", 0.9),
    ("example3:r0=0.99,alpha=4", 0.99),
    # benchmark criterion tokens of seeds 1, 5 and 7
    ("example2:r0=0.7353,alpha=1.195", 0.7353),
    ("example3:r0=0.9647,alpha=1.078", 0.9647),
    ("example2:r0=0.7587,alpha=3.697", 0.7587),
    ("example3:r0=0.9413,alpha=3.518", 0.9413),
    ("example2:r0=0.8885,alpha=3.763", 0.8885),
    ("example3:r0=0.8115,alpha=2.239", 0.8115),
]


class TestFindAdmissibleAnchor:
    def test_constant_returns_one(self):
        r0, rep = find_admissible_r0(builtin_weight("constant"))
        assert r0 == 1.0
        assert rep.passed
        # the infimum of h - 1, reached at r = 1: h(1) = 1 exactly
        assert rep.worst_margin == 0.0

    def test_standard_returns_none(self):
        assert find_admissible_r0(builtin_weight("standard")) is None

    def test_example3_recovers_its_anchor(self):
        w = builtin_weight("example3", r0=0.75, alpha=1)
        found = find_admissible_r0(w)
        assert found is not None
        r0, rep = found
        assert r0 == 0.75
        assert rep.passed
        # independent dense-grid confirmation at the nominal anchor: the margin
        # h - omega/omega(r0) from the closed forms, omega(r0) = 1
        r = np.linspace(0.0, R_MAX, DENSE)
        h = np.minimum(2.0 - r / 0.75, (SQRT2 * 0.75 + r) / (SQRT2 * r + 0.75))
        omega = 1.0 - np.abs((r - 0.75) / (1.0 - 0.75 * r))
        assert (h - omega).min() >= -CRITERION_TOL

    @pytest.mark.parametrize("w,expected", [
        *((weight_from_token(token), r0) for token, r0 in SWEEP_CASES),
        (scaled(builtin_weight("example2", r0=0.8, alpha=1), 7.0), 0.8),
        (scaled(builtin_weight("standard"), 0.1), None),
        (_gapped(builtin_weight("example2", r0=0.85, alpha=2), 0.74, 0.78), 0.85),
        (_gapped(builtin_weight("constant"), 0.9, 1.0), 1.0),
    ], ids=[token for token, _ in SWEEP_CASES]
       + ["scaled-example2", "scaled-standard", "gapped-example2", "gapped-constant"])
    def test_anchor_is_the_kink_or_one(self, w, expected):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no division by a zero anchor value
            found = find_admissible_r0(w)
        if expected is None:
            assert found is None
        else:
            assert found == (expected, criterion_check(w, expected))
            assert found[1].passed

    def test_criterion_runs_only_at_the_kink_and_one(self, monkeypatch):
        import blochbohr.weights as weights
        anchors = []
        full = weights.criterion_check
        monkeypatch.setattr(weights, "criterion_check",
                            lambda w, r0, **kw: anchors.append(r0) or full(w, r0, **kw))
        assert find_admissible_r0(builtin_weight("standard")) is None
        assert anchors == [1.0]  # no kink, and 1 - r^2 vanishes at 1
        anchors.clear()
        assert find_admissible_r0(builtin_weight("example3", r0=0.75, alpha=1))[0] == 0.75
        assert anchors == [0.75]  # the kink passes, so 1 is never tried

    def test_gapped_weight_passes_past_its_zeros(self):
        w = _gapped(builtin_weight("example2", r0=0.85, alpha=2), 0.74, 0.78)
        r0, report = find_admissible_r0(w)
        assert report.passed and r0 == 0.85 > 0.78

    def test_zero_at_the_kink_counts_as_a_fail(self, monkeypatch):
        import blochbohr.weights as weights
        w = _gapped(builtin_weight("example2", r0=0.85, alpha=2), 0.84, 0.86)
        with pytest.raises(ZeroDenominatorError):
            criterion_check(w, 0.85)
        anchors = []
        full = weights.criterion_check
        monkeypatch.setattr(weights, "criterion_check",
                            lambda w, r0, **kw: anchors.append(r0) or full(w, r0, **kw))
        assert find_admissible_r0(w) is None
        assert anchors == [0.85, 1.0]  # the division by zero moves on to 1

    @pytest.mark.parametrize("kink", [0.5, 0.7, 1.0])
    def test_kink_outside_the_anchor_range_is_not_tried(self, kink, monkeypatch):
        import blochbohr.weights as weights
        w = Weight(name="flat", fn=lambda r: np.ones_like(r, dtype=float),
                   limit_at_one=1.0, kink=kink)
        anchors = []
        full = weights.criterion_check
        monkeypatch.setattr(weights, "criterion_check",
                            lambda w, r0, **kw: anchors.append(r0) or full(w, r0, **kw))
        r0, report = find_admissible_r0(w)
        assert r0 == 1.0 and report.passed
        assert anchors == [1.0]  # tried once, even when the kink is 1 itself

    def test_undeclared_kink_is_not_found(self):
        # example2's values without its declared kink pass at 0.8, but the
        # search only tries declared kinks and 1
        ex2 = builtin_weight("example2", r0=0.8, alpha=1)
        assert criterion_check(ex2, 0.8).passed
        bare = Weight(name="bare", fn=ex2.fn, params=dict(ex2.params),
                      limit_at_one=ex2.limit_at_one)
        assert find_admissible_r0(bare) is None
        assert find_admissible_r0(ex2)[0] == 0.8

    def test_the_weight_is_the_only_parameter(self):
        import inspect
        assert list(inspect.signature(find_admissible_r0).parameters) == ["w"]

    def test_infinite_at_anchor_raises_the_same_error(self):
        w = Weight(name="spike", fn=lambda r: np.where(r < 0.8, 1.0, np.inf), kink=0.8)
        with pytest.raises(ParameterDomainError) as ref:
            criterion_check(w, 0.8)
        with pytest.raises(ParameterDomainError) as new:
            find_admissible_r0(w)
        assert str(new.value) == str(ref.value)
        assert "not finite at r0 = 0.8" in str(new.value)


def _weights(r0, alpha):
    example2 = builtin_weight("example2", r0=r0, alpha=alpha)
    return [builtin_weight("standard"), builtin_weight("constant"), example2,
            builtin_weight("example3", r0=r0, alpha=alpha), scaled(example2, 3.0)]


def _same_bits(a, b) -> bool:
    return np.float64(a).tobytes() == np.float64(b).tobytes()


unit_floats = st.floats(min_value=0.0, max_value=1.0, exclude_max=True)
anchors = st.floats(min_value=R0_MIN, max_value=0.99)
alphas = st.floats(min_value=1.0, max_value=6.0)


class TestOnlyKinksAreAdmissible:
    # h has slope -(3 - 2 sqrt(2))/r0 left of its corner and -1/r0 right of
    # it, so a weight differentiable at an anchor below 1 cannot pass there
    @pytest.mark.parametrize("pick", range(5), ids=[
        "standard", "constant", "example2", "example3", "scaled-example2"])
    @given(anchor=st.floats(min_value=R0_MIN, max_value=R_MAX), r0=anchors, alpha=alphas)
    @example(anchor=0.8 + 1e-8, r0=0.8, alpha=1.0)
    @example(anchor=0.8 - 1e-8, r0=0.8, alpha=1.0)
    @example(anchor=R0_MIN, r0=0.75, alpha=2.0)
    @example(anchor=R_MAX, r0=0.99, alpha=6.0)
    @settings(max_examples=100, deadline=None)
    def test_criterion_fails_off_the_kink(self, pick, anchor, r0, alpha):
        w = _weights(r0, alpha)[pick]
        # a constant weight fails at every anchor below 1: the margin's limit
        # at r = 1 is 1 - 1/anchor
        if w.kink is None or abs(anchor - w.kink) > 1e-9:
            assert not criterion_check(w, anchor).passed, (w.name, anchor)


class TestScalarFastPaths:
    @given(unit_floats, anchors, alphas)
    @example(x=0.8, r0=0.8, alpha=1.0)
    @example(x=0.0, r0=R0_MIN, alpha=3.5)
    @example(x=np.nextafter(1.0, 0.0), r0=0.99, alpha=6.0)
    @settings(max_examples=200, deadline=None)
    def test_weight_float_is_bit_identical_to_array(self, x, r0, alpha):
        # arrays are mapped through the float body: numpy's power loop, which
        # can round the last bit differently (x=0, r0=0.734375, alpha=3.0625
        # for example3), never sees them
        for w in _weights(r0, alpha):
            fast = w(x)
            assert type(fast) is float
            assert _same_bits(fast, w(np.asarray(x)))
            assert _same_bits(fast, w(np.array([x]))[0])
            assert _same_bits(fast, w([x])[0])

    @given(st.floats(min_value=0.0, max_value=1.0), st.floats(min_value=R0_MIN, max_value=1.0))
    @example(x=1.0, r0=1.0)
    @example(x=0.8, r0=0.8)
    @example(x=0.0, r0=R0_MIN)
    @settings(max_examples=300, deadline=None)
    def test_criterion_bound_float_is_bit_identical_to_array(self, x, r0):
        fast = criterion_bound(x, r0)
        assert type(fast) is float
        assert _same_bits(fast, criterion_bound(np.asarray(x), r0))
        assert _same_bits(fast, criterion_bound(np.array([x]), r0)[0])

    def test_edge_radii_keep_their_results(self):
        for w in _weights(0.8, 2.0):
            assert w(1.0) == w.limit_at_one
            for bad in (-1e-300, -0.5, 1.0 + 1e-12, 2.0, np.inf, np.nan,
                        np.array([0.5, np.nan])):
                with pytest.raises(ParameterDomainError, match="is defined on"):
                    w(bad)
        with pytest.raises(ParameterDomainError, match="no finite limit"):
            Weight(name="open", fn=lambda r: 1.0 / (1.0 - r))(1.0)
        assert criterion_bound(1.0, 0.8) == 2.0 - 1.0 / 0.8
        for bad in (-1e-300, -0.5, 1.0 + 1e-12, np.inf, np.nan, np.array([0.5, np.nan])):
            with pytest.raises(ParameterDomainError, match="evaluated on"):
                criterion_bound(bad, 0.8)


class TestHProfile:
    def test_anchor_row_is_all_ones(self):
        table = np.asarray(h_profile(0.8, n_points=257))
        i = int(np.argmin(np.abs(table[:, 0] - 0.8)))
        np.testing.assert_allclose(table[i], [0.8, 1.0, 1.0, 1.0], atol=1e-12)

    def test_second_bound_at_origin(self):
        for r0 in (0.75, 0.9, 1.0):
            table = np.asarray(h_profile(r0, n_points=64))
            assert table[0, 2] == pytest.approx(SQRT2, abs=1e-14)

    def test_h_decreasing_and_convex_left_of_anchor(self):
        r0 = 0.8
        table = np.asarray(h_profile(r0, n_points=2048))
        r, h = table[:, 0], table[:, 3]
        assert np.all(np.diff(h) <= 1e-15)
        left = r < r0
        rl, hl = r[left], h[left]
        slopes = np.diff(hl) / np.diff(rl)
        second = np.diff(slopes) / (rl[2:] - rl[:-2])
        assert np.all(second >= -1e-9)

    def test_grid_ends_where_radial_scans_end(self):
        assert np.asarray(h_profile(0.8, n_points=3))[:, 0].tolist() == [0.0, 0.4999995, 0.8, 1.0 - 1e-6]
        # an anchor beyond the grid end adds no row
        assert np.asarray(h_profile(1.0, n_points=3))[:, 0].tolist() == [0.0, 0.4999995, 1.0 - 1e-6]

    def test_column_order(self):
        table = np.asarray(h_profile(0.9, n_points=16))
        np.testing.assert_allclose(table[:, 3],
                                   np.minimum(table[:, 1], table[:, 2]), atol=0)
        assert table.shape[1] == 4
