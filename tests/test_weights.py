import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blochbohr import (ParameterDomainError, Weight, ZeroDenominatorError,
                       builtin_weight, criterion_bound, criterion_check,
                       find_admissible_r0, h_profile, weight_from_token)
from blochbohr.search import bisect_flag
from blochbohr.weights import CRITERION_R_POINTS

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
        for points in (500, 2000, 10_000):
            rep = criterion_check(builtin_weight("constant"), 1.0, r_points=points)
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

    def test_anchor_domain(self):
        with pytest.raises(ParameterDomainError):
            criterion_check(builtin_weight("constant"), 0.5)

    @pytest.mark.parametrize("tol", [-1.0, -1e-15, np.nan, -np.inf])
    def test_tolerance_domain(self, tol):
        for kind in ("standard", "constant"):
            w = builtin_weight(kind)
            with pytest.raises(ParameterDomainError, match="tolerance"):
                criterion_check(w, 0.8, tol=tol)
            with pytest.raises(ParameterDomainError, match="tolerance"):
                find_admissible_r0(w, tol=tol)

    @pytest.mark.parametrize("c", [0.0, -1.0, np.inf, np.nan])
    def test_scale_must_be_positive_and_finite(self, c):
        with pytest.raises(ParameterDomainError, match="positive and finite"):
            builtin_weight("standard").scaled(c)

    def test_positive_scaling_invariance(self):
        w = builtin_weight("example2", r0=0.8, alpha=1)
        for c in (1e-3, 0.5, 7.0, 1e3):
            assert criterion_check(w.scaled(c), 0.8).passed
        std = builtin_weight("standard")
        for c in (0.1, 10.0):
            assert not criterion_check(std.scaled(c), 0.8).passed


class TestFindAdmissibleAnchor:
    def test_constant_returns_one(self):
        r0, rep = find_admissible_r0(builtin_weight("constant"))
        assert abs(r0 - 1.0) < 1e-5
        assert rep.passed

    def test_standard_returns_none(self):
        assert find_admissible_r0(builtin_weight("standard")) is None

    def test_example3_recovers_its_anchor(self):
        w = builtin_weight("example3", r0=0.75, alpha=1)
        found = find_admissible_r0(w)
        assert found is not None
        r0, rep = found
        assert abs(r0 - 0.75) < 1e-6
        assert rep.passed
        # independent dense-grid confirmation at the nominal anchor
        dense = criterion_check(w, 0.75, r_points=DENSE)
        assert dense.passed


def full_check_sweep(w, r_points=CRITERION_R_POINTS, tol=1e-12):
    """Reference anchor search: ``criterion_check`` at every candidate and
    bisection midpoint, with no grid pre-rejection.  ``find_admissible_r0``
    must return exactly the same (r0, report)."""
    candidates = np.linspace(R0_MIN, 1.0, 100)
    own = w.params.get("r0")
    if own is not None and R0_MIN - 1e-12 <= own <= 1.0:
        candidates = np.union1d(candidates, [float(own)])

    def check(r0):
        try:
            report = criterion_check(w, r0, r_points=r_points, tol=tol)
        except ZeroDenominatorError:
            return None
        return report if report.passed else None

    previous_fail = None
    for r0 in candidates:
        report = check(float(r0))
        if report is None:
            previous_fail = float(r0)
            continue
        if previous_fail is None:
            return float(r0), report
        return bisect_flag(check, previous_fail, float(r0), report, 1e-12, 60)
    return None


def _gapped(base, lo, hi):
    """``base`` with a zero on [lo, hi]: anchors there divide by zero."""
    return Weight(name="gapped", params=dict(base.params),
                  fn=lambda r: np.where((lo <= r) & (r <= hi), 0.0, base.fn(r)),
                  limit_at_one=base.limit_at_one)


SWEEP_CASES = [
    ("standard", {}),
    ("constant", {}),
    ("example2:r0=0.8,alpha=1", {}),
    ("example2:r0=0.75,alpha=2.5", {}),
    ("example2:r0=0.7071067811865476,alpha=1", {}),
    ("example3:r0=0.75,alpha=1", {}),
    ("example3:r0=0.9,alpha=1.5", {}),
    ("example3:r0=0.99,alpha=4", {}),
    # benchmark criterion tokens of seeds 1, 5 and 7
    ("example2:r0=0.7353,alpha=1.195", {}),
    ("example3:r0=0.9647,alpha=1.078", {}),
    ("example2:r0=0.7587,alpha=3.697", {}),
    ("example3:r0=0.9413,alpha=3.518", {}),
    ("example2:r0=0.8885,alpha=3.763", {}),
    ("example3:r0=0.8115,alpha=2.239", {}),
    # other grids and tolerances move which anchors fail on the grid
    ("constant", {"r_points": 50}),
    ("example2:r0=0.8,alpha=1", {"r_points": 37}),
    ("example3:r0=0.75,alpha=1", {"tol": 1e-3}),
    ("example2:r0=0.8,alpha=2", {"tol": 0.0}),
    ("standard", {"tol": 0.5}),
]


class TestAnchorSweepMatchesFullCheck:
    @pytest.mark.parametrize("token,kwargs", SWEEP_CASES,
                             ids=[f"{t}-{sorted(k)}" for t, k in SWEEP_CASES])
    def test_builtin(self, token, kwargs):
        w = weight_from_token(token)
        assert find_admissible_r0(w, **kwargs) == full_check_sweep(w, **kwargs)

    @pytest.mark.parametrize("w", [
        builtin_weight("example2", r0=0.8, alpha=1).scaled(7.0),
        builtin_weight("standard").scaled(0.1),
        _gapped(builtin_weight("example2", r0=0.85, alpha=2), 0.74, 0.78),
        _gapped(builtin_weight("constant"), 0.9, 1.0),
    ], ids=["scaled-example2", "scaled-standard", "gapped-example2", "gapped-constant"])
    def test_scaled_and_vanishing(self, w):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no division by a zero anchor value
            found = find_admissible_r0(w)
        assert found == full_check_sweep(w)

    def test_grid_failures_skip_the_full_check(self, monkeypatch):
        import blochbohr.weights as weights
        anchors = []
        full = weights.criterion_check
        monkeypatch.setattr(weights, "criterion_check",
                            lambda w, r0, **kw: anchors.append(r0) or full(w, r0, **kw))
        assert find_admissible_r0(builtin_weight("standard")) is None
        assert anchors == [1.0]  # the one anchor where 1 - r^2 vanishes
        anchors.clear()
        r0, _ = find_admissible_r0(builtin_weight("example3", r0=0.75, alpha=1))
        # the failing candidates below 0.75 never reach the full check; only
        # the passing anchor and bisection midpoints close to it do
        assert anchors[0] == r0 == 0.75
        assert min(anchors) > 0.75 - 1e-4

    def test_gapped_weight_passes_past_its_zeros(self):
        w = _gapped(builtin_weight("example2", r0=0.85, alpha=2), 0.74, 0.78)
        r0, report = find_admissible_r0(w)
        assert report.passed and r0 > 0.78

    def test_infinite_at_anchor_raises_the_same_error(self):
        w = Weight(name="spike", fn=lambda r: np.where(r < 0.8, 1.0, np.inf))
        with pytest.raises(ParameterDomainError) as ref:
            full_check_sweep(w)
        with pytest.raises(ParameterDomainError) as new:
            find_admissible_r0(w)
        assert str(new.value) == str(ref.value)
        assert "not finite" in str(new.value)


def _weights(r0, alpha):
    example2 = builtin_weight("example2", r0=r0, alpha=alpha)
    return [builtin_weight("standard"), builtin_weight("constant"), example2,
            builtin_weight("example3", r0=r0, alpha=alpha), example2.scaled(3.0)]


unit_floats = st.floats(min_value=0.0, max_value=1.0, exclude_max=True)
anchors = st.floats(min_value=R0_MIN, max_value=0.99)
alphas = st.floats(min_value=1.0, max_value=6.0)


class TestScalarFastPaths:
    @given(unit_floats, anchors, alphas)
    @example(x=0.8, r0=0.8, alpha=1.0)
    @example(x=0.0, r0=R0_MIN, alpha=3.5)
    @example(x=np.nextafter(1.0, 0.0), r0=0.99, alpha=6.0)
    @settings(max_examples=200, deadline=None)
    def test_weight_float_is_bit_identical_to_array(self, x, r0, alpha):
        for w in _weights(r0, alpha):
            fast = w(x)
            assert type(fast) is float
            # the fast path's reference is the 0-d array: numpy's power loop
            # for a 1-element array may round differently (x=0, r0=0.734375,
            # alpha=3.0625 differs in the last bit for example3)
            assert fast == w(np.asarray(x))

    @given(st.floats(min_value=0.0, max_value=1.0), st.floats(min_value=R0_MIN, max_value=1.0))
    @example(x=1.0, r0=1.0)
    @example(x=0.8, r0=0.8)
    @example(x=0.0, r0=R0_MIN)
    @settings(max_examples=300, deadline=None)
    def test_criterion_bound_float_is_bit_identical_to_array(self, x, r0):
        fast = criterion_bound(x, r0)
        assert type(fast) is float
        assert fast == criterion_bound(np.asarray(x), r0)
        assert fast == criterion_bound(np.array([x]), r0)[0]

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
        table = h_profile(0.8, n_points=257)
        i = int(np.argmin(np.abs(table[:, 0] - 0.8)))
        np.testing.assert_allclose(table[i], [0.8, 1.0, 1.0, 1.0], atol=1e-12)

    def test_second_bound_at_origin(self):
        for r0 in (0.75, 0.9, 1.0):
            table = h_profile(r0, n_points=64)
            assert table[0, 2] == pytest.approx(SQRT2, abs=1e-14)

    def test_h_decreasing_and_convex_left_of_anchor(self):
        r0 = 0.8
        table = h_profile(r0, n_points=2048)
        r, h = table[:, 0], table[:, 3]
        assert np.all(np.diff(h) <= 1e-15)
        left = r < r0
        rl, hl = r[left], h[left]
        slopes = np.diff(hl) / np.diff(rl)
        second = np.diff(slopes) / (rl[2:] - rl[:-2])
        assert np.all(second >= -1e-9)

    def test_grid_ends_where_radial_scans_end(self):
        assert h_profile(0.8, n_points=3)[:, 0].tolist() == [0.0, 0.4999995, 0.8, 1.0 - 1e-6]
        # an anchor beyond the grid end adds no row
        assert h_profile(1.0, n_points=3)[:, 0].tolist() == [0.0, 0.4999995, 1.0 - 1e-6]

    def test_column_order(self):
        table = h_profile(0.9, n_points=16)
        np.testing.assert_allclose(table[:, 3],
                                   np.minimum(table[:, 1], table[:, 2]), atol=0)
        assert table.shape[1] == 4
