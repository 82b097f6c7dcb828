"""The interval primitive: enclosures of the float bodies, comparisons that
answer only when decided, and a branch-and-bound grid scan that finds what the
full list scan finds, bit for bit."""

import math
import random

import numpy as np
import pytest

from blochbohr import Weight, builtin_weight, criterion_check, verify_sharpness
from blochbohr import extremal, interval, search, weights
from blochbohr.errors import BlochBohrError
from blochbohr.interval import Interval, Undecided, grid_best
from blochbohr.search import R_MAX, grid
from blochbohr.weights import R0_MIN
from conftest import hand_built


def random_weight(rng: random.Random) -> Weight:
    kind = rng.choice(["standard", "constant", "example2", "example3"])
    if kind in ("standard", "constant"):
        return builtin_weight(kind)
    return builtin_weight(kind, r0=rng.uniform(R0_MIN, 0.99), alpha=rng.uniform(1.0, 12.0))


def random_anchor(rng: random.Random, w: Weight) -> float:
    return rng.choice([1.0, rng.uniform(R0_MIN, 1.0)] + ([w.kink] * 2 if w.kink else []))


@pytest.fixture
def scans(monkeypatch):
    """Every scan the criterion and sharpness run, as (body, grid), each
    checked against the full list scan before it returns."""
    seen = []

    def both(f, xs, values=None, **kw):
        assert values is None
        seen.append((f, xs))
        full = search.scan_polish(f, xs, list(map(f, xs)), **kw)
        got = search.scan_polish(f, xs, **kw)
        assert list(map(repr, got)) == list(map(repr, full))
        return got

    monkeypatch.setattr(weights, "scan_polish", both)
    monkeypatch.setattr(extremal, "scan_polish", both)
    return seen


def run_both(w: Weight, r0: float):
    """criterion_check, then verify_sharpness when the criterion passes."""
    try:
        if criterion_check(w, r0).passed:
            verify_sharpness(w, r0)
    except BlochBohrError:
        pass


def sample_box(rng: random.Random):
    """A box in [0, R_MAX], narrow or wide, and floats in it, its ends included."""
    lo = rng.uniform(0.0, R_MAX)
    hi = min(R_MAX, lo + 10.0 ** rng.uniform(-9.0, 0.0))
    return Interval(lo, hi), [lo, hi] + [rng.uniform(lo, hi) for _ in range(8)]


def encloses(body, box, xs) -> bool:
    """Each float body(x) lies in body(box); a box the body cannot take is no claim."""
    try:
        out = body(box)
    except (Undecided, TypeError, ValueError, ArithmeticError, BlochBohrError):
        return True
    lo, hi = (out.lo, out.hi) if isinstance(out, Interval) else (out, out)
    return all(lo <= body(x) <= hi for x in xs)


class TestEnclosure:
    def test_weight_bodies(self):
        rng = random.Random(1)
        for _ in range(400):
            w = random_weight(rng)
            box, xs = sample_box(rng)
            assert encloses(w.fn, box, xs), (w, box)

    def test_power(self):
        rng = random.Random(2)
        for _ in range(400):
            alpha = rng.uniform(1.0, 12.0)
            box, xs = sample_box(rng)
            assert encloses(lambda x: x ** alpha, box, xs), (alpha, box)
            assert encloses(lambda x: (1.0 - x) ** alpha, box, xs), (alpha, box)

    def test_margin_and_both_sharpness_sides(self, scans):
        rng = random.Random(3)
        for _ in range(60):
            w = random_weight(rng)
            run_both(w, random_anchor(rng, w))
        assert len({body for body, _ in scans}) >= 40
        for body, _ in scans:
            for _ in range(10):
                box, xs = sample_box(rng)
                assert encloses(body, box, xs), box

    def test_arithmetic_ends(self):
        a, b = Interval(-2.0, 3.0), Interval(0.5, 4.0)
        assert (a * b).lo == -8.0 and (a * b).hi == 12.0
        assert (a / b).lo == -4.0 and (a / b).hi == 6.0
        assert (1.0 - a).lo == -2.0 and (1.0 - a).hi == 3.0
        assert abs(a).lo == 0.0 and abs(a).hi == 3.0
        with pytest.raises(Undecided):
            b / a  # a divisor box holding 0
        with pytest.raises(Undecided):
            a ** 1.5  # a negative base
        with pytest.raises(Undecided):
            Interval(1.0, 0.0)
        with pytest.raises(Undecided):
            Interval(math.nan, 1.0)
        with pytest.raises(Undecided):
            Interval(0.0, math.inf) * 0.0  # 0 * inf is NaN


class TestComparisons:
    @pytest.mark.parametrize("op", ["<", "<=", ">", ">=", "==", "!="])
    def test_overlap_is_undecided(self, op):
        for other in (Interval(0.5, 2.0), 0.5):
            with pytest.raises(Undecided):
                eval(f"box {op} other", {"box": Interval(0.0, 1.0), "other": other})

    def test_decided_answers(self):
        box = Interval(0.0, 1.0)
        assert box < 2.0 and box <= 1.0 and not box > 1.0 and not box >= 1.5
        assert 2.0 > box and -1.0 < box and not 1.5 <= box
        assert (box == 3.0) is False and (box != 3.0) is True
        point = Interval(0.5, 0.5)
        assert point == 0.5 and not point != 0.5 and point == Interval(0.5, 0.5)
        assert min(Interval(2.0, 3.0), box) is box and max(Interval(2.0, 3.0), box).lo == 2.0

    @pytest.mark.parametrize("op", ["<", "<=", ">", ">=", "+", "-", "*", "/"])
    def test_operands_floats_do_not_take_are_refused(self, op):
        # a str is neither a box nor a number: the operator returns
        # NotImplemented either way round, and Python ends in TypeError
        box = Interval(0.0, 1.0)
        for expr in (f"box {op} other", f"other {op} box"):
            with pytest.raises(TypeError):
                eval(expr, {"box": box, "other": "0.5"})
        # == and != fall back to identity
        assert (box == "0.5") is False and (box != "0.5") is True

    def test_repr(self):
        assert repr(Interval(0.25, 1.0)) == "Interval(0.25, 1.0)"
        assert repr(Interval(-0.0, 0.0)) == "Interval(-0.0, 0.0)"

    def test_no_truth_value_number_or_hash(self):
        box = Interval(0.0, 1.0)
        for convert in (bool, float, int, hash, round, math.exp, math.floor, range):
            with pytest.raises(TypeError):
                convert(box)
        with pytest.raises(TypeError):
            np.exp(box)
        with pytest.raises(TypeError):
            box ** Interval(1.0, 2.0)


class TestScan:
    def test_seeded_builtin_weights_match_the_list_scan(self, scans):
        rng = random.Random(4)
        for _ in range(300):
            w = random_weight(rng)
            run_both(w, random_anchor(rng, w))
        assert len(scans) >= 400

    @pytest.mark.parametrize("name", list(hand_built(grid(0.0, R_MAX, 10_000))))
    def test_hand_built_weights_match_the_list_scan(self, scans, name):
        rs = grid(0.0, R_MAX, 10_000)
        w = Weight(name, hand_built(rs)[name], limit_at_one=0.0, kink=0.8)
        for r0 in (0.8, 0.9, 1.0):
            run_both(w, r0)
        for body, xs in scans:
            vals = list(map(body, xs))
            i = vals.index(max(vals))
            assert repr(grid_best(body, xs)) == repr((i, vals[i]))

    def test_a_single_grid_point_is_found(self):
        rs = grid(0.0, R_MAX, 10_000)
        f = lambda r: 1.0 if r == rs[9000] else 0.0
        assert grid_best(f, rs) == (9000, 1.0)
        # the least value of g = -f, as the greatest of -g
        g = lambda r: -f(r)
        i, v = grid_best(lambda r: -g(r), rs)
        assert (i, -v) == (9000, -1.0)

    def test_ties_go_to_the_first_index(self):
        xs = grid(0.0, R_MAX, 1000)
        # the tie at index 700 is found first, since no box holding it decides
        # r == xs[700], and the one at 0 still wins
        assert grid_best(lambda r: 1.0 if r == xs[700] or r < xs[100] else 0.5,
                         xs) == (0, 1.0)
        assert grid_best(lambda r: 0.0 if r < 0.3 else -0.0, xs) == (0, 0.0)
        assert repr(grid_best(lambda r: -0.0 if r < 0.3 else 0.0, xs)) == "(0, -0.0)"
        assert grid_best(lambda r: min(r, 0.5), xs)[0] == xs.index(min(x for x in xs if x >= 0.5))

    def test_nan_values_rank_as_the_list_does(self):
        xs = grid(0.0, R_MAX, 100)
        f = lambda r: math.nan if r > 0.5 else r
        vals = list(map(f, xs))
        assert grid_best(f, xs) == (vals.index(max(vals)), max(vals))

    def test_builtin_scans_evaluate_few_points(self, monkeypatch):
        # a 10 000-point scan of the built-in weights' bodies evaluates the body
        # at fewer than 300 grid points; the full scan evaluated all 10 000
        counts = []
        real = interval.grid_best

        def counting(f, xs):
            points = []
            counts.append(points)

            def counted(x):
                if not isinstance(x, Interval):
                    points.append(x)
                return f(x)
            return real(counted, xs)

        monkeypatch.setattr(interval, "grid_best", counting)
        rng = random.Random(5)
        for _ in range(100):
            w = random_weight(rng)
            run_both(w, random_anchor(rng, w))
        assert len(counts) >= 100
        assert max(map(len, counts)) < 300
