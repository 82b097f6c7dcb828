"""Float boxes, and the exact extremum of a body on a grid by branch-and-bound.

An ``Interval`` [lo, hi] bounds the float a body written on floats returns
anywhere in a box, not the real value: IEEE round-to-nearest is monotone, so
``+``, ``-``, ``*``, ``/`` (by a box without 0), ``abs`` and unary ``-`` taken
at the ends bound every rounded result inside, with no outward rounding.  libm's
``pow`` need not be correctly rounded, so ``**`` is widened by 2 ulps each side
(interval analysis after Moore, 1966).  A comparison answers only when the boxes
decide it and raises ``Undecided`` otherwise; ``if box:`` raises ``TypeError``, and
with no ``__float__``, ``__index__`` or ``__hash__`` so does ``math.exp(box)``.
It imports only ``errors``, and loads when ``search.scan_polish`` runs a box scan.
"""

from __future__ import annotations

import math
from heapq import heappop, heappush

from .errors import BlochBohrError

#: a range of at most this many grid points is evaluated point by point
LEAF = 4


class Undecided(Exception):
    """The boxes do not decide a comparison, or an operation would leave floats."""


def _ends(x):
    """(lo, hi) of an Interval or a number; None for what floats do not take."""
    if isinstance(x, Interval):
        return x.lo, x.hi
    if isinstance(x, (int, float)):
        x = float(x)
        return x, x
    return None


def _hull(a: float, b: float, c: float, d: float) -> Interval:
    if a + b + c + d != a + b + c + d:  # a NaN corner (or opposite infinities)
        raise Undecided("no box holds a NaN")
    return Interval(min(a, b, c, d), max(a, b, c, d))


def _compare(decide):
    """A comparison: ``decide(lo, hi, other_lo, other_hi)`` gives (always, never),
    and the comparison answers True or False only where one of them holds."""
    def compare(self, other):
        b = _ends(other)
        if b is None:
            return NotImplemented
        always, never = decide(self.lo, self.hi, *b)
        if always or never:
            return always
        raise Undecided("the boxes do not decide the comparison")
    return compare


class Interval:
    """The floats from ``lo`` to ``hi``; operators enclose float evaluation."""

    __slots__ = ("lo", "hi")
    __array_ufunc__ = None  # numpy defers to the reflected operator, or raises TypeError

    def __init__(self, lo: float, hi: float):
        if not lo <= hi:
            raise Undecided("a box needs lo <= hi, neither a NaN")
        self.lo, self.hi = lo, hi

    def __repr__(self) -> str:
        return f"Interval({self.lo!r}, {self.hi!r})"

    def __bool__(self):
        raise TypeError("a box has no truth value")

    def __add__(self, other):
        b = _ends(other)
        return NotImplemented if b is None else Interval(self.lo + b[0], self.hi + b[1])

    __radd__ = __add__

    def __sub__(self, other):
        b = _ends(other)
        return NotImplemented if b is None else Interval(self.lo - b[1], self.hi - b[0])

    def __rsub__(self, other):
        b = _ends(other)
        return NotImplemented if b is None else Interval(b[0] - self.hi, b[1] - self.lo)

    def __mul__(self, other):
        b = _ends(other)
        if b is None:
            return NotImplemented
        return _hull(self.lo * b[0], self.lo * b[1], self.hi * b[0], self.hi * b[1])

    __rmul__ = __mul__

    def __truediv__(self, other):
        b = _ends(other)
        if b is None:
            return NotImplemented
        if b[0] <= 0.0 <= b[1]:
            raise Undecided("the divisor box holds 0")
        return _hull(self.lo / b[0], self.lo / b[1], self.hi / b[0], self.hi / b[1])

    def __rtruediv__(self, other):
        b = _ends(other)
        return NotImplemented if b is None else Interval(*b) / self

    def __pow__(self, p):
        if not isinstance(p, (int, float)):
            return NotImplemented
        if not (self.lo > 0.0 or self.lo >= 0.0 <= p):  # no negative base, no 0 ** -p
            raise Undecided("the power leaves the positive reals")
        lo, hi = sorted((self.lo ** p, self.hi ** p))
        return Interval(_ulps(lo, -math.inf), _ulps(hi, math.inf))

    def __neg__(self):
        return Interval(-self.hi, -self.lo)

    def __abs__(self):
        if self.lo >= 0.0:
            return self
        if self.hi <= 0.0:
            return -self
        return Interval(0.0, max(-self.lo, self.hi))

    __lt__ = _compare(lambda lo, hi, blo, bhi: (hi < blo, lo >= bhi))
    __le__ = _compare(lambda lo, hi, blo, bhi: (hi <= blo, lo > bhi))
    __gt__ = _compare(lambda lo, hi, blo, bhi: (lo > bhi, hi <= blo))
    __ge__ = _compare(lambda lo, hi, blo, bhi: (lo >= bhi, hi < blo))
    # != inverts ==, so it raises where == does
    __eq__ = _compare(lambda lo, hi, blo, bhi: (lo == hi == blo == bhi, hi < blo or bhi < lo))


def _ulps(x: float, toward: float) -> float:
    """x moved 2 ulps toward ``toward``."""
    return math.nextafter(math.nextafter(x, toward), toward)


def grid_best(f, xs) -> tuple:
    """(i, f(xs[i])) for the first i of the greatest value of f on the
    ascending grid ``xs``, as ``list(map(f, xs))`` gives them.

    Best first over index ranges: f on the Interval spanning a range bounds its
    points, and a range is dropped once none of them can beat the best value
    evaluated, or tie it at a smaller index.  A range whose body raises or returns
    neither a number nor an Interval is split; one of at most ``LEAF`` points is
    evaluated point by point.  After a NaN value the whole list decides.
    """
    def bound(i: int, j: int):  # a lower bound of -f on xs[i:j], or -inf
        try:
            v = f(Interval(float(xs[i]), float(xs[j - 1])))
        except (Undecided, TypeError, ValueError, ArithmeticError, BlochBohrError):
            return -math.inf
        if isinstance(v, Interval):
            return -v.hi
        if isinstance(v, (int, float)) and v == v:
            return -v
        return -math.inf

    best = None  # (-value, i, value)
    heap = [(-math.inf, 0, len(xs))]
    while heap:
        key, i, j = heappop(heap)
        if best is not None and (key, i) > best[:2]:
            break
        if j - i > LEAF:
            m = (i + j) // 2
            heappush(heap, (bound(i, m), i, m))
            heappush(heap, (bound(m, j), m, j))
            continue
        for k in range(i, j):
            v = f(xs[k])
            if v != v:
                vals = list(map(f, xs))
                k = vals.index(max(vals))
                return k, vals[k]
            point = (-v, k, v)
            if best is None or point[:2] < best[:2]:
                best = point
    return best[1], best[2]
