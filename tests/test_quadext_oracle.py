"""QuadExt on an integer triple against the Fraction-pair class it replaced.

``PairQuadExt`` is a copy of the old class: a and b held as two Fractions,
every result rebuilt through the public constructor.  Hypothesis draws
values over d in {-3, -1, 2, 5} with small and large numerators and
denominators, and every operation must agree with the copy by value, by
the ``type()`` of the result and of its ``.a``/``.b``, and by the exception
it raises.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from altforms.scalars import QuadExt, demote, scalar_to_json


class PairQuadExt:
    __slots__ = ("a", "b", "d")

    def __init__(self, a, b=0, d=None):
        if type(d) is not int or d not in DS:
            raise ValueError(f"invalid quadratic extension discriminant: {d!r}")
        object.__setattr__(self, "a", Fraction(a))
        object.__setattr__(self, "b", Fraction(b))
        object.__setattr__(self, "d", d)

    def __setattr__(self, name, value):
        raise AttributeError("QuadExt is immutable")

    def _coerce(self, other):
        if isinstance(other, PairQuadExt):
            if other.d != self.d:
                raise ValueError(f"mixing sqrt({self.d}) with sqrt({other.d})")
            return other
        if isinstance(other, (int, Fraction)):
            return PairQuadExt(other, 0, self.d)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return PairQuadExt(self.a + o.a, self.b + o.b, self.d)

    __radd__ = __add__

    def __neg__(self):
        return PairQuadExt(-self.a, -self.b, self.d)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return PairQuadExt(self.a - o.a, self.b - o.b, self.d)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return PairQuadExt(o.a - self.a, o.b - self.b, self.d)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return PairQuadExt(self.a * o.a + self.d * self.b * o.b,
                           self.a * o.b + self.b * o.a, self.d)

    __rmul__ = __mul__

    def inverse(self):
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("division by zero in QuadExt")
        return PairQuadExt(self.a / n, -self.b / n, self.d)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        out = PairQuadExt(1, 0, self.d)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, PairQuadExt):
            return self.d == other.d and self.a == other.a and self.b == other.b
        if isinstance(other, (int, Fraction)):
            return self.b == 0 and self.a == other
        return NotImplemented

    def __bool__(self):
        return self.a != 0 or self.b != 0

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.d))

    def conjugate(self):
        return PairQuadExt(self.a, -self.b, self.d)

    def norm(self):
        return self.a * self.a - self.d * self.b * self.b

    @property
    def is_rational(self):
        return self.b == 0

    def __float__(self):
        if self.b == 0:
            return float(self.a)
        if self.d < 0:
            raise ValueError("imaginary quadratic value has no float image")
        return float(self.a) + float(self.b) * math.sqrt(self.d)

    def __repr__(self):
        return f"QuadExt({self.a}, {self.b}, d={self.d})"


DS = (-3, -1, 2, 5)
SETTINGS = settings(max_examples=150, deadline=None, database=None)

ints = st.one_of(st.integers(-6, 6), st.integers(-10 ** 30, 10 ** 30))
rationals = st.builds(Fraction, ints, st.one_of(st.integers(1, 12),
                                                 st.integers(1, 10 ** 20)))
parts = st.one_of(ints, rationals, st.just(0))


@st.composite
def pairs(draw, d=None):
    """(new, old) QuadExt of the same value; b is often 0, so rational values occur."""
    d = d if d is not None else draw(st.sampled_from(DS))
    a = draw(parts)
    b = draw(st.one_of(st.just(0), parts))
    return QuadExt(a, b, d), PairQuadExt(a, b, d)


def outcome(f, *args):
    """f(*args), or the type and message of what it raises."""
    try:
        return f(*args)
    except (ZeroDivisionError, ValueError, TypeError) as exc:
        return (type(exc), str(exc))


def agree(new, old):
    """new (a QuadExt op result) against old (the PairQuadExt one)."""
    if isinstance(old, tuple):  # both raised
        assert new == old
        return
    if isinstance(old, PairQuadExt):
        assert type(new) is QuadExt
        assert (new.a, new.b, new.d) == (old.a, old.b, old.d)
        assert type(new.a) is Fraction and type(new.b) is Fraction
        assert repr(new) == repr(old)
        if old.b == 0:  # a rational value hashes as its Fraction
            assert hash(new) == hash(old) == hash(old.a)
        return
    assert type(new) is type(old) and new == old


OPS = (lambda x, y: x + y, lambda x, y: x - y, lambda x, y: x * y, lambda x, y: x / y)


@SETTINGS
@given(st.sampled_from(DS).flatmap(lambda d: st.tuples(pairs(d), pairs(d))))
def test_binary_operations(xy):
    (x, x0), (y, y0) = xy
    for op in OPS:
        agree(outcome(op, x, y), outcome(op, x0, y0))


@SETTINGS
@given(pairs(), parts)
def test_operations_with_int_and_fraction_on_either_side(xx, q):
    x, x0 = xx
    for q in (q, Fraction(q)):
        for op in OPS:
            agree(outcome(op, x, q), outcome(op, x0, q))
            agree(outcome(op, q, x), outcome(op, q, x0))


@SETTINGS
@given(pairs(), st.integers(0, 7))
def test_unary_operations(xx, n):
    x, x0 = xx
    agree(-x, -x0)
    agree(x.conjugate(), x0.conjugate())
    agree(outcome(x.inverse), outcome(x0.inverse))
    agree(x.norm(), x0.norm())
    agree(x ** n, x0 ** n)
    agree(outcome(float, x), outcome(float, x0))
    assert bool(x) is bool(x0)
    assert x.is_rational is x0.is_rational
    assert repr(x) == repr(x0)
    assert scalar_to_json(x) == {"a": scalar_to_json(x0.a), "b": scalar_to_json(x0.b),
                                 "d": x0.d}
    agree(demote(x), x0.a if x0.b == 0 else x0)


@SETTINGS
@given(pairs(), parts)
def test_equality_and_hash_with_rationals(xx, q):
    x, x0 = xx
    q = Fraction(q)
    r = QuadExt(q, 0, x.d)
    assert r == q and q == r and hash(r) == hash(q)
    if q.denominator == 1:
        assert r == q.numerator and hash(r) == hash(q.numerator)
    assert (x == q) is (x0 == q) and (q == x) is (q == x0)
    assert (x != q) is (x0 != q)
    assert (x == 1.5) is False and (x != 1.5) is True
    assert (x == QuadExt(x.a, x.b, x.d)) and hash(x) == hash(QuadExt(x.a, x.b, x.d))


@SETTINGS
@given(pairs())
def test_zero_division(xx):
    x, x0 = xx
    zero = QuadExt(0, 0, x.d)
    for y in (0, Fraction(0), zero):
        with pytest.raises(ZeroDivisionError, match="division by zero in QuadExt"):
            x / y
    for f in (zero.inverse, lambda: 1 / zero, lambda: Fraction(1, 2) / zero, lambda: x / zero):
        with pytest.raises(ZeroDivisionError, match="division by zero in QuadExt"):
            f()


@SETTINGS
@given(pairs(d=2), pairs(d=-3))
def test_mixing_two_fields_raises(xx, yy):
    (x, _), (y, _) = xx, yy
    for op in OPS:
        with pytest.raises(ValueError, match=r"mixing sqrt\(2\) with sqrt\(-3\)"):
            op(x, y)
    assert (x == y) is False and (x != y) is True


def test_immutability_and_the_constructor_checks():
    x = QuadExt(Fraction(1, 2), 3, 5)
    for name in ("a", "b", "d", "_A", "other"):
        with pytest.raises(AttributeError):
            setattr(x, name, 1)
    assert (x.a, x.b, x.d) == (Fraction(1, 2), Fraction(3), 5)
    for d in (0, 1, 4, -4, 12, 2.0, None, "2", True):
        with pytest.raises(ValueError, match="invalid quadratic extension discriminant"):
            QuadExt(1, 1, d)
    with pytest.raises(TypeError):
        x + 1.5
    with pytest.raises(TypeError):
        x < 1


def test_results_stay_in_lowest_terms():
    x = QuadExt(Fraction(1, 6), Fraction(1, 6), 2)
    assert (x._A, x._B, x._D) == (1, 1, 6)
    y = x + x  # (2 + 2 sqrt 2) / 6
    assert (y._A, y._B, y._D) == (1, 1, 3)
    z = x * 6
    assert (z._A, z._B, z._D) == (1, 1, 1)
    w = x / QuadExt(0, Fraction(-1, 3), 2)  # divided by -sqrt(2)/3
    assert w == QuadExt(Fraction(-1, 2), Fraction(-1, 4), 2) and w._D > 0
    assert (0 * x)._D == 1 and (x - x) == 0 and hash(x - x) == hash(0)
