"""Scalar arithmetic: exact rationals, quadratic extensions Q(sqrt(d)), and floats.

Three scalar realizations are used throughout the package:

* ``fractions.Fraction`` for exact rational work (aliased ``Rational``),
* ``QuadExt`` for a single quadratic extension Q(sqrt(d)) at a time,
* plain ``float`` for the numeric search and perturbation paths.

All algebra modules are generic over these: they only use ``+ - * /`` and
comparisons with zero.  Float comparisons always take an explicit tolerance
at the call site; there is no global epsilon.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

Rational = Fraction


@lru_cache(maxsize=None)
def _is_squarefree(d):
    """d != 0, 1 with no square factor; cached, as every QuadExt checks its d."""
    if d in (0, 1):
        return False
    from sympy import factorint

    return all(e == 1 for e in factorint(abs(d)).values())


class QuadExt:
    """a + b*sqrt(d) with a, b rational and d a fixed squarefree integer.

    Values are immutable.  Mixing two QuadExt values with different d in one
    expression raises ValueError rather than building a field tower.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, a, b=0, d=None):
        if type(d) is not int or not _is_squarefree(d):
            raise ValueError(f"invalid quadratic extension discriminant: {d!r}")
        object.__setattr__(self, "a", Fraction(a))
        object.__setattr__(self, "b", Fraction(b))
        object.__setattr__(self, "d", d)

    def __setattr__(self, name, value):
        raise AttributeError("QuadExt is immutable")

    def _coerce(self, other):
        if isinstance(other, QuadExt):
            if other.d != self.d:
                raise ValueError(f"mixing sqrt({self.d}) with sqrt({other.d})")
            return other
        if isinstance(other, (int, Fraction)):
            return QuadExt(other, 0, self.d)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadExt(self.a + o.a, self.b + o.b, self.d)

    __radd__ = __add__

    def __neg__(self):
        return QuadExt(-self.a, -self.b, self.d)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadExt(self.a - o.a, self.b - o.b, self.d)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadExt(o.a - self.a, o.b - self.b, self.d)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadExt(self.a * o.a + self.d * self.b * o.b,
                       self.a * o.b + self.b * o.a, self.d)

    __rmul__ = __mul__

    def inverse(self):
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("division by zero in QuadExt")
        return QuadExt(self.a / n, -self.b / n, self.d)

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
        out = QuadExt(1, 0, self.d)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, QuadExt):
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
        """The Galois conjugate a - b*sqrt(d)."""
        return QuadExt(self.a, -self.b, self.d)

    def norm(self):
        """Field norm x * conj(x) = a^2 - d b^2, a rational number."""
        return self.a * self.a - self.d * self.b * self.b

    @property
    def is_rational(self):
        return self.b == 0

    def __float__(self):
        if self.d < 0 and self.b != 0:
            raise ValueError("imaginary quadratic value has no float image")
        return float(self.a) + float(self.b) * math.sqrt(self.d)

    def __repr__(self):
        return f"QuadExt({self.a}, {self.b}, d={self.d})"


def demote(x):
    """Collapse a QuadExt with zero irrational part back to a Fraction."""
    if isinstance(x, QuadExt) and x.b == 0:
        return x.a
    return x


def squarefree_part(q):
    """Write a nonzero rational q as r^2 * d with d a squarefree integer.

    Returns (d, r) with r a positive rational.  d == 1 exactly when q is a
    rational square.
    """
    q = Fraction(q)
    if q == 0:
        raise ValueError("squarefree_part of zero")
    from sympy import factorint

    n = q.numerator * q.denominator
    sign = -1 if n < 0 else 1
    d = sign
    for p, e in factorint(abs(n)).items():
        if e % 2:
            d *= p
    r2 = q / d
    if r2 <= 0:
        raise ArithmeticError(f"squarefree part of {q} has the wrong sign (internal bug)")
    r = Fraction(_isqrt_exact(r2.numerator), _isqrt_exact(r2.denominator))
    if r * r * d != q:
        raise ArithmeticError(f"squarefree part of {q} does not recompose (internal bug)")
    return d, r


def _isqrt_exact(n):
    r = math.isqrt(n)
    if r * r != n:
        raise ArithmeticError(f"{n} is not a perfect square")
    return r


def rational_sqrt(q):
    """sqrt of a nonzero rational as r*sqrt(d): a Fraction if d == 1, else QuadExt."""
    d, r = squarefree_part(q)
    if d == 1:
        return r
    return QuadExt(0, r, d)


def cube_root_rational(q):
    """Exact rational cube root, or None if q is not a perfect rational cube."""
    q = Fraction(q)
    num = _icbrt(q.numerator)
    den = _icbrt(q.denominator)
    if num is None or den is None:
        return None
    return Fraction(num, den)


def _icbrt(n):
    """Exact integer cube root of n, or None if n is not a perfect cube.

    Integer Newton iteration from 2**ceil(bits/3) >= cbrt(|n|); the iterates
    decrease to floor(cbrt(|n|)), so no float is involved at any size.
    """
    sign = -1 if n < 0 else 1
    m = abs(n)
    r = 1 << -(-m.bit_length() // 3)
    while r:
        y = (2 * r + m // (r * r)) // 3
        if y >= r:
            break
        r = y
    return sign * r if r ** 3 == m else None


def rational_reconstruct(x, max_denominator, tol):
    """Best rational p/q with q <= max_denominator within tol of x, else None.

    Continued-fraction based (Fraction.limit_denominator finds the closest
    such rational).
    """
    if max_denominator < 1:
        raise ValueError("max_denominator must be >= 1")
    if tol <= 0:
        raise ValueError("tol must be positive")
    cand = Fraction(float(x)).limit_denominator(max_denominator)
    if abs(float(x) - float(cand)) <= tol:
        return cand
    return None


def clear_denominators(values):
    """(D, [D * v for v in values]) with D the least common denominator, the
    scaled values as Python ints; None unless every value is an int or a Fraction.

    Exact kernels run on the ints and divide by D (or its power) once, at the
    output: int arithmetic takes no gcd per operation, Fraction's does.
    """
    values = list(values)
    if not all(isinstance(v, (int, Fraction)) for v in values):
        return None
    D = math.lcm(*(v.denominator for v in values))
    return D, [v.numerator * (D // v.denominator) for v in values]


def scalar_kind(x):
    """One of 'rational', 'quadext', 'float' for a supported scalar."""
    if isinstance(x, (int, Fraction)):
        return "rational"
    if isinstance(x, QuadExt):
        return "quadext"
    if isinstance(x, float):
        return "float"
    raise TypeError(f"unsupported scalar {type(x).__name__}")


def scalar_to_json(x):
    """Serialize: rationals as 'p/q' strings, QuadExt as a dict, floats as numbers;
    lists and tuples (vectors, matrices, tables) element by element."""
    if isinstance(x, (list, tuple)):
        return [scalar_to_json(v) for v in x]
    if isinstance(x, int):
        x = Fraction(x)
    if isinstance(x, Fraction):
        return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
    if isinstance(x, QuadExt):
        return {"a": scalar_to_json(x.a), "b": scalar_to_json(x.b), "d": x.d}
    if isinstance(x, float):
        return x
    raise TypeError(f"unsupported scalar {type(x).__name__}")


def scalar_from_json(v, kind, d=None):
    """Inverse of scalar_to_json for a declared scalar kind."""
    if kind == "rational":
        return _parse_fraction(v)
    if kind == "float":
        return finite_float(v)
    if kind == "quadext":
        if isinstance(v, dict):
            dd = v.get("d", d)
            return QuadExt(_parse_fraction(v["a"]), _parse_fraction(v["b"]), dd)
        return QuadExt(_parse_fraction(v), 0, d)
    raise ValueError(f"unknown scalar kind {kind!r}")


def finite_float(v):
    """float(v), rejecting NaN and infinities with ValueError."""
    f = float(v)
    if not math.isfinite(f):
        raise ValueError(f"non-finite float value {v!r}")
    return f


def _parse_fraction(v):
    if isinstance(v, bool):
        raise ValueError(f"bad rational value {v!r}")
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, str):
        parts = v.split("/")
        if len(parts) == 1:
            return Fraction(int(parts[0]))
        if len(parts) == 2:
            num, den = int(parts[0]), int(parts[1])
            if den == 0:
                raise ValueError("zero denominator")
            return Fraction(num, den)
    raise ValueError(f"bad rational value {v!r}")
