"""Scalar arithmetic: exact rationals, quadratic extensions Q(sqrt(d)), and floats.

Three scalar realizations are used throughout the package:

* ``fractions.Fraction`` for exact rational work,
* ``QuadExt`` for a single quadratic extension Q(sqrt(d)) at a time,
* plain ``float`` for the numeric search and perturbation paths.

Algebra modules are generic over these (``+ - * /`` and comparisons with
zero); exact kernels scale their values to ints or Z[sqrt d] by the one
helper ``clear_denominators`` and divide once, at the output.  Float
comparisons take an explicit tolerance at the call site (no global epsilon).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache


@lru_cache(maxsize=None)
def _is_squarefree(d):
    """d != 0, 1 with no square factor; cached, as every QuadExt checks its d."""
    return d not in (0, 1) and squarefree_part(d)[1] == 1


class QuadExt:
    """a + b*sqrt(d) with a, b rational and d a fixed squarefree integer.

    Held as (A + B*sqrt(d)) / D over Python ints with gcd(A, B, D) = 1 and
    D > 0, a unique form, so equality and hashing compare the ints.  Each
    operation is int products and one three-way gcd (none for adding or
    negating an int); ``.a`` and ``.b`` give the rational parts as Fractions.
    Results take d from operands already checked: only the constructor
    checks a new d.  Values are immutable.  Mixing two QuadExt values with
    different d in one expression raises ValueError rather than building a
    field tower.
    """

    __slots__ = ("_A", "_B", "_D", "d")

    def __init__(self, a, b=0, d=None):
        if type(d) is not int or not _is_squarefree(d):
            raise ValueError(f"invalid quadratic extension discriminant: {d!r}")
        a, b = Fraction(a), Fraction(b)
        D = math.lcm(a.denominator, b.denominator)
        _init(self, a.numerator * (D // a.denominator), b.numerator * (D // b.denominator),
              D, d)

    def __setattr__(self, name, value):
        raise AttributeError("QuadExt is immutable")

    def __reduce__(self):  # copy and pickle rebuild from the ints, past __setattr__
        return _new, (self._A, self._B, self._D, self.d)

    @property
    def a(self):
        return Fraction(self._A, self._D)

    @property
    def b(self):
        return Fraction(self._B, self._D)

    def __add__(self, other):
        return _plus(self, other, 1)

    __radd__ = __add__

    def __neg__(self):
        return _new(-self._A, -self._B, self._D, self.d)

    def __sub__(self, other):
        return _plus(self, other, -1)

    def __rsub__(self, other):
        if isinstance(other, (int, Fraction)):
            return -self + other
        return NotImplemented

    def __mul__(self, other):
        A, B, D, d = self._A, self._B, self._D, self.d
        if type(other) is QuadExt:
            if other.d != d:
                raise _mixing(self, other)
            A2, B2 = other._A, other._B
            return _reduced(A * A2 + d * B * B2, A * B2 + B * A2, D * other._D, d)
        if isinstance(other, int):
            g = math.gcd(other, D)
            k = other // g
            return _new(A * k, B * k, D // g, d)
        if isinstance(other, Fraction):
            p = other.numerator
            return _reduced(A * p, B * p, D * other.denominator, d)
        return NotImplemented

    __rmul__ = __mul__

    def inverse(self):
        return _divided(1, 0, 1, self)

    def __truediv__(self, other):
        if type(other) is QuadExt:
            if other.d != self.d:
                raise _mixing(self, other)
            return _divided(self._A, self._B, self._D, other)
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ZeroDivisionError("division by zero in QuadExt")
            p, q = other.numerator, other.denominator
            if p < 0:
                p, q = -p, -q
            return _reduced(self._A * q, self._B * q, self._D * p, self.d)
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return _divided(other.numerator, 0, other.denominator, self)
        return NotImplemented

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        out = _new(1, 0, 1, self.d)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        if type(other) is QuadExt:
            return (self.d == other.d and self._A == other._A and self._B == other._B
                    and self._D == other._D)
        if isinstance(other, (int, Fraction)):
            return (self._B == 0 and self._A == other.numerator
                    and self._D == other.denominator)
        return NotImplemented

    def __bool__(self):
        return self._A != 0 or self._B != 0

    def __hash__(self):
        if self._B == 0:
            return hash(self._A if self._D == 1 else Fraction(self._A, self._D))
        return hash((self._A, self._B, self._D, self.d))

    def conjugate(self):
        """The Galois conjugate a - b*sqrt(d)."""
        return _new(self._A, -self._B, self._D, self.d)

    def norm(self):
        """Field norm x * conj(x) = a^2 - d b^2, a rational number."""
        return Fraction(self._A * self._A - self.d * self._B * self._B, self._D * self._D)

    @property
    def is_rational(self):
        return self._B == 0

    def __float__(self):
        if self._B == 0:
            return self._A / self._D  # rational: no sqrt(d), which has no float for d < 0
        if self.d < 0:
            raise ValueError("imaginary quadratic value has no float image")
        return self._A / self._D + self._B / self._D * math.sqrt(self.d)

    def __repr__(self):
        return f"QuadExt({self.a}, {self.b}, d={self.d})"


def _plus(x, y, sign):
    """x + sign * y for a QuadExt x, sign = 1 or -1; NotImplemented for an
    operand outside Q(sqrt d)."""
    A, B, D, d = x._A, x._B, x._D, x.d
    if type(y) is QuadExt:
        if y.d != d:
            raise _mixing(x, y)
        A2, B2, D2 = sign * y._A, sign * y._B, y._D
        if D2 == D:
            return _reduced(A + A2, B + B2, D, d)
        return _reduced(A * D2 + A2 * D, B * D2 + B2 * D, D * D2, d)
    if isinstance(y, int):
        return _new(A + sign * y * D, B, D, d)
    if isinstance(y, Fraction):
        q = y.denominator
        return _reduced(A * q + sign * y.numerator * D, B * q, D * q, d)
    return NotImplemented


def _mixing(x, y):
    return ValueError(f"mixing sqrt({x.d}) with sqrt({y.d})")


_init_A, _init_B, _init_D, _init_d = (QuadExt._A.__set__, QuadExt._B.__set__,
                                      QuadExt._D.__set__, QuadExt.d.__set__)


def _init(x, A, B, D, d):
    _init_A(x, A)
    _init_B(x, B)
    _init_D(x, D)
    _init_d(x, d)


def _new(A, B, D, d):
    """(A + B sqrt(d)) / D, already in lowest terms with D > 0."""
    x = object.__new__(QuadExt)
    _init(x, A, B, D, d)
    return x


def _reduced(A, B, D, d):
    """(A + B sqrt(d)) / D in lowest terms, for D > 0 (D first: the gcd stops at D = 1)."""
    g = math.gcd(D, A, B)
    if g != 1:
        A, B, D = A // g, B // g, D // g
    return _new(A, B, D, d)


def _divided(A, B, D, y):
    """(A + B sqrt(d)) / D divided by y, through the conjugate of y:
    (A + B r)(A' - B' r) D' / (D N) with N = A'^2 - d B'^2 and r = sqrt(d)."""
    A2, B2, D2, d = y._A, y._B, y._D, y.d
    N = A2 * A2 - d * B2 * B2
    if N == 0:
        raise ZeroDivisionError("division by zero in QuadExt")
    if N < 0:
        N, D2 = -N, -D2
    return _reduced((A * A2 - d * B * B2) * D2, (B * A2 - A * B2) * D2, D * N, d)


def real_sign(x):
    """The sign, -1, 0 or 1, of a real scalar; exact for a QuadExt (A + B
    sqrt(d)) / D with d > 0, in the embedding sqrt(d) > 0 that float() takes:
    the sign of A if A^2 > d B^2, else that of B (never equal, d being no
    square).  An irrational value with d < 0 raises ValueError."""
    if type(x) is QuadExt:
        if x._B and x.d < 0:
            raise ValueError("imaginary quadratic value has no real sign")
        x = x._A if x._A * x._A > x.d * x._B * x._B else x._B
    return (x > 0) - (x < 0)


def demote(x):
    """Collapse a QuadExt with zero irrational part back to a Fraction."""
    if isinstance(x, QuadExt) and x.is_rational:
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
    n = q.numerator * q.denominator
    sign = -1 if n < 0 else 1
    d = sign
    for p, e in _factor(abs(n)).items():
        if e % 2:
            d *= p
    r2 = q / d
    if r2 <= 0:
        raise ArithmeticError(f"squarefree part of {q} has the wrong sign (internal bug)")
    r = Fraction(_isqrt_exact(r2.numerator), _isqrt_exact(r2.denominator))
    if r * r * d != q:
        raise ArithmeticError(f"squarefree part of {q} does not recompose (internal bug)")
    return d, r


@lru_cache(maxsize=None)
def _small_primes():
    """The primes below 2^12, by a sieve."""
    sieve = [True] * 4096
    for p in range(2, 64):
        if sieve[p]:
            sieve[p * p::p] = [False] * len(range(p * p, 4096, p))
    return [p for p in range(2, 4096) if sieve[p]]


def _factor(n):
    """{prime: exponent} of an int n >= 1, by trial division by the primes below
    2^12.  A cofactor left below 2^24 has no prime factor below its square root,
    so it is prime; only a larger one goes to sympy's factorint, so sympy is
    imported only for such numbers."""
    out = {}
    for p in _small_primes():
        if p * p > n:
            break
        while n % p == 0:
            n //= p
            out[p] = out.get(p, 0) + 1
    if n >= 2 ** 24:
        from sympy import factorint
        out.update(factorint(n))
    elif n > 1:
        out[n] = 1
    return out


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
    """(D, [D * v for v in values]) with D the least common denominator: ints
    for ints and Fractions, QuadExts over Z[sqrt d] (D = 1) for QuadExts.  None
    unless every value is an int, a Fraction or a QuadExt (a float is not).

    Exact kernels run on the scaled values and divide by D (or its power) once,
    at the output: int arithmetic takes no gcd per operation, Fraction's does.
    """
    values = list(values)
    if not all(isinstance(v, (int, Fraction, QuadExt)) for v in values):
        return None
    D = math.lcm(*(v._D if type(v) is QuadExt else v.denominator for v in values))
    return D, [v * D if type(v) is QuadExt else v.numerator * (D // v.denominator)
               for v in values]


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
    """Serialize: rationals as 'p/q' strings, QuadExt as a dict (ratio_to_json), floats
    as numbers; lists and tuples (vectors, matrices, tables) element by element."""
    if type(x) is Fraction:
        return str(x)
    if isinstance(x, (list, tuple)):
        return [scalar_to_json(v) for v in x]
    if isinstance(x, QuadExt):
        return ratio_to_json(x)
    if isinstance(x, (int, Fraction)):
        return str(Fraction(x))
    if isinstance(x, float):
        return x
    raise TypeError(f"unsupported scalar {type(x).__name__}")


def ratio_to_json(v, D=1):
    """scalar_to_json(v / D) for an int D >= 1 and an int or a QuadExt v, written
    from the ints (_ratio_json, one gcd per rational part): no Fraction or
    QuadExt is made.  Another scalar v (D = 1) as scalar_to_json writes it."""
    if type(v) is int:
        return _ratio_json(v, D)
    if type(v) is QuadExt:
        D *= v._D
        return {"a": _ratio_json(v._A, D), "b": _ratio_json(v._B, D), "d": v.d}
    return scalar_to_json(v)


def _ratio_json(p, q):
    """p / q in lowest terms, as str(Fraction(p, q)), for ints p and q > 0."""
    g = math.gcd(p, q)
    return str(p // g) if g == q else f"{p // g}/{q // g}"


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
