"""Doubling construction, concrete normed algebras, the trilinear form, and
reconstruction of an octonion algebra from a nondegenerate trivector.

Algebras are stored as explicit structure-constant tables (dim x dim table of
coordinate vectors) with the bilinear norm gram; the unit is basis index 0.
The doubling A -> A(+/-) multiplies by

    (a, b)(c, d) = (a c -/+ conj(d) b,  d a + b conj(c))

with norm |a| +/- |b|; conjugation is conj(x) = 2 Re(x) 1 - x.

The split octonions are the doubling M(2)(+) of the 2x2 matrices M(2) = k(+)(-)
(norm: the determinant), re-based so that their imaginary basis is, in order,

    f1 = diag(1,-1), f2 = E12, f3 = E11 e, f4 = -E21 e,
    f5 = -E21,       f6 = E22 e, f7 = E12 e,

the basis in which all golden coefficients of the package are stated.  The
dual basis of f1..f7 is the e1..e7 used by the dim-7 forms, so form
coefficients and algebra coordinates line up index by index.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import mul

from . import linalg
from .invariants import _delta_from_q, q_case2
from .multilinear import AlternatingForm, gl_action, integral_multiple, sort_sign
from .orbits import float_signature
from .scalars import clear_denominators


class AlgebraStructure:
    """Structure constants + norm of a finite-dimensional normed algebra.

    Immutable, so the constant algebras are built once and shared."""

    __slots__ = ("dim", "table", "gram", "label")

    def __init__(self, dim, table, gram, label=""):
        init = object.__setattr__
        init(self, "dim", dim)
        init(self, "table", tuple(tuple(tuple(vec) for vec in row) for row in table))
        init(self, "gram", tuple(tuple(row) for row in gram))
        init(self, "label", label)
        unit = self.table[0][0]
        if not (unit[0] == 1 and all(c == 0 for c in unit[1:])):
            raise ValueError("basis 0 must be the unit")

    def __setattr__(self, name, value):
        raise AttributeError("AlgebraStructure is immutable")

    def element(self, coords):
        coords = tuple(coords)
        if len(coords) != self.dim:
            raise ValueError("coordinate length mismatch")
        return AlgElement(self, coords)

    def basis_element(self, i):
        return self.element(tuple(Fraction(1) if j == i else Fraction(0)
                                  for j in range(self.dim)))

    @property
    def one(self):
        return self.basis_element(0)

    def mul_coords(self, u, v):
        return _mul_coords(self.table, u, v)

    def inner_coords(self, u, v):
        return _inner_coords(self.gram, u, v)

    def __eq__(self, other):
        if not isinstance(other, AlgebraStructure):
            return NotImplemented
        return self.dim == other.dim and self.table == other.table and self.gram == other.gram

    def __repr__(self):
        return f"AlgebraStructure(dim={self.dim}, label={self.label!r})"


def _mul_coords(table, u, v):
    """Coordinates of the product uv in the structure constants `table`."""
    n = len(table)
    out = [0] * n
    for i, ui in enumerate(u):
        if ui == 0:
            continue
        for j, vj in enumerate(v):
            if vj == 0:
                continue
            t = table[i][j]
            c = ui * vj
            for m in range(n):
                if not (t[m] == 0):
                    out[m] = out[m] + c * t[m]
    return tuple(out)


def _inner_coords(gram, u, v):
    """u^T gram v over the nonzero gram entries."""
    n = len(gram)
    return sum(gram[i][j] * u[i] * v[j]
               for i in range(n) for j in range(n) if not (gram[i][j] == 0))


def algebra_laws(A, seed=0):
    """(norm multiplicative on samples, unit law) for an algebra structure.

    N(uv) == N(u) N(v) is tried on 25 seeded pairs with coordinates in
    -3..3, on the table T = T' / Dt and the gram G = G' / Dg over common
    denominators (integers for a rational algebra; Dt = Dg = 1 and the entries
    as they are for a float one): the law reads Dg N'(uv) == Dt^2 N'(u) N'(v)
    with (uv)_m = sum_ij u_i v_j T'[i][j][m] and N'(w) = w^T G' w.  The unit
    law reads row 0 and column 0 of the table: T'[0][i] = T'[i][0] = Dt e_i.
    Float algebras compare with a relative tolerance of 1e-9, others exactly.
    """
    n = A.dim
    if any(isinstance(c, float) for row in A.gram for c in row):
        def eq(a, b):
            return abs(float(a) - float(b)) <= 1e-9 * max(1.0, abs(float(a)), abs(float(b)))
    else:
        def eq(a, b):
            return a == b
    table = [c for row in A.table for vec in row for c in vec]
    gram = [c for row in A.gram for c in row]
    (Dt, table), (Dg, gram) = (clear_denominators(table) or (1, table),
                               clear_denominators(gram) or (1, gram))
    cols = [table[m::n] for m in range(n)]  # cols[m][i * n + j] = T'[i][j][m]
    rows = [gram[i * n:(i + 1) * n] for i in range(n)]

    def norm(w):
        return sum(map(mul, w, [sum(map(mul, row, w)) for row in rows]))

    def product(u, v):
        uv = [a * b for a in u for b in v]
        return [sum(map(mul, uv, col)) for col in cols]

    norm_ok = all(eq(Dg * norm(product(u, v)), Dt * Dt * norm(u) * norm(v))
                  for u, v in _samples(seed, n))
    unit_ok = all(eq(table[j * n + m], Dt * (m == j)) and eq(table[j * n * n + m], Dt * (m == j))
                  for j in range(n) for m in range(n))  # T'[0][j][m] and T'[j][0][m]
    return norm_ok, unit_ok


@lru_cache(maxsize=None)
def _samples(seed, n):
    """The 25 seeded pairs (u, v) of algebra_laws."""
    import random
    rng = random.Random(seed)
    return tuple(tuple(tuple(rng.randint(-3, 3) for _ in range(n)) for _ in "uv")
                 for _ in range(25))


@dataclass(frozen=True)
class AlgElement:
    algebra: AlgebraStructure
    coords: tuple

    def _check(self, other):
        if self.algebra is not other.algebra and self.algebra != other.algebra:
            raise ValueError("elements of different algebras")

    def __add__(self, other):
        self._check(other)
        return AlgElement(self.algebra, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other):
        self._check(other)
        return AlgElement(self.algebra, tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self):
        return AlgElement(self.algebra, tuple(-a for a in self.coords))

    def __mul__(self, other):
        if isinstance(other, AlgElement):
            self._check(other)
            return AlgElement(self.algebra, self.algebra.mul_coords(self.coords, other.coords))
        return AlgElement(self.algebra, tuple(a * other for a in self.coords))

    def __rmul__(self, c):
        return AlgElement(self.algebra, tuple(c * a for a in self.coords))

    def inner(self, other):
        self._check(other)
        return self.algebra.inner_coords(self.coords, other.coords)

    def norm(self):
        return self.inner(self)

    def re(self):
        """Scalar coefficient of the unit, <x, 1> / <1, 1>, from the unit's gram column."""
        gram = self.algebra.gram
        return sum(gram[i][0] * c for i, c in enumerate(self.coords)
                   if not (gram[i][0] == 0)) / gram[0][0]

    def im(self):
        return self - self.re() * self.algebra.one

    def conj(self):
        """2 Re(x) 1 - x, on the coordinates."""
        return AlgElement(self.algebra, (2 * self.re() - self.coords[0],)
                          + tuple(-c for c in self.coords[1:]))

    def associator(self, y, z):
        return (self * y) * z - self * (y * z)


def ground_field():
    """The 1-dimensional algebra k with norm x^2."""
    return AlgebraStructure(1, [[(Fraction(1),)]], [[Fraction(1)]], "k")


def cd_double(A, sign=+1):
    """One doubling step A -> A(+) (sign=+1) or A(-) (sign=-1)."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    n = A.dim
    N = 2 * n

    halves = [(e[:n], e[n:]) for e in
              (tuple(Fraction(int(m == i)) for m in range(N)) for i in range(N))]
    table = [[None] * N for _ in range(N)]
    for i, (a, b) in enumerate(halves):
        for j, (c, d) in enumerate(halves):
            ac = A.mul_coords(a, c)
            db = A.mul_coords(A.element(d).conj().coords, b)
            da = A.mul_coords(d, a)
            bc = A.mul_coords(b, A.element(c).conj().coords)
            first = tuple(x - sign * y for x, y in zip(ac, db))
            second = tuple(x + y for x, y in zip(da, bc))
            table[i][j] = first + second
    gram = linalg.zeros(N, N)
    for i in range(n):
        for j in range(n):
            gram[i][j] = A.gram[i][j]
            gram[i + n][j + n] = sign * A.gram[i][j]
    return AlgebraStructure(N, table, gram, f"{A.label}({'+' if sign == 1 else '-'})")


def complex_type():
    """k(+): 2-dimensional, commutative, associative, norm a^2 + b^2."""
    return cd_double(ground_field(), +1)


def quaternions():
    """H = k(+)(+) with basis 1, i, j, k."""
    return cd_double(complex_type(), +1)


@lru_cache(maxsize=None)
def octonions():
    """The norm-definite octonions H(+) with basis 1, i, j, k, e, ie, je, ke."""
    A = cd_double(quaternions(), +1)
    return AlgebraStructure(A.dim, A.table, A.gram, "O")


def matrix_2x2():
    """M(2,2) as k(+)(-): 4-dimensional with determinant norm."""
    return cd_double(complex_type(), -1)


# The pinned basis 1, f1..f7 as pairs (A, B) of 2x2 matrices [[p, q], [r, s]]
# given as (p, q, r, s), in the order of the module docstring.
_SPLIT_BASIS = (
    ((1, 0, 0, 1), (0, 0, 0, 0)),   # 1
    ((1, 0, 0, -1), (0, 0, 0, 0)),  # f1
    ((0, 1, 0, 0), (0, 0, 0, 0)),   # f2
    ((0, 0, 0, 0), (1, 0, 0, 0)),   # f3
    ((0, 0, 0, 0), (0, 0, -1, 0)),  # f4
    ((0, 0, -1, 0), (0, 0, 0, 0)),  # f5
    ((0, 0, 0, 0), (0, 0, 0, 1)),   # f6
    ((0, 0, 0, 0), (0, 1, 0, 0)),   # f7
)


def _m2_coords(p, q, r, s):
    """Coordinates of [[p, q], [r, s]] on the basis 1, i, j, ij of matrix_2x2(), where
    i = [[0, 1], [-1, 0]], j = diag(1, -1) and ij = [[0, -1], [-1, 0]]."""
    return (Fraction(p + s, 2), Fraction(q - r, 2), Fraction(p - s, 2), Fraction(-(q + r), 2))


@lru_cache(maxsize=None)
def split_octonions():
    """M(2,2)(+) in the pinned imaginary basis f1..f7 (see module docstring).

    With the rows P_i of the pinned basis in the coordinates of
    cd_double(matrix_2x2(), +1): table[i][j] = P^-T (P_i P_j), gram[i][j] = <P_i, P_j>;
    each product is mapped through the nonzero entries of P^-T.
    """
    D = cd_double(matrix_2x2(), +1)
    P = [_m2_coords(*A) + _m2_coords(*B) for A, B in _SPLIT_BASIS]
    inv_t = [[(j, c) for j, c in enumerate(row) if c]
             for row in linalg.transpose(linalg.mat_inv(P))]
    products = [[D.mul_coords(u, v) for v in P] for u in P]
    table = [[tuple(sum(c * w[j] for j, c in row) for row in inv_t) for w in ws] for ws in products]
    gram = [[D.inner_coords(u, v) for v in P] for u in P]
    return AlgebraStructure(8, table, gram, "split O")


def c_form(A):
    """Trilinear form C(x, y, z) = <x, yz> on the imaginary part of a dim-8 algebra.

    Read off the structure constants: C(i, j, k) = sum_m gram[i][m] table[j][k][m]
    over the nonzero gram entries.  The result is verified alternating
    (ArithmeticError otherwise) and is returned as a degree-3 form on the
    7-dimensional imaginary part.
    """
    if A.dim != 8:
        raise ValueError("c_form needs an 8-dimensional algebra")
    vals = {}
    for i in range(1, 8):
        gi = [(m, g) for m, g in enumerate(A.gram[i]) if not (g == 0)]
        for j in range(1, 8):
            for k in range(1, 8):
                t = A.table[j][k]
                v = sum(g * t[m] for m, g in gi if not (t[m] == 0))
                key, s = sort_sign((i, j, k))
                if s == 0:
                    if not (v == 0):
                        raise ArithmeticError("C is not alternating (internal bug)")
                    continue
                prev = vals.get(key)
                cur = s * v
                if prev is None:
                    vals[key] = cur
                elif not (prev == cur):
                    raise ArithmeticError("C is not alternating (internal bug)")
    return AlternatingForm(7, 3, {k: v for k, v in vals.items() if not (v == 0)})


def octonion_from_form(x, q=None):
    """Octonion algebra on k + W* reconstructed from a nondegenerate trivector.

    The imaginary product u.v solves gram(Q) * (u.v) = 3 x(., u, v); the real
    part is -Q(u, v)/delta and the norm of v is Q(v)/delta.  A caller that has
    built the gram q_case2(x) passes it as q.  Raises ValueError("not semistable")
    exactly when classify_real at its default tol calls x degenerate (for
    floats, both ask orbits.float_signature), and ValueError on Q(sqrt d)
    coefficients, whose delta is only computed as a float.
    """
    if x.dim != 7 or x.degree != 3:
        raise ValueError("octonion_from_form needs dim 7, degree 3")
    kind = x.scalar_kind()
    if kind == "quadext":
        raise ValueError("octonion_from_form supports rational or float coefficients, "
                         "not Q(sqrt d)")
    gram7 = q_case2(x) if q is None else q
    is_float = kind == "float"
    delta, _ = _delta_from_q(gram7, kind)
    if float_signature(x, gram7)[2] if is_float else delta == 0:
        raise ValueError("not semistable")
    if is_float:
        import numpy as np
        Gf = np.array([[float(v) for v in r] for r in gram7])
        xs = x

        def solve7(rhs):
            sol = np.linalg.solve(Gf, np.array([float(v) for v in rhs]))
            resid = float(np.max(np.abs(Gf @ sol - rhs)))
            if not resid <= 1e-9 * max(1.0, float(np.max(np.abs(rhs)))):
                raise ArithmeticError("ill-conditioned product solve")
            return [float(s) for s in sol]
    else:
        # gram^-1 = inv / Di and x = xs / Dx over ints: one Fraction per entry
        Di, flat = clear_denominators(v for row in linalg.mat_inv(gram7) for v in row)
        inv = [flat[7 * r:7 * r + 7] for r in range(7)]
        Dx, xs = integral_multiple(x)

        def solve7(rhs):
            return [Fraction(v, Di * Dx) for v in linalg.mat_vec(inv, rhs)]

    ratio = {}  # gram7 / delta, each of the 28 entries i <= j divided once
    for i in range(7):
        for j in range(i, 7):
            ratio[i, j] = ratio[j, i] = gram7[i][j] / delta
    dim = 8
    table = [[None] * dim for _ in range(dim)]
    for i in range(dim):
        table[0][i] = tuple((1 if m == i else 0) for m in range(dim))
        table[i][0] = tuple((1 if m == i else 0) for m in range(dim))
    for i in range(1, 8):
        for j in range(1, 8):
            if is_float or i < j:  # a float solve of -rhs may print -0.0 where rhs gave 0.0
                im = solve7([3 * xs.coeff(m, i, j) for m in range(1, 8)])
            else:  # x is alternating: im(j, i) = -im(i, j) and im(i, i) = 0
                im = [-v for v in table[j][i][1:]] if i > j else [Fraction(0)] * 7
            table[i][j] = (-ratio[i - 1, j - 1], *im)
    gram = [[(0.0 if is_float else Fraction(0))] * dim for _ in range(dim)]
    gram[0][0] = 1.0 if is_float else Fraction(1)
    for i in range(7):
        for j in range(7):
            gram[i + 1][j + 1] = ratio[i, j]
    return AlgebraStructure(8, table, gram, "O_x")


def iso_check(x, y, t, g):
    """Verify that the group element (t, g) induces an isomorphism O_x -> O_y.

    g is the matrix acting on W (as in gl_action); the induced map on the
    dual coordinates carrying the algebras is v -> t^2 det(g) (g^T)^{-1} v.
    Requires y == t * gl_action(g, x) (the group action pairing the two
    forms); raises ValueError otherwise.  Checks unit, imaginary parts of
    products, and the inner product on imaginary basis pairs, every
    comparison exact.
    """
    if gl_action(g, x).scale(t) != y:
        raise ValueError("y is not (t, g) . x")
    A = octonion_from_form(x)
    B = octonion_from_form(y)
    detg = linalg.mat_det(g)
    scale = t * t * detg
    dual = linalg.transpose(linalg.mat_inv(g))

    def m_of(v7):
        img = [scale * sum(dual[r][c] * v7[c] for c in range(7)) for r in range(7)]
        return img

    for i in range(1, 8):
        vi = [1 if m == i - 1 else 0 for m in range(7)]
        mi = B.element(tuple([0] + m_of(vi)))
        ai = A.basis_element(i)
        for j in range(1, 8):
            vj = [1 if m == j - 1 else 0 for m in range(7)]
            mj = B.element(tuple([0] + m_of(vj)))
            aj = A.basis_element(j)
            if mi.inner(mj) != ai.inner(aj):
                return False
            lhs = (mi * mj).im().coords
            rhs_im = (ai * aj).im().coords[1:]
            rhs = tuple([0] + m_of(list(rhs_im)))
            if any(a != b for a, b in zip(lhs, rhs)):
                return False
    return True
