"""Relative invariants of the three alternating-form spaces.

* dim 6, degree 3: the operator S_x = x ^ D3(x) as a 6x6 matrix and the
  quartic invariant with S_x^2 = delta * I.  The wedge^5 W ~ W* identification
  is the interior pairing e_j ^ e_comp(j) = sign * e_1..6, which makes
  S_w = diag(1,1,1,-1,-1,-1) for w = e123 + e456.
* dim 7, degree 3: the cubic matrix S_x, the quadratic covariant Q_x
  (symmetrized S_x), and the degree-7 invariant normalized by delta(w) = 6.
  det gram(Q_x) == (81/4) * delta(x)^3 identically; the constant is pinned
  by the regression test on w.
* degree 2, even dim: the Pfaffian by skew elimination, O(n^3).

delta_case1_explicit is the closed quartic in the block matrices X, Z built
from the coefficients; its det X term carries z_456 (not z_123), which is
the variant that agrees exactly with the S_x^2 route (see tests).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import linalg
from .multilinear import AlternatingForm, _small_det, all_keys, d3, integral_multiple, sort_sign
from .scalars import clear_denominators, cube_root_rational, finite_float

# det gram(Q_x) = QCASE2_DET_RATIO * delta(x)^3, pinned at x = w.
QCASE2_DET_RATIO = Fraction(81, 4)


def _check_shape(x, dim, degree, what):
    if x.dim != dim or x.degree != degree:
        raise ValueError(f"{what} needs dim {dim}, degree {degree}; "
                         f"got dim {x.dim}, degree {x.degree}")


@lru_cache(maxsize=None)
def _s_plan(dim):
    """The integer contraction plan of S_x, from d3 and the complement pairing.

    polar: {triple: ((pair, vec, sign), ...)}, the terms sign * e_pair (x) e_vec
    of D3(e_triple), vec 0-based.  pairing: {pair: ((triple, comp, sign), ...)}
    over the triples disjoint from pair, comp the rest of 1..dim, with
    e_triple ^ e_pair ^ e_comp = sign * e_1..dim.  In dim 7 a (pair, comp)
    fixes its triple, and in dim 6 a (pair, j) does.
    """
    polar = {K: tuple((pair, vec - 1, s) for (pair, (vec,)), s
                      in d3(AlternatingForm(dim, 3, {K: 1})).items())
             for K in all_keys(dim, 3)}
    pairing = {}
    for pair in all_keys(dim, 2):
        rest = [m for m in range(1, dim + 1) if m not in pair]
        pairing[pair] = tuple(
            (triple, comp, sort_sign(triple + pair + comp)[1])
            for triple in itertools.combinations(rest, 3)
            for comp in [tuple(m for m in rest if m not in triple)])
    return polar, pairing


def _s_integral(x, dim):
    """(Dk, S') with S_x = S' / Dk: S' = S_{Dx} = sum_pair D3(Dx)_pair (x) T_pair, with
    T_pair = sum_comp v e_comp . D3(Dx)_comp in dim 7 and -sum_j v e_j in dim 6, v the
    coefficient of e_1..dim in Dx ^ e_pair ^ e_comp.

    One integer run for every scalar kind, driven by the coefficients x has: x is
    scaled by the common denominator D of its coefficients, a float taken as its
    exact binary64 value, to ints or Z[sqrt d] (clear_denominators); Dk is D^2
    (dim 6) or D^3 (dim 7), and an entry no term reaches is the int 0.  ValueError
    when x is not of shape (dim, 3) or a float coefficient is not finite."""
    _check_shape(x, dim, 3, f"s_case{dim - 5}")
    D, values = clear_denominators(Fraction(finite_float(v)) if isinstance(v, float) else v
                                   for v in x.coeffs.values())
    coeffs = dict(zip(x.coeffs, values))
    polar, pairing = _s_plan(dim)
    dx = {}  # D3(Dx) by pair: [(vec, coefficient)]
    for K, v in coeffs.items():
        for pair, vec, s in polar[K]:
            dx.setdefault(pair, []).append((vec, s * v))
    # dim 6 pairs x ^ e_pair with e_j by e_j ^ e_1..5 = -e_1..5 ^ e_j: hence the -1
    partner = dx if dim == 7 else {(j,): ((j - 1, -1),) for j in range(1, 7)}
    S = [[0] * dim for _ in range(dim)]
    for pair, d1 in dx.items():
        T = {}
        for triple, comp, s in pairing[pair]:
            xt = coeffs.get(triple)
            if xt is not None and comp in partner:
                v = s * xt
                for v2, c2 in partner[comp]:
                    T[v2] = T.get(v2, 0) + v * c2
        for v1, c1 in d1:
            row = S[v1]
            for v2, t in T.items():
                row[v2] += c1 * t
    return D ** (2 if dim == 6 else 3), S  # S_x is quadratic in x in dim 6, cubic in dim 7


def _s_matrix(x, dim):
    """S_x from _s_integral, divided by Dk once: exactly (_view), or, for a float
    form, by int true division, so each entry is correctly rounded.  ValueError
    when a float entry overflows."""
    Dk, S = _s_integral(x, dim)
    if x.scalar_kind() != "float":
        return _view(Dk, S)
    try:
        return [[v / Dk for v in row] for row in S]
    except OverflowError:
        raise ValueError("float coefficients too large: an invariant overflows") from None


def _view(D, M):
    """The matrix M / D of an integral copy (D, M), one division per entry
    (linalg._over: an int gives a Fraction, a QuadExt a QuadExt, a float itself)."""
    return [[linalg._over(v, D) for v in row] for row in M]


def s_case1(x):
    """S_x = x ^ D3(x) as a 6x6 matrix, quadratic in x (_s_integral)."""
    return _s_matrix(x, 6)


def delta_case1(x):
    """Quartic invariant via S_x^2 = delta * I, which is checked exactly.  A
    rounded float S_x^2 is not exactly scalar, so float coefficients take
    delta_case1_explicit, as every float path does."""
    if x.scalar_kind() == "float":
        return delta_case1_explicit(x)
    return _delta_from_s(*_s_integral(x, 6))


def _delta_from_s(Dk, S):
    """delta with S_x^2 = delta * I for the integral copy (Dk, S') of an exact S_x;
    ArithmeticError otherwise.  S'^2 is formed over Z or Z[sqrt d] and checked
    exactly; delta is then one division by Dk^2.  Every product is formed, so
    delta is a QuadExt exactly when S^2 computed on S itself would give one."""
    S2 = linalg.mat_mul(S, S)
    d = S2[0][0]
    if any(v != (d if i == j else 0) for i, row in enumerate(S2) for j, v in enumerate(row)):
        raise ArithmeticError("S_x^2 is not a scalar matrix (internal bug)")
    return linalg._over(d, Dk * Dk)


def _block_matrices(z):
    """The two 3x3 coefficient blocks of a dim-6 trivector."""
    c = z.coeff
    X = [[c(2, 3, 4), -c(1, 3, 4), c(1, 2, 4)],
         [c(2, 3, 5), -c(1, 3, 5), c(1, 2, 5)],
         [c(2, 3, 6), -c(1, 3, 6), c(1, 2, 6)]]
    Y = [[c(1, 5, 6), -c(1, 4, 6), c(1, 4, 5)],
         [c(2, 5, 6), -c(2, 4, 6), c(2, 4, 5)],
         [c(3, 5, 6), -c(3, 4, 6), c(3, 4, 5)]]
    return X, Y


def _minor(M, i, j):
    r = [t for t in range(3) if t != i]
    c = [t for t in range(3) if t != j]
    return M[r[0]][c[0]] * M[r[1]][c[1]] - M[r[0]][c[1]] * M[r[1]][c[0]]


def delta_case1_explicit(z):
    """Closed quartic: (ab - tr XY)^2 + 4a det Y + 4b det X - 4 sum minors.

    a = z_123, b = z_456.  Works for rational, quadratic-extension and float
    coefficients and agrees with delta_case1 exactly (the b det X term is the
    resolution cross-checked against S_z^2).
    """
    _check_shape(z, 6, 3, "delta_case1_explicit")
    X, Y = _block_matrices(z)
    a = z.coeff(1, 2, 3)
    b = z.coeff(4, 5, 6)
    tr = sum(X[i][k] * Y[k][i] for i in range(3) for k in range(3))
    mix = sum(_minor(X, i, j) * _minor(Y, j, i) for i in range(3) for j in range(3))
    u = a * b - tr  # squared as a product: a float that overflows gives inf, not OverflowError
    return u * u + 4 * a * _small_det(Y) + 4 * b * _small_det(X) - 4 * mix


def s_case2(x):
    """S_x in wedge^7 W (x) W (x) W as a 7x7 matrix, cubic in x (_s_integral).

    wedge^7 W ~ k via the coefficient of e_1..7.  The second contraction only
    pairs a 5-form with the 2-form on its complementary indices.
    """
    return _s_matrix(x, 7)


def q_case2(x):
    """Quadratic covariant: the 7x7 gram (S_x + S_x^T)/2 of a form on W*, the
    view of _q_integral; ValueError when a float gram entry overflows."""
    return _view(*_q_integral(x))


def _q_integral(x):
    """(Dg, G') with gram(Q_x) = G' / Dg: G' = S' + S'^T and Dg = 2 Dk for an exact
    form (_s_integral), Dg = 1 and 0.5 (S + S^T) of its rounded S_x, checked
    finite (ValueError), for a float one."""
    if x.scalar_kind() == "float":
        S = _s_matrix(x, 7)
        gram = [[0.5 * (S[i][j] + S[j][i]) for j in range(7)] for i in range(7)]
        _finite(*(v for row in gram for v in row))
        return 1, gram
    Dk, S = _s_integral(x, 7)
    return 2 * Dk, [[S[i][j] + S[j][i] for j in range(7)] for i in range(7)]


def delta_case2(x):
    """Degree-7 invariant, normalized so the split representative has value 6.

    Returns (value, exact) where exact is True when the value is an exact
    rational (always the case for rational input); float input yields the
    real cube root with exact=False.
    """
    return _delta_from_q(_q_integral(x), x.scalar_kind())


def _delta_from_q(q, kind):
    """delta_case2 from the integral copy q = (Dg, G') of gram(Q_x) (_q_integral):
    the cube root of det G' / (Dg^7 * 81/4), det G' on ints, for a rational form;
    else a float cube root of numpy's det of the gram, ValueError when it overflows."""
    D, G = q
    if kind == "rational":
        root = cube_root_rational(linalg.mat_det(G) / (QCASE2_DET_RATIO * D ** 7))
        if root is None:
            raise ArithmeticError("det gram / (81/4) must be a perfect cube for rational input")
        return root, True
    import numpy as np
    with np.errstate(over="ignore"):  # an overflowing det is reported by _finite below
        gram = G if D == 1 else _view(D, G)  # a float form's gram as it is
        det = float(np.linalg.det(np.array([[float(v) for v in r] for r in gram])))
    return _finite(float(np.cbrt(det / float(QCASE2_DET_RATIO)))), False


def pfaffian(x):
    """Pfaffian of a degree-2 form on an even-dimensional space.

    pf^2 = det of the skew coefficient matrix, and pf(g.x) = det(g) pf(x).
    Skew elimination, O(n^3): bring a pivot to (k, k+1) by one row/column
    swap (a sign flip), multiply by it, and replace the rest by the Schur
    complement of the 2x2 block.  Floats pivot on the largest |A[k][j]|
    (Parlett-Reid, Wimmer 2012); exact scalars on the first nonzero entry, so
    Fraction and QuadExt only ever divide exactly.
    """
    if x.dim % 2:
        raise ValueError("pfaffian needs even dimension")
    A = skew_matrix(x)
    m = x.dim
    largest = x.scalar_kind() == "float"
    pf = 1
    for k in range(0, m, 2):
        r0 = A[k]
        if largest:
            j = max(range(k + 1, m), key=lambda t: abs(r0[t]))
        else:
            j = next((t for t in range(k + 1, m) if r0[t] != 0), k + 1)
        if r0[j] == 0:
            return 0.0 if largest else r0[j]
        if j != k + 1:
            A[k + 1], A[j] = A[j], A[k + 1]
            for row in A[k:]:
                row[k + 1], row[j] = row[j], row[k + 1]
            pf = -pf
        r1 = A[k + 1]
        p = r0[k + 1]
        pf = pf * p
        # A[i][t] += (A[k+1][i] A[k][t] - A[k][i] A[k+1][t]) / p, kept skew
        for i in range(k + 2, m):
            a, b, row = r1[i] / p, r0[i] / p, A[i]
            for t in range(i + 1, m):
                v = row[t] + a * r0[t] - b * r1[t]
                row[t] = v
                A[t][i] = -v
    return pf


def skew_matrix(x):
    """Skew-symmetric coefficient matrix of a degree-2 form, zeros of its scalar type."""
    if x.degree != 2:
        raise ValueError("needs a degree-2 form")
    n = x.dim
    zero = next((v - v for v in x.coeffs.values()), Fraction(0))
    M = [[zero] * n for _ in range(n)]
    for (i, j), v in x.coeffs.items():
        M[i - 1][j - 1] = v
        M[j - 1][i - 1] = -v
    return M


@dataclass
class InvariantReport:
    """Per-case invariant bundle: only the relevant fields are populated.  s and q are
    the integral copies (D, M) of S_x (dim 6) and of gram(Q_x) (dim 7), as
    _s_integral and _q_integral build them (D = 1 for a float S_x), and s_matrix and
    q_gram their views M / D."""

    case: int
    delta: object = None
    delta_exact: bool = True
    s: tuple = None
    q: tuple = None
    pfaffian: object = None

    s_matrix = property(lambda self: self.s and _view(*self.s))
    q_gram = property(lambda self: self.q and _view(*self.q))


def case_of(x):
    """1, 2 or 3 from (dim, degree); raises on unrecognized shapes."""
    if x.degree == 3 and x.dim == 6:
        return 1
    if x.degree == 3 and x.dim == 7:
        return 2
    if x.degree == 2 and x.dim % 2 == 0:
        return 3
    raise ValueError(f"unrecognized shape: dim {x.dim}, degree {x.degree}")


def invariant_report(x):
    """InvariantReport of x; ValueError when a float result overflows.  An exact
    dim-6 delta is checked against the explicit quartic on Dx, over Z or
    Z[sqrt d], which is D^4 delta = Dk^2 delta."""
    case = case_of(x)
    is_float = x.scalar_kind() == "float"
    if case == 1:
        if is_float:
            S = s_case1(x)
            d = _finite(delta_case1_explicit(x), *(v for row in S for v in row))
            return InvariantReport(case=1, delta=d, delta_exact=False, s=(1, S))
        Dk, S = _s_integral(x, 6)
        d = _delta_from_s(Dk, S)
        if d * Dk * Dk != delta_case1_explicit(integral_multiple(x)[1]):
            raise ArithmeticError("S_x^2 and the explicit quartic disagree (internal bug)")
        return InvariantReport(case=1, delta=d, s=(Dk, S))
    if case == 2:
        q = _q_integral(x)
        d, exact = _delta_from_q(q, x.scalar_kind())
        return InvariantReport(case=2, delta=d, delta_exact=exact, q=q)
    pf = pfaffian(x)
    return InvariantReport(case=3, delta_exact=not is_float,
                           pfaffian=_finite(pf) if is_float else pf)


def _finite(*values):
    """The first value, once all are finite (an overflowed float invariant is not)."""
    if not all(math.isfinite(v) for v in values):
        raise ValueError("float coefficients too large: an invariant overflows")
    return values[0]
