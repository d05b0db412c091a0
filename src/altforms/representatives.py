"""Canonical orbit representatives and explicit group elements.

The dim-6 quadratic-extension representative is pinned by three exact
requirements rather than by a printed coefficient list: g_alpha(d) must carry
w = e123 + e456 to it, must satisfy conj(g_alpha) = g_alpha * tau entrywise,
and must have determinant exactly -8*sqrt(d).  The block matrix below is the
unique diagonal-block solution (up to permuting which slot absorbs the
asymmetry), and it gives

    w_alpha(d) = e123 + d*e156 - 4*e246 + 4*e345,      delta = 64 d
    w_1        = w_alpha(-1),                          delta = -64

The dim-7 fixture g1 (entries in Q(sqrt(-1)), det 8) carries the split
representative w to the nonsplit one:

    w_1 = -2*(e123 + e145 - e167 + e246 + e257 + e347 - e356),  delta = 2^9*6.
"""

from __future__ import annotations

from fractions import Fraction

from . import linalg
from .multilinear import AlternatingForm
from .scalars import QuadExt, _is_squarefree, demote

REP_NAMES = ("case1_w", "case1_w1", "case1_walpha", "case2_w", "case2_wprime",
             "case2_w1", "case3_w")


def _check_d(d):
    if not isinstance(d, int) or d in (0, 1):
        raise ValueError(f"d must be a squarefree integer != 0, 1; got {d!r}")
    if not _is_squarefree(d):
        raise ValueError(f"d must be squarefree; got {d}")


def make_rep(name, d=None, n=None):
    """Canonical representative form for a tag in REP_NAMES: d for case1_walpha and
    n for case3_w; ValueError for an unknown tag, or for a d or n the tag does not take."""
    if name not in REP_NAMES:
        raise ValueError(f"unknown representative {name!r}")
    for option, value in (("d", d), ("n", n)):
        if value is not None and name != {"d": "case1_walpha", "n": "case3_w"}[option]:
            raise ValueError(f"{name} does not take {option}")
    one = Fraction(1)
    if name == "case1_w":
        return AlternatingForm(6, 3, {(1, 2, 3): one, (4, 5, 6): one})
    if name == "case1_w1":
        return make_rep("case1_walpha", d=-1)
    if name == "case1_walpha":
        _check_d(d)
        return AlternatingForm(6, 3, {(1, 2, 3): one, (1, 5, 6): Fraction(d),
                                      (2, 4, 6): Fraction(-4), (3, 4, 5): Fraction(4)})
    if name == "case2_w":
        return AlternatingForm(7, 3, {(2, 3, 4): one, (5, 6, 7): one, (1, 2, 5): one,
                                      (1, 3, 6): one, (1, 4, 7): one})
    if name == "case2_wprime":
        return AlternatingForm(7, 3, {(1, 2, 7): one, (1, 4, 5): -one,
                                      (2, 3, 5): one, (3, 4, 6): -one})
    if name == "case2_w1":
        two = Fraction(-2)
        return AlternatingForm(7, 3, {(1, 2, 3): two, (1, 4, 5): two, (1, 6, 7): -two,
                                      (2, 4, 6): two, (2, 5, 7): two, (3, 4, 7): two,
                                      (3, 5, 6): -two})
    if not isinstance(n, int) or n < 1:  # case3_w
        raise ValueError(f"n must be a positive integer; got {n!r}")
    return AlternatingForm(2 * n, 2, {(i, n + i): one for i in range(1, n + 1)})


def d_block(A, B):
    """Block-diagonal 6x6 matrix from two 3x3 blocks."""
    Z = Fraction(0)
    out = [[Z] * 6 for _ in range(6)]
    for i in range(3):
        for j in range(3):
            out[i][j] = A[i][j]
            out[i + 3][j + 3] = B[i][j]
    return out


def tau():
    """The order-2 element swapping the two 3-dimensional blocks."""
    Z, O = Fraction(0), Fraction(1)
    out = [[Z] * 6 for _ in range(6)]
    for i in range(3):
        out[i][i + 3] = O
        out[i + 3][i] = O
    return out


def g_alpha(d):
    """6x6 matrix over Q(sqrt(d)) with g.w = w_alpha(d) and det = -8*sqrt(d)."""
    _check_d(d)
    half = Fraction(1, 2)
    P = [half, Fraction(1), Fraction(1)]
    Q = [Fraction(2, d), Fraction(1), Fraction(1)]
    Z = QuadExt(0, 0, d)
    g = [[Z] * 6 for _ in range(6)]
    for i in range(3):
        g[i][i] = QuadExt(P[i], 0, d)
        g[i][i + 3] = QuadExt(P[i], 0, d)
        g[i + 3][i] = QuadExt(0, Q[i], d)
        g[i + 3][i + 3] = QuadExt(0, -Q[i], d)
    return g


def g1_fixture():
    """7x7 matrix over Q(sqrt(-1)) with det 8 carrying case2_w to case2_w1."""
    i1 = QuadExt(0, 1, -1)
    O = QuadExt(1, 0, -1)
    Z = QuadExt(0, 0, -1)
    rows = [
        [Z, O, Z, Z, O, Z, Z],
        [-i1, Z, Z, Z, Z, Z, Z],
        [Z, -i1, Z, Z, i1, Z, Z],
        [Z, Z, -O, Z, Z, -O, Z],
        [Z, Z, Z, O, Z, Z, O],
        [Z, Z, -i1, Z, Z, i1, Z],
        [Z, Z, Z, i1, Z, Z, -i1],
    ]
    return rows


def stabilizer_witness_case1(A, d):
    """g_alpha d(A, conj(A)) g_alpha^{-1}: a rational matrix fixing w_alpha(d).

    A must be a 3x3 matrix over Q(sqrt(d)) with determinant exactly 1.  The
    result has all entries rational; a non-rational entry indicates a bug and
    raises ArithmeticError.
    """
    detA = linalg.mat_det([[_lift(e, d) for e in row] for row in A])
    if not (detA == 1):
        raise ValueError(f"det A must be 1, got {detA!r}")
    Al = [[_lift(e, d) for e in row] for row in A]
    As = [[e.conjugate() for e in row] for row in Al]
    g = g_alpha(d)
    inner = d_block(Al, As)
    out = linalg.mat_mul(linalg.mat_mul(g, inner), linalg.mat_inv(g))
    rat = []
    for row in out:
        r = []
        for e in row:
            e = demote(e)
            if isinstance(e, QuadExt):
                raise ArithmeticError("stabilizer witness is not rational (internal bug)")
            r.append(e)
        rat.append(r)
    return rat


def _lift(e, d):
    if isinstance(e, QuadExt):
        if e.d != d:
            raise ValueError("discriminant mismatch")
        return e
    return QuadExt(e, 0, d)
