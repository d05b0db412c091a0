"""The one Gauss-Jordan kernel of linalg and the contraction-plan S_x builders,
checked against the code they replaced.

The oracles below are copies of the four separate pivot loops that linalg
had (forward elimination for the determinant, Gauss-Jordan on [A | I] and
[A | b], and the RREF loop) and of the S_x builders that formed one wedge
product x ^ e_pair per D3 term.  The RREF is read off ``sparse_rref`` as
``fixed_space`` reads it: each pivot row divided by its pivot.  Inputs are
seeded random Fraction and Q(sqrt d) matrices and forms, singular matrices
included.
"""

import random
from fractions import Fraction

import pytest

from altforms import linalg
from altforms.invariants import s_case1, s_case2
from altforms.multilinear import AlternatingForm, all_keys, d3, sort_sign, wedge
from altforms.scalars import QuadExt, clear_denominators


# ------------------------------------------------------------- oracles ----

def old_mat_det(A):
    n = len(A)
    M = [row[:] for row in A]
    det = Fraction(1)
    for col in range(n):
        piv = None
        for r in range(col, n):
            if M[r][col] != 0:
                piv = r
                break
        if piv is None:
            return 0 * det
        if piv != col:
            M[col], M[piv] = M[piv], M[col]
            det = -det
        det = det * M[col][col]
        inv = M[col][col]
        for r in range(col + 1, n):
            if M[r][col] != 0:
                f = M[r][col] / inv
                M[r] = [a - f * b for a, b in zip(M[r], M[col])]
    return det


def old_mat_inv(A):
    n = len(A)
    M = [row[:] + [Fraction(1) if i == j else Fraction(0) for j in range(n)]
         for i, row in enumerate(A)]
    for col in range(n):
        piv = None
        for r in range(col, n):
            if M[r][col] != 0:
                piv = r
                break
        if piv is None:
            raise ZeroDivisionError("singular matrix")
        M[col], M[piv] = M[piv], M[col]
        pv = M[col][col]
        M[col] = [v / pv for v in M[col]]
        for r in range(n):
            if r != col and M[r][col] != 0:
                f = M[r][col]
                M[r] = [a - f * b for a, b in zip(M[r], M[col])]
    return [row[n:] for row in M]


def old_solve(A, b):
    n = len(A)
    M = [row[:] + [b[i]] for i, row in enumerate(A)]
    for col in range(n):
        piv = None
        for r in range(col, n):
            if M[r][col] != 0:
                piv = r
                break
        if piv is None:
            raise ZeroDivisionError("singular matrix")
        M[col], M[piv] = M[piv], M[col]
        pv = M[col][col]
        M[col] = [v / pv for v in M[col]]
        for r in range(n):
            if r != col and M[r][col] != 0:
                f = M[r][col]
                M[r] = [a - f * b2 for a, b2 in zip(M[r], M[col])]
    return [M[i][n] for i in range(n)]


def old_rref(A):
    M = [row[:] for row in A]
    nr = len(M)
    nc = len(M[0]) if nr else 0
    pivots = []
    r = 0
    for c in range(nc):
        piv = None
        for i in range(r, nr):
            if M[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        M[r], M[piv] = M[piv], M[r]
        pv = M[r][c]
        M[r] = [v / pv for v in M[r]]
        for i in range(nr):
            if i != r and M[i][c] != 0:
                f = M[i][c]
                M[i] = [a - f * b for a, b in zip(M[i], M[r])]
        pivots.append(c)
        r += 1
        if r == nr:
            break
    return M, pivots


def old_s_case1(x):
    S = [[Fraction(0)] * 6 for _ in range(6)]
    for (pair, (vec,)), c in d3(x).items():
        five = wedge(x, AlternatingForm(6, 2, {pair: 1}))
        for key5, v5 in five.coeffs.items():
            (j,) = (m for m in range(1, 7) if m not in key5)
            _, s = sort_sign((j,) + key5)
            S[vec - 1][j - 1] = S[vec - 1][j - 1] + s * c * v5
    return S


def old_s_case2(x):
    dx = d3(x)
    S = [[Fraction(0)] * 7 for _ in range(7)]
    by_pair = {}
    for (pair, (vec,)), c in dx.items():
        by_pair.setdefault(pair, []).append((vec, c))
    for (pair1, (v1,)), c1 in dx.items():
        five = wedge(x, AlternatingForm(7, 2, {pair1: 1}))
        for key5, c5 in five.coeffs.items():
            comp = tuple(m for m in range(1, 8) if m not in key5)
            _, s = sort_sign(key5 + comp)
            for v2, c2 in by_pair.get(comp, ()):
                S[v1 - 1][v2 - 1] = S[v1 - 1][v2 - 1] + s * c1 * c2 * c5
    return S


# -------------------------------------------------------------- inputs ----

def rand_scalar(rng, kind):
    a = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    if kind == "rational":
        return a
    return QuadExt(a, Fraction(rng.randint(-3, 3), rng.randint(1, 3)), kind)


def rand_matrix(rng, m, n, kind, density=0.7):
    zero = rand_scalar(rng, kind) * 0
    return [[rand_scalar(rng, kind) if rng.random() < density else zero for _ in range(n)]
            for _ in range(m)]


def make_singular(rng, M):
    """Replace one row by a combination of two others (square, n >= 3)."""
    i, j, k = rng.sample(range(len(M)), 3)
    a, b = Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3))
    M[i] = [a * u + b * v for u, v in zip(M[j], M[k])]
    return M


KINDS = ("rational", 2, -1, 5)


@pytest.mark.parametrize("kind", KINDS)
def test_det_inv_solve_match_the_old_loops(kind):
    rng = random.Random(f"square:{kind}")
    for trial in range(40):
        n = rng.randint(1, 6)
        A = rand_matrix(rng, n, n, kind, density=rng.choice((0.4, 0.8, 1.0)))
        if n >= 3 and trial % 3 == 0:
            A = make_singular(rng, A)
        b = [rand_scalar(rng, kind) for _ in range(n)]
        assert linalg.mat_det(A) == old_mat_det(A)
        try:
            want_inv = old_mat_inv(A)
        except ZeroDivisionError:
            with pytest.raises(ZeroDivisionError, match="singular matrix"):
                linalg.mat_inv(A)
            with pytest.raises(ZeroDivisionError, match="singular matrix"):
                linalg._solve_block(A, [[v] for v in b])
            assert linalg.mat_det(A) == 0
            continue
        assert linalg.mat_inv(A) == want_inv
        assert [r[0] for r in linalg._solve_block(A, [[v] for v in b])] == old_solve(A, b)


def sparse_rref_rows(A):
    """(pivot rows, pivot columns) of the RREF of A: linalg.sparse_rref on the rows
    cleared to Z or Z[sqrt d], each pivot row divided by its pivot."""
    n = len(A[0])
    rows = [{j: v for j, v in enumerate(clear_denominators(row)[1]) if v} for row in A]
    pivots, _ = linalg.sparse_rref(rows, n)
    return ([[linalg._over(rows[i].get(j, 0), linalg._pivot(rows[i][c])) for j in range(n)]
             for c, i in pivots], [c for c, _ in pivots])


@pytest.mark.parametrize("kind", KINDS)
def test_rref_matches_the_old_loop(kind):
    rng = random.Random(f"rref:{kind}")
    for _ in range(40):
        m, n = rng.randint(1, 7), rng.randint(1, 7)
        A = rand_matrix(rng, m, n, kind, density=rng.choice((0.3, 0.7, 1.0)))
        if m >= 3 and rng.random() < 0.5:
            A[0] = [u + v for u, v in zip(A[1], A[2])]
        M, pivots = old_rref(A)
        assert sparse_rref_rows(A) == (M[:len(pivots)], pivots)


def test_singular_determinant_is_zero():
    A = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
    assert linalg.mat_det(A) == 0 == old_mat_det(A)
    assert linalg.mat_det([[Fraction(0)] * 3 for _ in range(3)]) == 0


def rand_trivector(rng, dim, kind, density):
    return AlternatingForm(dim, 3, {k: rand_scalar(rng, kind) for k in all_keys(dim, 3)
                                    if rng.random() < density})


@pytest.mark.parametrize("kind", ("rational", 3))
def test_s_case1_matches_the_wedge_builder(kind):
    rng = random.Random(f"s1:{kind}")
    for _ in range(25):
        x = rand_trivector(rng, 6, kind, rng.choice((0.3, 0.7, 1.0)))
        assert s_case1(x) == old_s_case1(x)


@pytest.mark.parametrize("kind", ("rational", -1))
def test_s_case2_matches_the_wedge_builder(kind):
    rng = random.Random(f"s2:{kind}")
    for _ in range(8):
        x = rand_trivector(rng, 7, kind, rng.choice((0.3, 0.7, 1.0)))
        assert s_case2(x) == old_s_case2(x)
