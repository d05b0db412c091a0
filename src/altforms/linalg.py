"""Exact dense linear algebra over field scalars (Fraction, QuadExt).

Matrices are lists of lists.  Elimination uses exact division, so results
are exact for any scalar type with exact ``+ - * /``; the float paths of the
package use numpy instead.
"""

from __future__ import annotations

from fractions import Fraction


def identity(n):
    return [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]


def zeros(m, n):
    return [[Fraction(0)] * n for _ in range(m)]


def transpose(A):
    return [list(col) for col in zip(*A)]


def mat_add(A, B):
    return [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def mat_sub(A, B):
    return [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def mat_scale(c, A):
    return [[c * a for a in row] for row in A]


def mat_mul(A, B):
    n, k, m = len(A), len(B), len(B[0])
    assert len(A[0]) == k, "shape mismatch"
    Bt = transpose(B)
    return [[sum(A[i][t] * Bt[j][t] for t in range(k)) for j in range(m)] for i in range(n)]


def mat_vec(A, v):
    assert len(A[0]) == len(v)
    return [sum(row[j] * v[j] for j in range(len(v))) for row in A]


def mat_eq(A, B):
    return len(A) == len(B) and all(ra == rb for ra, rb in zip(A, B))


def _gauss_jordan(M, ncols):
    """Reduce M in place to reduced row echelon form on its first ncols columns.

    The pivot of a column is its first nonzero entry at or below the current
    row; that row is swapped up, scaled to 1 and cleared from every other
    row.  Columns past ncols are carried along, so [A | B] reduces to
    [I | A^-1 B] for an invertible A.  Returns (pivot columns, det), where
    det is the product of the pivots with one sign flip per row swap: the
    determinant of a square M whose every column has a pivot.
    """
    nr = len(M)
    pivots = []
    det = Fraction(1)
    r = 0
    for c in range(ncols):
        if r == nr:
            break
        piv = next((i for i in range(r, nr) if M[i][c] != 0), None)
        if piv is None:
            continue
        if piv != r:
            M[r], M[piv] = M[piv], M[r]
            det = -det
        pv = M[r][c]
        det = det * pv
        M[r] = [v / pv for v in M[r]]
        for i in range(nr):
            if i != r and M[i][c] != 0:
                f = M[i][c]
                M[i] = [a - f * b for a, b in zip(M[i], M[r])]
        pivots.append(c)
        r += 1
    return pivots, det


def mat_det(A):
    """Exact determinant: the signed product of the elimination pivots."""
    M = [list(row) for row in A]
    pivots, det = _gauss_jordan(M, len(M))
    return det if len(pivots) == len(M) else 0 * det


def _solve_block(A, B):
    """X with A X = B for a square A, read off the reduction of [A | B]."""
    n = len(A)
    M = [list(ra) + list(rb) for ra, rb in zip(A, B)]
    if len(_gauss_jordan(M, n)[0]) < n:
        raise ZeroDivisionError("singular matrix")
    return [row[n:] for row in M]


def mat_inv(A):
    return _solve_block(A, identity(len(A)))


def solve(A, b):
    """Solve A x = b exactly; raises ZeroDivisionError if A is singular."""
    return [row[0] for row in _solve_block(A, [[v] for v in b])]


def rref(A):
    """Reduced row echelon form; returns (rows, pivot column list)."""
    M = [list(row) for row in A]
    pivots, _ = _gauss_jordan(M, len(M[0]) if M else 0)
    return M, pivots


def rank(A):
    return len(rref(A)[1])


def nullspace(A, ncols=None):
    """Exact basis of {x : A x = 0} for a list-of-rows matrix."""
    ncols = ncols if ncols is not None else len(A[0]) if A else 0
    M, pivots = rref(A)
    basis = []
    for fc in sorted(set(range(ncols)) - set(pivots)):
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = -M[r][fc]
        basis.append(v)
    return basis


def congruent_signature(G):
    """Exact signature (n_plus, n_minus, n_zero) of a symmetric matrix.

    Diagonalizes by simultaneous row/column operations; exact over any
    ordered exact scalar (use on Fraction grams).
    """
    n = len(G)
    M = [row[:] for row in G]
    npos = nneg = nzero = 0
    idx = 0
    live = list(range(n))
    while live:
        k = live[0]
        if M[k][k] == 0:
            # find j with M[k][j] != 0 among live and mix row/col j into k;
            # one of the two mix signs always produces a nonzero diagonal
            j = next((j for j in live[1:] if M[k][j] != 0), None)
            if j is None:
                nzero += 1
                live.pop(0)
                continue
            sign = 1 if 2 * M[k][j] + M[j][j] != 0 else -1
            for t in range(n):
                M[k][t] = M[k][t] + sign * M[j][t]
            for t in range(n):
                M[t][k] = M[t][k] + sign * M[t][j]
        d = M[k][k]
        if d == 0:
            raise ArithmeticError("signature pivot is zero: the gram is not symmetric")
        if d > 0:
            npos += 1
        else:
            nneg += 1
        for j in live[1:]:
            if M[k][j] != 0:
                f = M[k][j] / d
                for t in range(n):
                    M[j][t] = M[j][t] - f * M[k][t]
                for t in range(n):
                    M[t][j] = M[t][j] - f * M[t][k]
        live.pop(0)
    if npos + nneg + nzero != n:
        raise ArithmeticError("signature counts do not add up to the dimension (internal bug)")
    return npos, nneg, nzero
