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


def mat_det(A):
    """Exact determinant by elimination with division."""
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


def mat_inv(A):
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


def solve(A, b):
    """Solve A x = b exactly; raises ZeroDivisionError if A is singular."""
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


def rref(A):
    """Reduced row echelon form; returns (rows, pivot column list)."""
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


def rank(A):
    if not A:
        return 0
    return len(rref(A)[1])


def nullspace(A, ncols=None):
    """Exact basis of {x : A x = 0} for a list-of-rows matrix."""
    if not A:
        return [ [Fraction(1) if i == j else Fraction(0) for j in range(ncols)]
                 for i in range(ncols) ] if ncols else []
    ncols = ncols if ncols is not None else len(A[0])
    M, pivots = rref(A)
    pivot_of_col = {c: r for r, c in enumerate(pivots)}
    free = [c for c in range(ncols) if c not in pivot_of_col]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for c, r in pivot_of_col.items():
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
        assert d != 0
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
    assert npos + nneg + nzero == n
    return npos, nneg, nzero
