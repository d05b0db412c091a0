"""Exact linear algebra over field scalars (Fraction, QuadExt).

Matrices are lists of lists.  Every exact kernel runs on one sparse
Gauss-Jordan loop, ``sparse_rref``, over the nonzero entries of each row, so
its cost follows the nonzeros, not the shape.  Rows come scaled by their
common denominator (scalars.clear_denominators) to ints, or to ints and
QuadExts over Z[sqrt d], and are reduced fraction-free; only the outputs are
divided through (_over).  ``int_nullspace``, the kernel of the stabilizer and
eigenspace systems, realifies a Z[sqrt d] system onto ints (a kernel is a
Q-space too); ``mat_det`` and ``mat_inv`` keep native Z[sqrt d] rows, as det
needs the Q(sqrt d) pivots (a realified one is their norm).  Floats use numpy.
"""

from __future__ import annotations

import math
from fractions import Fraction
from numbers import Integral

from .scalars import QuadExt, _new, clear_denominators, demote


def identity(n):
    return [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]


def zeros(m, n):
    return [[Fraction(0)] * n for _ in range(m)]


def transpose(A):
    return [list(col) for col in zip(*A)]


def mat_mul(A, B):
    n, k, m = len(A), len(B), len(B[0])
    if len(A[0]) != k:
        raise ValueError(f"shape mismatch: {n}x{len(A[0])} times {k}x{m}")
    Bt = transpose(B)
    return [[sum(A[i][t] * Bt[j][t] for t in range(k)) for j in range(m)] for i in range(n)]


def mat_vec(A, v):
    if len(A[0]) != len(v):
        raise ValueError(f"shape mismatch: {len(A)}x{len(A[0])} times a vector of {len(v)}")
    return [sum(row[j] * v[j] for j in range(len(v))) for row in A]


def _over(v, n=1):
    """v / n for an int n != 0, as dividing through gives it: a Fraction for an
    int v, a QuadExt for a QuadExt."""
    return Fraction(v, n) if type(v) is int else v / n


def _reduce(M, ncols):
    """(rows, pivots, det): sparse_rref of the rows of M, each row times its
    common denominator (clear_denominators; a float counts as its exact value)."""
    cleared = [clear_denominators(Fraction(v) if type(v) is float else v for v in row)
               for row in M]
    rows = [{j: v for j, v in enumerate(values) if v} for _, values in cleared]
    pivots, (num, den) = sparse_rref(rows, ncols)
    return rows, pivots, _over(num, den * math.prod(D for D, _ in cleared))


def sparse_rref(rows, ncols):
    """Sparse Gauss-Jordan on rows {column: value} over Z or Z[sqrt d] (ints and
    QuadExts with D = 1), in place, on their first ncols columns (the others
    are carried along).  Rows are taken in decreasing order of their leading
    column, reduced at the stored pivots where they are nonzero; a row's first
    nonzero column below ncols becomes its pivot and is cleared from the
    stored rows.  Rows run fraction-free (Bareiss 1968), as p * row - f *
    pivot row divided by the gcd of its integer parts.  A QuadExt pivot has
    its row multiplied by its conjugate, so every stored pivot is a rational
    integer (held as a QuadExt with B = 0 in such a row, _pivot reads it).

    Returns (pivots, (num, den)): (c, i) in column order, rows[i] having its
    pivot at c (primitive with its own pivot entry) and zero at the other
    pivots; the other rows vanish on the first ncols columns.  num / den is
    the determinant of a square system of full rank.
    """
    stored, num, den = {}, 1, 1  # pivot column -> (row index, row)
    for i in sorted(range(len(rows)), key=lambda i: min(rows[i], default=ncols), reverse=True):
        row = rows[i]
        hits = [(c, _pivot(stored[c][1][c])) for c in row if c in stored]
        p = math.lcm(*(q for _, q in hits))
        _eliminate(row, [(row[c] * (p // q), stored[c][1]) for c, q in hits], p)
        g = _primitive(row)
        c = min((j for j in row if j < ncols), default=None)
        if c is None:
            continue
        pv = row[c]
        num, den = num * pv * g, den * p
        if type(pv) is QuadExt:  # even for B = 0: the row turns QuadExt, as dividing would
            conj = pv.conjugate()
            for j in row:
                row[j] *= conj
            _primitive(row)
            pv = _pivot(row[c])
        for _, other in stored.values():
            if c in other:
                f = other[c]
                h = math.gcd(pv, f) if type(f) is int else math.gcd(pv, f._A, f._B)
                _eliminate(other, [(_divexact(f, h), row)], pv // h)
                _primitive(other)
        stored[c] = (i, row)
    pivots = [(c, stored[c][0]) for c in sorted(stored)]
    odd = sum(b < a for k, (_, a) in enumerate(pivots) for _, b in pivots[k + 1:]) % 2
    return pivots, (-num if odd else num, den)


def _pivot(v):
    """A stored pivot as an int: an int, or a QuadExt with B = 0 and D = 1."""
    return v if type(v) is int else v._A


def int_nullspace(rows, ncols):
    """Basis of {x : A x = 0} for rows {column: value} over Z or Z[sqrt d] (ints,
    and QuadExts with D = 1): a (free column, vector) pair per free column, in
    order, the vector primitive and the canonical one (1 there, 0 at the other
    free columns) times its int entry there.  Int rows are reduced in place; a
    Z[sqrt d] system is solved realified (_realify), on ints, and the entries
    of its vectors off the free column are QuadExts.  One lcm M of the pivots
    serves every free column: its vector is M there and -r[fc] M / p_c at each
    pivot column c (row r, pivot p_c), made primitive."""
    d = next((v.d for row in rows for v in row.values() if type(v) is QuadExt), None)
    if d is not None:
        rows, ncols = _realify(rows, d), 2 * ncols
    pivots, _ = sparse_rref(rows, ncols)
    M = math.lcm(*(rows[i][c] for c, i in pivots))
    terms = [(c, rows[i], M // rows[i][c]) for c, i in pivots]
    basis = []
    for fc in sorted(set(range(0, ncols, 1 if d is None else 2)) - {c for c, _ in pivots}):
        v = {fc: M, **{c: -r[fc] * q for c, r, q in terms if fc in r}}
        _primitive(v)
        if d is not None:  # entry b is v[2b] + v[2b + 1] sqrt(d), and v[2fc + 1] = 0
            fc, v = fc // 2, {fc // 2: v[fc], **{b: _new(v.get(2 * b, 0), v.get(2 * b + 1, 0), 1, d)
                                               for b in sorted({c // 2 for c in v} - {fc // 2})}}
        basis.append((fc, v))
    return basis


def _realify(rows, d):
    """Int rows on the columns (2c, 2c + 1) for rows over Z[sqrt d]: A + B sqrt(d) at
    column c is the block [[A, d B], [B, A]] of multiplication by it in the basis
    (1, sqrt(d)), rows "re" and "sqrt d" (d < 0 too); so pivots come in pairs."""
    out = []
    for row in rows:
        re, im = {}, {}
        for c, v in row.items():
            A, B = (v, 0) if type(v) is int else (v._A, v._B)
            if type(v) is QuadExt and v.d != d:
                raise ValueError(f"mixing sqrt({d}) with sqrt({v.d})")
            if A:
                re[2 * c] = im[2 * c + 1] = A
            if B:
                re[2 * c + 1], im[2 * c] = d * B, B
        out += (re, im)
    return out


def _eliminate(row, terms, p=1):
    """row <- p * row - sum of f * prow over (f, prow) in terms, on {column: value}
    rows, dropping entries that cancel."""
    if p != 1:
        for j in row:
            row[j] *= p
    for f, prow in terms:
        for j, b in prow.items():
            v = row.get(j, 0) - f * b
            if v:
                row[j] = v
            else:
                del row[j]


def _primitive(row):
    """Divide a row over Z or Z[sqrt d] by the gcd of the integer parts of its
    entries; returns that gcd (1 for an empty row)."""
    try:
        g = math.gcd(*row.values())
    except TypeError:  # a QuadExt entry: the gcd of the ints and of every A and B
        g = math.gcd(*(n for v in row.values() for n in ((v,) if type(v) is int else (v._A, v._B))))
    if g > 1:
        for j, v in row.items():
            row[j] = v // g if type(v) is int else _divexact(v, g)
    return g or 1


def _divexact(v, g):
    """v / g for an int or a QuadExt with D = 1 whose integer parts g divides."""
    return v // g if type(v) is int else _new(v._A // g, v._B // g, 1, v.d)


def mat_det(A):
    """Exact determinant: the signed product of the elimination pivots."""
    _, pivots, det = _reduce(A, len(A))
    return det if len(pivots) == len(A) else 0 * det


def _solve_block(A, B):
    """X with A X = B for a square A, read off the reduction of [A | B]: each
    pivot row divided by its pivot (_over), its zeros 0 * pivot, so a row over
    Z[sqrt d] gives QuadExts and a rational one Fractions."""
    n = len(A)
    rows, pivots, _ = _reduce([list(ra) + list(rb) for ra, rb in zip(A, B)], n)
    if len(pivots) < n:
        raise ZeroDivisionError("singular matrix")
    out = []
    for c, i in pivots:
        row, p, zero = rows[i], _pivot(rows[i][c]), _over(0 * rows[i][c])
        out.append([_over(row[j], p) if j in row else zero for j in range(n, n + len(B[0]))])
    return out


def mat_inv(A):
    return _solve_block(A, identity(len(A)))


def int_inverse(A):
    """(D, X) with A^-1 = X / D for an invertible square matrix A over Z: the
    reduction of [A | I] (sparse_rref), each pivot row scaled to D, the lcm of
    the pivots.  ZeroDivisionError when A is singular."""
    n = len(A)
    rows = [{**{j: v for j, v in enumerate(row) if v}, n + i: 1} for i, row in enumerate(A)]
    pivots, _ = sparse_rref(rows, n)
    if len(pivots) < n:
        raise ZeroDivisionError("singular matrix")
    D = math.lcm(*(rows[i][c] for c, i in pivots))
    return D, [[rows[i].get(j, 0) * (D // rows[i][c]) for j in range(n, 2 * n)] for c, i in pivots]


def congruent_signature(G):
    """Exact signature (n_plus, n_minus, n_zero) of a symmetric matrix over Q;
    a float counts as its exact value, any Integral (numpy's too) as its int,
    an entry outside Q raises ValueError.

    G times its common denominator is an integer A with the same signs.  The
    Faddeev-LeVerrier recurrence M_k = A (M_{k-1} + c_{k-1} I), c_k = -tr(M_k)
    / k, gives det(tI - A) = sum of c_k t^(n-k) on ints (exact divisions).
    Its roots are real, so Descartes' rule of signs counts them: n_zero is the
    power of t dividing it, n_plus and n_minus the sign changes at t and -t.
    """
    n = len(G)
    entries = [int(v) if isinstance(v, Integral) else Fraction(v) if isinstance(v, float)
               else demote(v) for row in G for v in row]
    q = next((v for v in entries if isinstance(v, QuadExt)), None)
    if q is not None:
        raise ValueError(f"the signature needs a rational gram, not one over Q(sqrt {q.d})")
    if any(entries[i * n + j] != entries[j * n + i] for i in range(n) for j in range(i)):
        raise ArithmeticError("the gram is not symmetric")
    _, flat = clear_denominators(entries)
    A, c, M = [flat[i * n:(i + 1) * n] for i in range(n)], [1], [[0] * n for _ in range(n)]
    for k in range(1, n + 1):
        M = mat_mul(A, [[v + c[-1] * (i == j) for j, v in enumerate(row)]
                        for i, row in enumerate(M)])
        c.append(-sum(M[i][i] for i in range(n)) // k)
    nz = [(k, ck) for k, ck in enumerate(c) if ck]  # c_0 = 1 leads
    nzero = n - nz[-1][0]
    npos = sum(a * b < 0 for (_, a), (_, b) in zip(nz, nz[1:]))
    nneg = sum(a * b * (-1) ** (j - i) < 0 for (i, a), (j, b) in zip(nz, nz[1:]))
    if npos + nneg + nzero != n:
        raise ArithmeticError("signature counts do not add up to the dimension (internal bug)")
    return npos, nneg, nzero
