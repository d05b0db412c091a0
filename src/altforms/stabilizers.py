"""Stabilizer Lie algebras, fixed-point subspaces, and subalgebra checks.

Group-level fixed points are handled at the algebra level throughout: a
connected stabilizer fixes a vector exactly when the annihilator algebra
does, and annihilators are exact nullspace computations.  An exact algebra
stays integral until it is printed: each basis matrix is one denominator and
its integral entries, the kernel vector they came from as it is, and the
checks and the stab JSON read those ints.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property, lru_cache

from . import linalg
from .multilinear import AlternatingForm, all_keys, entry_moves, integral_multiple
from .scalars import QuadExt, _new, clear_denominators, ratio_to_json


class LieSubalgebra:
    """A subspace of n x n matrices, held as `cleared`: for each basis matrix a
    pair (D, nz), D >= 1 an int and nz the nonzero entries {row-major index
    i * n + j: value} of D times the matrix, each an int or a QuadExt over
    Z[sqrt d] (D = 1 in it); a float basis has D = 1 and its floats.  The
    checks read this one copy.  `entries` (each nz divided by its D, into
    Fractions, QuadExts or floats), `matrix(a)` and `.basis` (made on first
    read) are views of it, their zeros of the type 0 + 0 * v for an entry v
    not a Fraction, if any.  `inexact` marks a float entry.

    LieSubalgebra(n, entries) takes the entries as `entries` gives them
    (Fraction, QuadExt or float values) and clears each matrix once
    (scalars.clear_denominators; a matrix with a float keeps D = 1);
    LieSubalgebra.integral(n, cleared) takes the pairs as they are."""

    def __init__(self, ambient_dim, entries):
        self._hold(ambient_dim, [_cleared(nz) for nz in entries])

    @classmethod
    def integral(cls, ambient_dim, cleared):
        """The algebra of the pairs (D, nz) of the class docstring, as they are."""
        L = cls.__new__(cls)
        L._hold(ambient_dim, cleared)
        return L

    def _hold(self, ambient_dim, cleared):
        self.ambient_dim, self.cleared = ambient_dim, cleared
        self.inexact = any(isinstance(v, float) for _, nz in cleared for v in nz.values())

    dim = property(lambda self: len(self.cleared))

    @property
    def entries(self):
        return [_divided(D, nz) for D, nz in self.cleared]

    @cached_property
    def basis(self):
        return [self.matrix(a) for a in range(self.dim)]

    def matrix(self, a):
        """Basis matrix a, as .basis holds it, without making the whole .basis."""
        D, nz = self.cleared[a]
        return _rows(self.ambient_dim, _divided(D, nz).items(), _zero(nz))

    def basis_json(self):
        """scalar_to_json(self.basis), written from the integral copy: each entry
        v / D by scalars.ratio_to_json, with no Fraction or QuadExt made."""
        return [_rows(self.ambient_dim, ((e, ratio_to_json(v, D)) for e, v in nz.items()),
                      ratio_to_json(_zero(nz))) for D, nz in self.cleared]


def _rows(n, values, zero):
    """The rows of the n x n matrix with the given (row-major index, value) pairs,
    zero elsewhere."""
    flat = [zero] * (n * n)
    for e, v in values:
        flat[e] = v
    return [flat[i:i + n] for i in range(0, n * n, n)]


def _cleared(nz):
    """(D, D * nz) for entries {index: value}, D their least common denominator
    (clear_denominators); (1, nz) if a value is a float."""
    cleared = clear_denominators(nz.values())
    return (1, nz) if cleared is None else (cleared[0], dict(zip(nz, cleared[1])))


def _divided(D, nz):
    """{index: v / D} over the entries of an integral copy (linalg._over: an int
    gives a Fraction, a QuadExt a QuadExt, a float itself for D = 1)."""
    return {e: linalg._over(v, D) for e, v in nz.items()}


def _zero(nz):
    """The zero of a basis matrix with the integral entries nz: 0 + 0 * v for the
    first v not an int or a Fraction (a QuadExt or a float), if any."""
    return _ZERO + 0 * next((v for v in nz.values() if type(v) not in (int, Fraction)), 0)


_ZERO = Fraction(0)


def sl_basis(n):
    """Basis of trace-zero n x n matrices: off-diagonal units then E11 - Eii."""
    return _units(n, [_entries_from({b: 1}, n) for b in range(n * n - 1)]).basis


def stab_lie_algebra(x):
    """Annihilator of x in sl(dim): all traceless X with lie_action(X, x) = 0.

    An exact x is scaled to Z or Z[sqrt d] (integral_multiple) and its system
    solved by linalg.int_nullspace; each primitive vector v, free at fc, is
    the basis matrix with D = v[fc] and the integral entries of v
    (_entries_from), divided nowhere.  Float forms use a numpy SVD nullspace
    with a relative cutoff (D = 1).
    """
    n, m, kind = x.dim, x.dim * x.dim - 1, x.scalar_kind()
    if kind == "float":
        import numpy as np
        A = np.array([[row.get(b, 0.0) for b in range(m)] for row in stab_system(x)], dtype=float)
        u, s, vh = np.linalg.svd(A)
        tol = max(A.shape) * (s[0] if len(s) else 0.0) * 1e-12
        cleared = [(1, _entries_from(dict(enumerate(c.tolist())), n))
                   for c in vh[int((s > tol).sum()):]]
    else:
        rows = stab_system(integral_multiple(x)[1])
        cleared = [(v[fc], _entries_from(v, n)) for fc, v in linalg.int_nullspace(rows, m)]
    return LieSubalgebra.integral(n, cleared)


def stab_system(x):
    """The keys x sl_basis system whose nullspace is stab(x), as sparse rows
    {b: value}, value the coefficient of e_K in lie_action(sl_basis(dim)[b], x).

    Read off the signed index maps of the units, with no products: each
    value is one coefficient of x or its negative, as it is (ints stay ints).
    """
    rows = [{} for _ in range(math.comb(x.dim, x.degree))]
    moves = _unit_moves(x.dim, x.degree)
    for K, v in x.coeffs.items():
        signed = (None, v, -v)  # indexed by the sign +1 or -1
        for t, b, sign in moves[K]:
            rows[t][b] = signed[sign]
    return rows


@lru_cache(maxsize=None)
def _unit_moves(dim, degree):
    """{K: ((t, b, sign), ...)} over the keys K of all_keys(dim, degree), with
    lie_action(sl_basis(dim)[b], e_K) = sign * e_keys[t]: multilinear.entry_moves
    on the columns of sl_basis, the off-diagonal units in row-major order, then
    E_11 - E_ii, which scales e_K by [1 in K] - [i in K]."""
    keys, moves = all_keys(dim, degree), entry_moves(dim, degree)
    index, out = {K: t for t, K in enumerate(keys)}, {K: [] for K in keys}
    off = [e for e in range(dim * dim) if e % (dim + 1)]
    for b, e in enumerate(off):
        for K, T, sign in moves[e]:
            out[K].append((index[T], b, sign))
    first = {K for K, _, _ in moves[0]}
    for i in range(1, dim):
        for K in first.symmetric_difference(K for K, _, _ in moves[i * (dim + 1)]):
            out[K].append((index[K], len(off) + i - 1, 1 if K in first else -1))
    return {K: tuple(v) for K, v in out.items()}


def _entries_from(v, n):
    """The nonzero entries {row-major index: value} of sum_b v[b] * sl_basis(n)[b]
    for a vector {b: v[b]} over Z (ints), over Z[sqrt d] (ints and QuadExts
    with D = 1; every entry a QuadExt if one is) or of floats.

    An off-diagonal v[b] is its unit's entry; E_11 - E_ii puts -v[b] at (i, i)
    and adds v[b] at (0, 0).  Nothing is divided: the vector's denominator is
    the caller's D."""
    off, out, corner = n * (n - 1), {}, 0
    for b, c in v.items():
        if b < off:
            i, j = divmod(b, n - 1)
            out[i * n + j + (j >= i)] = c
        else:
            corner += c
            out[(b - off + 1) * (n + 1)] = -c
    out[0] = corner
    d = next((c.d for c in v.values() if type(c) is QuadExt), None)
    if d is not None:
        return {e: _new(c, 0, 1, d) if type(c) is int else c for e, c in sorted(out.items()) if c}
    return {e: c for e, c in sorted(out.items()) if c}


def fixed_space(L, shape):
    """Exact basis of the forms of the given (dim, degree) killed by all of L.

    The kernels of lie_action(X, .) are intersected one basis element X at a
    time: X acts only on the current kernel basis, and the nullspace of that
    #keys x k system shrinks the kernel.  The result is the canonical basis
    of the common kernel that the stacked system of all the operators gives
    (1 at one free column, 0 at the others): the RREF of the kernel rows
    with the column order reversed, whatever order cut the kernel down.

    Each X acts through its integral entries, D X as L.cleared holds it,
    alone (_images; scaling X changes no kernel).  The basis runs on Z or
    Z[sqrt d]: the kernel vectors are primitive, and each system is reduced
    by linalg.int_nullspace (a Z[sqrt d] one realified onto ints).  The
    canonical basis is one linalg.sparse_rref of the kernel rows on the
    reversed columns, each pivot row divided by its pivot (_over), the only
    division.  Float bases are rejected (_exact): an exact kernel of them is
    not the fixed space.
    """
    dim, degree = shape
    if L.ambient_dim != dim:
        raise ValueError("ambient dimension mismatch")
    keys = all_keys(dim, degree)
    kernel = [{k: 1} for k in keys]
    for nz in _exact(L, "fixed_space"):
        images = _images(nz, kernel, dim, degree)
        hit = sorted({k for img in images for k in img})
        if not hit:
            continue
        rows = [{i: img[k] for i, img in enumerate(images) if k in img} for k in hit]
        null = linalg.int_nullspace(rows, len(kernel))
        old, kernel = kernel, [{} for _ in null]
        for f, (_, v) in zip(kernel, null):
            linalg._eliminate(f, [(-c, old[i]) for i, c in v.items()])
            linalg._primitive(f)
        if not kernel:
            return []
    flipped = keys[::-1]  # the column order reversed
    rows = [{j: f[k] for j, k in enumerate(flipped) if k in f} for f in kernel]
    pivots, _ = linalg.sparse_rref(rows, len(keys))
    return [AlternatingForm(dim, degree, {flipped[j]: linalg._over(v, linalg._pivot(rows[i][c]))
                                          for j, v in rows[i].items()})
            for c, i in reversed(pivots)]


def _images(X, forms, dim, degree):
    """lie_action(X, f).coeffs for each f in forms, X given by its row-major
    entries (a list, or {index: value}).  Only X's nonzero entries are read:
    each X_ij sends e_K to s X_ij e_T along its moves (K, T, s) in
    multilinear.entry_moves.  The image of f sums those terms times f_K, the
    terms lie_action sums, so values and types are the same."""
    columns, moves = {}, entry_moves(dim, degree)
    for e, x in X.items() if isinstance(X, dict) else enumerate(X):
        if x:
            for K, T, sign in moves[e]:
                columns.setdefault(K, []).append((T, sign * x))
    out = []
    for f in forms:
        img = {}
        for K, v in f.items():
            for T, c in columns.get(K, ()):
                img[T] = img.get(T, 0) + c * v
        out.append({T: v for T, v in img.items() if v != 0})
    return out


def _exact(L, caller):
    """The integral entries of L's matrices, without their denominators (no span
    or kernel depends on them); ValueError if L.inexact: exact zero tests on
    floats mislead."""
    if L.inexact:
        raise ValueError(f"{caller} needs an exact basis; float forms are not supported")
    return [nz for _, nz in L.cleared]


def _span(sparse, n):
    """(mats, echelon) of n x n matrices given by their integral entries (_exact:
    ints, or values over Z[sqrt d]): mats holds them as rows {i: {j: c}};
    echelon maps each pivot (i, j) of the span, reduced once by sparse_rref,
    to (p, pivot row {(i, j): value}), p its int pivot."""
    flat = [dict(nz) for nz in sparse]
    mats = [{} for _ in flat]  # filled before sparse_rref reduces flat in place
    for M, F in zip(mats, flat):
        for e, v in F.items():
            M.setdefault(e // n, {})[e % n] = v
    pivots, _ = linalg.sparse_rref(flat, n * n)
    return mats, {divmod(c, n): (linalg._pivot(flat[i][c]),
                                 {divmod(t, n): v for t, v in flat[i].items()}) for c, i in pivots}


def _commutator(X, Y):
    """Nonzero entries {(i, j): c} of XY - YX, for X, Y as rows {i: {j: c}}."""
    out = {}
    for P, Q, sign in ((X, Y, 1), (Y, X, -1)):
        for i, prow in P.items():
            for j, a in prow.items():
                for k, b in Q.get(j, {}).items():
                    out[i, k] = out.get((i, k), 0) + sign * a * b
    return {ik: v for ik, v in out.items() if v != 0}


def bracket(X, Y):
    """Commutator X Y - Y X.

    The reference definition the oracle tests compare against; no program path calls it."""
    if len(X) != len(Y):
        raise ValueError("dimension mismatch")
    B = _commutator(*({i: {j: v for j, v in enumerate(r) if v} for i, r in enumerate(M)}
                      for M in (X, Y)))
    return [[B.get((i, j), _ZERO) for j in range(len(X))] for i in range(len(X))]


def subalgebra_closed(L):
    """(True, None) if [L, L] lies in span(L); else (False, witness pair).

    The span is row-reduced once (_span: over Z or Z[sqrt d]).  A pair is
    bracketed only when the bit masks of the nonzero rows and columns of its
    matrices let XY or YX be nonzero; a nonzero bracket B is reduced to P * B
    - sum_c (P * B[c] / p_c) * row_c over the pivots c that B hits (p_c the
    pivot of row_c, P their lcm).  The witness is the first pair in basis
    order (a < b) with a nonzero residual.  Float bases are rejected: exact
    zero tests on them call closed algebras open.
    """
    mats, echelon = _span(_exact(L, "subalgebra_closed"), L.ambient_dim)
    masks = [(sum(1 << i for i in X), sum({1 << j for r in X.values() for j in r})) for X in mats]
    for a, (X, (rx, cx)) in enumerate(zip(mats, masks)):
        for b in [b for b in range(a + 1, len(mats)) if cx & masks[b][0] or masks[b][1] & rx]:
            B = _commutator(X, mats[b])  # reduced in place to its residual
            if not B:
                continue
            hits = [c for c in B if c in echelon]
            P = math.lcm(*(echelon[c][0] for c in hits))
            linalg._eliminate(B, [(B[c] * (P // echelon[c][0]), echelon[c][1]) for c in hits], P)
            if B:
                return False, (L.matrix(a), L.matrix(b))
    return True, None


def span_dim(subalgebras):
    """Dimension of the sum of the given subspaces (exact rank; floats raise)."""
    mats = [nz for L in subalgebras for nz in _exact(L, "span_dim")]
    return len(_span(mats, subalgebras[-1].ambient_dim)[1]) if mats else 0


# Named pieces of the dim-6 picture: block algebras inside sl(6), by entries.

def h1_case1():
    """Pairs of traceless 3x3 blocks on the diagonal (dimension 16)."""
    return _units(6, [d for b in (0, 3) for d in
                      [{(b + i) * 6 + b + j: 1} for i in range(3) for j in range(3) if i != j]
                      + [{b * 7: 1, (b + i) * 7: -1} for i in (1, 2)]])


def u1_case1():
    """Strictly upper-right 3x3 block (dimension 9)."""
    return _units(6, [{i * 6 + j: 1} for i in range(3) for j in range(3, 6)])


def u2_case1():
    """Strictly lower-left 3x3 block (dimension 9)."""
    return _units(6, [{i * 6 + j: 1} for i in range(3, 6) for j in range(3)])


def t_case1():
    """The line through diag(I3, -I3)."""
    return _units(6, [{i * 7: 1 if i < 3 else -1 for i in range(6)}])


def _units(n, entries):
    """The algebra of matrices with the given int entries, D = 1 each."""
    return LieSubalgebra.integral(n, [(1, nz) for nz in entries])


def join(*subs):
    """The subalgebras' bases in order."""
    return LieSubalgebra.integral(subs[0].ambient_dim, [p for s in subs for p in s.cleared])
