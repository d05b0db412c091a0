"""Alternating tensors, the wedge product, derived actions, and evaluation.

Sign and action conventions (all bookkeeping is confined to this module):

* Index tuples are 1-based and strictly increasing, matching the classical
  e_{ijk} = e_i ^ e_j ^ e_k notation for a basis e_1..e_n of W.
* Coefficients of an AlternatingForm live on wedge powers of W.
* ``gl_action(g, x)`` pushes coefficients forward by g acting on W: on a
  basis term e_K it wedges the columns g e_k, k in K.
* ``evaluate(x, v_1..v_d)`` treats x as an alternating d-linear form on the
  dual space: the v_i are coordinate vectors in the dual basis f_1..f_n, and
  evaluate(x, f_i, f_j, f_k) returns the stored coefficient x_{ijk}.
  Consequently evaluate(gl_action(g, x), v...) == evaluate(x, g^T v...).
* ``lie_action`` is the derivative of ``gl_action``: X applied in one tensor
  slot at a time, summed.  ``entry_moves`` tabulates it for the matrix units
  E_ij, term by term; the stabilizer systems and the basis search read it.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from operator import lt

from . import linalg
from .scalars import clear_denominators, scalar_kind


def sort_sign(idx):
    """Sort an index tuple; return (tuple, sign), or (None, 0) on a repeat."""
    idx = list(idx)
    n = len(idx)
    sign = 1
    for i in range(1, n):
        j = i
        while j > 0 and idx[j - 1] >= idx[j]:
            if idx[j - 1] == idx[j]:
                return None, 0
            idx[j - 1], idx[j] = idx[j], idx[j - 1]
            sign = -sign
            j -= 1
    return tuple(idx), sign


def _clean(coeffs):
    return {k: v for k, v in coeffs.items() if not (v == 0)}


class AlternatingForm:
    """Sparse alternating tensor of a fixed degree on an n-dimensional space."""

    __slots__ = ("dim", "degree", "coeffs")

    def __init__(self, dim, degree, coeffs=None):
        if degree < 0 or degree > dim:
            raise ValueError(f"degree {degree} out of range for dim {dim}")
        clean = {}
        for key, val in (coeffs or {}).items():
            key = tuple(key)
            if len(key) != degree:
                raise ValueError(f"key {key} has wrong length for degree {degree}")
            if not all(map(lt, key, key[1:])) or key and (key[0] < 1 or key[-1] > dim):
                if any(not (1 <= i <= dim) for i in key):  # the range error comes first
                    raise ValueError(f"index out of range in {key}")
                raise ValueError(f"indices not strictly increasing: {key}")
            if not (val == 0):
                clean[key] = val
        self.dim = dim
        self.degree = degree
        self.coeffs = clean

    def coeff(self, *idx):
        """Signed coefficient for an arbitrary-order index tuple."""
        key, s = sort_sign(idx)
        if s == 0:
            return 0
        v = self.coeffs.get(key, 0)
        return s * v if not (v == 0) else 0

    def terms(self):
        return sorted(self.coeffs.items())

    def is_zero(self):
        return not self.coeffs

    def scalar_kind(self):
        """Dominant scalar kind of the coefficients ('rational' when empty)."""
        kinds = {scalar_kind(v) for v in self.coeffs.values()}
        for k in ("float", "quadext", "rational"):
            if k in kinds:
                return k
        return "rational"

    def map_coeffs(self, fn):
        return AlternatingForm(self.dim, self.degree, {k: fn(v) for k, v in self.coeffs.items()})

    def as_float(self):
        return self.map_coeffs(float)

    def max_abs(self):
        return max((abs(float(v)) for v in self.coeffs.values()), default=0.0)

    def __add__(self, other):
        self._check_shape(other)
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out.get(k, 0) + v
        return AlternatingForm(self.dim, self.degree, _clean(out))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self.map_coeffs(lambda v: -v)

    def scale(self, c):
        return AlternatingForm(self.dim, self.degree,
                               _clean({k: c * v for k, v in self.coeffs.items()}))

    def __rmul__(self, c):
        return self.scale(c)

    def __eq__(self, other):
        if not isinstance(other, AlternatingForm):
            return NotImplemented
        return (self.dim == other.dim and self.degree == other.degree
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.dim, self.degree, tuple(sorted(self.coeffs.items()))))

    def _check_shape(self, other):
        if self.dim != other.dim or self.degree != other.degree:
            raise ValueError("dimension or degree mismatch")

    def __repr__(self):
        inner = " + ".join(f"{v}*e{''.join(map(str, k))}" for k, v in self.terms())
        return f"AlternatingForm({self.dim},{self.degree}: {inner or '0'})"


def integral_multiple(x):
    """(D, D * x), D the least common denominator of an exact form: int
    coefficients, and QuadExts over Z[sqrt d] for Q(sqrt d) ones
    (clear_denominators); None for float coefficients."""
    cleared = clear_denominators(x.coeffs.values())
    if cleared is None:
        return None
    D, ints = cleared
    return D, AlternatingForm(x.dim, x.degree, dict(zip(x.coeffs, ints)))


def wedge(a, b):
    """Graded-anticommutative product of two alternating forms on the same space.

    The reference definition the oracle tests compare against; no program path calls it."""
    if a.dim != b.dim:
        raise ValueError("dimension mismatch")
    deg = a.degree + b.degree
    if deg > a.dim:
        raise ValueError(f"wedge degree {deg} exceeds dimension {a.dim}")
    out = {}
    for ka, va in a.coeffs.items():
        for kb, vb in b.coeffs.items():
            key, s = sort_sign(ka + kb)
            if s:
                out[key] = out.get(key, 0) + s * va * vb
    return AlternatingForm(a.dim, deg, _clean(out))


def d3(x):
    """Polarization of a trivector into wedge^2 W (x) W, as a term dict.

    On a basis term e_{ijk} it produces e_{jk} (x) e_i - e_{ik} (x) e_j
    + e_{ij} (x) e_k, extended linearly; the result maps (pair, (vec,)) to
    the nonzero coefficient of e_pair (x) e_vec.
    """
    if x.degree != 3:
        raise ValueError("d3 needs a degree-3 form")
    out = {}
    for (i, j, k), v in x.coeffs.items():
        for pair, vec, s in (((j, k), i, 1), ((i, k), j, -1), ((i, j), k, 1)):
            key = (pair, (vec,))
            out[key] = out.get(key, 0) + s * v
    return _clean(out)


def gl_action(g, x):
    """Push an alternating form forward by an invertible matrix acting on W."""
    n = x.dim
    if len(g) != n or any(len(row) != n for row in g):
        raise ValueError("matrix dimension mismatch")
    cols = [{(r + 1,): g[r][c] for r in range(n) if not (g[r][c] == 0)} for c in range(n)]
    out = {}
    for key, v in x.coeffs.items():
        for key2, val in _wedge_cols(cols, key):
            out[key2] = out.get(key2, 0) + v * val
    return AlternatingForm(x.dim, x.degree, _clean(out))


def _wedge_cols(cols, key):
    acc = {(): 1}
    for idx in key:
        nxt = {}
        for kacc, vacc in acc.items():
            for (r,), vc in cols[idx - 1].items():
                k2, s = sort_sign(kacc + (r,))
                if s:
                    nxt[k2] = nxt.get(k2, 0) + s * vacc * vc
        acc = {k: v for k, v in nxt.items() if not (v == 0)}
    return acc.items()


def lie_action(X, x):
    """Derived action: sum over slots of X applied in one slot of the form.

    The reference definition the oracle tests compare against; no program path calls it."""
    n = x.dim
    if len(X) != n or any(len(row) != n for row in X):
        raise ValueError("matrix dimension mismatch")
    cols = {}  # column idx of X -> its nonzero entries (r, X[r][idx - 1])
    out = {}
    for key, v in x.coeffs.items():
        for pos, idx in enumerate(key):
            col = cols.get(idx)
            if col is None:
                col = cols[idx] = [(r, X[r][idx - 1]) for r in range(n) if X[r][idx - 1] != 0]
            for r, c in col:
                newkey, s = sort_sign(key[:pos] + (r + 1,) + key[pos + 1:])
                if s:
                    out[newkey] = out.get(newkey, 0) + s * c * v
    return AlternatingForm(x.dim, x.degree, _clean(out))


def evaluate(x, *vectors):
    """Evaluate the form on dual-coordinate vectors: x(v_1, ..., v_d).

    Each v_i is a length-dim sequence of coordinates in the dual basis; on
    the dual standard basis vectors this reads off the stored coefficient.
    """
    d = x.degree
    if len(vectors) != d:
        raise ValueError(f"need {d} vectors, got {len(vectors)}")
    for v in vectors:
        if len(v) != x.dim:
            raise ValueError("vector length mismatch")
    total = 0
    for key, c in x.coeffs.items():
        rows = [[v[i - 1] for v in vectors] for i in key]
        total = total + c * _small_det(rows)
    return total


def _small_det(rows):
    n = len(rows)
    if n == 1:
        return rows[0][0]
    if n == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    if n == 3:
        return (rows[0][0] * (rows[1][1] * rows[2][2] - rows[1][2] * rows[2][1])
                - rows[0][1] * (rows[1][0] * rows[2][2] - rows[1][2] * rows[2][0])
                + rows[0][2] * (rows[1][0] * rows[2][1] - rows[1][1] * rows[2][0]))
    return linalg.mat_det(rows)


@lru_cache(maxsize=None)
def entry_moves(dim, degree):
    """How the matrix units act on the basis e_K of wedge^degree: indexed by the
    row-major entry e = i * dim + j (0-based), the (K, T, sign) with E_ij e_K =
    sign * e_T, K in key order.  An off-diagonal E_ij sends e_K to the sorted
    e_{K with j+1 -> i+1} when j + 1 is in K and i + 1 is not, else to 0; a
    diagonal E_ii keeps each e_K with i + 1 in K."""
    out = [[] for _ in range(dim * dim)]
    for K in all_keys(dim, degree):
        for k in K:
            out[(k - 1) * (dim + 1)].append((K, K, 1))
            for i in range(1, dim + 1):
                if i not in K:
                    T, sign = sort_sign(tuple(i if c == k else c for c in K))
                    out[(i - 1) * dim + k - 1].append((K, T, sign))
    return tuple(map(tuple, out))


def all_keys(dim, degree):
    """All strictly increasing index tuples, in lexicographic order."""
    return list(itertools.combinations(range(1, dim + 1), degree))
