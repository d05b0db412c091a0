"""Stabilizer Lie algebras, fixed-point subspaces, and subalgebra checks.

Group-level fixed points are handled at the algebra level throughout: a
connected stabilizer fixes a vector exactly when the annihilator algebra
does, and annihilators are exact nullspace computations.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .multilinear import AlternatingForm, all_keys, lie_action


@dataclass
class LieSubalgebra:
    """A subspace of matrices given by a basis; label is a human tag."""

    ambient_dim: int
    basis: list
    label: str = ""

    @property
    def dim(self):
        return len(self.basis)


def _unit(n, *entries):
    """n x n matrix with the given (i, j, value) entries and zeros elsewhere."""
    M = linalg.zeros(n, n)
    for i, j, v in entries:
        M[i][j] = Fraction(v)
    return M


def sl_basis(n):
    """Basis of trace-zero n x n matrices: off-diagonal units then E11 - Eii."""
    return ([_unit(n, (i, j, 1)) for i in range(n) for j in range(n) if i != j]
            + [_unit(n, (0, 0, 1), (i, i, -1)) for i in range(1, n)])


def stab_lie_algebra(x, label=""):
    """Annihilator of x in sl(dim): all traceless X with lie_action(X, x) = 0.

    Exact nullspace over the rationals for exact coefficients; float forms
    use a numpy SVD nullspace with a relative cutoff.
    """
    n = x.dim
    basis = sl_basis(n)
    units = [_entries(B) for B in basis]
    keys = all_keys(n, x.degree)
    if x.scalar_kind() == "float":
        import numpy as np
        rows = []
        for X in basis:
            act = lie_action(X, x)
            rows.append([float(act.coeffs.get(k, 0.0)) for k in keys])
        A = np.array(rows, dtype=float).T  # keys x basis
        u, s, vh = np.linalg.svd(A)
        tol = max(A.shape) * (s[0] if len(s) else 0.0) * 1e-12
        null = vh[int((s > tol).sum()):]
        return LieSubalgebra(n, [_combine(c.tolist(), units, n) for c in null],
                             label or "stab(float)")
    acts = [lie_action(X, x) for X in basis]
    rows = [[acts[b].coeffs.get(k, Fraction(0)) for b in range(len(basis))] for k in keys]
    combos = linalg.nullspace(rows, len(basis))
    return LieSubalgebra(n, [_combine(c, units, n) for c in combos], label or "stab")


def _combine(coeffs, units, n):
    """sum c * B over the nonzero coefficients, B given by _entries.  Entries start
    from 0 * c summed over those c: QuadExt (or float) when any c is."""
    nonzero = [(c, B) for c, B in zip(coeffs, units) if c != 0]
    zero = sum((0 * c for c, _ in nonzero), Fraction(0))
    M = [[zero] * n for _ in range(n)]
    for c, B in nonzero:
        for i, row in B.items():
            for j, v in row.items():
                M[i][j] = M[i][j] + c * v
    return M


def fixed_space(L, shape):
    """Exact basis of the forms of the given (dim, degree) killed by all of L.

    The kernels of lie_action(X, .) are intersected one basis element X at a
    time: X acts only on the current kernel basis, and the nullspace of that
    #keys x k system shrinks the kernel.  The result is the canonical basis
    of the common kernel, the one the nullspace of the stacked system of all
    the operators gives: one vector per free column (a column where some
    kernel vector has its last nonzero entry), with a 1 there and 0 at every
    other free column.  That is the RREF of the kernel rows with the column
    order reversed, so the basis depends on the kernel alone, not on the
    order in which it was cut down.  Float bases are rejected: they are
    approximate, so an exact kernel of them is not the fixed space.
    """
    dim, degree = shape
    if L.ambient_dim != dim:
        raise ValueError("ambient dimension mismatch")
    _require_exact(L, "fixed_space")
    keys = all_keys(dim, degree)
    kernel = [{k: Fraction(1)} for k in keys]
    for X in L.basis:
        images = [lie_action(X, AlternatingForm(dim, degree, f)).coeffs for f in kernel]
        hit = sorted({k for img in images for k in img})
        if not hit:
            continue
        rows = [[img.get(k, Fraction(0)) for img in images] for k in hit]
        kernel = [_combine_forms(c, kernel) for c in linalg.nullspace(rows, len(kernel))]
        if not kernel:
            return []
    flipped = [[f.get(k, Fraction(0)) for k in reversed(keys)] for f in kernel]
    rows, _ = linalg.rref(flipped)
    return [AlternatingForm(dim, degree, dict(zip(reversed(keys), r))) for r in reversed(rows)]


def _require_exact(L, what):
    if any(isinstance(v, float) for M in L.basis for row in M for v in row):
        raise ValueError(f"{what} needs an exact basis; float forms are not supported")


def _combine_forms(coeffs, forms):
    out = {}
    for c, f in zip(coeffs, forms):
        if c != 0:
            for k, v in f.items():
                out[k] = out.get(k, 0) + c * v
    return {k: v for k, v in out.items() if v != 0}


def _entries(M):
    """Nonzero entries of a matrix as rows {i: {j: c}}."""
    out = {}
    for i, row in enumerate(M):
        nz = {j: v for j, v in enumerate(row) if v != 0}
        if nz:
            out[i] = nz
    return out


def _commutator(X, Y):
    """Nonzero entries {(i, j): c} of XY - YX, for X, Y given by _entries."""
    out = {}
    for P, Q, sign in ((X, Y, 1), (Y, X, -1)):
        for i, prow in P.items():
            for j, a in prow.items():
                for k, b in Q.get(j, {}).items():
                    out[i, k] = out.get((i, k), 0) + sign * a * b
    return {ik: v for ik, v in out.items() if v != 0}


def bracket(X, Y):
    """Commutator X Y - Y X."""
    if len(X) != len(Y):
        raise ValueError("dimension mismatch")
    B = linalg.zeros(len(X), len(X))
    for (i, j), v in _commutator(_entries(X), _entries(Y)).items():
        B[i][j] = v
    return B


def subalgebra_closed(L):
    """(True, None) if [L, L] lies in span(L); else (False, witness pair).

    The span is row-reduced once.  Each bracket is formed from the nonzero
    entries of the pair and reduced sparsely: in RREF the multiple of the
    pivot row of column c is the bracket's own entry at c, so the residual
    is B - sum_c B[c] * row_c over the bracket's nonzero pivot entries.
    Pairs are taken in basis order (a <= b); the first one with a nonzero
    residual is the witness.  Float bases are rejected: exact zero tests on
    them call closed algebras open.
    """
    _require_exact(L, "subalgebra_closed")
    n = L.ambient_dim
    flat = [[M[i][j] for i in range(n) for j in range(n)] for M in L.basis]
    if not flat:
        return True, None
    rows, pivots = linalg.rref(flat)
    echelon = {divmod(c, n): {divmod(t, n): v for t, v in enumerate(r) if v != 0}
               for r, c in zip(rows, pivots)}
    sparse = [_entries(M) for M in L.basis]
    for a, X in enumerate(sparse):
        for b in range(a + 1, len(sparse)):
            B = _commutator(X, sparse[b])
            residual = dict(B)
            for c, f in B.items():
                for t, v in echelon.get(c, {}).items():
                    residual[t] = residual.get(t, 0) - f * v
            if any(v != 0 for v in residual.values()):
                return False, (L.basis[a], L.basis[b])
    return True, None


def span_dim(subalgebras):
    """Dimension of the sum of the given subspaces (exact rank)."""
    rows = []
    n = None
    for L in subalgebras:
        n = L.ambient_dim
        for M in L.basis:
            rows.append([M[i][j] for i in range(n) for j in range(n)])
    return linalg.rank(rows) if rows else 0


# Named pieces of the dim-6 picture: block algebras inside sl(6).

def h1_case1():
    """Pairs of traceless 3x3 blocks on the diagonal (dimension 16)."""
    basis = []
    for b in (0, 3):
        basis += [_unit(6, (b + i, b + j, 1)) for i in range(3) for j in range(3) if i != j]
        basis += [_unit(6, (b, b, 1), (b + i, b + i, -1)) for i in range(1, 3)]
    return LieSubalgebra(6, basis, "h1")


def u1_case1():
    """Strictly upper-right 3x3 block (dimension 9)."""
    return LieSubalgebra(6, [_unit(6, (i, j + 3, 1)) for i in range(3) for j in range(3)], "u1")


def u2_case1():
    """Strictly lower-left 3x3 block (dimension 9)."""
    return LieSubalgebra(6, [_unit(6, (i + 3, j, 1)) for i in range(3) for j in range(3)], "u2")


def t_case1():
    """The line through diag(I3, -I3)."""
    M = _unit(6, *((i, i, 1) for i in range(3)), *((i, i, -1) for i in range(3, 6)))
    return LieSubalgebra(6, [M], "t")


def join(*subs):
    label = "+".join(s.label for s in subs)
    basis = [M for s in subs for M in s.basis]
    return LieSubalgebra(subs[0].ambient_dim, basis, label)
