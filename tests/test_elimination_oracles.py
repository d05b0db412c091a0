"""The sparse Gauss-Jordan kernel of linalg against the dense loop it replaced.

``dense_gauss_jordan`` is a copy of the dense kernel: per column, the first
nonzero entry at or below the current row is swapped up, the whole row is
scaled and cleared from every other row.  The ``dense_*`` wrappers read
det, inverse, solve, RREF and nullspace off it; other test modules use them
as their exact oracles.  ``mat_det`` and ``mat_inv`` (and the [A | B] solve
behind it) are compared by the exact values and the ``type()`` of every
entry, so Fraction stays Fraction and Q(sqrt d) stays QuadExt; the kernel
``int_nullspace`` gives, read as canonical vectors (``kernel``), the dense
nullspace by value.  Inputs are seeded Fraction, Q(sqrt 2) and Q(sqrt -3)
matrices, rows mixing ints, Fractions and QuadExts, and the real ``stab``
systems of dense forms.
"""

import itertools
import random
from fractions import Fraction

import pytest

from altforms import linalg
from altforms.multilinear import AlternatingForm, all_keys, gl_action, lie_action
from altforms.representatives import g_alpha, make_rep
from altforms.scalars import QuadExt, clear_denominators
from altforms.serialize import form_to_dict
from altforms.stabilizers import (LieSubalgebra, fixed_space, sl_basis, span_dim,
                                  stab_lie_algebra, subalgebra_closed)
from test_linalg_oracles import rand_matrix, rand_scalar


# -------------------------------------------------------------- oracle ----

def dense_algebra(n, mats):
    """The LieSubalgebra of the given dense n x n matrices, held by their nonzero entries."""
    return LieSubalgebra(n, [{e: v for e, v in enumerate(v for row in M for v in row) if v}
                             for M in mats])


def dense_gauss_jordan(M, ncols):
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


def dense_det(A):
    M = [list(row) for row in A]
    pivots, det = dense_gauss_jordan(M, len(M))
    return det if len(pivots) == len(M) else 0 * det


def dense_solve_block(A, B):
    n = len(A)
    M = [list(ra) + list(rb) for ra, rb in zip(A, B)]
    if len(dense_gauss_jordan(M, n)[0]) < n:
        raise ZeroDivisionError("singular matrix")
    return [row[n:] for row in M]


def dense_rref(A):
    M = [list(row) for row in A]
    pivots, _ = dense_gauss_jordan(M, len(M[0]) if M else 0)
    return M, pivots


def dense_nullspace(A, ncols=None):
    ncols = ncols if ncols is not None else len(A[0]) if A else 0
    M, pivots = dense_rref(A)
    basis = []
    for fc in sorted(set(range(ncols)) - set(pivots)):
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = -M[r][fc]
        basis.append(v)
    return basis


def kernel(A, ncols=None):
    """linalg.int_nullspace of A, each row cleared to Z or Z[sqrt d], as canonical
    vectors (1 at the free column, 0 at the others): each divided by its free entry."""
    ncols = ncols if ncols is not None else len(A[0]) if A else 0
    rows = [{j: v for j, v in enumerate(clear_denominators(row)[1]) if v} for row in A]
    return [[linalg._over(v.get(b, 0), v[fc]) for b in range(ncols)]
            for fc, v in linalg.int_nullspace(rows, ncols)]


def types(x):
    return [types(v) for v in x] if isinstance(x, (list, tuple)) else type(x)


def same(got, want):
    assert got == want
    assert types(got) == types(want)


def check_all(A):
    """The kernel (by value, its size the rank), and for square A det, inverse
    and the solve of [A | b] (by value and type)."""
    A0 = [list(row) for row in A]
    assert kernel(A) == dense_nullspace(A)
    if len(A) == (len(A[0]) if A else 0):
        same(linalg.mat_det(A), dense_det(A))
        b = [[row[0] + row[-1]] for row in A]
        try:
            want_inv = dense_solve_block(A, linalg.identity(len(A)))
        except ZeroDivisionError:
            for args in ((A, linalg.identity(len(A))), (A, b)):
                with pytest.raises(ZeroDivisionError, match="singular matrix"):
                    linalg._solve_block(*args)
        else:
            same(linalg.mat_inv(A), want_inv)
            same(linalg._solve_block(A, b), dense_solve_block(A, b))
    assert A == A0 and types(A) == types(A0)  # the input is not touched


# -------------------------------------------------------------- inputs ----

KINDS = ("rational", 2, -3)


def scalar(kind, v):
    return Fraction(v) if kind == "rational" else QuadExt(v, 0, kind)


@pytest.mark.parametrize("kind", KINDS)
def test_random_matrices_of_every_shape_and_density(kind):
    rng = random.Random(f"elim:{kind}")
    for trial in range(30):
        m, n = rng.randint(1, 8), rng.randint(1, 8)
        if trial % 3 == 0:
            n = m
        A = rand_matrix(rng, m, n, kind, rng.choice((0.1, 0.25, 0.5, 0.75, 1.0)))
        if m >= 3 and trial % 4 == 1:  # a dependent row
            a, b = rng.randint(-2, 2), rng.randint(-2, 2)
            A[0] = [a * u + b * v for u, v in zip(A[1], A[2])]
        check_all(A)


@pytest.mark.parametrize("kind", KINDS)
def test_empty_one_by_one_and_degenerate_shapes(kind):
    rng = random.Random(f"shapes:{kind}")
    zero, one = scalar(kind, 0), scalar(kind, 1)
    assert kernel([]) == [] and linalg.mat_inv([]) == []
    same(linalg.mat_det([]), dense_det([]))
    for A in ([[one]], [[zero]], [[rand_scalar(rng, kind)]],
              [[zero] * 4 for _ in range(4)],
              [[zero] * 5],
              [[zero] for _ in range(5)]):
        check_all(A)
    for _ in range(10):
        m, n = rng.randint(2, 7), rng.randint(2, 7)
        A = rand_matrix(rng, m, n, kind, 0.8)
        A[rng.randrange(m)] = [zero] * n                      # a zero row
        c = rng.randrange(n)
        for row in A:                                         # a zero column
            row[c] = zero
        check_all(A)
        A = rand_matrix(rng, m, n, kind, 0.6)
        A[rng.randrange(m)] = list(A[rng.randrange(m)])       # a duplicate row
        check_all(A)
        check_all([list(A[0]) for _ in range(m)])             # rank one


@pytest.mark.parametrize("kind", KINDS)
def test_wide_and_tall(kind):
    rng = random.Random(f"wide:{kind}")
    for _ in range(15):
        k = rng.randint(1, 4)
        for m, n in ((k, k + rng.randint(1, 8)), (k + rng.randint(1, 8), k)):
            check_all(rand_matrix(rng, m, n, kind, rng.choice((0.1, 0.5, 1.0))))


def perm_sign(p):
    return -1 if sum(a > b for a, b in itertools.combinations(p, 2)) % 2 else 1


@pytest.mark.parametrize("kind", KINDS)
def test_permutation_matrices_give_the_sign(kind):
    rng = random.Random(f"perm:{kind}")
    zero, one = scalar(kind, 0), scalar(kind, 1)
    for n in range(1, 8):
        for _ in range(3):
            p = list(range(n))
            rng.shuffle(p)
            P = [[one if p[i] == j else zero for j in range(n)] for i in range(n)]
            check_all(P)
            assert linalg.mat_det(P) == perm_sign(p)
            D = [[scalar(kind, j + 2) if p[i] == j else zero for j in range(n)]
                 for i in range(n)]  # scaled permutation
            check_all(D)


@pytest.mark.parametrize("kind", KINDS)
def test_augmented_systems(kind):
    rng = random.Random(f"aug:{kind}")
    for trial in range(20):
        n, k = rng.randint(1, 6), rng.randint(1, 4)
        A = rand_matrix(rng, n, n, kind, rng.choice((0.3, 0.7, 1.0)))
        if trial % 2 and n >= 2:  # singular: one row a multiple of another
            i, j = rng.sample(range(n), 2)
            A[i] = [2 * v for v in A[j]]
        B = rand_matrix(rng, n, k, kind, 0.7)
        try:
            want = dense_solve_block(A, B)
        except ZeroDivisionError:
            with pytest.raises(ZeroDivisionError, match="singular matrix"):
                linalg._solve_block(A, B)
            continue
        same(linalg._solve_block(A, B), want)


# ------------------------------------------------------ stab systems ----

def dense_form(rng, dim, degree, rational):
    def draw():
        if rational:
            return Fraction(rng.randint(-255, 255), rng.choice((1, 2, 3, 5, 8, 12, 16, 240)))
        return Fraction(rng.randint(-5, 5))
    return AlternatingForm(dim, degree, {k: draw() for k in all_keys(dim, degree)})


def quad_form(rng, d):
    """A small-integer dim-6 form pushed through g_alpha(d), as in exact_dense."""
    return gl_action(g_alpha(d), dense_form(rng, 6, 3, rational=False))


def stab_system(x):
    """The keys x basis system whose nullspace stab_lie_algebra reads."""
    basis = sl_basis(x.dim)
    acts = [lie_action(X, x) for X in basis]
    return [[a.coeffs.get(k, Fraction(0)) for a in acts] for k in all_keys(x.dim, x.degree)]


def _stab_forms():
    rng = random.Random(77)
    yield "dense dim-6 integer", dense_form(rng, 6, 3, False)
    yield "dense dim-6 rational", dense_form(rng, 6, 3, True)
    yield "dense dim-7 rational", dense_form(rng, 7, 3, True)
    yield "dense 8-dim two-form", dense_form(rng, 8, 2, True)
    yield "Q(sqrt -3) dim-6", quad_form(rng, -3)
    yield "case1_walpha(5)", make_rep("case1_walpha", d=5)


STAB_FORMS = list(_stab_forms())


@pytest.mark.parametrize("name,x", STAB_FORMS, ids=[n for n, _ in STAB_FORMS])
def test_stab_systems(name, x):
    rows = stab_system(x)
    assert kernel(rows) == dense_nullspace(rows, len(rows[0]))


def dense_stab_and_fixed(x):
    """stab(x) and its fixed space by their Fraction definitions on the dense
    oracle: the nullspace of the lie_action system, each vector summed over
    the sl_basis units, and the nullspace of the lie_action systems of the
    whole basis stacked."""
    n, keys = x.dim, all_keys(x.dim, x.degree)
    units = sl_basis(n)
    basis = []
    for c in dense_nullspace(stab_system(x), n * n - 1):
        basis.append([[sum((cb * B[i][j] for cb, B in zip(c, units)), Fraction(0))
                       for j in range(n)] for i in range(n)])
    rows = []
    for X in basis:
        cols = [lie_action(X, AlternatingForm(n, x.degree, {k: Fraction(1)})) for k in keys]
        rows += [[c.coeffs.get(k, Fraction(0)) for c in cols] for k in keys]
    fixed = [AlternatingForm(n, x.degree, dict(zip(keys, v)))
             for v in dense_nullspace(rows, len(keys))]
    return basis, fixed


@pytest.mark.parametrize("name,x", STAB_FORMS[-2:], ids=[n for n, _ in STAB_FORMS[-2:]])
def test_stab_and_fixed_json_with_either_kernel(name, x):
    # stab and the fixed space of a rational and a Q(sqrt d) form, both through
    # linalg.int_nullspace and sparse_rref, against the dense oracle on the
    # Fraction definitions: bases by value and type, fixed forms as JSON
    L = stab_lie_algebra(x)
    fixed = [form_to_dict(f) for f in fixed_space(L, (x.dim, x.degree))]
    basis0, fixed0 = dense_stab_and_fixed(x)
    same(L.basis, basis0)
    assert fixed == [form_to_dict(f) for f in fixed0]


# ------------------------------------------- rows of mixed scalar types ----

def lift(A, d):
    """A with every entry a QuadExt of Q(sqrt d), v as QuadExt(v, 0, d)."""
    return [[v if type(v) is QuadExt else QuadExt(v, 0, d) for v in row] for row in A]


def exact(x):
    """Every scalar of a nested output is a Fraction or a QuadExt (no float, no int)."""
    return all(exact(v) for v in x) if isinstance(x, list) else type(x) in (Fraction, QuadExt)


def check_like_lifted(A, d):
    """The kernel, and for square A det, inverse and the solve of [A | b], give
    the values of the same call on the all-QuadExt copy of A, every entry exact."""
    Q = lift(A, d)
    got, want = kernel(A), kernel(Q)
    assert got == want == dense_nullspace(Q) and exact(got)
    if len(A) != len(A[0]):
        return
    got, want = linalg.mat_det(A), linalg.mat_det(Q)
    assert got == want and exact(got)
    b = [[row[0] + row[-1]] for row in A]
    if want == 0:
        for f, args in ((linalg.mat_inv, (A,)), (linalg._solve_block, (A, b))):
            with pytest.raises(ZeroDivisionError, match="singular matrix"):
                f(*args)
        return
    got, want = linalg.mat_inv(A), linalg.mat_inv(Q)
    assert got == want and exact(got)
    got, want = linalg._solve_block(A, b), linalg._solve_block(Q, lift(b, d))
    assert got == want and exact(got)


def mixed_matrix(rng, m, n, d):
    """Rows of ints, of Fractions, of Q(sqrt d) values, or of all three mixed."""
    draws = {"int": lambda: rng.randint(-4, 4),
             "fraction": lambda: Fraction(rng.randint(-6, 6), rng.randint(1, 4)),
             "quad": lambda: rand_scalar(rng, d)}
    A = []
    for _ in range(m):
        kinds = rng.choice((["int"], ["fraction"], ["quad"], list(draws)))
        A.append([draws[rng.choice(kinds)]() if rng.random() < 0.7 else 0 for _ in range(n)])
    return A


@pytest.mark.parametrize("d", (2, -3))
def test_int_and_fraction_rows_among_quadext_rows(d):
    r = QuadExt(0, 1, d)
    assert kernel([[2, 1], [r, 1]]) == [] and linalg.mat_det([[2, 1], [r, 1]]) == 2 - r
    for A in ([[2, 1], [r, 1]], [[r, 1], [2, 1]], [[1, 2], [2, 4 * r]], [[r, 2], [1, 0]],
              [[Fraction(1, 2), 3], [r, 1]], [[0, 0], [r, 1]], [[2, 4], [1, 2], [r, r]]):
        check_like_lifted(A, d)
    rng = random.Random(f"mixed:{d}")
    for trial in range(40):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        if trial % 2 == 0:
            n = m
        A = mixed_matrix(rng, m, n, d)
        if m >= 3 and trial % 3 == 1:  # a dependent row
            a, b = rng.randint(-2, 2), rng.randint(-2, 2)
            A[0] = [a * u + b * v for u, v in zip(A[1], A[2])]
        check_like_lifted(A, d)


def test_mixed_basis_closure_and_span():
    h = QuadExt(1, 1, 2)
    E12, E21, H = [[0, 1], [0, 0]], [[0, 0], [1, 0]], [[h, 0], [0, -h]]
    L = dense_algebra(2, [E12, E21, H])
    assert subalgebra_closed(L) == (True, None)
    assert span_dim([L]) == 3


def test_stab_of_a_form_with_int_and_quadext_coefficients():
    rng = random.Random(5)
    coeffs = {k: rng.choice((rng.randint(-3, 3), rand_scalar(rng, -3))) for k in all_keys(6, 3)}
    x = AlternatingForm(6, 3, coeffs)
    lifted = AlternatingForm(6, 3, {k: QuadExt(v, 0, -3) if type(v) is int else v
                                    for k, v in coeffs.items()})
    assert stab_lie_algebra(x).basis == stab_lie_algebra(lifted).basis
