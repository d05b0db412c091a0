"""Exact rational work on Python ints: the elimination kernel, S_x, the octonion
norm check and c_form, checked against Fraction oracles.

Rational inputs (ints, Fractions, or both mixed) are cleared to integers over
one common denominator, and only the outputs become Fractions.  The dense
Gauss-Jordan loop of test_elimination_oracles is the oracle for the kernel,
fed the same matrix with every entry made a Fraction; det, inverse and the
[A | b] solve must agree by value and by the ``type()`` of every entry, the
kernel (``kernel``) by value.
"""

import itertools
import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from altforms import cayley_dickson as cd
from altforms import linalg
from altforms.invariants import (QCASE2_DET_RATIO, delta_case1, delta_case2, q_case2,
                                 s_case1, s_case2)
from altforms.multilinear import AlternatingForm, all_keys, d3, gl_action, sort_sign
from altforms.scalars import QuadExt, clear_denominators
from test_elimination_oracles import (dense_det, dense_nullspace, dense_solve_block, kernel,
                                      same, types)
from test_linalg_oracles import old_s_case1, old_s_case2


# ------------------------------------------------- ints stay exact ----

def test_int_matrices_give_exact_fractions():
    # int / int in the pivot division made these floats: 0.49999999999999994, 5.0
    same(linalg.mat_inv([[3, 1], [1, 1]]),
         [[Fraction(1, 2), Fraction(-1, 2)], [Fraction(-1, 2), Fraction(3, 2)]])
    same(linalg.mat_det([[2, 1], [1, 3]]), Fraction(5))
    same(linalg.mat_det([[1, 2], [2, 4]]), Fraction(0))
    same(linalg.mat_det([[0, 1], [1, 0]]), Fraction(-1))
    same(linalg._solve_block([[2, 1], [1, 3]], [[1], [2]]), [[Fraction(1, 5)], [Fraction(3, 5)]])
    same(kernel([[2, 4, 6], [1, 3, 5]]), [[Fraction(1), Fraction(-2), Fraction(1)]])
    same(kernel([[2, 4, 6], [1, 2, 3], [0, 0, 0]]),
         [[Fraction(-2), Fraction(1), Fraction(0)], [Fraction(-3), Fraction(0), Fraction(1)]])


def test_clear_denominators():
    assert clear_denominators([Fraction(1, 2), 3, Fraction(-5, 6), 0]) == (6, [3, 18, -5, 0])
    assert clear_denominators([]) == (1, [])
    assert clear_denominators([Fraction(1, 2), 0.5]) is None
    D, ints = clear_denominators([Fraction(2, 3)] * 3)
    assert D == 3 and all(type(v) is int for v in ints)


def test_clear_denominators_over_z_sqrt_d():
    # QuadExts scale to Z[sqrt d] (D = 1) beside ints, B = 0 ones included; a float
    # anywhere gives None, whatever else the list holds
    r = QuadExt(Fraction(1, 2), Fraction(-1, 3), 5)
    D, out = clear_denominators([r, 2, Fraction(3, 4), QuadExt(Fraction(1, 5), 0, 5), 0])
    assert D == 60 and out == [QuadExt(30, -20, 5), 120, 45, QuadExt(12, 0, 5), 0]
    assert [type(v) for v in out] == [QuadExt, int, int, QuadExt, int]
    assert all(v._D == 1 for v in out if type(v) is QuadExt)
    assert clear_denominators([QuadExt(1, 1, -3)]) == (1, [QuadExt(1, 1, -3)])
    for values in ([1.5], [QuadExt(1, 1, 2), 0.0], [Fraction(1, 2), 2, 1e-3]):
        assert clear_denominators(values) is None


# --------------------------------- mixed int/Fraction vs the oracle ----

def as_fractions(A):
    return [[Fraction(v) for v in row] for row in A]


def check_mixed(A):
    """The kernel, and for square A det, inverse and the solve of [A | b], of a
    matrix mixing ints and Fractions, against the oracle on its Fraction copy."""
    A0, F = [list(row) for row in A], as_fractions(A)
    same(kernel(A), dense_nullspace(F))
    if len(A) == (len(A[0]) if A else 0):
        same(linalg.mat_det(A), dense_det(F))
        b = [[row[0] - row[-1]] for row in A]
        try:
            want = dense_solve_block(F, linalg.identity(len(A)))
        except ZeroDivisionError:
            assert dense_det(F) == 0
        else:
            same(linalg.mat_inv(A), want)
            same(linalg._solve_block(A, b), dense_solve_block(F, as_fractions(b)))
    assert A == A0 and types(A) == types(A0)  # the input is not touched


def mixed_entry(rng):
    a = rng.randint(-9, 9)
    return a if rng.random() < 0.5 else Fraction(a, rng.choice((1, 2, 3, 4, 6, 35)))


def mixed_matrix(rng, m, n, density):
    return [[mixed_entry(rng) if rng.random() < density else rng.choice((0, Fraction(0)))
             for _ in range(n)] for _ in range(m)]


def test_mixed_matrices_match_the_dense_oracle():
    rng = random.Random("mixed")
    for trial in range(60):
        m, n = rng.randint(1, 7), rng.randint(1, 7)
        if trial % 2:
            n = m
        A = mixed_matrix(rng, m, n, rng.choice((0.2, 0.5, 0.8, 1.0)))
        if trial % 5 == 0:
            A[rng.randrange(m)] = [0] * n                           # an int zero row
        if m >= 3 and trial % 3 == 0:                               # singular
            A[0] = [2 * u - v for u, v in zip(A[1], A[2])]
        check_mixed(A)


def test_mixed_permutations_give_the_det_sign():
    rng = random.Random("mixed-perm")
    for n in range(1, 8):
        for _ in range(3):
            p = list(range(n))
            rng.shuffle(p)
            P = [[(1 if rng.random() < 0.5 else Fraction(1)) if p[i] == j else 0
                  for j in range(n)] for i in range(n)]
            check_mixed(P)
            sign = -1 if sum(a > b for a, b in itertools.combinations(p, 2)) % 2 else 1
            same(linalg.mat_det(P), Fraction(sign))
            D = [[Fraction(j + 2, i + 1) if p[i] == j else 0 for j in range(n)]
                 for i in range(n)]  # scaled permutation
            check_mixed(D)


def test_large_denominators():
    # entries of hundreds of bits: the kernel's ints grow, its outputs stay exact
    rng = random.Random("big")
    for _ in range(5):
        n = rng.randint(2, 6)
        A = [[Fraction(rng.randint(-10 ** 40, 10 ** 40), rng.randint(1, 10 ** 30))
              for _ in range(n)] for _ in range(n)]
        check_mixed(A)


# ------------------------------------------------------ S_x on ints ----

def test_s_matrices_on_mixed_denominators_match_the_wedge_builders():
    rng = random.Random("s-mixed")
    for dim, new, old in ((6, s_case1, old_s_case1), (7, s_case2, old_s_case2)):
        for _ in range(6):
            x = AlternatingForm(dim, 3, {k: mixed_entry(rng) for k in all_keys(dim, 3)
                                         if rng.random() < 0.8})
            same(new(x), old(x))


def complement_terms(x, dx):
    """(vec, c, comp, v) over the terms c e_pair (x) e_vec of dx = D3(x) and the
    terms of x ^ e_pair, v being the coefficient of e_1..dim in x ^ e_pair ^ e_comp:
    the join of every D3 term against every coefficient that S_x was built from
    before its contraction plan."""
    for (pair, (vec,)), c in dx.items():
        for triple, xv in x.coeffs.items():
            if set(triple).isdisjoint(pair):
                comp = tuple(m for m in range(1, x.dim + 1) if m not in triple + pair)
                yield vec, c, comp, sort_sign(triple + pair + comp)[1] * xv


def generic_s_case1(x):
    """s_case1 as it ran on Q(sqrt d) forms before, uncleared: Fraction zeros."""
    S = [[Fraction(0)] * 6 for _ in range(6)]
    for vec, c, (j,), v in complement_terms(x, d3(x)):
        S[vec - 1][j - 1] = S[vec - 1][j - 1] - c * v
    return S


def generic_s_case2(x):
    """s_case2 as it ran on Q(sqrt d) forms before, uncleared: Fraction zeros."""
    dx, S, by_pair = d3(x), [[Fraction(0)] * 7 for _ in range(7)], {}
    for (pair, (vec,)), c in dx.items():
        by_pair.setdefault(pair, []).append((vec, c))
    for v1, c1, comp, v in complement_terms(x, dx):
        for v2, c2 in by_pair.get(comp, ()):
            S[v1 - 1][v2 - 1] = S[v1 - 1][v2 - 1] + c1 * c2 * v
    return S


def quad_entry(rng, d):
    """An int, a Fraction, a QuadExt with b = 0 or a + b sqrt(d), over mixed denominators."""
    a = Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3)))
    kind = rng.choice(("int", "fraction", "b0", "quad", "quad"))
    if kind in ("int", "fraction"):
        return a.numerator if kind == "int" else a
    b = 0 if kind == "b0" else Fraction(rng.randint(-4, 4), rng.choice((1, 2, 5)))
    return QuadExt(a, b, d)


def test_s_matrices_and_delta_over_z_sqrt_d_match_the_generic_path():
    # Q(sqrt d) forms are built as S_{D x} over Z[sqrt d] and divided once; by value
    # and type they are the uncleared S_x, and delta is S_x^2[0][0] (a QuadExt when a
    # row-0 or column-0 entry of S_x is one, even a degenerate delta of 0)
    rng = random.Random("s-quad")
    degenerate = 0
    for d in (2, -3, 5, -1, 13):
        for density in (0.15, 0.3, 0.6, 1.0):
            x = AlternatingForm(6, 3, {k: quad_entry(rng, d) for k in all_keys(6, 3)
                                       if rng.random() < density})
            S = generic_s_case1(x)
            same(s_case1(x), S)
            same(delta_case1(x), linalg.mat_mul(S, S)[0][0])
            degenerate += delta_case1(x) == 0
            x = AlternatingForm(7, 3, {k: quad_entry(rng, d) for k in all_keys(7, 3)
                                       if rng.random() < density})
            same(s_case2(x), generic_s_case2(x))
    assert degenerate


# --------------------------------------------------- property tests ----

SETTINGS = settings(max_examples=25, deadline=None, database=None)
small = st.integers(min_value=-2, max_value=2)
coeff = st.builds(Fraction, st.integers(min_value=-4, max_value=4),
                  st.sampled_from((1, 2, 3, 5, 6, 12)))


def trivectors(dim):
    keys = all_keys(dim, 3)
    return st.lists(coeff, min_size=len(keys), max_size=len(keys)).map(
        lambda vs: AlternatingForm(dim, 3, dict(zip(keys, vs))))


@SETTINGS
@given(trivectors(6))
def test_property_s_squared_is_delta(x):
    S = s_case1(x)
    d = delta_case1(x)
    assert linalg.mat_mul(S, S) == [[d if i == j else 0 for j in range(6)] for i in range(6)]
    assert all(type(v) is Fraction for row in S for v in row)


@SETTINGS
@given(trivectors(6), st.lists(small, min_size=36, max_size=36))
def test_property_delta1_covariance(x, entries):
    g = [entries[6 * i:6 * i + 6] for i in range(6)]
    assert delta_case1(gl_action(g, x)) == linalg.mat_det(g) ** 2 * delta_case1(x)


@SETTINGS
@given(trivectors(7))
def test_property_det_gram_q_is_delta2_cubed(x):
    d, exact = delta_case2(x)
    assert exact and q_case2(x).det() == QCASE2_DET_RATIO * d ** 3


# ------------------------------------- octonion checks on ints ----

def fraction_norm_check(A, samples=25, seed=0):
    """The sample check on AlgElement products, as the CLI ran it before."""
    rng = random.Random(seed)
    for _ in range(samples):
        u = A.element([Fraction(rng.randint(-3, 3)) for _ in range(A.dim)])
        v = A.element([Fraction(rng.randint(-3, 3)) for _ in range(A.dim)])
        if (u * v).norm() != u.norm() * v.norm():
            return False
    return True


def fraction_c_form(A):
    """C(i, j, k) = <e_i, e_j e_k> from AlgElement products."""
    vals = {}
    for i, j, k in itertools.product(range(1, 8), repeat=3):
        key = tuple(sorted((i, j, k)))
        if len(set(key)) == 3 and key not in vals:
            vals[key] = A.basis_element(i).inner(A.basis_element(j) * A.basis_element(k))
    return AlternatingForm(7, 3, {k: v for k, v in vals.items() if v != 0})


def rational_octonion_algebras():
    rng = random.Random("octonions")
    yield cd.split_octonions()
    yield cd.octonions()
    while True:
        x = AlternatingForm(7, 3, {k: mixed_entry(rng) for k in all_keys(7, 3)})
        try:
            yield cd.octonion_from_form(x)
        except ValueError:
            continue


def test_norm_check_and_c_form_match_the_fraction_products():
    algebras = itertools.islice(rational_octonion_algebras(), 5)
    for A in algebras:
        assert cd.algebra_laws(A) == (True, True) and fraction_norm_check(A)
        assert cd.c_form(A) == fraction_c_form(A)
        # a perturbed table fails both checks alike
        table = [list(row) for row in A.table]
        table[1][2] = tuple(c + (m == 3) for m, c in enumerate(table[1][2]))
        B = cd.AlgebraStructure(8, table, A.gram)
        for seed in range(3):
            assert cd.algebra_laws(B, seed=seed)[0] == fraction_norm_check(B, seed=seed)
        assert cd.algebra_laws(B) == (False, True)
