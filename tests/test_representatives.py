import random
from fractions import Fraction

import pytest

from altforms import linalg
from altforms.invariants import delta_case1
from altforms.multilinear import gl_action
from altforms.representatives import (d_block, g1_fixture, g_alpha, make_rep,
                                      stabilizer_witness_case1, tau)
from altforms.scalars import QuadExt, demote


def test_make_rep_goldens():
    w = make_rep("case1_w")
    assert w.coeffs == {(1, 2, 3): Fraction(1), (4, 5, 6): Fraction(1)}
    w2 = make_rep("case2_w")
    assert w2.coeffs == {(2, 3, 4): Fraction(1), (5, 6, 7): Fraction(1),
                         (1, 2, 5): Fraction(1), (1, 3, 6): Fraction(1),
                         (1, 4, 7): Fraction(1)}
    assert make_rep("case3_w", n=2).coeffs == {(1, 3): Fraction(1), (2, 4): Fraction(1)}
    assert make_rep("case3_w", n=1).coeffs == {(1, 2): Fraction(1)}
    assert make_rep("case1_w1") == make_rep("case1_walpha", d=-1)


def test_make_rep_validation():
    with pytest.raises(ValueError):
        make_rep("case1_walpha", d=4)
    with pytest.raises(ValueError):
        make_rep("case1_walpha", d=1)
    with pytest.raises(ValueError):
        make_rep("case3_w", n=0)
    with pytest.raises(ValueError):
        make_rep("nonsense")


def test_g_alpha_action_and_determinant():
    for d in (-1, 2, 3, 5, -5):
        g = g_alpha(d)
        assert linalg.mat_det(g) == QuadExt(0, -8, d)
        moved = gl_action(g, make_rep("case1_w")).map_coeffs(demote)
        assert moved == make_rep("case1_walpha", d=d)
        assert delta_case1(make_rep("case1_walpha", d=d)) == 64 * d


def test_g_alpha_conjugation_relations():
    for d in (2, -1):
        g = g_alpha(d)
        # entrywise conjugation equals right multiplication by the block swap
        conj = [[e.conjugate() for e in row] for row in g]
        assert conj == linalg.mat_mul(g, _lift_matrix(tau(), d))
        # g tau g^{-1} = diag(I3, -I3)
        J = linalg.zeros(6, 6)
        for i in range(3):
            J[i][i] = Fraction(1)
            J[i + 3][i + 3] = Fraction(-1)
        lhs = linalg.mat_mul(linalg.mat_mul(g, _lift_matrix(tau(), d)), linalg.mat_inv(g))
        assert [[demote(v) for v in row] for row in lhs] == J


def _lift_matrix(M, d):
    return [[QuadExt(v, 0, d) for v in row] for row in M]


def _random_sl3(rng, d=None, span=2, steps=4):
    """Random unimodular 3x3, over Q or Q(sqrt(d)), as a product of shears."""
    n = 3
    out = linalg.identity(n)
    if d is not None:
        out = _lift_matrix(out, d)
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        E = linalg.identity(n)
        if d is not None:
            E = _lift_matrix(E, d)
            E[i][j] = QuadExt(Fraction(rng.randint(-span, span)),
                              Fraction(rng.randint(-span, span)), d)
        else:
            E[i][j] = Fraction(rng.randint(-span, span))
        out = linalg.mat_mul(out, E)
    return out


def test_tau_and_blocks_stabilize_w():
    rng = random.Random(21)
    w = make_rep("case1_w")
    assert gl_action(tau(), w) == w
    for _ in range(50):
        A = _random_sl3(rng)
        B = _random_sl3(rng)
        assert linalg.mat_det(A) == 1 and linalg.mat_det(B) == 1
        assert gl_action(d_block(A, B), w) == w


def test_stabilizer_witness_identity():
    I3 = _lift_matrix(linalg.identity(3), 2)
    out = stabilizer_witness_case1(I3, 2)
    assert out == linalg.identity(6)


def test_stabilizer_witness_shear():
    A = _lift_matrix(linalg.identity(3), 2)
    A[0][1] = QuadExt(0, 1, 2)  # I + sqrt(2) E12, det 1
    out = stabilizer_witness_case1(A, 2)
    assert all(isinstance(v, Fraction) for row in out for v in row)
    wa = make_rep("case1_walpha", d=2)
    assert gl_action(out, wa) == wa


def test_stabilizer_witness_random_rational_and_fixing():
    rng = random.Random(22)
    wa = make_rep("case1_walpha", d=2)
    for _ in range(20):
        A = _random_sl3(rng, d=2)
        out = stabilizer_witness_case1(A, 2)
        assert all(isinstance(v, Fraction) for row in out for v in row)
        assert gl_action(out, wa) == wa


def test_stabilizer_witness_rejects_non_unimodular():
    A = _lift_matrix(linalg.identity(3), 2)
    A[0][0] = QuadExt(2, 0, 2)
    with pytest.raises(ValueError):
        stabilizer_witness_case1(A, 2)


def test_symplectic_generators_fix_case3_w():
    rng = random.Random(23)
    for n in (2, 3):
        w = make_rep("case3_w", n=n)
        for _ in range(10):
            g = _random_symplectic(rng, n)
            assert gl_action(g, w) == w


def _random_symplectic(rng, n, steps=3):
    """Product of exponentials of nilpotent annihilator directions of w."""
    from altforms.stabilizers import stab_lie_algebra
    w = make_rep("case3_w", n=n)
    L = stab_lie_algebra(w)
    dim = 2 * n
    out = linalg.identity(dim)
    for _ in range(steps):
        X = rng.choice(L.basis)
        if any(X[i][i] != 0 for i in range(dim)):
            continue
        c = Fraction(rng.randint(-2, 2))
        N = [[c * v for v in row] for row in X]
        # exact exponential of a (usually nilpotent) direction, truncated when exact
        term = linalg.identity(dim)
        acc = linalg.identity(dim)
        fact = 1
        for k in range(1, dim + 1):
            term = linalg.mat_mul(term, N)
            fact *= k
            if all(v == 0 for row in term for v in row):
                break
            acc = [[a + Fraction(1, fact) * t for a, t in zip(ra, rt)]
                   for ra, rt in zip(acc, term)]
        else:
            continue
        out = linalg.mat_mul(out, acc)
    return out


def test_g1_fixture_shape():
    g1 = g1_fixture()
    assert linalg.mat_det(g1) == QuadExt(8, 0, -1)
    moved = gl_action(g1, make_rep("case2_w")).map_coeffs(demote)
    assert moved == make_rep("case2_w1")


def test_walpha_checks_its_d():
    # squarefree d of either sign pass; 0, 1, non-ints and bools get the first
    # message, squares and square multiples the second
    for d in (2, -1, -3, 5, 13, -30):
        assert make_rep("case1_walpha", d=d).coeffs[(1, 5, 6)] == d
    for d in (0, 1, True, 2.0, "2", None):
        with pytest.raises(ValueError, match=r"d must be a squarefree integer != 0, 1; got "):
            make_rep("case1_walpha", d=d)
    for d in (4, -4, 12, -27):
        with pytest.raises(ValueError, match=f"d must be squarefree; got {d}$"):
            make_rep("case1_walpha", d=d)
