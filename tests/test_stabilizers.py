import random
from fractions import Fraction

import pytest

from altforms import linalg
from altforms.invariants import q_case2
from altforms.multilinear import gl_action, lie_action
from altforms.representatives import make_rep
from altforms.stabilizers import (bracket, fixed_space, h1_case1, join, sl_basis, span_dim,
                                  stab_lie_algebra, subalgebra_closed, t_case1, u1_case1,
                                  u2_case1)
from test_elimination_oracles import dense_algebra, dense_rref


def rand_matrix(rng, n, span=2):
    return [[Fraction(rng.randint(-span, span)) for _ in range(n)] for _ in range(n)]


def test_bracket_basics():
    rng = random.Random(31)
    X = rand_matrix(rng, 4)
    assert bracket(X, X) == linalg.zeros(4, 4)
    E12 = linalg.zeros(3, 3)
    E12[0][1] = Fraction(1)
    E21 = linalg.zeros(3, 3)
    E21[1][0] = Fraction(1)
    H = bracket(E12, E21)
    want = linalg.zeros(3, 3)
    want[0][0] = Fraction(1)
    want[1][1] = Fraction(-1)
    assert H == want


def test_jacobi_identity():
    rng = random.Random(32)
    for _ in range(10):
        X, Y, Z = (rand_matrix(rng, 4) for _ in range(3))
        terms = (bracket(X, bracket(Y, Z)), bracket(Y, bracket(Z, X)), bracket(Z, bracket(X, Y)))
        total = [[sum(entries) for entries in zip(*rows)] for rows in zip(*terms)]
        assert total == linalg.zeros(4, 4)


def test_stabilizer_dimensions():
    assert stab_lie_algebra(make_rep("case1_w")).dim == 16
    assert stab_lie_algebra(make_rep("case2_w")).dim == 14
    assert stab_lie_algebra(make_rep("case3_w", n=2)).dim == 10


def test_stabilizer_annihilates():
    for name, kwargs in (("case1_w", {}), ("case2_w", {}), ("case3_w", {"n": 2})):
        x = make_rep(name, **kwargs)
        L = stab_lie_algebra(x)
        for X in L.basis:
            assert lie_action(X, x).is_zero()
            assert sum(X[i][i] for i in range(len(X))) == 0


def test_stabilizer_equivariance():
    rng = random.Random(33)
    x = make_rep("case1_w")
    L = stab_lie_algebra(x)
    for _ in range(3):
        while True:
            g = rand_matrix(rng, 6)
            if linalg.mat_det(g) != 0:
                break
        Lg = stab_lie_algebra(gl_action(g, x))
        ginv = linalg.mat_inv(g)
        conj = [linalg.mat_mul(linalg.mat_mul(g, X), ginv) for X in L.basis]
        flat = lambda mats: [[M[i][j] for i in range(6) for j in range(6)] for M in mats]
        rank = lambda A: len(dense_rref(A)[1])
        assert rank(flat(conj)) == rank(flat(Lg.basis)) == rank(flat(conj) + flat(Lg.basis)) == 16


def test_fixed_spaces():
    L1 = stab_lie_algebra(make_rep("case1_w"))
    basis1 = fixed_space(L1, (6, 3))
    assert len(basis1) == 2
    supports = sorted(tuple(sorted(f.coeffs)) for f in basis1)
    assert supports == [((1, 2, 3),), ((4, 5, 6),)]

    L2 = stab_lie_algebra(make_rep("case2_w"))
    basis2 = fixed_space(L2, (7, 3))
    assert len(basis2) == 1
    w2 = make_rep("case2_w")
    f = basis2[0]
    ratio = next(iter(f.coeffs.values()))
    assert f == w2.scale(ratio)

    L3 = stab_lie_algebra(make_rep("case3_w", n=2))
    basis3 = fixed_space(L3, (4, 2))
    assert len(basis3) == 1
    w3 = make_rep("case3_w", n=2)
    ratio = next(iter(basis3[0].coeffs.values()))
    assert basis3[0] == w3.scale(ratio)


def test_fixed_space_contains_the_form_itself():
    for name, kwargs, shape in (("case1_w", {}, (6, 3)), ("case2_w", {}, (7, 3)),
                                ("case3_w", {"n": 2}, (4, 2)),
                                ("case1_walpha", {"d": 2}, (6, 3))):
        x = make_rep(name, **kwargs)
        L = stab_lie_algebra(x)
        for X in L.basis:
            assert lie_action(X, x).is_zero()


def test_block_subalgebra_closures():
    h1, u1, u2, t = h1_case1(), u1_case1(), u2_case1(), t_case1()
    assert (h1.dim, u1.dim, u2.dim, t.dim) == (16, 9, 9, 1)
    ok, _ = subalgebra_closed(join(h1, u1))
    assert ok
    ok, _ = subalgebra_closed(join(h1, u2))
    assert ok
    ok, _ = subalgebra_closed(join(h1, t))
    assert ok
    bad, witness = subalgebra_closed(join(h1, u1, u2))
    assert not bad and witness is not None
    ok, _ = subalgebra_closed(t)
    assert ok


def test_h1_matches_stabilizer_of_w():
    h1 = h1_case1()
    L = stab_lie_algebra(make_rep("case1_w"))
    flat = lambda mats: [[M[i][j] for i in range(6) for j in range(6)] for M in mats]
    assert len(dense_rref(flat(h1.basis) + flat(L.basis))[1]) == 16


def test_direct_sum_dimension():
    pieces = [h1_case1(), u1_case1(), u2_case1(), t_case1()]
    assert span_dim(pieces) == 35
    assert sum(p.dim for p in pieces) == 35
    assert span_dim([dense_algebra(6, sl_basis(6))]) == 35


def test_case2_stabilizer_inside_orthogonal_algebra():
    w = make_rep("case2_w")
    G = q_case2(w)
    L = stab_lie_algebra(w)
    for X in L.basis:
        XG = linalg.mat_mul(X, G)
        GXt = linalg.mat_mul(G, linalg.transpose(X))
        assert [[a + b for a, b in zip(r, s)] for r, s in zip(XG, GXt)] == linalg.zeros(7, 7)


def test_float_stabilizer_matches_exact_dimension():
    x = make_rep("case1_w").as_float()
    L = stab_lie_algebra(x)
    assert L.dim == 16
    import numpy as np
    for X in L.basis:
        acted = lie_action(X, x)
        assert max((abs(v) for v in acted.coeffs.values()), default=0.0) < 1e-9


def test_exponentials_of_stabilizer_have_unit_determinant():
    # group elements generated from annihilator directions: det exp(X) = 1
    import numpy as np
    rng = random.Random(34)
    w = make_rep("case2_w")
    L = stab_lie_algebra(w)

    def expm(A):
        out = np.eye(A.shape[0])
        term = np.eye(A.shape[0])
        for k in range(1, 40):
            term = term @ A / k
            out = out + term
        return out

    for _ in range(5):
        g = np.eye(7)
        for _ in range(3):
            X = np.array([[float(v) for v in row] for row in rng.choice(L.basis)])
            g = g @ expm(0.3 * X)
        assert abs(np.linalg.det(g) - 1.0) < 1e-9
        # and the generated element preserves the quadratic covariant
        G = np.array([[float(v) for v in row] for row in q_case2(w)])
        assert np.max(np.abs(g @ G @ g.T - G)) < 1e-8


def test_subalgebra_closed_rejects_float_bases():
    # exact zero tests on a float basis called the closed stabilizer open
    L = stab_lie_algebra(make_rep("case1_w").as_float())
    with pytest.raises(ValueError, match="exact basis"):
        subalgebra_closed(L)
