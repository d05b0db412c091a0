import random
from fractions import Fraction

import pytest

from altforms.multilinear import (AlternatingForm, all_keys, d3, entry_moves, evaluate,
                                  gl_action, lie_action, wedge)


def basis_form(dim, degree, key):
    return AlternatingForm(dim, degree, {key: Fraction(1)})


def rand_form(rng, dim, degree, span=4, density=0.6):
    coeffs = {}
    for key in all_keys(dim, degree):
        if rng.random() < density:
            v = rng.randint(-span, span)
            if v:
                coeffs[key] = Fraction(v)
    return AlternatingForm(dim, degree, coeffs)


def rand_matrix(rng, n=6, span=2):
    return [[Fraction(rng.randint(-span, span)) for _ in range(n)] for _ in range(n)]


W = AlternatingForm(6, 3, {(1, 2, 3): Fraction(1), (4, 5, 6): Fraction(1)})


def test_form_validates_keys():
    with pytest.raises(ValueError):
        AlternatingForm(6, 3, {(2, 1, 3): Fraction(1)})
    with pytest.raises(ValueError):
        AlternatingForm(6, 3, {(1, 2): Fraction(1)})
    with pytest.raises(ValueError):
        AlternatingForm(6, 3, {(1, 2, 7): Fraction(1)})


def test_coeff_reads_any_index_order():
    f = AlternatingForm(6, 3, {(1, 2, 3): Fraction(1)})
    assert f.coeff(3, 1, 2) == Fraction(1)
    assert f.coeff(2, 1, 3) == Fraction(-1)
    assert f.coeff(1, 1, 2) == 0


def test_wedge_basics():
    e12 = basis_form(6, 2, (1, 2))
    e13 = basis_form(6, 2, (1, 3))
    e2 = basis_form(6, 1, (2,))
    e3 = basis_form(6, 1, (3,))
    assert wedge(e12, e3) == basis_form(6, 3, (1, 2, 3))
    assert wedge(e12, e2).is_zero()
    assert wedge(e13, e2) == basis_form(6, 3, (1, 2, 3)).scale(Fraction(-1))


def test_wedge_shape_errors():
    with pytest.raises(ValueError):
        wedge(basis_form(6, 2, (1, 2)), basis_form(7, 1, (1,)))
    with pytest.raises(ValueError):
        wedge(basis_form(4, 3, (1, 2, 3)), basis_form(4, 2, (1, 2)))


def test_wedge_associative_and_graded_anticommutative():
    rng = random.Random(2)
    for _ in range(25):
        a = rand_form(rng, 6, 1)
        b = rand_form(rng, 6, 2)
        c = rand_form(rng, 6, 2)
        assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))
        # deg 1 x deg 2: sign (-1)^(1*2) = +1; deg 2 x deg 2: +1
        assert wedge(b, c) == wedge(c, b)
        assert wedge(a, b) == wedge(b, a)
    for _ in range(25):
        a = rand_form(rng, 6, 1)
        b = rand_form(rng, 6, 1)
        assert wedge(a, b) == wedge(b, a).scale(Fraction(-1))


def test_d3_golden():
    out = d3(basis_form(6, 3, (1, 2, 3)))
    assert out == {((2, 3), (1,)): Fraction(1),
                          ((1, 3), (2,)): Fraction(-1),
                          ((1, 2), (3,)): Fraction(1)}
    assert d3(AlternatingForm(6, 3, {})) == {}
    two = d3(W)
    assert two[((5, 6), (4,))] == Fraction(1)
    assert two[((1, 3), (2,))] == Fraction(-1)
    assert len(two) == 6


def test_d3_linear():
    rng = random.Random(3)
    for _ in range(20):
        x = rand_form(rng, 6, 3)
        y = rand_form(rng, 6, 3)
        a, b = Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3))
        lhs = d3(x.scale(a) + y.scale(b))
        rhs = {}
        for k, v in d3(x).items():
            rhs[k] = rhs.get(k, 0) + a * v
        for k, v in d3(y).items():
            rhs[k] = rhs.get(k, 0) + b * v
        assert lhs == {k: v for k, v in rhs.items() if v != 0}


def test_d3_needs_degree_three():
    with pytest.raises(ValueError):
        d3(basis_form(6, 2, (1, 2)))


def test_gl_action_identity_and_functorial():
    rng = random.Random(4)
    ident = [[Fraction(1) if i == j else Fraction(0) for j in range(6)] for i in range(6)]
    for _ in range(10):
        x = rand_form(rng, 6, 3)
        assert gl_action(ident, x) == x
        g = rand_matrix(rng)
        h = rand_matrix(rng)
        gh = [[sum(g[i][k] * h[k][j] for k in range(6)) for j in range(6)] for i in range(6)]
        assert gl_action(gh, x) == gl_action(g, gl_action(h, x))


def test_gl_action_evaluate_compatibility():
    rng = random.Random(5)
    for _ in range(10):
        x = rand_form(rng, 6, 3)
        g = rand_matrix(rng)
        vs = [[Fraction(rng.randint(-2, 2)) for _ in range(6)] for _ in range(3)]
        gt = [[g[j][i] for j in range(6)] for i in range(6)]
        lhs = evaluate(gl_action(g, x), *vs)
        rhs = evaluate(x, *[[sum(gt[i][j] * v[j] for j in range(6)) for i in range(6)]
                            for v in vs])
        assert lhs == rhs


def test_lie_action_examples():
    ident = [[Fraction(1) if i == j else Fraction(0) for j in range(6)] for i in range(6)]
    x = basis_form(6, 3, (1, 2, 3))
    assert lie_action(ident, x) == x.scale(Fraction(3))
    E12 = [[Fraction(0)] * 6 for _ in range(6)]
    E12[0][1] = Fraction(1)
    assert lie_action(E12, x).is_zero()
    E41 = [[Fraction(0)] * 6 for _ in range(6)]
    E41[3][0] = Fraction(1)
    assert lie_action(E41, x) == basis_form(6, 3, (2, 3, 4))


def test_lie_action_is_bracket_compatible():
    rng = random.Random(6)
    for _ in range(10):
        x = rand_form(rng, 6, 3)
        X = rand_matrix(rng)
        Y = rand_matrix(rng)
        XY = [[sum(X[i][k] * Y[k][j] for k in range(6)) for j in range(6)] for i in range(6)]
        YX = [[sum(Y[i][k] * X[k][j] for k in range(6)) for j in range(6)] for i in range(6)]
        br = [[XY[i][j] - YX[i][j] for j in range(6)] for i in range(6)]
        lhs = lie_action(br, x)
        rhs = lie_action(X, lie_action(Y, x)) - lie_action(Y, lie_action(X, x))
        assert lhs == rhs


def test_lie_action_is_derivative_of_gl_action():
    rng = random.Random(7)
    x = rand_form(rng, 6, 3).as_float()
    X = [[float(v) for v in row] for row in rand_matrix(rng)]
    errs = []
    for t in (1e-4, 1e-5, 1e-6):
        pert = [[(1.0 if i == j else 0.0) + t * X[i][j] for j in range(6)] for i in range(6)]
        diff = gl_action(pert, x) - x
        lin = lie_action(X, x).scale(t)
        err = max(abs(diff.coeffs.get(k, 0.0) - lin.coeffs.get(k, 0.0))
                  for k in set(diff.coeffs) | set(lin.coeffs))
        errs.append(err / t)
    # the residual after removing the linear term is O(t)
    assert errs[2] < 0.05 * errs[0]
    assert errs[1] < 0.5 * errs[0]


def test_evaluate_golden():
    f = [[Fraction(1) if i == j else Fraction(0) for j in range(6)] for i in range(6)]
    assert evaluate(W, f[0], f[1], f[2]) == 1
    assert evaluate(W, f[1], f[0], f[2]) == -1
    assert evaluate(W, f[0], f[1], f[3]) == 0
    with pytest.raises(ValueError):
        evaluate(W, f[0], f[1])
    with pytest.raises(ValueError):
        evaluate(W, f[0][:5], f[1][:5], f[2][:5])


@pytest.mark.parametrize("dim", range(2, 8))
def test_entry_moves_are_lie_action_of_the_matrix_units(dim):
    # every unit E_ij on every basis term e_K, every degree: the moves of entry i * dim + j
    # list exactly the nonzero lie_action(E_ij, e_K), in key order
    for degree in range(dim + 1):
        keys, moves = all_keys(dim, degree), entry_moves(dim, degree)
        assert len(moves) == dim * dim
        for i in range(dim):
            for j in range(dim):
                E = [[int(r == i and c == j) for c in range(dim)] for r in range(dim)]
                want = []
                for K in keys:
                    img = lie_action(E, AlternatingForm(dim, degree, {K: 1})).coeffs
                    assert len(img) <= 1
                    want += [(K, T, v) for T, v in img.items()]
                assert list(moves[i * dim + j]) == want
