import random
from fractions import Fraction

import pytest

from altforms import linalg
from altforms.invariants import (QCASE2_DET_RATIO, case_of,
                                 delta_case1, delta_case1_explicit, delta_case2,
                                 invariant_report, pfaffian, q_case2, s_case1,
                                 s_case2, skew_matrix)
from altforms.multilinear import AlternatingForm, all_keys, gl_action
from altforms.representatives import make_rep

W1 = make_rep("case1_w")
W2 = make_rep("case2_w")


def rand_form(rng, dim, degree, span=5, density=0.7):
    coeffs = {}
    for key in all_keys(dim, degree):
        if rng.random() < density:
            v = rng.randint(-span, span)
            if v:
                coeffs[key] = Fraction(v)
    return AlternatingForm(dim, degree, coeffs)


def basis_form(dim, degree, key):
    return AlternatingForm(dim, degree, {key: Fraction(1)})


def scaled(c, A):
    return [[c * a for a in row] for row in A]


def rand_invertible(rng, n, span=2):
    while True:
        g = [[Fraction(rng.randint(-span, span)) for _ in range(n)] for _ in range(n)]
        if linalg.mat_det(g) != 0:
            return g


def test_s_case1_goldens():
    S = s_case1(W1)
    for i in range(6):
        for j in range(6):
            want = Fraction(1 if i < 3 else -1) if i == j else Fraction(0)
            assert S[i][j] == want
    assert all(v == 0 for row in s_case1(basis_form(6, 3, (1, 2, 3))) for v in row)
    S2 = s_case1(W1.scale(Fraction(2)))
    assert S2 == scaled(Fraction(4), S)


def test_delta_case1_goldens():
    assert delta_case1(W1) == 1
    assert delta_case1(make_rep("case1_w1")) == -64
    for d in (-1, 2, 3, 5):
        assert delta_case1(make_rep("case1_walpha", d=d)) == 64 * d


def test_delta_case1_explicit_matches_s_route():
    assert delta_case1_explicit(W1) == 1
    assert delta_case1_explicit(AlternatingForm(6, 3, {})) == 0
    rng = random.Random(11)
    for _ in range(100):
        z = rand_form(rng, 6, 3)
        assert delta_case1_explicit(z) == delta_case1(z)


def test_delta_case1_on_float_forms_is_the_explicit_quartic():
    # a rounded float S_x^2 failed the exact scalar check: "internal bug"
    for seed in range(20):
        rng = random.Random(seed)
        z = AlternatingForm(6, 3, {k: rng.uniform(-1.0, 1.0) for k in all_keys(6, 3)})
        assert delta_case1(z) == delta_case1_explicit(z)


def test_delta_case1_covariance():
    rng = random.Random(12)
    for _ in range(50):
        x = rand_form(rng, 6, 3, density=0.5)
        g = rand_invertible(rng, 6)
        assert delta_case1(gl_action(g, x)) == linalg.mat_det(g) ** 2 * delta_case1(x)


def test_delta_case1_homogeneity():
    rng = random.Random(13)
    x = rand_form(rng, 6, 3)
    lam = Fraction(3, 2)
    assert delta_case1(x.scale(lam)) == lam ** 4 * delta_case1(x)


def test_s_case2_goldens():
    assert all(v == 0 for row in s_case2(basis_form(7, 3, (1, 2, 3))) for v in row)
    S = s_case2(W2)
    S8 = s_case2(W2.scale(Fraction(2)))
    assert S8 == scaled(Fraction(8), S)


def test_q_case2_goldens():
    gram = q_case2(W2)
    expected = [[Fraction(0)] * 7 for _ in range(7)]
    expected[0][0] = Fraction(-6)
    for i, j in ((1, 4), (2, 5), (3, 6)):
        expected[i][j] = expected[j][i] = Fraction(3)
    assert gram == expected

    gramp = q_case2(make_rep("case2_wprime"))
    expectedp = [[Fraction(0)] * 7 for _ in range(7)]
    expectedp[0][3] = expectedp[3][0] = Fraction(-3)
    expectedp[1][2] = expectedp[2][1] = Fraction(3)
    assert gramp == expectedp

    # the definite representative: 2^3 * 6 times the unit quadric
    gram1 = q_case2(make_rep("case2_w1"))
    assert gram1 == [[Fraction(48) if i == j else Fraction(0) for j in range(7)]
                     for i in range(7)]


def test_q_case2_covariance():
    rng = random.Random(14)
    for _ in range(50):
        x = rand_form(rng, 7, 3, span=3, density=0.4)
        g = rand_invertible(rng, 7)
        t = Fraction(rng.choice([1, 2, -1, 3]))
        moved = gl_action(g, x).scale(t)
        lhs = q_case2(moved)
        A = g
        G = q_case2(x)
        AG = linalg.mat_mul(A, G)
        AGAt = linalg.mat_mul(AG, linalg.transpose(A))
        rhs = scaled(t ** 3 * linalg.mat_det(g), AGAt)
        assert lhs == rhs


def test_delta_case2_goldens_and_cube_relation():
    d, exact = delta_case2(W2)
    assert (d, exact) == (Fraction(6), True)
    d1, _ = delta_case2(make_rep("case2_w1"))
    assert d1 == 2 ** 9 * 6
    dp, _ = delta_case2(make_rep("case2_wprime"))
    assert dp == 0
    rng = random.Random(15)
    for _ in range(25):
        x = rand_form(rng, 7, 3, span=2, density=0.4)
        d, exact = delta_case2(x)
        assert exact
        assert d ** 3 * QCASE2_DET_RATIO == linalg.mat_det(q_case2(x))


def test_delta_case2_homogeneity():
    rng = random.Random(16)
    x = rand_form(rng, 7, 3, span=2, density=0.4)
    lam = Fraction(2)
    assert delta_case2(x.scale(lam))[0] == lam ** 7 * delta_case2(x)[0]


def test_delta_case2_past_float_range():
    # det gram grows like c**21: far past 1e308, where a float cube root overflows
    c = Fraction(10 ** 60)
    assert delta_case2(W2.scale(c)) == (c ** 7 * 6, True)


def test_delta_case2_float_mode_flagged_inexact():
    xf = W2.as_float()
    d, exact = delta_case2(xf)
    assert not exact
    assert abs(d - 6.0) < 1e-9


def test_pfaffian_basics():
    assert pfaffian(basis_form(2, 2, (1, 2))) == 1
    assert pfaffian(AlternatingForm(4, 2, {})) == 0
    with pytest.raises(ValueError):
        pfaffian(AlternatingForm(5, 2, {(1, 2): Fraction(1)}))
    # pf of the interleaved symplectic representative is (-1)^(n(n-1)/2)
    assert pfaffian(make_rep("case3_w", n=2)) == -1
    assert pfaffian(make_rep("case3_w", n=3)) == -1
    assert pfaffian(make_rep("case3_w", n=4)) == 1


def test_pfaffian_square_is_determinant():
    rng = random.Random(17)
    for _ in range(20):
        x = rand_form(rng, 8, 2, span=4)
        assert pfaffian(x) ** 2 == linalg.mat_det(skew_matrix(x))


def test_pfaffian_covariance_and_homogeneity():
    rng = random.Random(18)
    for n in (2, 3):
        for _ in range(25):
            x = rand_form(rng, 2 * n, 2, span=3)
            g = rand_invertible(rng, 2 * n)
            assert pfaffian(gl_action(g, x)) == linalg.mat_det(g) * pfaffian(x)
        x = rand_form(rng, 2 * n, 2, span=3)
        lam = Fraction(-3, 2)
        assert pfaffian(x.scale(lam)) == lam ** n * pfaffian(x)


def test_quadratic_form_signature_and_definiteness():
    sig = linalg.congruent_signature
    assert sig([[Fraction(2), Fraction(0)], [Fraction(0), Fraction(3)]]) == (2, 0, 0)
    assert sig([[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]]) == (1, 1, 0)
    assert sig(q_case2(W2)) == (3, 4, 0)
    assert sig(q_case2(make_rep("case2_wprime")))[2] > 0  # degenerate
    with pytest.raises(ArithmeticError, match="not symmetric"):
        sig([[Fraction(0), Fraction(1)], [Fraction(2), Fraction(0)]])


def test_case_detection_and_report():
    assert case_of(W1) == 1
    assert case_of(W2) == 2
    assert case_of(make_rep("case3_w", n=3)) == 3
    with pytest.raises(ValueError):
        case_of(AlternatingForm(5, 3, {}))
    rep = invariant_report(W1)
    assert rep.case == 1 and rep.delta == 1 and rep.s_matrix is not None
    rep2 = invariant_report(W2)
    assert rep2.case == 2 and rep2.delta == 6 and rep2.q_gram == q_case2(W2)
    rep3 = invariant_report(make_rep("case3_w", n=2))
    assert rep3.case == 3 and rep3.pfaffian == -1


def test_signature_on_isotropic_diagonal_blocks():
    # the zero-diagonal repair must not land back on zero
    q = [[Fraction(0), Fraction(1)], [Fraction(1), Fraction(-2)]]
    assert linalg.congruent_signature(q) == (1, 1, 0)
    q2 = [[Fraction(0), Fraction(1), Fraction(0)],
          [Fraction(1), Fraction(-2), Fraction(0)],
          [Fraction(0), Fraction(0), Fraction(0)]]
    assert linalg.congruent_signature(q2) == (1, 1, 1)
    rng = random.Random(19)
    for _ in range(50):
        n = rng.choice([3, 4, 5])
        M = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
        G = [[M[i][j] + M[j][i] for j in range(n)] for i in range(n)]
        npos, nneg, nzero = linalg.congruent_signature(G)
        # cross-check against float eigenvalues
        import numpy as np
        eig = np.linalg.eigvalsh(np.array([[float(v) for v in r] for r in G]))
        assert npos == int((eig > 1e-9).sum())
        assert nneg == int((eig < -1e-9).sum())


def test_self_checks_run_under_python_O():
    # the S^2 = delta * I check must raise even when asserts are stripped
    import os
    import subprocess
    import sys

    import altforms
    src = os.path.dirname(os.path.dirname(altforms.__file__))
    code = (
        "import sys\n"
        "assert False, 'asserts are on'\n"
        "import altforms.invariants as inv\n"
        "from altforms.representatives import make_rep\n"
        "inv._s_integral = lambda x, dim: (1, [[1 if j == (i + 1) % 6 else 0 for j in range(6)]"
        " for i in range(6)])\n"
        "for f in (inv.delta_case1, inv.invariant_report):\n"
        "    try:\n"
        "        f(make_rep('case1_w'))\n"
        "    except ArithmeticError as exc:\n"
        "        print('raised', exc)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.count("raised S_x^2 is not a scalar matrix") == 2


def test_delta_case2_cube_check_raises(monkeypatch):
    import altforms.invariants as inv
    monkeypatch.setattr(inv, "cube_root_rational", lambda q: None)
    with pytest.raises(ArithmeticError, match="perfect cube"):
        delta_case2(W2)
