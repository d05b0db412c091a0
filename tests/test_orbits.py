import math
import random
from fractions import Fraction

import pytest

from altforms import linalg
from altforms.invariants import delta_case1, s_case1
from altforms.multilinear import AlternatingForm, all_keys, gl_action
from altforms.orbits import (classify_real, eigenspaces,
                             grassmann_rationality, irrationality_report, plucker,
                             point_rationality)
from altforms.representatives import g_alpha, make_rep
from altforms.scalars import QuadExt, demote, rational_sqrt
from test_elimination_oracles import dense_nullspace, dense_rref, same


def rand_form(rng, dim, degree, span=4, density=0.6):
    coeffs = {}
    for key in all_keys(dim, degree):
        if rng.random() < density:
            v = rng.randint(-span, span)
            if v:
                coeffs[key] = Fraction(v)
    return AlternatingForm(dim, degree, coeffs)


def test_classify_goldens():
    rep = classify_real(make_rep("case1_w"))
    assert rep.real_orbit == "case1_positive" and rep.real_rank_positive
    assert rep.field_d == 1

    rep = classify_real(make_rep("case1_w1"))
    assert rep.real_orbit == "case1_negative" and rep.real_rank_positive
    assert rep.field_d == -1

    rep = classify_real(make_rep("case2_w"))
    assert rep.real_orbit == "case2_split" and rep.real_rank_positive

    rep = classify_real(make_rep("case2_w1"))
    assert rep.real_orbit == "case2_nonsplit" and not rep.real_rank_positive

    rep = classify_real(make_rep("case2_wprime"))
    assert rep.real_orbit == "degenerate"

    rep = classify_real(make_rep("case3_w", n=2))
    assert rep.real_orbit == "case3_nondegenerate" and rep.real_rank_positive

    rep = classify_real(AlternatingForm(6, 3, {(1, 2, 3): Fraction(1)}))
    assert rep.real_orbit == "degenerate"


def test_classify_real_invariance_under_float_action():
    rng = random.Random(51)
    base = [make_rep("case1_w"), make_rep("case1_w1"), make_rep("case2_w"),
            make_rep("case2_w1"), make_rep("case3_w", n=2)]
    for x in base:
        want = classify_real(x).real_orbit
        xf = x.as_float()
        n = x.dim
        for _ in range(5):
            while True:
                g = [[rng.uniform(-1.5, 1.5) for _ in range(n)] for _ in range(n)]
                det = linalg.mat_det([[Fraction(v).limit_denominator(10 ** 6) for v in row]
                                      for row in g])
                if abs(float(det)) > 0.1:
                    break
            moved = gl_action(g, xf)
            assert classify_real(moved).real_orbit == want


def test_field_kx():
    # k(x) = Q(sqrt d) is classify_real's field_d; a degenerate form has none
    assert classify_real(make_rep("case1_w")).field_d == 1
    assert classify_real(make_rep("case1_walpha", d=2)).field_d == 2
    assert classify_real(make_rep("case1_walpha", d=-5)).field_d == -5
    assert classify_real(make_rep("case1_w1")).field_d == -1
    assert classify_real(AlternatingForm(6, 3, {(1, 2, 3): Fraction(1)})).field_d is None


def test_field_kx_invariant_under_rational_action():
    rng = random.Random(52)
    x = make_rep("case1_walpha", d=3)
    for _ in range(10):
        while True:
            g = [[Fraction(rng.randint(-2, 2)) for _ in range(6)] for _ in range(6)]
            if linalg.mat_det(g) != 0:
                break
        assert classify_real(gl_action(g, x)).field_d == 3


def test_eigenspaces_of_w():
    gr = eigenspaces(make_rep("case1_w"))
    span1 = {tuple(i for i, v in enumerate(vec) if v != 0) for vec in gr.basis1}
    span2 = {tuple(i for i, v in enumerate(vec) if v != 0) for vec in gr.basis2}
    assert span1 == {(0,), (1,), (2,)}
    assert span2 == {(3,), (4,), (5,)}


def test_eigenspace_dimensions_and_eigenvalue_identity():
    rng = random.Random(53)
    found = 0
    while found < 5:
        x = rand_form(rng, 6, 3, span=2, density=0.5)
        d = delta_case1(x)
        if d == 0:
            continue
        found += 1
        gr = eigenspaces(x)
        assert len(gr.basis1) == 3 and len(gr.basis2) == 3
        # S restricted to the first eigenspace acts as +sqrt(delta)
        S = s_case1(x)
        from altforms.scalars import rational_sqrt
        root = rational_sqrt(d)
        for vec in gr.basis1:
            img = [sum(_lift(S[i][j], root) * _lift(vec[j], root) for j in range(6))
                   for i in range(6)]
            want = [_lift(root, root) * _lift(vec[i], root) for i in range(6)]
            assert img == want


def _lift(v, root):
    if isinstance(root, QuadExt) and not isinstance(v, QuadExt):
        return QuadExt(v, 0, root.d)
    return v


def test_eigenspace_equivariance():
    rng = random.Random(54)
    x = make_rep("case1_w")
    for _ in range(5):
        while True:
            g = [[Fraction(rng.randint(-2, 2)) for _ in range(6)] for _ in range(6)]
            if linalg.mat_det(g) != 0:
                break
        gr = eigenspaces(gl_action(g, x))
        # the eigenspaces of the moved form are g * (eigenspaces of x)
        moved1 = [[sum(g[i][j] * v[j] for j in range(6)) for i in range(6)]
                  for v in eigenspaces(x).basis1]
        got = {1: gr.basis1, -1: gr.basis2}
        # determinant sign of g can swap which eigenvalue is labeled first
        match = any(_same_span(moved1, got[s]) for s in (1, -1))
        assert match


def _same_span(vs, ws):
    rows = [list(v) for v in vs]
    rows2 = rows + [list(w) for w in ws]
    return len(dense_rref(rows)[1]) == len(dense_rref(rows2)[1]) == 3


def test_grassmann_conjugation_equivariance():
    # x = g . w with g over Q(sqrt(2)) of determinant 1: conjugating the
    # coefficients conjugates the pair of subspaces
    d = 2
    g = [[QuadExt(1 if i == j else 0, 0, d) for j in range(6)] for i in range(6)]
    g[0][3] = QuadExt(0, 1, d)  # unipotent shear by sqrt(2)
    x = gl_action(g, make_rep("case1_w"))
    gr = eigenspaces(x)
    xs = x.map_coeffs(lambda v: v.conjugate() if isinstance(v, QuadExt) else v)
    grs = eigenspaces(xs)
    conj1 = [[_conj(v) for v in vec] for vec in gr.basis1]
    conj2 = [[_conj(v) for v in vec] for vec in gr.basis2]
    assert (_same_span_qe(conj1, grs.basis1) and _same_span_qe(conj2, grs.basis2)) or \
           (_same_span_qe(conj1, grs.basis2) and _same_span_qe(conj2, grs.basis1))


def _conj(v):
    return v.conjugate() if isinstance(v, QuadExt) else v


def _same_span_qe(vs, ws):
    rows = [list(v) for v in vs]
    rows2 = rows + [list(w) for w in ws]
    return len(dense_rref(rows)[1]) == len(dense_rref(rows2)[1]) == 3


def test_plucker_shape():
    basis = [[Fraction(1), 0, 0, 0, 0, 0],
             [0, Fraction(1), 0, 0, 0, 0],
             [0, 0, Fraction(1), 0, 0, 0]]
    p = plucker(basis)
    assert len(p) == 20
    assert p[0] == 1 and all(v == 0 for v in p[1:])


def test_point_rationality_exact_modes():
    v = point_rationality([Fraction(2), Fraction(4), Fraction(6)])
    assert v.rational and v.mode == "exact"
    q = point_rationality([QuadExt(0, 1, 2), QuadExt(0, 2, 2)])
    assert q.rational and q.mode == "exact"  # ratio 2 is rational even if coords are not
    q2 = point_rationality([QuadExt(1, 0, 2), QuadExt(0, 1, 2)])
    assert not q2.rational and q2.mode == "exact"


def test_point_rationality_float_modes():
    ok = point_rationality([0.5, 0.25, 1.0], max_den=1000, tol=1e-9)
    assert ok.rational and ok.mode == "float"
    bad = point_rationality([1.0, math.sqrt(2)], max_den=1000, tol=1e-12)
    assert not bad.rational


def test_normalize_float_vector_with_int_zeros():
    # the shape of a float two-form's coefficient vector: int 0 where a key is missing
    from altforms.orbits import _normalize
    is_float, nv = _normalize([0, 0.5, 0, -2.0, 1.0])
    assert is_float and nv == [0.0, -0.25, 0.0, 1.0, -0.5]
    assert all(type(v) is float for v in nv)
    assert _normalize([0, Fraction(2), 4]) == (False, [0, 1, 2])
    for zero in ([0, 0.0, 0], [0, 0], []):
        with pytest.raises(ValueError, match="zero vector"):
            _normalize(zero)
    rep = irrationality_report(make_rep("case3_w", n=2).as_float())
    assert rep.flags["x"].rational and rep.flags["x"].mode == "float"


def test_irrationality_reports_certified():
    rep = irrationality_report(make_rep("case3_w", n=2))
    assert rep.flags["x"].rational and rep.flags["x"].mode == "exact"

    rep = irrationality_report(make_rep("case2_w"))
    assert rep.flags["Q"].rational and rep.flags["Q"].mode == "exact"

    rep = irrationality_report(make_rep("case1_w"))
    assert rep.flags["E1"].rational and rep.flags["E2"].rational
    assert rep.flags["Gr"].rational


@pytest.mark.parametrize("x", [f(x) for x in (make_rep("case1_w"), make_rep("case2_w"),
                                                make_rep("case3_w", n=2),
                                                gl_action(g_alpha(2), make_rep("case1_w")))
                               for f in (lambda x: x, AlternatingForm.as_float)])
def test_bad_tol_and_max_den_are_rejected_for_every_scalar_kind(x):
    for tol in (math.nan, math.inf, -1.0, 0.0):
        with pytest.raises(ValueError, match="tol must be finite and > 0"):
            classify_real(x, tol)
    for max_den in (0, -5):
        with pytest.raises(ValueError, match="max_den must be >= 1"):
            irrationality_report(x, max_den=max_den)


def test_irrationality_heuristic_for_float_orbit_point():
    # transport the representative by shears on both block sides so that
    # both eigenspaces (and the pair) move off every rational point
    up = [[1.0 if i == j else 0.0 for j in range(6)] for i in range(6)]
    up[0][3] = math.sqrt(2)
    up[1][4] = 1.0 / math.pi
    lo = [[1.0 if i == j else 0.0 for j in range(6)] for i in range(6)]
    lo[3][0] = 1.0 / math.e
    lo[4][1] = math.sqrt(3) / 5.0
    g = [[sum(lo[i][k] * up[k][j] for k in range(6)) for j in range(6)] for i in range(6)]
    x = gl_action(g, make_rep("case1_w").as_float())
    rep = irrationality_report(x, max_den=1000, tol=1e-12)
    assert not rep.flags["E1"].rational
    assert not rep.flags["E2"].rational
    assert not rep.flags["Gr"].rational


def test_negative_orbit_float_eigenspaces_are_complex_but_pair_is_real():
    x = make_rep("case1_w1").as_float()
    gr = eigenspaces(x)
    rep = grassmann_rationality(gr, max_den=1000, tol=1e-9)
    # the representative itself is rational, so the unordered pair is rational
    assert rep.rational


@pytest.mark.parametrize("bad", (math.nan, math.inf, -math.inf))
def test_classify_real_rejects_non_finite_coefficients(bad):
    # a NaN coefficient used to come out as case1_negative
    for shape, keys in (((6, 3), ((1, 2, 3), (4, 5, 6))), ((7, 3), ((1, 2, 3), (4, 5, 6))),
                        ((4, 2), ((1, 2), (3, 4)))):
        x = AlternatingForm(*shape, {keys[0]: bad, keys[1]: 1.0})
        with pytest.raises(ValueError, match="finite"):
            classify_real(x)


def test_eigenspaces_refuse_a_field_tower():
    # g_alpha(2) has det -8 sqrt(2): moved by it, w1 lives over Q(sqrt 2) and its
    # delta -64 * 128 is rational, but sqrt(delta) lies in Q(sqrt -2), a tower over
    # the field of S_x (the eigenspaces mixed sqrt(2) with sqrt(-2))
    from altforms.representatives import g_alpha
    x = gl_action(g_alpha(2), make_rep("case1_w1"))
    assert delta_case1(x) == -8192
    with pytest.raises(ValueError, match="no field towers"):
        eigenspaces(x)
    # delta 128 of w moved the same way has its root 8 sqrt(2) in that field
    gr = eigenspaces(gl_action(g_alpha(2), make_rep("case1_w")))
    assert len(gr.basis1) == len(gr.basis2) == 3


def dense_eigenspaces(x):
    """basis1 and basis2 by the dense oracle: the nullspaces of S_x -/+ sqrt(delta) I,
    each entry demoted (a rational value a Fraction)."""
    S, root = s_case1(x), rational_sqrt(demote(delta_case1(x)))
    return [[[demote(c) for c in v] for v in dense_nullspace(
        [[S[i][j] - (sign * root if i == j else 0) for j in range(6)] for i in range(6)], 6)]
        for sign in (1, -1)]


def test_eigenspaces_match_the_dense_oracle():
    # rational forms, most with an irrational sqrt(delta), and one whose S_x is
    # over Q(sqrt 2): the int_nullspace kernels equal the oracle by value and type
    rng = random.Random(55)
    forms, irrational = [gl_action(g_alpha(2), make_rep("case1_w"))], 0
    while len(forms) < 13:
        x = AlternatingForm(6, 3, {k: Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3)))
                                   for k in all_keys(6, 3) if rng.random() < 0.7})
        if delta_case1(x) != 0:
            forms.append(x)
            irrational += isinstance(rational_sqrt(delta_case1(x)), QuadExt)
    for x in forms:
        gr = eigenspaces(x)
        same([gr.basis1, gr.basis2], dense_eigenspaces(x))
    assert irrational >= 8


def test_case1_sign_is_exact_when_float_cancels():
    # x_t = (1 - t)(e123 + e456) + t(e123 - e156 + e246 - e345) has delta
    # 1 - 2t + t^2 - 4t^3; with t = a + 10^12 sqrt(2), a rational within 1e-70 of
    # r - 10^12 sqrt(2) for the real root r, delta is exact and nonzero but its
    # float is 0.0 on either side of r
    import mpmath
    from altforms.invariants import delta_case1_explicit
    mpmath.mp.dps = 120
    r = mpmath.findroot(lambda t: 4 * t ** 3 - t ** 2 + 2 * t - 1, 0.5)
    N = 10 ** 70
    lo = int(mpmath.floor((r - 10 ** 12 * mpmath.sqrt(2)) * N))
    orbits = []
    for a in (Fraction(lo, N), Fraction(lo + 1, N)):
        t = QuadExt(a, 10 ** 12, 2)
        x = AlternatingForm(6, 3, {(1, 2, 3): 1, (4, 5, 6): 1 - t, (1, 5, 6): -t,
                                   (2, 4, 6): t, (3, 4, 5): -t})
        d = delta_case1_explicit(x)
        mpmath.mp.dps = 400
        true = mpmath.mpf(d.a.numerator) / d.a.denominator \
            + mpmath.mpf(d.b.numerator) / d.b.denominator * mpmath.sqrt(2)
        assert d != 0 and abs(true) < 1e-60
        rep = classify_real(x)
        assert rep.real_orbit == ("case1_positive" if true > 0 else "case1_negative")
        assert rep.delta == d
        orbits.append(rep.real_orbit)
    assert orbits == ["case1_positive", "case1_negative"]  # delta changes sign at r
