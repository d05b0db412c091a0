import itertools
import random
from fractions import Fraction

import pytest

from altforms import linalg
from altforms.cayley_dickson import (c_form, cd_double,
                                     complex_type, ground_field, iso_check,
                                     matrix_2x2, octonion_from_form, octonions,
                                     quaternions, split_octonions)
from altforms.invariants import q_case2
from altforms.multilinear import AlternatingForm
from altforms.representatives import g1_fixture, make_rep
from altforms.scalars import QuadExt


def rand_elt(rng, A, span=3):
    return A.element([Fraction(rng.randint(-span, span)) for _ in range(A.dim)])


def test_complex_type_is_commutative_associative():
    C = complex_type()
    rng = random.Random(41)
    for _ in range(50):
        x, y, z = (rand_elt(rng, C) for _ in range(3))
        assert (x * y).coords == (y * x).coords
        assert ((x * y) * z).coords == (x * (y * z)).coords
        assert (x * y).norm() == x.norm() * y.norm()
    a, b = Fraction(3), Fraction(-2)
    v = C.element([a, b])
    assert v.norm() == a * a + b * b


def test_quaternions_associative_not_commutative():
    H = quaternions()
    for i, j, k in itertools.product(range(4), repeat=3):
        x, y, z = H.basis_element(i), H.basis_element(j), H.basis_element(k)
        assert x.associator(y, z).coords == (Fraction(0),) * 4
    i, j = H.basis_element(1), H.basis_element(2)
    assert (i * j).coords != (j * i).coords
    # i j = k, j k = i, k i = j, i^2 = -1
    k = H.basis_element(3)
    assert (i * j).coords == k.coords
    assert (j * k).coords == i.coords
    assert (k * i).coords == j.coords
    assert (i * i).coords == tuple(-c for c in H.one.coords)


def test_matrix_algebra_from_doubling():
    M = matrix_2x2()
    rng = random.Random(42)
    for _ in range(50):
        x, y, z = (rand_elt(rng, M) for _ in range(3))
        assert ((x * y) * z).coords == (x * (y * z)).coords
        assert (x * y).norm() == x.norm() * y.norm()
    # the norm is hyperbolic: signature (2, 2)
    assert linalg.congruent_signature(M.gram) == (2, 2, 0)


def test_split_octonions_alternative_not_associative():
    S = split_octonions()
    nonzero = False
    for i, j, k in itertools.product(range(8), repeat=3):
        x, y, z = S.basis_element(i), S.basis_element(j), S.basis_element(k)
        a_xyz = x.associator(y, z)
        if any(c != 0 for c in a_xyz.coords):
            nonzero = True
        # alternating under swapping the first two arguments
        a_yxz = y.associator(x, z)
        assert tuple(-c for c in a_xyz.coords) == a_yxz.coords
    assert nonzero


def test_octonions_alternative():
    O = octonions()
    rng = random.Random(43)
    for _ in range(50):
        x, y, z = (rand_elt(rng, O, 2) for _ in range(3))
        a1 = x.associator(y, z).coords
        a2 = y.associator(x, z).coords
        a3 = x.associator(z, y).coords
        assert tuple(-c for c in a1) == a2
        assert tuple(-c for c in a1) == a3
    assert linalg.congruent_signature(O.gram) == (8, 0, 0)


@pytest.mark.parametrize("factory", [quaternions, octonions, split_octonions])
def test_norm_multiplicativity_and_conjugation_laws(factory):
    A = factory()
    rng = random.Random(44)
    for _ in range(200):
        x, y = rand_elt(rng, A), rand_elt(rng, A)
        assert (x * y).norm() == x.norm() * y.norm()
        # conj(xy) = conj(y) conj(x)
        assert (x * y).conj().coords == (y.conj() * x.conj()).coords
        # <x, y> = Re(x conj(y))
        assert x.inner(y) == (x * y.conj()).re()
        # |x| = x conj(x) (as a multiple of the unit)
        xc = x * x.conj()
        assert xc.coords == tuple(x.norm() * c for c in A.one.coords)


def test_split_octonion_norm_golden():
    S = split_octonions()
    rng = random.Random(45)
    for _ in range(30):
        coords = [Fraction(rng.randint(-3, 3)) for _ in range(8)]
        v = S.element(coords)
        x = coords
        want = (x[0] ** 2) - x[1] ** 2 + 0 * x[2]
        # norm of a0*1 + sum x_i f_i: a0^2 - x1^2 + x2 x5 + x3 x6 + x4 x7
        want = x[0] ** 2 - x[1] ** 2 + x[2] * x[5] + x[3] * x[6] + x[4] * x[7]
        assert v.norm() == want


def test_re_im_conj_basics():
    S = split_octonions()
    one = S.one
    assert one.conj().coords == one.coords
    assert one.re() == 1
    assert all(c == 0 for c in one.im().coords)
    f2 = S.basis_element(2)
    assert f2.re() == 0
    assert f2.conj().coords == tuple(-c for c in f2.coords)


def test_c_form_split_golden():
    C = c_form(split_octonions())
    half = Fraction(1, 2)
    assert C == AlternatingForm(7, 3, {(2, 3, 4): half, (5, 6, 7): half,
                                       (1, 2, 5): half, (1, 3, 6): half,
                                       (1, 4, 7): half})
    # twice the form is the split orbit representative
    assert C.scale(Fraction(2)) == make_rep("case2_w")


def test_c_form_nonsplit_definite():
    C = c_form(octonions())
    doubled = C.scale(Fraction(2))
    assert linalg.congruent_signature(q_case2(doubled)) in ((7, 0, 0), (0, 7, 0))
    assert doubled == make_rep("case2_w1").scale(Fraction(-1))


def test_octonion_from_form_recovers_split_table():
    A = octonion_from_form(make_rep("case2_w"))
    assert A == split_octonions()


def test_octonion_from_form_round_trip():
    S = split_octonions()
    x = c_form(S).scale(Fraction(2))
    assert octonion_from_form(x) == S


def test_octonion_from_form_nonsplit_definite():
    A = octonion_from_form(make_rep("case2_w1"))
    assert linalg.congruent_signature(A.gram) == (8, 0, 0)
    rng = random.Random(46)
    for _ in range(100):
        x, y = rand_elt(rng, A), rand_elt(rng, A)
        assert (x * y).norm() == x.norm() * y.norm()


def test_octonion_from_form_rejects_degenerate():
    with pytest.raises(ValueError, match="not semistable"):
        octonion_from_form(make_rep("case2_wprime"))


def test_octonion_from_form_float_mode():
    A = octonion_from_form(make_rep("case2_w").as_float())
    S = split_octonions()
    for i in range(8):
        for j in range(8):
            for m in range(8):
                assert abs(float(A.table[i][j][m]) - float(S.table[i][j][m])) < 1e-9


def test_iso_check_examples():
    w = make_rep("case2_w")
    assert iso_check(w, w, Fraction(1), linalg.identity(7))
    assert iso_check(w, w.scale(Fraction(2)), Fraction(2), linalg.identity(7))
    g = [[Fraction(1, 8) * v for v in row] for row in g1_fixture()]
    assert iso_check(w, make_rep("case2_w1"), Fraction(2 ** 9), g)


def test_iso_check_rejects_unrelated_forms():
    w = make_rep("case2_w")
    with pytest.raises(ValueError):
        iso_check(w, w.scale(Fraction(3)), Fraction(2), linalg.identity(7))


def test_cd_double_dimension_and_signs():
    k = ground_field()
    assert cd_double(k, +1).dim == 2
    minus = cd_double(cd_double(k, +1), -1)
    assert linalg.congruent_signature(minus.gram) == (2, 2, 0)
    with pytest.raises(ValueError):
        cd_double(k, 0)


def test_split_norm_pullback_is_euclidean():
    # the dim-7 fixture matrix carries the y-coordinates of the definite
    # algebra to split coordinates; the split norm pulls back to sum y_i^2
    from altforms.invariants import q_case2
    from altforms.representatives import make_rep
    import random as _random
    M = linalg.transpose([[Fraction(-1) * v for v in row] for row in g1_fixture()])
    Qw = q_case2(make_rep("case2_w"))
    rng = _random.Random(47)
    for _ in range(20):
        y = [Fraction(rng.randint(-3, 3)) for _ in range(7)]
        x = linalg.mat_vec(M, [QuadExt(v, 0, -1) for v in y])
        val = sum(Qw[i][j] * x[i] * x[j] for i in range(7) for j in range(7))
        want = 6 * sum(v * v for v in y)
        assert val == QuadExt(want, 0, -1)


def test_constant_algebras_are_built_once_and_immutable():
    for make in (split_octonions, octonions):
        A = make()
        assert make() is A
        for name in ("dim", "table", "gram", "label", "other"):
            with pytest.raises(AttributeError):
                setattr(A, name, None)


# The split octonions as they were built before they came from cd_double: pairs
# (A, B) of 2x2 matrices multiplied by the doubling formula written out on matrices
# (conj = adjugate, norm = det A + det B), read off in the pinned basis 1, f1..f7.
def _m(a, b, c, d):
    return ((Fraction(a), Fraction(b)), (Fraction(c), Fraction(d)))


_PAIR_BASIS = (
    (_m(1, 0, 0, 1), _m(0, 0, 0, 0)),   # 1
    (_m(1, 0, 0, -1), _m(0, 0, 0, 0)),  # f1
    (_m(0, 1, 0, 0), _m(0, 0, 0, 0)),   # f2
    (_m(0, 0, 0, 0), _m(1, 0, 0, 0)),   # f3
    (_m(0, 0, 0, 0), _m(0, 0, -1, 0)),  # f4
    (_m(0, 0, -1, 0), _m(0, 0, 0, 0)),  # f5
    (_m(0, 0, 0, 0), _m(0, 0, 0, 1)),   # f6
    (_m(0, 0, 0, 0), _m(0, 1, 0, 0)),   # f7
)


def _mat_mul2(A, B):
    return ((A[0][0] * B[0][0] + A[0][1] * B[1][0], A[0][0] * B[0][1] + A[0][1] * B[1][1]),
            (A[1][0] * B[0][0] + A[1][1] * B[1][0], A[1][0] * B[0][1] + A[1][1] * B[1][1]))


def _mat_conj2(A):
    return ((A[1][1], -A[0][1]), (-A[1][0], A[0][0]))


def _mat_add2(A, B):
    return tuple(tuple(a + b for a, b in zip(ra, rb)) for ra, rb in zip(A, B))


def _mat_det2(A):
    return A[0][0] * A[1][1] - A[0][1] * A[1][0]


def _pair_mul(x, y):
    a, b = x
    c, d = y
    first = _mat_add2(_mat_mul2(a, c), tuple(tuple(-v for v in r)
                                             for r in _mat_mul2(_mat_conj2(d), b)))
    second = _mat_add2(_mat_mul2(d, a), _mat_mul2(b, _mat_conj2(c)))
    return first, second


def _pair_coords(x):
    a, b = x
    return (Fraction(a[0][0] + a[1][1], 2), Fraction(a[0][0] - a[1][1], 2),
            a[0][1], b[0][0], -b[1][0], -a[1][0], b[1][1], b[0][1])


def pair_split_octonions():
    def norm(x):
        return _mat_det2(x[0]) + _mat_det2(x[1])

    table = [[_pair_coords(_pair_mul(_PAIR_BASIS[i], _PAIR_BASIS[j]))
              for j in range(8)] for i in range(8)]
    gram = [[Fraction(0)] * 8 for _ in range(8)]
    for i in range(8):
        for j in range(8):
            s = (_mat_add2(_PAIR_BASIS[i][0], _PAIR_BASIS[j][0]),
                 _mat_add2(_PAIR_BASIS[i][1], _PAIR_BASIS[j][1]))
            gram[i][j] = Fraction(norm(s) - norm(_PAIR_BASIS[i]) - norm(_PAIR_BASIS[j]), 2)
    return table, gram


def test_split_octonions_match_the_matrix_pair_oracle():
    table, gram = pair_split_octonions()
    S = split_octonions()
    got = [c for row in S.table for v in row for c in v] + [c for row in S.gram for c in row]
    want = [c for row in table for v in row for c in v] + [c for row in gram for c in row]
    assert got == want
    assert [type(c) for c in got] == [type(c) for c in want] == [Fraction] * (8 * 8 * 8 + 8 * 8)


def test_split_c_form_cli_bytes(capsys):
    from altforms.cli import main
    assert main(["octonion", "c-form", "--algebra", "split"]) == 0
    out = capsys.readouterr()
    assert out.err == ""
    assert out.out == (
        '{\n  "dim": 7,\n  "degree": 3,\n  "scalar": "rational",\n  "coeffs": {\n'
        '    "1,2,5": "1/2",\n    "1,3,6": "1/2",\n    "1,4,7": "1/2",\n'
        '    "2,3,4": "1/2",\n    "5,6,7": "1/2"\n  }\n}\n')
