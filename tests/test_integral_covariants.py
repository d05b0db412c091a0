"""The integral covariants against the divide-then-clear route they replace.

S_x, the gram of Q_x, delta_case1, delta_case2 and the octonion algebra of an
exact form are built from one integral copy (D, matrix over Z or Z[sqrt d]) and
divided once.  The oracles here are the route as it ran before: S_x from the
generic Fraction builders (test_integer_kernel), the gram as
Fraction(1, 2) (S_ij + S_ji), delta_case1 from S_x cleared again and squared
(and, for classify, the closed quartic on the Fraction coefficients),
delta_case2 from the det of the Fraction gram, the octonion table from the
Fraction inverse of that gram, and algebra_laws on the cleared views.  Every
value must agree by value and by the type of each entry (`same`), on
hypothesis forms of shapes (6, 3) and (7, 3) over Q and Q(sqrt d) and on the
representatives; the CLI JSON must be scalar_to_json of the oracle values.
"""

import io
import json
from contextlib import redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from altforms import linalg
from altforms.cayley_dickson import AlgebraStructure, algebra_laws, octonion_from_form
from altforms.cli import main
from altforms.invariants import (delta_case1, delta_case1_explicit, delta_case2, invariant_report,
                                 q_case2, s_case1, s_case2)
from altforms.multilinear import integral_multiple
from altforms.orbits import classify_real
from altforms.representatives import REP_NAMES, make_rep
from altforms.scalars import clear_denominators, cube_root_rational, scalar_to_json
from altforms.serialize import form_to_dict
from strategies import fields, trivectors
from test_elimination_oracles import same
from test_integer_kernel import generic_s_case1, generic_s_case2
from test_integral_verdicts import oracle_laws

SETTINGS = settings(max_examples=15, deadline=None, database=None)
REPS = {name: make_rep(name, d=2 if name == "case1_walpha" else None)
        for name in REP_NAMES if name != "case3_w"}  # the trivectors


def oracle_gram(S):
    return [[Fraction(1, 2) * (S[i][j] + S[j][i]) for j in range(7)] for i in range(7)]


def oracle_delta1(S):
    """delta with S^2 = delta I, S cleared to D S and squared, divided by D^2."""
    D, flat = clear_denominators(v for row in S for v in row)
    S = [flat[6 * i:6 * i + 6] for i in range(6)]
    S2 = linalg.mat_mul(S, S)
    assert all(S2[i][j] == (S2[0][0] if i == j else 0) for i in range(6) for j in range(6))
    return linalg._over(S2[0][0], D * D)


def oracle_delta2(gram, kind):
    """(delta, exact): the cube root of det gram / (81/4), exact for a rational gram,
    else the float cube root of numpy's det (ValueError for Q(sqrt d), d < 0)."""
    if kind == "rational":
        return cube_root_rational(linalg.mat_det(gram) / Fraction(81, 4)), True
    import numpy as np
    det = float(np.linalg.det(np.array([[float(v) for v in row] for row in gram])))
    return float(np.cbrt(det / 20.25)), False


def oracle_octonion(x):
    """(table, gram) of octonion_from_form for a rational nondegenerate x, in Fractions:
    the gram inverse cleared once, each product divided into Fractions."""
    gram7 = oracle_gram(generic_s_case2(x))
    delta = oracle_delta2(gram7, "rational")[0]
    Di, flat = clear_denominators(v for row in linalg.mat_inv(gram7) for v in row)
    inv = [flat[7 * r:7 * r + 7] for r in range(7)]
    Dx, xs = integral_multiple(x)
    table = [[None] * 8 for _ in range(8)]
    for i in range(8):
        table[0][i] = table[i][0] = tuple(int(m == i) for m in range(8))
    for i in range(1, 8):
        for j in range(1, 8):
            if i < j:
                rhs = [3 * xs.coeff(m, i, j) for m in range(1, 8)]
                im = [Fraction(v, Di * Dx) for v in linalg.mat_vec(inv, rhs)]
            else:
                im = [-v for v in table[j][i][1:]] if i > j else [Fraction(0)] * 7
            table[i][j] = (-gram7[i - 1][j - 1] / delta, *im)
    gram = [[Fraction(0)] * 8 for _ in range(8)]
    gram[0][0] = Fraction(1)
    for i in range(7):
        for j in range(7):
            gram[i + 1][j + 1] = gram7[i][j] / delta
    return tuple(tuple(row) for row in table), tuple(tuple(row) for row in gram)


def outcome(f, *args):
    """f(*args), or the type and message of the ValueError or ArithmeticError it raises."""
    try:
        return f(*args)
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)


def cli_json(*argv):
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(list(argv)) == 0
    return json.loads(out.getvalue())


def check_dim6(x):
    S = generic_s_case1(x)
    same(s_case1(x), S)
    rep = invariant_report(x)
    same(rep.s_matrix, S)
    delta = oracle_delta1(S)
    same(delta_case1(x), delta)
    same(rep.delta, delta)
    if x.scalar_kind() == "rational" and x.coeffs:  # the zero form's quartic is the int 0
        same(classify_real(x).delta, delta_case1_explicit(x))  # on the Fractions


def check_dim7(x):
    gram = oracle_gram(generic_s_case2(x))
    same(q_case2(x), gram)
    kind = x.scalar_kind()
    want = outcome(oracle_delta2, gram, kind)
    assert outcome(delta_case2, x) == want
    if isinstance(want[0], type):  # a float det of Q(sqrt d), d < 0: both raise alike
        assert outcome(invariant_report, x) == want
    else:
        same(invariant_report(x).q_gram, gram)
    if kind != "rational" or want[0] == 0:
        return
    A = octonion_from_form(x)
    table, gram8 = oracle_octonion(x)
    same(A.table, table)
    same(A.gram, gram8)
    B = AlgebraStructure(8, table, gram8)
    assert A == B and B == A
    assert algebra_laws(A) == oracle_laws(B) == (True, True)
    flipped = [[list(vec) for vec in row] for row in table]
    flipped[2][5][3] = -flipped[2][5][3] or Fraction(1)
    assert A != AlgebraStructure(8, flipped, gram8)


@SETTINGS
@given(fields.flatmap(lambda d: trivectors(6, d)))
def test_dim6_s_and_delta_match_the_fraction_route(x):
    check_dim6(x)


@SETTINGS
@given(fields.flatmap(lambda d: trivectors(7, d)))
def test_dim7_gram_delta_and_octonions_match_the_fraction_route(x):
    check_dim7(x)


@SETTINGS
@given(trivectors(7).filter(lambda x: delta_case2(x)[0] != 0))
def test_rational_octonion_algebras_match_the_fraction_route(x):
    check_dim7(x)


@pytest.mark.parametrize("name", REPS)
def test_representatives_match_the_fraction_route(name, tmp_path):
    x = REPS[name]
    if x.dim == 6:
        check_dim6(x)
        S, what = generic_s_case1(x), "s_matrix"
    else:
        check_dim7(x)
        S, what = oracle_gram(generic_s_case2(x)), "q_gram"
    path = tmp_path / "x.json"
    path.write_text(json.dumps(form_to_dict(x)))
    assert cli_json("invariant", str(path))[what] == scalar_to_json(S)
    if x.dim == 7 and delta_case2(x)[0] != 0:
        table, gram = oracle_octonion(x)
        doc = cli_json("octonion", "table", str(path))
        assert doc["table"] == scalar_to_json(table)
        assert doc["norm_gram"] == scalar_to_json(gram)
        assert doc["checks"]["norm_of_unit"] == "1"


def test_float_gram_is_the_rounded_half_sum():
    for x in REPS.values():
        if x.dim == 7:
            S = s_case2(x.as_float())
            same(q_case2(x.as_float()), [[0.5 * (S[i][j] + S[j][i]) for j in range(7)]
                                         for i in range(7)])
