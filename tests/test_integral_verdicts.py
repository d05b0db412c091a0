"""The exact verdicts read off integers, against the object-arithmetic routes
they replaced, kept here as oracles.

- The eigenspace flags E1, E2 and Gr of ``irrationality_report``: the dense
  eigenspaces of S_x (test_orbits' oracle), ``plucker`` on their QuadExt and
  Fraction bases, each vector divided by its first nonzero entry, and the sum
  and coordinatewise product of the two normalized vectors.  On hypothesis
  forms over Q and Q(sqrt d), on g (e123 + e456) (a square delta), g w1
  (delta < 0) and w_alpha(d), and on the field-tower and degenerate errors.
- ``point_rationality`` on exact vectors: the same normalization.
- ``classify_real``'s ``field_d``, from the explicit quartic: the squarefree
  part of ``delta_case1`` (S_x and its S_x^2 check), None on a degenerate form.
- ``algebra_laws``: the per-sample ``_mul_coords`` loop on octonion tables
  (exact and float), on tables with one planted wrong entry and on tables
  whose unit row is broken.
- ``int_nullspace``: its vectors assembled with one lcm per free column, of
  the pivots that reach it, on the seeded and realified systems of
  test_elimination_oracles.
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from altforms import linalg
from altforms.cayley_dickson import (AlgebraStructure, _inner_coords, _mul_coords, algebra_laws,
                                     octonion_from_form)
from altforms.invariants import delta_case1, s_case1
from altforms.multilinear import AlternatingForm, gl_action
from altforms.orbits import (classify_real, eigenspaces, irrationality_report, plucker,
                             point_rationality)
from altforms.representatives import g_alpha, make_rep
from altforms.scalars import QuadExt, clear_denominators, demote, rational_sqrt, squarefree_part
from strategies import DS, fields, group_elements, trivectors
from test_elimination_oracles import (STAB_FORMS, KINDS, mixed_matrix, rand_matrix,
                                      stab_system)
from test_orbits import dense_eigenspaces

SETTINGS = settings(max_examples=25, deadline=None, database=None)


# ------------------------------------------------- eigenspace verdicts ----

def normalized(vec):
    pivot = next(v for v in vec if v != 0)
    return [v / pivot for v in vec]


def rational_point(vec):
    return all(not isinstance(v, QuadExt) or v.is_rational for v in normalized(vec))


def oracle_flags(x):
    """{E1, E2, Gr: rational} by the QuadExt route, or the error eigenspaces raises."""
    delta = demote(delta_case1(x))
    if delta == 0:
        return "not semistable"
    S = s_case1(x)
    root = None if isinstance(delta, QuadExt) else rational_sqrt(delta)
    ds = {v.d for v in (*(v for row in S for v in row), root) if isinstance(v, QuadExt)}
    if root is None or len(ds) > 1:
        return "no field towers"
    p, q = (plucker(basis) for basis in dense_eigenspaces(x))
    pn, qn = normalized(p), normalized(q)
    pair = ([a + b for a, b in zip(pn, qn)], [a * b for a, b in zip(pn, qn)])
    return {"E1": rational_point(p), "E2": rational_point(q),
            "Gr": all(not any(vec) or rational_point(vec) for vec in pair)}


def report_flags(x):
    try:
        flags = irrationality_report(x).flags
    except ValueError as exc:
        return "not semistable" if "not semistable" in str(exc) else \
            "no field towers" if "no field towers" in str(exc) else str(exc)
    assert all(f.mode == "exact" for f in flags.values())
    return {name: f.rational for name, f in flags.items()}


def check_eigenspace_verdicts(x):
    want = oracle_flags(x)
    assert report_flags(x) == want
    if isinstance(want, dict):
        # the integral Plücker vectors are rational multiples of plucker(basis)
        gr = eigenspaces(x)
        for coords, basis in ((gr.plucker1, gr.basis1), (gr.plucker2, gr.basis2)):
            got = [QuadExt(A, B, gr.d) if B else Fraction(A) for A, B in coords]
            old = plucker(basis)
            k = next(i for i, v in enumerate(old) if v != 0)
            ratio = demote(got[k] / old[k])
            assert not isinstance(ratio, QuadExt) and ratio != 0
            assert got == [ratio * v for v in old]
    return want


@SETTINGS
@given(fields.flatmap(lambda d: trivectors(6, d)))
def test_eigenspace_verdicts_match_the_quadext_route(x):
    check_eigenspace_verdicts(x)


@SETTINGS
@given(st.sampled_from(("case1_w", "case1_w1")).flatmap(
    lambda name: st.tuples(st.just(name), group_elements(6))))
def test_eigenspace_verdicts_on_rational_orbit_points(case):
    name, g = case
    want = check_eigenspace_verdicts(gl_action(g, make_rep(name)))
    if name == "case1_w":  # delta a square: both eigenspaces are rational points
        assert want == {"E1": True, "E2": True, "Gr": True}
    else:  # delta < 0: conjugate eigenspaces, a rational pair
        assert want == {"E1": False, "E2": False, "Gr": True}


@pytest.mark.parametrize("d", DS)
def test_eigenspace_verdicts_on_w_alpha(d):
    assert isinstance(check_eigenspace_verdicts(make_rep("case1_walpha", d=d)), dict)


def test_eigenspace_errors_match_the_quadext_route():
    tower = gl_action(g_alpha(2), make_rep("case1_w1"))
    assert check_eigenspace_verdicts(tower) == "no field towers"
    degenerate = AlternatingForm(6, 3, {(1, 2, 3): Fraction(1), (1, 4, 5): Fraction(2)})
    assert check_eigenspace_verdicts(degenerate) == "not semistable"


@SETTINGS
@given(trivectors(6))
def test_field_d_is_the_squarefree_part_of_delta(x):
    # x without its e_6 terms lies in a 5-space, so it is degenerate
    d = delta_case1(x)
    assert classify_real(x).field_d == (squarefree_part(d)[0] if d else None)
    y = AlternatingForm(6, 3, {k: v for k, v in x.coeffs.items() if 6 not in k})
    assert delta_case1(y) == 0 and classify_real(y).field_d is None


def test_point_rationality_matches_normalization():
    # rational points written over Q(sqrt d) (c r with r rational, c irrational),
    # irrational ones, and rational vectors with int and Fraction entries
    rng = random.Random(31)
    for trial in range(200):
        d = rng.choice(DS)
        r = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(rng.randint(1, 6))]
        if not any(r):
            continue
        c = QuadExt(Fraction(rng.randint(-4, 4), rng.randint(1, 3)), rng.randint(-4, 4), d)
        if trial % 3 == 0:
            vec = r if trial % 2 else [int(v) if v.denominator == 1 else v for v in r]
        elif trial % 3 == 1 and c:
            vec = [c * v for v in r]
        else:
            vec = [v + QuadExt(0, rng.randint(-1, 1), d) * rng.randint(0, 1) for v in r]
        if not any(vec):
            continue
        got = point_rationality(vec)
        assert got.rational == rational_point(vec) and got.mode == "exact"
    assert point_rationality([QuadExt(1, 1, 2), QuadExt(2, 2, 2)]).rational
    assert not point_rationality([QuadExt(1, 1, 2), QuadExt(1, -1, 2)]).rational


# ------------------------------------------------------ algebra laws ----

def oracle_laws(A, seed=0):
    """algebra_laws by the per-sample _mul_coords loop, and the unit law as the
    products 1 e_i and e_i 1 of the basis elements."""
    rng = random.Random(seed)
    n = A.dim
    if any(isinstance(c, float) for row in A.gram for c in row):
        def eq(a, b):
            return abs(float(a) - float(b)) <= 1e-9 * max(1.0, abs(float(a)), abs(float(b)))
    else:
        def eq(a, b):
            return a == b
    table = clear_denominators(c for row in A.table for vec in row for c in vec)
    gram = clear_denominators(c for row in A.gram for c in row)
    if table and gram:
        (Dt, T), (Dg, G) = table, gram
        T = [[T[(i * n + j) * n:(i * n + j + 1) * n] for j in range(n)] for i in range(n)]
        G = [G[i * n:(i + 1) * n] for i in range(n)]
    else:
        T, G, Dt, Dg = A.table, A.gram, 1, 1
    norm_ok = True
    for _ in range(25):
        u = [rng.randint(-3, 3) for _ in range(n)]
        v = [rng.randint(-3, 3) for _ in range(n)]
        uv = _mul_coords(T, u, v)
        if not eq(Dg * _inner_coords(G, uv, uv),
                  Dt * Dt * _inner_coords(G, u, u) * _inner_coords(G, v, v)):
            norm_ok = False
            break
    one = A.one
    unit_ok = all(all(eq(a, b) for a, b in zip((one * A.basis_element(i)).coords,
                                               A.basis_element(i).coords))
                  and all(eq(a, b) for a, b in zip((A.basis_element(i) * one).coords,
                                                   A.basis_element(i).coords))
                  for i in range(n))
    return norm_ok, unit_ok


def planted(A, i, j, m, delta):
    """A with delta added to the table entry (i, j, m)."""
    table = [[list(vec) for vec in row] for row in A.table]
    table[i][j][m] += delta
    return AlgebraStructure(A.dim, table, A.gram)


def nondegenerate_dim7():
    return trivectors(7).filter(lambda x: octonion_or_none(x) is not None)


def octonion_or_none(x):
    try:
        return octonion_from_form(x)
    except (ValueError, ArithmeticError):
        return None


@SETTINGS
@given(nondegenerate_dim7(), st.integers(min_value=0, max_value=2 ** 32))
def test_algebra_laws_match_the_per_sample_loop(x, salt):
    rng = random.Random(salt)
    for A in (octonion_from_form(x), octonion_or_none(x.as_float())):
        if A is None:  # a float solve too ill-conditioned for the float table
            continue
        assert algebra_laws(A) == oracle_laws(A) == (True, True)
        zero = A.table[1][1][0] * 0
        i, j, m = rng.randint(1, 7), rng.randint(1, 7), rng.randint(0, 7)
        wrong = planted(A, i, j, m, zero + 1)
        assert algebra_laws(wrong) == oracle_laws(wrong)
        assert algebra_laws(wrong)[1]  # rows and columns 0 are untouched
        k = rng.randint(1, 7)
        for broken in (planted(A, 0, k, rng.randint(0, 7), zero + 1),
                       planted(A, k, 0, rng.randint(0, 7), zero - 2)):
            assert algebra_laws(broken) == oracle_laws(broken)
            assert not algebra_laws(broken)[1]


def test_algebra_laws_on_the_models_and_a_seed():
    from altforms.cayley_dickson import octonions, quaternions, split_octonions
    for A in (octonions(), split_octonions(), quaternions()):
        for seed in (0, 5):
            assert algebra_laws(A, seed) == oracle_laws(A, seed) == (True, True)
    x = make_rep("case2_w")
    assert algebra_laws(octonion_from_form(x)) == (True, True)


# ---------------------------------------------------------- nullspace ----

def per_column_nullspace(rows, ncols):
    """int_nullspace with each vector built from the lcm of the pivots of the
    rows that reach its free column."""
    rows = [dict(row) for row in rows]
    d = next((v.d for row in rows for v in row.values() if type(v) is QuadExt), None)
    if d is not None:
        rows, ncols = linalg._realify(rows, d), 2 * ncols
    pivots, _ = linalg.sparse_rref(rows, ncols)
    basis = []
    for fc in sorted(set(range(0, ncols, 1 if d is None else 2)) - {c for c, _ in pivots}):
        terms = [(c, rows[i]) for c, i in pivots if fc in rows[i]]
        m = math.lcm(*(r[c] for c, r in terms))
        v = {fc: m, **{c: -r[fc] * (m // r[c]) for c, r in terms}}
        linalg._primitive(v)
        if d is not None:
            fc, v = fc // 2, {fc // 2: v[fc], **{
                b: QuadExt(v.get(2 * b, 0), v.get(2 * b + 1, 0), d)
                for b in sorted({c // 2 for c in v} - {fc // 2})}}
        basis.append((fc, v))
    return basis


def check_nullspace(A):
    ncols = len(A[0]) if A else 0
    rows = [{j: v for j, v in enumerate(clear_denominators(row)[1]) if v} for row in A]
    want = per_column_nullspace(rows, ncols)
    got = linalg.int_nullspace([dict(row) for row in rows], ncols)
    assert got == want
    assert [list(v) for _, v in got] == [list(v) for _, v in want]  # the same key order


@pytest.mark.parametrize("kind", KINDS)
def test_one_lcm_gives_the_per_column_vectors(kind):
    rng = random.Random(f"lcm:{kind}")
    for trial in range(40):
        m, n = rng.randint(1, 8), rng.randint(1, 9)
        A = rand_matrix(rng, m, n, kind, rng.choice((0.25, 0.5, 0.75, 1.0)))
        if m >= 3 and trial % 4 == 1:  # a dependent row
            A[0] = [2 * u - v for u, v in zip(A[1], A[2])]
        check_nullspace(A)
    if kind != "rational":
        for _ in range(20):
            check_nullspace(mixed_matrix(rng, rng.randint(1, 6), rng.randint(1, 7), kind))


@pytest.mark.parametrize("name,x", STAB_FORMS, ids=[n for n, _ in STAB_FORMS])
def test_one_lcm_on_the_stab_systems(name, x):
    check_nullspace(stab_system(x))
