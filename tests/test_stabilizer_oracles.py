"""The sparse closure check and the kernel-by-kernel fixed space, against
test-local copies of the dense algorithms they replaced.

``dense_closed`` brackets with dense matrix products and reduces each
bracket against every echelon row.  ``stacked_fixed_space`` stacks the
operator matrices of lie_action(X, .) for all X into one system and reads
the nullspace off its RREF; the RREF is sympy's, so the oracle shares no
elimination code with the program and the dense dim-7 case stays fast.

The stabilizer system and the fixed-space images are read off signed index
maps; they must match the ``lie_action`` system (``stab_system`` of
test_elimination_oracles) and ``lie_action`` itself by value and by the
``type()`` of every entry.  ``combine_units`` sums the ``sl_basis`` unit
matrices, the oracle of the matrices built from each nullspace vector.
"""

import json
import random
from fractions import Fraction

import pytest
from sympy import QQ
from sympy.polys.matrices import DomainMatrix

from altforms import linalg, stabilizers
from altforms.cli import main
from altforms.multilinear import AlternatingForm, all_keys, integral_multiple, lie_action
from altforms.representatives import make_rep
from altforms.scalars import QuadExt, scalar_to_json
from altforms.serialize import form_to_dict
from altforms.stabilizers import (LieSubalgebra, fixed_space, h1_case1, join, sl_basis,
                                  span_dim, stab_lie_algebra, subalgebra_closed, t_case1,
                                  u1_case1, u2_case1)
from test_elimination_oracles import (STAB_FORMS, dense_algebra, dense_nullspace, dense_rref,
                                      quad_form, same, stab_system, types)


def unit(n, *entries):
    """The n x n Fraction matrix with the given (i, j, value) entries, zeros elsewhere."""
    M = [[Fraction(0)] * n for _ in range(n)]
    for i, j, v in entries:
        M[i][j] = Fraction(v)
    return M


def dense_closed(L):
    n = L.ambient_dim
    flat = [[M[i][j] for i in range(n) for j in range(n)] for M in L.basis]
    if not flat:
        return True, None
    rows, pivots = dense_rref(flat)
    rows = [r for r in rows if any(v != 0 for v in r)]

    def reduce(v):
        for r, c in zip(rows, pivots):
            if v[c] != 0:
                f = v[c]
                v = [a - f * b for a, b in zip(v, r)]
        return any(a != 0 for a in v)

    for a, X in enumerate(L.basis):
        for Y in L.basis[a:]:
            B = [[a - b for a, b in zip(ra, rb)]
                 for ra, rb in zip(linalg.mat_mul(X, Y), linalg.mat_mul(Y, X))]
            if reduce([B[i][j] for i in range(n) for j in range(n)]):
                return False, (X, Y)
    return True, None


def stacked_fixed_space(L, shape):
    dim, degree = shape
    keys = all_keys(dim, degree)
    rows = []
    for X in L.basis:
        cols = [lie_action(X, AlternatingForm(dim, degree, {k: Fraction(1)})) for k in keys]
        rows += [[QQ(*_pq(c.coeffs.get(k, Fraction(0)))) for c in cols] for k in keys]
    if rows:
        R, pivots = DomainMatrix(rows, (len(rows), len(keys)), QQ).rref()
        R = R.to_list()
    else:
        pivots = ()
    out = []
    for fc in (c for c in range(len(keys)) if c not in pivots):
        coeffs = {keys[fc]: Fraction(1)}
        for r, c in enumerate(pivots):
            coeffs[keys[c]] = -Fraction(int(R[r][fc].numerator), int(R[r][fc].denominator))
        out.append(AlternatingForm(dim, degree, coeffs))
    return out


def _pq(v):
    return v.numerator, v.denominator


def dense_form(rng, dim, degree, rational=False):
    def draw():
        if rational:
            return Fraction(rng.randint(-255, 255), rng.choice((1, 2, 3, 5, 8, 12, 16, 240)))
        return Fraction(rng.randint(-5, 5))
    return AlternatingForm(dim, degree, {k: draw() for k in all_keys(dim, degree)})


def _forms():
    rng = random.Random(2024)
    yield "case1_w", make_rep("case1_w")
    yield "case2_w", make_rep("case2_w")
    yield "case3_w", make_rep("case3_w", n=2)
    yield "case1_walpha(2)", make_rep("case1_walpha", d=2)
    for seed in range(2):
        yield f"dense dim-6 integer {seed}", dense_form(rng, 6, 3)
        yield f"dense dim-6 rational {seed}", dense_form(rng, 6, 3, rational=True)
    yield "dense dim-7 integer", dense_form(rng, 7, 3)
    yield "dense 8-dim two-form", dense_form(rng, 8, 2)


FORMS = list(_forms())


@pytest.mark.parametrize("name,x", FORMS, ids=[name for name, _ in FORMS])
def test_fixed_space_matches_stacked_rref(name, x):
    L = stab_lie_algebra(x)
    new = fixed_space(L, (x.dim, x.degree))
    old = stacked_fixed_space(L, (x.dim, x.degree))
    assert [form_to_dict(f) for f in new] == [form_to_dict(f) for f in old]
    keys = all_keys(x.dim, x.degree)
    vecs = [[f.coeffs.get(k, Fraction(0)) for k in keys] for f in new + [x]]
    assert len(dense_rref(vecs)[1]) == len(new)  # x is fixed by its own stabilizer


def test_fixed_space_of_empty_and_full_algebras():
    for L, shape in ((LieSubalgebra(4, []), (4, 2)), (dense_algebra(3, sl_basis(3)), (3, 2))):
        assert ([form_to_dict(f) for f in fixed_space(L, shape)]
                == [form_to_dict(f) for f in stacked_fixed_space(L, shape)])


def _same(got, want):
    """Equal verdicts, and witness pairs equal by value and by the type of each entry
    (a failing closure makes its two matrices, not the whole .basis they are in)."""
    ok, witness = got
    ok0, witness0 = want
    if witness0 is None:
        return ok == ok0 and witness is None
    return ok == ok0 and witness == witness0 and types(witness) == types(witness0)


@pytest.mark.parametrize("name,x", FORMS[:4], ids=[name for name, _ in FORMS[:4]])
def test_stabilizers_are_closed_as_dense_check_says(name, x):
    L = stab_lie_algebra(x)
    assert _same(subalgebra_closed(L), dense_closed(L)) and subalgebra_closed(L)[0]


def test_block_closures_and_witness_match_dense_check():
    h1, u1, u2, t = h1_case1(), u1_case1(), u2_case1(), t_case1()
    for L in (join(h1, t), join(h1, u1, u2), t):
        assert _same(subalgebra_closed(L), dense_closed(L))
    assert not subalgebra_closed(join(h1, u1, u2))[0]


def test_failing_closure_makes_only_its_witness():
    # the witness of an algebra built from entries is made from its two entry
    # dicts: the dense .basis stays unmade, and its matrices equal the witness
    h1, u1, u2 = h1_case1(), u1_case1(), u2_case1()
    x = quad_form(random.Random(3), -3)
    algebras = [join(h1, u1, u2), join(u1, u2),
                LieSubalgebra(6, stab_lie_algebra(x).entries + u1.entries)]
    for L in algebras:
        closed, (X, Y) = subalgebra_closed(L)
        assert not closed and "basis" not in vars(L)
        a, b = (L.entries.index({i * 6 + j: v for i, row in enumerate(M)
                                 for j, v in enumerate(row) if v}) for M in (X, Y))
        assert a < b
        assert (X, Y) == (L.basis[a], L.basis[b])
        assert types((X, Y)) == types((L.basis[a], L.basis[b]))
    assert {type(v) for row in algebras[-1].basis[0] for v in row} == {QuadExt}


def test_witness_matches_on_spans_of_a_dense_stabilizer():
    # a dense stabilizer is closed, so the witness is the first basis element
    # paired with the added unit matrix, after 15 pairs that reduce to zero
    E = sl_basis(6)[7]
    for _, x in FORMS[4:6]:
        span = dense_algebra(6, stab_lie_algebra(x).basis + [E])
        got = subalgebra_closed(span)
        assert not got[0] and got[1][1] == E
        assert _same(got, dense_closed(span))
    # shifted by unit matrices, every pair fails: the order of the pairs decides
    shifted = [[[a + b for a, b in zip(rx, ru)] for rx, ru in zip(X, U)]
               for X, U in zip(stab_lie_algebra(FORMS[4][1]).basis, sl_basis(6)[:4])]
    span = dense_algebra(6, shifted)
    assert _same(subalgebra_closed(span), dense_closed(span))


# ------------------------------------------- the index-map stab system ----

def combine_units(coeffs, n):
    """sum c * B over sl_basis(n), as the unit-matrix loop did: entries start
    from 0 * c summed over the nonzero c, and each unit entry adds c * v."""
    units = [{(i, j): v for i, row in enumerate(B) for j, v in enumerate(row) if v != 0}
             for B in sl_basis(n)]
    nonzero = [(c, B) for c, B in zip(coeffs, units) if c != 0]
    zero = sum((0 * c for c, _ in nonzero), Fraction(0))
    M = [[zero] * n for _ in range(n)]
    for c, B in nonzero:
        for (i, j), v in B.items():
            M[i][j] = M[i][j] + c * v
    return M


def _system_forms():
    yield from STAB_FORMS
    rng = random.Random(7)
    yield "float dim-7", AlternatingForm(7, 3, {k: rng.uniform(-2, 2) for k in all_keys(7, 3)})
    yield "int-valued dim-6", AlternatingForm(6, 3, {(1, 2, 3): 1, (4, 5, 6): -2, (1, 4, 5): 3})


SYSTEM_FORMS = list(_system_forms())


@pytest.mark.parametrize("name,x", SYSTEM_FORMS, ids=[n for n, _ in SYSTEM_FORMS])
def test_index_map_stab_system_matches_lie_action(name, x):
    # sparse rows {b: value}, each value a coefficient of x or its negative, of its
    # own type: densified with Fraction zeros and an int taken as its Fraction,
    # they are the lie_action system by value and by type
    rows = stabilizers.stab_system(x)
    kinds = {type(v) for v in x.coeffs.values()}
    assert all(v != 0 and type(v) in kinds for row in rows for v in row.values())
    width = x.dim * x.dim - 1
    dense = [[Fraction(row[b]) if type(row.get(b)) is int else row.get(b, Fraction(0))
              for b in range(width)] for row in rows]
    same(dense, stab_system(x))


@pytest.mark.parametrize("name,x", SYSTEM_FORMS, ids=[n for n, _ in SYSTEM_FORMS])
def test_stab_basis_matrices_match_the_unit_sums(name, x):
    L = stab_lie_algebra(x)
    rows = stab_system(x)
    if x.scalar_kind() == "float":
        import numpy as np
        _, s, vh = np.linalg.svd(np.array(rows, dtype=float))
        tol = max(len(rows), len(rows[0])) * s[0] * 1e-12
        combos = [c.tolist() for c in vh[int((s > tol).sum()):]]
    else:
        combos = dense_nullspace(rows, x.dim * x.dim - 1)
    same(L.basis, [combine_units(c, x.dim) for c in combos])


@pytest.mark.parametrize("name,x", STAB_FORMS, ids=[n for n, _ in STAB_FORMS])
def test_fixed_space_images_match_lie_action(name, x):
    # kernel vectors mixing Fraction and Q(sqrt d) values, as the Q(sqrt d) path builds
    rng = random.Random(name)
    values = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(5)]
    values += [v * c for v, c in zip(values, x.coeffs.values())]
    keys = all_keys(x.dim, x.degree)
    forms = [{k: rng.choice(values) for k in rng.sample(keys, rng.randint(1, len(keys)))}
             for _ in range(4)]
    forms = [{k: v for k, v in f.items() if v != 0} for f in forms]
    for X in stab_lie_algebra(x).basis[:3] + sl_basis(x.dim)[-2:]:
        got = stabilizers._images([v for row in X for v in row], forms, x.dim, x.degree)
        want = [lie_action(X, AlternatingForm(x.dim, x.degree, f)).coeffs for f in forms]
        assert got == want
        assert [{k: type(v) for k, v in g.items()} for g in got] == \
            [{k: type(v) for k, v in w.items()} for w in want]


# ------------------------------- images and closures on the nonzero entries ----

def _image_cases(rng):
    n = 6
    yield "units", [unit(n, (i, j, 1)) for i in range(n) for j in range(n)]
    yield "diagonal", [unit(n, *((i, i, rng.randint(-3, 3)) for i in range(n)))]
    pieces = [M for L in (h1_case1(), u1_case1(), u2_case1(), t_case1()) for M in L.basis]
    yield "golden pieces", pieces
    r = QuadExt(Fraction(1, 2), -1, 2)
    mixed = [[0 if (i + j) % 3 else rng.choice((r, 2 * r, Fraction(3, 4), -1)) for j in range(n)]
             for i in range(n)]
    yield "Q(sqrt 2) entries", [mixed, [[r if i == j else 0 for j in range(n)] for i in range(n)]]


@pytest.mark.parametrize("name", ["units", "diagonal", "golden pieces", "Q(sqrt 2) entries"])
def test_images_from_nonzero_entries_match_lie_action(name):
    # each X acts on e_K through the moves of its nonzero entries only; a diagonal
    # entry keeps e_K, and the images agree with lie_action by value and by type
    rng = random.Random(f"images:{name}")
    mats = dict(_image_cases(rng))[name]
    keys = all_keys(6, 3)
    values = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) or Fraction(1) for _ in range(4)]
    values += [QuadExt(rng.randint(-3, 3), rng.randint(1, 3), 2)] if "sqrt" in name else [1, -2]
    forms = [{k: rng.choice(values) for k in rng.sample(keys, rng.randint(1, len(keys)))}
             for _ in range(4)] + [{k: Fraction(1)} for k in keys[:3]]
    for X in mats:
        got = stabilizers._images([v for row in X for v in row], forms, 6, 3)
        want = [lie_action(X, AlternatingForm(6, 3, f)).coeffs for f in forms]
        assert got == want
        assert [{k: type(v) for k, v in g.items()} for g in got] == \
            [{k: type(v) for k, v in w.items()} for w in want]


def _sparse_matrix(rng, n, entries):
    M = [[Fraction(0)] * n for _ in range(n)]
    for _ in range(entries):
        i, j = rng.randrange(n), rng.randrange(n)
        M[i][j] = rng.choice((Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2),
                              Fraction(-3, 4)))
    return M


def _borel(rng, n):
    """Upper-triangular units and diagonal units of size n, shuffled: a closed algebra."""
    basis = [unit(n, (i, j, 1)) for i in range(n) for j in range(i, n)]
    rng.shuffle(basis)
    return basis


def _sparse_bases():
    rng = random.Random(13)
    for trial in range(20):
        n = rng.randint(3, 8)
        yield f"seeded {trial}", [_sparse_matrix(rng, n, rng.randint(1, 4))
                                  for _ in range(rng.randint(2, 12))]
    # a closed algebra with one sparse matrix put in at a random place: most pairs
    # commute or close, and the witness, if any, pairs with the stranger
    for trial in range(20):
        n = rng.randint(3, 6)
        basis = _borel(rng, n)
        basis.insert(rng.randrange(len(basis) + 1), _sparse_matrix(rng, n, rng.randint(1, 4)))
        yield f"seeded borel {trial}", basis
    yield "borel", _borel(rng, 5)
    # units of disjoint blocks commute by their masks, those of one block close in the
    # span but for the last pair, which fails
    E = unit
    yield "late witness", [E(6, (0, 1, 1)), E(6, (2, 3, 3)), E(6, (1, 0, -1)), E(6, (3, 2, 2)),
                           E(6, (0, 0, 1), (1, 1, -1)), E(6, (2, 2, 1), (3, 3, -1)),
                           E(6, (4, 5, 1)), E(6, (5, 4, 1))]
    # masks that overlap on brackets that cancel: two diagonals, a block identity
    # beside a block swap and its double; the witness is the last pair
    yield "cancelling", [E(6, (2, 2, 1), (3, 3, 2)), E(6, (2, 2, 3), (3, 3, -1), (4, 4, 5)),
                         E(6, (0, 0, 1), (1, 1, 1)), E(6, (0, 1, 1), (1, 0, 1)),
                         E(6, (0, 1, 2), (1, 0, 2)), E(6, (4, 5, 1)), E(6, (5, 4, 1))]


SPARSE_BASES = list(_sparse_bases())


@pytest.mark.parametrize("name,basis", SPARSE_BASES, ids=[n for n, _ in SPARSE_BASES])
def test_closure_on_sparse_bases_matches_dense_check(name, basis):
    L = dense_algebra(len(basis[0]), basis)
    got = subalgebra_closed(L)
    assert _same(got, dense_closed(L))
    if name == "borel":
        assert got == (True, None)
    if name in ("late witness", "cancelling"):
        assert got[1] == (basis[-2], basis[-1])


def assert_rejected(L, shape):
    """fixed_space, subalgebra_closed and span_dim each refuse L, in one wording."""
    for name, check in (("fixed_space", lambda: fixed_space(L, shape)),
                        ("subalgebra_closed", lambda: subalgebra_closed(L)),
                        ("span_dim", lambda: span_dim([L]))):
        with pytest.raises(ValueError) as err:
            check()
        assert str(err.value) == f"{name} needs an exact basis; float forms are not supported"


def test_float_entries_are_rejected():
    # a 0.0 leaves no entry behind: a basis whose only float entries are 0.0 is
    # exact, alone and joined; a float entry proper is refused, alone and joined
    X = unit(3, (0, 1, 1))
    X[2][2] = 0.0
    exact, Z = LieSubalgebra(3, [{3: Fraction(1)}]), dense_algebra(3, [X])
    assert Z.entries == [{1: Fraction(1)}]
    for L in (Z, join(exact, Z), join(Z, exact)):
        assert not L.inexact and span_dim([L]) == L.dim
    L = dense_algebra(3, [X, unit(3, (1, 0, 1))])
    assert subalgebra_closed(L) == (False, (unit(3, (0, 1, 1)), unit(3, (1, 0, 1))))
    X[2][2] = 0.5  # a float entry proper: the exact span has no meaning for it
    F = dense_algebra(3, [X])
    for L in (F, join(exact, F), join(F, exact)):
        assert_rejected(L, (3, 2))


# ------------------------------------------ algebras held by their entries ----
#
# Test-local copies of the dense path the entries replaced: each nullspace
# vector placed into a dense matrix (old_sl_matrix), and the checks reading
# each matrix back through its nonzero entries (old_nonzeros).

def old_sl_matrix(coeffs, n):
    zero = Fraction(0) + 0 * next((c for c in coeffs if type(c) is not Fraction and c != 0), 0)
    kind = type(zero)
    M = [[zero] * n for _ in range(n)]
    units = iter(coeffs)
    for i in range(n):
        for j in range(n):
            if i != j:
                c = next(units)
                if c != 0:
                    M[i][j] = c if type(c) is kind else zero + c
    for i, c in enumerate(units, 1):
        if c != 0:
            M[0][0] = M[0][0] + c
            M[i][i] = -c if type(c) is kind else zero - c
    return M


def old_nonzeros(M):
    return {e: v for e, v in enumerate(v for row in M for v in row) if v}


def old_stab_basis(x):
    n, m = x.dim, x.dim * x.dim - 1
    if x.scalar_kind() == "rational":
        _, multiple = integral_multiple(x)
        return [old_sl_matrix([Fraction(v[b], v[fc]) if b in v else 0 for b in range(m)], n)
                for fc, v in linalg.int_nullspace(stabilizers.stab_system(multiple), m)]
    dense = [[row.get(b, Fraction(0)) for b in range(m)] for row in stabilizers.stab_system(x)]
    if x.scalar_kind() == "float":
        import numpy as np
        A = np.array(dense, dtype=float)
        _, s, vh = np.linalg.svd(A)
        tol = max(A.shape) * s[0] * 1e-12
        return [old_sl_matrix(c.tolist(), n) for c in vh[int((s > tol).sum()):]]
    return [old_sl_matrix(c, n) for c in dense_nullspace(dense, m)]


def _entry_forms():
    yield from FORMS
    rng = random.Random(41)
    yield "Q(sqrt 2) dim-6", quad_form(rng, 2)
    yield "Q(sqrt -3) dim-6", quad_form(rng, -3)
    yield "float dim-6", AlternatingForm(6, 3, {k: rng.uniform(-2, 2) for k in all_keys(6, 3)})
    yield "float dim-7", AlternatingForm(7, 3, {k: rng.uniform(-2, 2) for k in all_keys(7, 3)})


ENTRY_FORMS = list(_entry_forms())
EXACT_ENTRY_FORMS = [(n, x) for n, x in ENTRY_FORMS if x.scalar_kind() != "float"]


def _typed(entries):
    return [{e: (v, type(v)) for e, v in nz.items()} for nz in entries]


@pytest.mark.parametrize("name,x", ENTRY_FORMS, ids=[n for n, _ in ENTRY_FORMS])
def test_stab_entries_and_basis_match_the_dense_placement(name, x):
    # the entries are the nonzero entries of the old dense matrices, and the
    # basis made from them is those matrices, zeros of the widest type included
    L, old = stab_lie_algebra(x), old_stab_basis(x)
    assert L.dim == len(old) and L.inexact is (x.scalar_kind() == "float")
    assert _typed(L.entries) == _typed([old_nonzeros(M) for M in old])
    assert "basis" not in vars(L)  # made on first read only
    same(L.basis, old)
    assert L.basis is L.basis


def _three_ways(x, extra=()):
    """The stabilizer of x, plus the matrices in extra, built from entries, from
    the old dense matrices, and by joining an entries half to a dense half."""
    n, old = x.dim, old_stab_basis(x)
    entries = stab_lie_algebra(x).entries + [old_nonzeros(M) for M in extra]
    dense = old + list(extra)
    k = len(dense) // 2
    return {"entries": LieSubalgebra(n, entries),
            "dense": dense_algebra(n, dense),
            "join": join(LieSubalgebra(n, entries[:k]), dense_algebra(n, dense[k:]))}


def _index(L, pair):
    return tuple(next(i for i, M in enumerate(L.basis) if M == W) for W in pair)


@pytest.mark.parametrize("name,x", EXACT_ENTRY_FORMS, ids=[n for n, _ in EXACT_ENTRY_FORMS])
def test_checks_agree_on_entries_dense_and_joined_algebras(name, x):
    shape = (x.dim, x.degree)
    algebras = _three_ways(x)
    fixed = {w: [form_to_dict(f) for f in fixed_space(L, shape)] for w, L in algebras.items()}
    assert fixed["entries"] == fixed["dense"] == fixed["join"]
    if x.scalar_kind() == "rational":
        assert fixed["dense"] == [form_to_dict(f) for f in stacked_fixed_space(
            algebras["dense"], shape)]
    rank = len(dense_rref([[v for row in M for v in row] for M in algebras["dense"].basis])[1])
    assert {w: span_dim([L]) for w, L in algebras.items()} == dict.fromkeys(algebras, rank)
    if x.dim == 6 and x.degree == 3:
        # a stranger unit matrix put in: the witness is found by identity in
        # L.basis, at the same place whichever way the algebra was built
        algebras = _three_ways(x, [sl_basis(6)[7]])
        got = {w: subalgebra_closed(L) for w, L in algebras.items()}
        for w, L in algebras.items():
            assert _same(got[w], dense_closed(L)), w
        assert not got["entries"][0]
        assert len({_index(L, got[w][1]) for w, L in algebras.items()}) == 1
    else:
        assert all(subalgebra_closed(L) == (True, None) for L in algebras.values())


def test_block_pieces_are_their_dense_units():
    # the dense unit matrices the pieces were built from before
    E = unit
    want = {h1_case1: [M for b in (0, 3) for M in
                       [E(6, (b + i, b + j, 1)) for i in range(3) for j in range(3) if i != j]
                       + [E(6, (b, b, 1), (b + i, b + i, -1)) for i in range(1, 3)]],
            u1_case1: [E(6, (i, j + 3, 1)) for i in range(3) for j in range(3)],
            u2_case1: [E(6, (i + 3, j, 1)) for i in range(3) for j in range(3)],
            t_case1: [E(6, *((i, i, 1) for i in range(3)), *((i, i, -1) for i in range(3, 6)))]}
    for piece, mats in want.items():
        L = piece()
        same(L.basis, mats)
        assert _typed(L.entries) == _typed([old_nonzeros(M) for M in mats])
    # a join is its pieces' entries in order, its basis made on first read
    h1, u1 = h1_case1(), u1_case1()
    J = join(h1, u1)
    assert "basis" not in vars(J) and J.entries == h1.entries + u1.entries
    same(J.basis, h1.basis + u1.basis)


def test_float_stabilizer_is_rejected_through_join():
    # a float entry makes the algebra inexact, and every join it is part of
    F = stab_lie_algebra(make_rep("case1_w").as_float())
    exact = LieSubalgebra(6, [{3: Fraction(1)}])
    assert F.inexact and not exact.inexact and not join(exact, exact).inexact
    for L in (F, join(exact, F), join(F, exact)):
        assert_rejected(L, (6, 3))


@pytest.mark.parametrize("name,x", ENTRY_FORMS[:3] + ENTRY_FORMS[-4:],
                         ids=[n for n, _ in ENTRY_FORMS[:3] + ENTRY_FORMS[-4:]])
def test_cli_stab_json_renders_the_dense_placement(name, x, tmp_path, capsys):
    path = tmp_path / "x.json"
    path.write_text(json.dumps(form_to_dict(x)))
    assert main(["stab", str(path)]) == 0
    old = old_stab_basis(x)
    want = {"dim": len(old), "ambient": x.dim, "basis": scalar_to_json(old)}
    assert capsys.readouterr().out == json.dumps(want, indent=2, default=str) + "\n"
