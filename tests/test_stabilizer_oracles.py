"""The sparse closure check and the kernel-by-kernel fixed space, against
test-local copies of the dense algorithms they replaced.

``dense_closed`` brackets with dense matrix products and reduces each
bracket against every echelon row.  ``stacked_fixed_space`` stacks the
operator matrices of lie_action(X, .) for all X into one system and reads
the nullspace off its RREF; the RREF is sympy's, so the oracle shares no
elimination code with the program and the dense dim-7 case stays fast.
"""

import random
from fractions import Fraction

import pytest
from sympy import QQ
from sympy.polys.matrices import DomainMatrix

from altforms import linalg
from altforms.multilinear import AlternatingForm, all_keys, lie_action
from altforms.representatives import make_rep
from altforms.serialize import form_to_dict
from altforms.stabilizers import (LieSubalgebra, fixed_space, h1_case1, join, sl_basis,
                                  stab_lie_algebra, subalgebra_closed, t_case1,
                                  u1_case1, u2_case1)


def dense_closed(L):
    n = L.ambient_dim
    flat = [[M[i][j] for i in range(n) for j in range(n)] for M in L.basis]
    if not flat:
        return True, None
    rows, pivots = linalg.rref(flat)
    rows = [r for r in rows if any(v != 0 for v in r)]

    def reduce(v):
        for r, c in zip(rows, pivots):
            if v[c] != 0:
                f = v[c]
                v = [a - f * b for a, b in zip(v, r)]
        return any(a != 0 for a in v)

    for a, X in enumerate(L.basis):
        for Y in L.basis[a:]:
            B = linalg.mat_sub(linalg.mat_mul(X, Y), linalg.mat_mul(Y, X))
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
    assert linalg.rank(vecs) == len(new)  # x is fixed by its own stabilizer


def test_fixed_space_of_empty_and_full_algebras():
    for L, shape in ((LieSubalgebra(4, []), (4, 2)), (LieSubalgebra(3, sl_basis(3)), (3, 2))):
        assert ([form_to_dict(f) for f in fixed_space(L, shape)]
                == [form_to_dict(f) for f in stacked_fixed_space(L, shape)])


def _same(got, want):
    ok, witness = got
    ok0, witness0 = want
    if witness0 is None:
        return ok == ok0 and witness is None
    return ok == ok0 and witness[0] is witness0[0] and witness[1] is witness0[1]


@pytest.mark.parametrize("name,x", FORMS[:4], ids=[name for name, _ in FORMS[:4]])
def test_stabilizers_are_closed_as_dense_check_says(name, x):
    L = stab_lie_algebra(x)
    assert _same(subalgebra_closed(L), dense_closed(L)) and subalgebra_closed(L)[0]


def test_block_closures_and_witness_match_dense_check():
    h1, u1, u2, t = h1_case1(), u1_case1(), u2_case1(), t_case1()
    for L in (join(h1, t), join(h1, u1, u2), t):
        assert _same(subalgebra_closed(L), dense_closed(L)), L.label
    assert not subalgebra_closed(join(h1, u1, u2))[0]


def test_witness_matches_on_spans_of_a_dense_stabilizer():
    # a dense stabilizer is closed, so the witness is the first basis element
    # paired with the added unit matrix, after 15 pairs that reduce to zero
    E = sl_basis(6)[7]
    for _, x in FORMS[4:6]:
        span = LieSubalgebra(6, stab_lie_algebra(x).basis + [E])
        got = subalgebra_closed(span)
        assert not got[0] and got[1][1] is E
        assert _same(got, dense_closed(span))
    # shifted by unit matrices, every pair fails: the order of the pairs decides
    shifted = [linalg.mat_add(X, U) for X, U in zip(stab_lie_algebra(FORMS[4][1]).basis,
                                                    sl_basis(6)[:4])]
    span = LieSubalgebra(6, shifted)
    assert _same(subalgebra_closed(span), dense_closed(span))
