"""Scale covariance of the stabilizer, fixed-space, closure and S_x^2 paths.

Rational inputs run on ints scaled by their common denominators, so a
scale that the math ignores must not show in the outputs: stab(c x) and
its fixed space are those of x for any nonzero c, delta(c x) = c^4 delta(x),
and scaling each basis matrix by its own nonzero constant changes neither
the closure verdict nor the witness pair.  Each law is checked on rational
forms (the integer paths) and with Q(sqrt d) forms or scales (the divide
paths of linalg), which must agree with each other.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from altforms.invariants import delta_case1
from altforms.multilinear import AlternatingForm, all_keys
from altforms.scalars import QuadExt, demote
from altforms.stabilizers import (fixed_space, h1_case1, join, sl_basis, stab_lie_algebra,
                                  subalgebra_closed, u1_case1, u2_case1)
from test_elimination_oracles import dense_algebra

SETTINGS = settings(max_examples=15, deadline=None, database=None)
DS = (2, -3, 5)
nonzero = st.integers(-6, 6).filter(bool)
rationals = st.builds(Fraction, nonzero, st.integers(1, 12))
coeff = st.builds(Fraction, st.integers(-4, 4), st.sampled_from((1, 2, 3, 5, 12)))


def quadexts(d):
    """Nonzero elements of Q(sqrt d) with an irrational part."""
    return st.builds(lambda a, b: QuadExt(a, b, d), st.integers(-3, 3), rationals)


def rational_forms(dim, degree):
    keys = all_keys(dim, degree)
    return st.lists(coeff, min_size=len(keys), max_size=len(keys)).map(
        lambda vs: AlternatingForm(dim, degree, dict(zip(keys, vs))))


def quad_forms(d):
    keys = all_keys(6, 3)
    parts = st.tuples(st.integers(-2, 2), st.integers(-2, 2))
    return st.lists(parts, min_size=len(keys), max_size=len(keys)).map(
        lambda vs: AlternatingForm(6, 3, {k: QuadExt(a, b, d) for k, (a, b) in zip(keys, vs)}))


SHAPES = st.sampled_from(((6, 3), (4, 2), (6, 2)))
rational_x = SHAPES.flatmap(lambda s: rational_forms(*s))
quad_x = st.sampled_from(DS).flatmap(lambda d: st.tuples(quad_forms(d), quadexts(d)))


def values(forms):
    return [{k: demote(v) for k, v in f.coeffs.items()} for f in forms]


def types(mats):
    return [[[type(v) for v in row] for row in M] for M in mats]


def scaled(L, cs):
    return dense_algebra(L.ambient_dim, [[[c * v for v in row] for row in M]
                                         for c, M in zip(cs, L.basis)])


def witness(L):
    closed, pair = subalgebra_closed(L)
    if closed:
        return True, None
    return False, tuple(next(i for i, M in enumerate(L.basis) if M == W) for W in pair)


# ----------------------------------------------------------- stab(c x) ----

@SETTINGS
@given(rational_x, rationals)
def test_stab_and_fixed_of_a_rational_multiple(x, c):
    L, Lc = stab_lie_algebra(x), stab_lie_algebra(x.scale(c))
    assert Lc.basis == L.basis and types(Lc.basis) == types(L.basis)
    shape = (x.dim, x.degree)
    want = fixed_space(L, shape)
    got = fixed_space(Lc, shape)
    assert [f.coeffs for f in got] == [f.coeffs for f in want]
    assert all(type(v) is Fraction for f in got for v in f.coeffs.values())


@settings(max_examples=6, deadline=None, database=None)
@given(quad_x)
def test_stab_and_fixed_of_a_quadext_multiple(xc):
    x, c = xc
    L, Lc = stab_lie_algebra(x), stab_lie_algebra(x.scale(c))
    assert Lc.basis == L.basis
    shape = (6, 3)
    assert values(fixed_space(Lc, shape)) == values(fixed_space(L, shape))


@SETTINGS
@given(rational_x, st.data())
def test_fixed_space_of_a_rescaled_basis(x, data):
    # each basis matrix scaled by its own rational (integer path) or by its own
    # element of Q(sqrt d) (divide path): one fixed space
    L = stab_lie_algebra(x)
    shape = (x.dim, x.degree)
    want = fixed_space(L, shape)
    cs = data.draw(st.lists(rationals, min_size=L.dim, max_size=L.dim))
    got = fixed_space(scaled(L, cs), shape)
    assert [f.coeffs for f in got] == [f.coeffs for f in want]
    if x.degree == 3:  # the dim-6 case keeps the Q(sqrt d) solve small
        d = data.draw(st.sampled_from(DS))
        qs = data.draw(st.lists(quadexts(d), min_size=L.dim, max_size=L.dim))
        assert values(fixed_space(scaled(L, qs), shape)) == values(want)


# ------------------------------------------------------ delta(c x) ----

@SETTINGS
@given(rational_forms(6, 3), rationals)
def test_delta_of_a_rational_multiple(x, c):
    got = delta_case1(x.scale(c))
    assert got == c ** 4 * delta_case1(x) and type(got) is Fraction


@SETTINGS
@given(quad_x)
def test_delta_of_a_quadext_multiple(xc):
    x, c = xc
    assert delta_case1(x.scale(c)) == c ** 4 * delta_case1(x)


# ------------------------------------------------------ closures ----

def bases():
    """Closed and open spans: stabilizers, the block algebras and their joins,
    and sets of sl(4) units with one extra matrix."""
    blocks = (h1_case1(), u1_case1(), u2_case1())
    joins = st.sampled_from((join(blocks[0], blocks[1]), join(blocks[0], blocks[2]),
                             join(*blocks)))
    units = st.lists(st.integers(0, 14), min_size=2, max_size=6, unique=True).flatmap(
        lambda idx: st.lists(coeff, min_size=16, max_size=16).map(
            lambda vs: dense_algebra(4, [sl_basis(4)[i] for i in idx]
                                     + [[vs[4 * i:4 * i + 4] for i in range(4)]])))
    stabs = rational_forms(4, 2).map(stab_lie_algebra)
    return st.one_of(joins, units, stabs)


@SETTINGS
@given(bases(), st.data())
def test_closure_of_a_rescaled_basis(L, data):
    want = witness(L)
    cs = data.draw(st.lists(rationals, min_size=L.dim, max_size=L.dim))
    assert witness(scaled(L, cs)) == want
    d = data.draw(st.sampled_from(DS))
    qs = data.draw(st.lists(quadexts(d), min_size=L.dim, max_size=L.dim))
    assert witness(scaled(L, qs)) == want
