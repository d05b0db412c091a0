"""Hypothesis strategies for the covariance property tests: trivectors on 6-
and 7-space over Q and Q(sqrt d), dense or sparse, and group elements acting on
them, rational or g_alpha(d) h with h rational.

A form or a group element over Q(sqrt d) draws d from DS; the forms mix
rational and irrational coefficients, as g_alpha-pushed forms do.
"""

from fractions import Fraction

from hypothesis import strategies as st

from altforms import linalg
from altforms.multilinear import AlternatingForm, all_keys
from altforms.representatives import g_alpha
from altforms.scalars import QuadExt

DS = (2, -3, 5, -1, 13)
fields = st.sampled_from((None,) + DS)  # None: Q
small = st.integers(min_value=-3, max_value=3)
rationals = st.builds(Fraction, st.integers(min_value=-6, max_value=6),
                      st.sampled_from((1, 2, 3, 5)))


def scalars(d):
    """Rationals (d None), or values of Q(sqrt d), half of them rational."""
    if d is None:
        return rationals
    return st.one_of(rationals, st.builds(lambda a, b: QuadExt(a, b, d), rationals,
                                          rationals.filter(bool)))


@st.composite
def trivectors(draw, dim, d=None):
    """A trivector on dim-space over Q (d None) or Q(sqrt d): dense, or each
    coefficient kept with probability 1/2."""
    keys = all_keys(dim, 3)
    if not draw(st.booleans()):
        keys = [k for k in keys if draw(st.booleans())]
    return AlternatingForm(dim, 3, {k: draw(scalars(d)) for k in keys})


@st.composite
def rational_matrices(draw, n):
    """An invertible n x n matrix of small integers: unit lower times upper
    triangular with diagonal entries +-1 or +-2, rows permuted."""
    L = [[Fraction(draw(small)) if j < i else Fraction(int(i == j)) for j in range(n)]
         for i in range(n)]
    U = [[Fraction(draw(small)) if j > i else Fraction(draw(st.sampled_from((-2, -1, 1, 2))))
          if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    return draw(st.permutations(linalg.mat_mul(L, U)))


@st.composite
def group_elements(draw, n, d=None):
    """A rational invertible n x n matrix h (d None), or g h with g = g_alpha(d),
    which carries w = e123 + e456 to w_alpha(d), bordered by 1 for n = 7."""
    h = draw(rational_matrices(n))
    if d is None:
        return h
    g = g_alpha(d)
    if n == 7:
        zero, one = QuadExt(0, 0, d), QuadExt(1, 0, d)
        g = [row + [zero] for row in g] + [[zero] * 6 + [one]]
    return linalg.mat_mul(g, h)
