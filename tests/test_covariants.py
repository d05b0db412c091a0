"""Covariance laws of S_x, delta and Q_x on random forms and group elements
(strategies.py), over Q and Q(sqrt d), and the rounding of float S_x and Q_x.

* dim 6: S_x^2 = delta(x) I, and delta(g.x) = det(g)^2 delta(x);
* dim 7: Q_{t g.x} = t^3 det(g) g Q_x g^T;
* float forms: every entry of S_x and Q_x is the correctly rounded value of the
  exact entry on the binary64 coefficients, whatever the order of the keys and
  the power of two the form is scaled by; a non-finite coefficient is a ValueError.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from altforms import linalg
from altforms.invariants import delta_case1, delta_case1_explicit, q_case2, s_case1, s_case2
from altforms.multilinear import AlternatingForm, all_keys, gl_action
from altforms.representatives import make_rep
from strategies import fields, group_elements, rationals, trivectors

SETTINGS = settings(max_examples=12, deadline=None, database=None)


def scalar_matrix(v, n):
    return [[v if i == j else 0 for j in range(n)] for i in range(n)]


@SETTINGS
@given(fields.flatmap(lambda d: st.tuples(trivectors(6, d), group_elements(6, d))))
def test_dim6_s_squared_and_delta_covariance(case):
    x, g = case
    S, delta = s_case1(x), delta_case1(x)
    assert linalg.mat_mul(S, S) == scalar_matrix(delta, 6)
    assert delta == delta_case1_explicit(x)
    assert delta_case1(gl_action(g, x)) == linalg.mat_det(g) ** 2 * delta


@SETTINGS
@given(fields.flatmap(lambda d: st.tuples(trivectors(7, d), group_elements(7, d))),
       rationals.filter(bool))
def test_dim7_q_covariance(case, t):
    x, g = case
    gram = q_case2(gl_action(g, x).scale(t))
    want = linalg.mat_mul(linalg.mat_mul(g, q_case2(x)), linalg.transpose(g))
    c = t ** 3 * linalg.mat_det(g)
    assert gram == [[c * v for v in row] for row in want]


coefficients = st.floats(min_value=-1, max_value=1, allow_nan=False).filter(bool)


@settings(max_examples=30, deadline=None, database=None)
@given(st.sampled_from((6, 7)), st.data(), st.integers(min_value=-60, max_value=60),
       st.randoms(use_true_random=False))
def test_float_s_and_q_are_the_correctly_rounded_exact_values(dim, data, k, rng):
    keys = [key for key in all_keys(dim, 3) if rng.random() < 0.8]
    values = {key: data.draw(coefficients) * 2.0 ** k for key in keys}
    exact = AlternatingForm(dim, 3, {key: Fraction(v) for key, v in values.items()})
    s = s_case1 if dim == 6 else s_case2
    want = [[float(v) for v in row] for row in s(exact)]
    for _ in range(2):
        rng.shuffle(keys)
        x = AlternatingForm(dim, 3, {key: values[key] for key in keys})
        S = s(x)
        assert S == want and all(type(v) is float for row in S for v in row)
        if dim == 7:
            assert q_case2(x) == want  # S_x is symmetric in dim 7: Q_x = S_x


@pytest.mark.parametrize("name", ["case1_w", "case2_w"])
@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_float_s_rejects_non_finite_coefficients(name, bad):
    x = make_rep(name).as_float().scale(bad)
    s = s_case1 if x.dim == 6 else s_case2
    with pytest.raises(ValueError, match="^non-finite float value"):
        s(x)
