"""The search's screen bound, against direct computations.

A child's screen value is P[tc] + a P[c2] (a = +-1, P the fixed-order sum of a parent's
minors) for a right move, and P[tc] + w . m3 (one matmul over all row sets) for a left one;
its exact value is the fixed-order sum of its own minors, m1 + a m2 or m1 + r m3.  Their
deviations from a target must differ by at most half of search._delta, for any coefficients
and any integer minors the depth guard admits.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from altforms import search as S

SETTINGS = settings(max_examples=200, deadline=None, database=None)

coefficient = st.one_of(
    st.sampled_from([0.1, 0.2, 1 / 3, -0.1, -2 / 3, 0.7, 1e-9, 3.0, -1.0, 0.0]),
    st.floats(-1e3, 1e3, allow_nan=False), st.floats(-1e-3, 1e-3, allow_nan=False))
minor = st.integers(-2 ** 52, 2 ** 52)


@st.composite
def children(draw):
    """Coefficients, a parent's minors m1 (at the target column) and m2 (at the column the move
    reads), the move's sign, and a target.  Cancelling draws make m2 = -a m1 + small, so the
    child's minors are small while the parent's are up to 2^52; others repeat one minor
    under coefficients of both signs."""
    k = draw(st.integers(1, 40))
    coefs = draw(st.lists(coefficient, min_size=k, max_size=k))
    m1 = draw(st.lists(minor, min_size=k, max_size=k))
    a = draw(st.sampled_from([1, -1]))
    kind = draw(st.sampled_from(["free", "cancel", "repeat"]))
    if kind == "cancel":
        m2 = [a * (draw(st.integers(-3, 3)) - m) for m in m1]
    elif kind == "repeat":
        m1 = [m1[0]] * k
        coefs = [c * (-1) ** i for i, c in enumerate(coefs)]
        m2 = draw(st.lists(minor, min_size=k, max_size=k))
    else:
        m2 = draw(st.lists(minor, min_size=k, max_size=k))
    target = draw(st.one_of(st.floats(-1e3, 1e3, allow_nan=False), st.sampled_from([0.0, 0.3])))
    return np.array(coefs), np.array(m1, dtype=float), np.array(m2, dtype=float), a, target


def deviations(exact, screen, target):
    return abs(exact - target), abs(screen - target)


@SETTINGS
@given(children())
def test_right_move_screen_is_within_delta(child):
    coefs, m1, m2, a, target = child
    exact = S._fixed_sum(m1 + a * m2, coefs, ())  # the child's minors are exact integers
    screen = S._fixed_sum(m1, coefs, ()) + a * S._fixed_sum(m2, coefs, ())
    delta = S._delta(coefs, np.stack([m1, m2]), np.array([target]))
    d, dhat = deviations(exact, screen, target)
    assert abs(d - dhat) <= delta / 2


@SETTINGS
@given(children(), st.data())
def test_left_move_screen_is_within_delta(child, data):
    # a left move adds r m3, m3 the parent's minor on another row set, to each row set's minor:
    # the screen takes sum_k c_k r_k m3 as one matmul of w (c_k r_k at row set rs_k) with the
    # parent's minors on every row set
    coefs, m1, m3, _, target = child
    k = len(coefs)
    rows = data.draw(st.permutations(range(2 * k)))[:k]  # distinct row sets rs_k
    r = np.array(data.draw(st.lists(st.sampled_from([1, -1, 0]), min_size=k, max_size=k)))
    column = np.zeros(2 * k)
    column[rows] = m3
    w = np.zeros(2 * k)
    w[rows] = coefs * r
    exact = S._fixed_sum(m1 + r * column[rows], coefs, ())
    screen = S._fixed_sum(m1, coefs, ()) + np.matmul(w[None], column[:, None])[0, 0]
    delta = S._delta(coefs, np.stack([m1, column[:k], column[k:]]), np.array([target]))
    d, dhat = deviations(exact, screen, target)
    assert abs(d - dhat) <= delta / 2


def test_delta_of_a_zero_form():
    assert S._delta(np.zeros(0), np.zeros((0, 1, 3)), np.array([0.5, -2.0])) == 16 * 2.0 ** -53 * 2
