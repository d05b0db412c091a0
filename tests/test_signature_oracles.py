"""The exact signature from the characteristic polynomial, checked against the
congruence loop it replaced and against Sylvester's law of inertia.

``old_congruent_signature`` is a copy of the loop ``linalg.congruent_signature``
had: simultaneous row/column moves with a zero-diagonal repair, dividing by
each pivot.  Inputs are seeded symmetric Fraction grams of sizes 0-8: dense,
sparse, low rank (B^T D B), with zero diagonals and with denominators.
"""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from altforms import linalg
from altforms.scalars import QuadExt, demote


# -------------------------------------------------------------- oracle ----

def old_congruent_signature(G):
    n = len(G)
    M = [row[:] for row in G]
    npos = nneg = nzero = 0
    live = list(range(n))
    while live:
        k = live[0]
        if M[k][k] == 0:
            j = next((j for j in live[1:] if M[k][j] != 0), None)
            if j is None:
                nzero += 1
                live.pop(0)
                continue
            sign = 1 if 2 * M[k][j] + M[j][j] != 0 else -1
            for t in range(n):
                M[k][t] = M[k][t] + sign * M[j][t]
            for t in range(n):
                M[t][k] = M[t][k] + sign * M[t][j]
        d = demote(M[k][k])
        if d == 0:
            raise ArithmeticError("the gram is not symmetric")
        if isinstance(d, QuadExt):
            raise ValueError(f"the signature needs a rational gram, not one over Q(sqrt {d.d})")
        if d > 0:
            npos += 1
        else:
            nneg += 1
        for j in live[1:]:
            if M[k][j] != 0:
                f = M[k][j] / d
                for t in range(n):
                    M[j][t] = M[j][t] - f * M[k][t]
                for t in range(n):
                    M[t][j] = M[t][j] - f * M[t][k]
        live.pop(0)
    return npos, nneg, nzero


# -------------------------------------------------------------- inputs ----

def rand_value(rng, density):
    if rng.random() > density:
        return Fraction(0)
    return Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 7, 12)))


def symmetric(rng, n, density):
    G = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            G[i][j] = G[j][i] = rand_value(rng, density)
    return G


def low_rank(rng, n):
    """B^T D B for a random r x n B and diagonal D, r < n: rank at most r."""
    r = rng.randint(0, n - 1)
    B = [[rand_value(rng, 0.8) for _ in range(n)] for _ in range(r)]
    D = [rand_value(rng, 0.9) for _ in range(r)]
    return [[sum(B[t][i] * D[t] * B[t][j] for t in range(r)) for j in range(n)]
            for i in range(n)]


def zero_diagonal(rng, n):
    G = symmetric(rng, n, 0.6)
    for i in range(rng.randint(1, n)):
        G[i][i] = Fraction(0)
    return G


def seeded_grams(count, seed=18):
    rng = random.Random(seed)
    for t in range(count):
        n = rng.randint(0, 8)
        kind = t % 4
        if kind == 0 or n == 0:
            yield symmetric(rng, n, 1.0)
        elif kind == 1:
            yield symmetric(rng, n, rng.choice((0.15, 0.3, 0.5)))
        elif kind == 2:
            yield low_rank(rng, n)
        else:
            yield zero_diagonal(rng, n)


# --------------------------------------------------------------- tests ----

def test_signature_matches_the_old_loop_on_seeded_grams():
    seen = set()
    for G in seeded_grams(1200):
        got = linalg.congruent_signature(G)
        assert got == old_congruent_signature(G), G
        seen.add((len(G), got[2] > 0, any(v.denominator > 1 for row in G for v in row)))
    # every size, singular and regular grams, with and without denominators
    assert {n for n, _, _ in seen} == set(range(9))
    assert {(s, den) for n, s, den in seen if n >= 3} == {(a, b) for a in (0, 1) for b in (0, 1)}


SETTINGS = settings(max_examples=60, deadline=None, database=None)
small = st.fractions(min_value=-6, max_value=6, max_denominator=5)


@st.composite
def gram_and_invertible(draw):
    n = draw(st.integers(1, 6))
    upper = draw(st.lists(small, min_size=n * (n + 1) // 2, max_size=n * (n + 1) // 2))
    G = [[Fraction(0)] * n for _ in range(n)]
    it = iter(upper)
    for i in range(n):
        for j in range(i, n):
            G[i][j] = G[j][i] = next(it)
    P = [draw(st.lists(small, min_size=n, max_size=n)) for _ in range(n)]
    if linalg.mat_det(P) == 0:  # else a unit upper triangle with P's entries above the diagonal
        P = [[Fraction(int(i == j)) + (P[i][j] if j > i else 0) for j in range(n)]
             for i in range(n)]
    return G, P


@SETTINGS
@given(gram_and_invertible())
def test_sylvester_law_of_inertia(case):
    # signature(P^T G P) = signature(G) for invertible rational P: the covariance
    # law that makes the signature of Q_x an orbit invariant
    G, P = case
    assert linalg.mat_det(P) != 0
    moved = linalg.mat_mul(linalg.mat_mul(linalg.transpose(P), G), P)
    assert linalg.congruent_signature(moved) == linalg.congruent_signature(G)


@pytest.mark.parametrize("d", (-1, 2))
def test_rational_valued_quadext_grams_give_the_rational_answer(d):
    for G in seeded_grams(60, seed=d + 40):
        lifted = [[QuadExt(v, 0, d) for v in row] for row in G]
        assert linalg.congruent_signature(lifted) == old_congruent_signature(G)


def test_an_irrational_entry_raises_even_when_the_pivots_are_rational():
    # the congruence loop only looked at its pivots, 1 and 4 + 2 sqrt 2 - (1 + sqrt 2)^2 = 1,
    # and returned (2, 0, 0)
    r = QuadExt(1, 1, 2)
    G = [[QuadExt(1, 0, 2), r], [r, 4 + QuadExt(0, 2, 2)]]
    assert old_congruent_signature(G) == (2, 0, 0)
    with pytest.raises(ValueError) as exc:
        linalg.congruent_signature(G)
    assert str(exc.value) == "the signature needs a rational gram, not one over Q(sqrt 2)"


def test_float_entries_are_counted_exactly():
    # 0.1 is not 1/10: its exact value decides the sign of the determinant, where
    # any float eigenvalue cutoff would call these grams singular
    tenth = Fraction(0.1)
    assert tenth > Fraction(1, 10)
    G = [[0.1, 1.0], [1.0, 10.0]]  # det = 10 * exact(0.1) - 1 > 0
    assert linalg.congruent_signature(G) == (2, 0, 0)
    exact = [[Fraction(v) for v in row] for row in G]
    assert old_congruent_signature(exact) == (2, 0, 0)
    H = [[3.0, 0.5, 0.0], [0.5, -0.25, 1e-300], [0.0, 1e-300, 0.0]]
    assert linalg.congruent_signature(H) == old_congruent_signature(
        [[Fraction(v) for v in row] for row in H]) == (2, 1, 0)


@pytest.mark.parametrize("dtype", [np.int64, np.int32])
def test_numpy_integer_entries_are_read_as_ints(dtype):
    G = [[dtype(1), dtype(0)], [dtype(0), dtype(-2)]]
    assert linalg.congruent_signature(G) == (1, 1, 0)
    H = np.array([[2, 3, 0], [3, 1, 1], [0, 1, 0]], dtype=dtype)
    exact = [[Fraction(int(v)) for v in row] for row in H]
    assert linalg.congruent_signature(H.tolist()) == linalg.congruent_signature(list(H)) \
        == old_congruent_signature(exact)
    assert linalg.congruent_signature([[dtype(0), dtype(0)], [dtype(0), dtype(0)]]) == (0, 0, 2)


def test_non_symmetric_input_is_an_arithmetic_error():
    for G in ([[Fraction(0), Fraction(1)], [Fraction(-1), Fraction(0)]],
              [[1, 2], [3, 4]]):
        with pytest.raises(ArithmeticError, match="the gram is not symmetric"):
            linalg.congruent_signature(G)
