"""The skew-elimination Pfaffian against the recursive first-row expansion it
replaced, plus property tests of the covariance laws the paper rests on."""

import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from altforms import linalg
from altforms.invariants import pfaffian, skew_matrix
from altforms.multilinear import AlternatingForm, all_keys, gl_action
from altforms.scalars import QuadExt


def pfaffian_by_expansion(x):
    """The old implementation: expansion along the first row, (2n-1)!! terms."""
    def pf(rows):
        if not rows:
            return 1
        first, rest = rows[0], rows[1:]
        total = 0
        for pos, j in enumerate(rest):
            c = x.coeff(first, j)
            if c == 0:
                continue
            sign = -1 if pos % 2 else 1
            total = total + sign * c * pf(rest[:pos] + rest[pos + 1:])
        return total

    return pf(list(range(1, x.dim + 1)))


def rand_coeffs(rng, n, density):
    return {k: Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            for k in all_keys(2 * n, 2) if rng.random() < density}


def oracle_inputs():
    """Seeded Fraction coefficient dicts for n = 1..5: dense, sparse, with
    x_12 = 0 (the first pivot needs a swap), and singular ones."""
    rng = random.Random(2024)
    out = []
    for n in range(1, 6):
        for density in (1.0, 0.6, 0.3):
            for _ in range(6):
                out.append((n, rand_coeffs(rng, n, density)))
        c = rand_coeffs(rng, n, 1.0)
        c.pop((1, 2), None)
        out.append((n, c))
        # first row zero, and the rank-2 form u ^ v (singular for n > 1)
        out.append((n, {k: v for k, v in rand_coeffs(rng, n, 1.0).items() if k[0] != 1}))
        u = [rng.randint(-2, 2) for _ in range(2 * n)]
        v = [rng.randint(-2, 2) for _ in range(2 * n)]
        out.append((n, {(i, j): Fraction(u[i - 1] * v[j - 1] - u[j - 1] * v[i - 1])
                        for i, j in all_keys(2 * n, 2)}))
    return out


def test_fraction_and_quadext_match_the_expansion_exactly():
    rng = random.Random(7)
    singular = 0
    for n, coeffs in oracle_inputs():
        x = AlternatingForm(2 * n, 2, coeffs)
        want = pfaffian_by_expansion(x)
        assert pfaffian(x) == want
        singular += want == 0
        q = AlternatingForm(2 * n, 2, {k: QuadExt(v, rng.randint(-2, 2), 2)
                                       for k, v in coeffs.items()})
        assert pfaffian(q) == pfaffian_by_expansion(q)
    assert singular >= 10


def test_float_matches_the_expansion():
    for n, coeffs in oracle_inputs():
        x = AlternatingForm(2 * n, 2, coeffs).as_float()
        want = pfaffian_by_expansion(x)
        assert abs(pfaffian(x) - want) <= 1e-12 * max(1.0, abs(want))


def test_singular_results_are_zeros_of_the_scalar_type():
    x = AlternatingForm(4, 2, {(2, 3): Fraction(1)})
    assert pfaffian(x) == 0 and isinstance(pfaffian(x), Fraction)
    zf = pfaffian(x.as_float())
    assert zf == 0.0 and str(zf) == "0.0"
    q = AlternatingForm(4, 2, {(2, 3): QuadExt(1, 1, 2)})
    assert isinstance(pfaffian(q), QuadExt) and pfaffian(q) == 0


# ------------------------------------------------------- property tests ----

SETTINGS = settings(max_examples=40, deadline=None, database=None)
small = st.integers(min_value=-2, max_value=2)


@st.composite
def forms(draw, quadext=False):
    n = draw(st.integers(min_value=1, max_value=3))
    coeffs = {}
    for k in all_keys(2 * n, 2):
        a = draw(small)
        coeffs[k] = QuadExt(a, draw(small), 2) if quadext else Fraction(a)
    return AlternatingForm(2 * n, 2, coeffs)


@SETTINGS
@given(st.data())
def test_property_covariance(data):
    x = data.draw(forms())
    g = [[Fraction(data.draw(small)) for _ in range(x.dim)] for _ in range(x.dim)]
    assert pfaffian(gl_action(g, x)) == linalg.mat_det(g) * pfaffian(x)


@SETTINGS
@given(forms())
def test_property_square_is_determinant_over_q(x):
    assert pfaffian(x) ** 2 == linalg.mat_det(skew_matrix(x))


@SETTINGS
@given(forms(quadext=True))
def test_property_square_is_determinant_over_q_sqrt2(x):
    assert pfaffian(x) ** 2 == linalg.mat_det(skew_matrix(x))
