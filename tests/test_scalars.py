import random
from fractions import Fraction

import pytest

from altforms.scalars import (QuadExt, cube_root_rational, demote, finite_float,
                              rational_reconstruct, rational_sqrt, real_sign,
                              scalar_from_json, scalar_to_json, squarefree_part)


def rand_fraction(rng, span=9):
    return Fraction(rng.randint(-span, span), rng.randint(1, span))


def rand_quadext(rng, d):
    return QuadExt(rand_fraction(rng), rand_fraction(rng), d)


def test_field_axioms_rational():
    rng = random.Random(0)
    for _ in range(200):
        a, b, c = (rand_fraction(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a


@pytest.mark.parametrize("d", [2, -1, 5])
def test_field_axioms_quadext(d):
    rng = random.Random(d)
    for _ in range(100):
        a, b, c = (rand_quadext(rng, d) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
    for _ in range(50):
        a = rand_quadext(rng, d)
        if a != 0:
            assert a * a.inverse() == 1


@pytest.mark.parametrize("d", [2, -1, 3])
def test_conjugation_is_ring_automorphism(d):
    rng = random.Random(d + 10)
    for _ in range(100):
        a, b = rand_quadext(rng, d), rand_quadext(rng, d)
        assert (a * b).conjugate() == a.conjugate() * b.conjugate()
        assert a.conjugate().conjugate() == a
        n = a * a.conjugate()
        assert n.is_rational and n.a == a.norm()


def test_quadext_mixing_discriminants_is_an_error():
    with pytest.raises(ValueError):
        QuadExt(1, 1, 2) + QuadExt(1, 1, 3)
    with pytest.raises(ValueError):
        QuadExt(1, 1, 2) * QuadExt(0, 1, -1)


def test_quadext_rejects_bad_discriminant():
    for bad in (0, 1, None, "2"):
        with pytest.raises(ValueError):
            QuadExt(1, 1, bad)


def test_demote():
    assert demote(QuadExt(3, 0, 2)) == Fraction(3)
    v = QuadExt(3, 1, 2)
    assert demote(v) is v


def test_squarefree_part_examples():
    assert squarefree_part(Fraction(1)) == (1, Fraction(1))
    assert squarefree_part(Fraction(128)) == (2, Fraction(8))
    assert squarefree_part(Fraction(-64)) == (-1, Fraction(8))


def test_squarefree_part_round_trip():
    rng = random.Random(1)
    for _ in range(100):
        q = rand_fraction(rng, 400)
        if q == 0:
            continue
        d, r = squarefree_part(q)
        assert r > 0
        assert r * r * d == q
        assert d == 1 or squarefree_part(Fraction(d))[0] == d


def test_squarefree_part_zero_is_domain_error():
    with pytest.raises(ValueError):
        squarefree_part(Fraction(0))


def test_rational_sqrt():
    assert rational_sqrt(Fraction(9, 4)) == Fraction(3, 2)
    v = rational_sqrt(Fraction(8))
    assert v == QuadExt(0, 2, 2)
    assert v * v == 8


def test_cube_root_rational():
    assert cube_root_rational(Fraction(27, 8)) == Fraction(3, 2)
    assert cube_root_rational(Fraction(-216)) == -6
    assert cube_root_rational(Fraction(2)) is None
    big = Fraction(12345678901234567890) ** 3
    assert cube_root_rational(big) == Fraction(12345678901234567890)
    huge = Fraction(3 ** 700 + 1, 10 ** 400)
    assert cube_root_rational(huge ** 3) == huge
    assert cube_root_rational(huge ** 3 + 1) is None
    assert cube_root_rational(Fraction(0)) == 0


def test_rational_reconstruct_examples():
    assert rational_reconstruct(0.5, 10 ** 6, 1e-9) == Fraction(1, 2)
    assert rational_reconstruct(0.666666666667, 10 ** 6, 1e-9) == Fraction(2, 3)
    assert rational_reconstruct(3.14159265358979, 10 ** 3, 1e-12) is None


def test_rational_reconstruct_validates_arguments():
    with pytest.raises(ValueError):
        rational_reconstruct(0.5, 0, 1e-9)
    with pytest.raises(ValueError):
        rational_reconstruct(0.5, 10, 0.0)


def test_scalar_json_round_trip():
    vals = [Fraction(3, 7), Fraction(-2), QuadExt(Fraction(1, 2), Fraction(-3), 5), 1.25]
    kinds = ["rational", "rational", "quadext", "float"]
    for v, kind in zip(vals, kinds):
        assert scalar_from_json(scalar_to_json(v), kind) == v


def test_scalar_json_zero_denominator():
    with pytest.raises(ValueError, match="zero denominator"):
        scalar_from_json("1/0", "rational")


@pytest.mark.parametrize("d", (4, -4, 8, 12, -18, 9))
def test_quadext_rejects_non_squarefree_discriminant(d):
    # sqrt(4) = 2 is rational: QuadExt(0, 1, 4) would claim to be irrational
    with pytest.raises(ValueError, match="discriminant"):
        QuadExt(0, 1, d)


def test_non_finite_float_values_are_rejected():
    for bad in (float("nan"), float("inf"), -float("inf"), "nan"):
        with pytest.raises(ValueError, match="non-finite"):
            scalar_from_json(bad, "float")
    assert finite_float("1e300") == 1e300


def test_scalar_and_signature_guards_run_under_python_O():
    # the checks on squarefree_part, congruent_signature, the shapes of
    # mat_mul/mat_vec and plucker, the algebra unit, the alternation of c_form,
    # the float product solve and the rational stabilizer witness guard
    # results, so they must still raise when asserts are stripped
    import os
    import subprocess
    import sys

    import altforms
    src = os.path.dirname(os.path.dirname(altforms.__file__))
    code = (
        "from fractions import Fraction\n"
        "assert False, 'asserts are on'\n"
        "import sympy\n"
        "from altforms import linalg, scalars\n"
        "real_factorint, real_isqrt = sympy.factorint, scalars._isqrt_exact\n"
        "def wrong_sign():\n"
        "    sympy.factorint = lambda n: {-1: 1}\n"
        "    scalars.squarefree_part(Fraction(12))\n"
        "def wrong_root():\n"
        "    sympy.factorint, scalars._isqrt_exact = real_factorint, lambda n: 1\n"
        "    scalars.squarefree_part(Fraction(12))\n"
        "def skew_gram():\n"
        "    linalg.congruent_signature([[Fraction(0), Fraction(1)], [Fraction(-1), Fraction(0)]])\n"
        "row = [[Fraction(1), Fraction(2)]]\n"
        "def short_mul():\n"
        "    linalg.mat_mul(row, row)\n"
        "def short_vec():\n"
        "    linalg.mat_vec(row, [Fraction(1)])\n"
        "import numpy\n"
        "from altforms import cayley_dickson as cd, orbits, representatives\n"
        "from altforms.representatives import make_rep\n"
        "def e(m):\n"
        "    return tuple(Fraction(int(t == m)) for t in range(8))\n"
        "def algebra(products):\n"
        "    table = [[e(j) if i == 0 else e(i) if j == 0 else products.get((i, j), e(-1))\n"
        "              for j in range(8)] for i in range(8)]\n"
        "    return cd.AlgebraStructure(8, table, [list(e(i)) for i in range(8)])\n"
        "def bad_unit():\n"
        "    cd.AlgebraStructure(1, [[(Fraction(2),)]], [[Fraction(1)]])\n"
        "def repeated_index():\n"
        "    cd.c_form(algebra({(2, 2): e(1)}))\n"
        "def not_alternating():\n"
        "    cd.c_form(algebra({(2, 3): e(1), (3, 2): e(1)}))\n"
        "def bad_solve():\n"
        "    real = numpy.linalg.solve\n"
        "    numpy.linalg.solve = lambda G, b: real(G, b) + 1.0\n"
        "    try:\n"
        "        cd.octonion_from_form(make_rep('case2_w').as_float())\n"
        "    finally:\n"
        "        numpy.linalg.solve = real\n"
        "def short_plucker():\n"
        "    orbits.plucker([[1, 2, 3, 4, 5, 6]])\n"
        "def irrational_witness():\n"
        "    representatives.demote = lambda v: v\n"
        "    representatives.stabilizer_witness_case1([[1, 0, 0], [0, 1, 0], [0, 0, 1]], 2)\n"
        "for f in (wrong_sign, wrong_root, skew_gram, short_mul, short_vec, bad_unit,\n"
        "          repeated_index, not_alternating, bad_solve, short_plucker,\n"
        "          irrational_witness):\n"
        "    try:\n"
        "        f()\n"
        "    except (ArithmeticError, ValueError) as exc:\n"
        "        print('raised', type(exc).__name__, exc)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == [
        "raised ArithmeticError squarefree part of 12 has the wrong sign (internal bug)",
        "raised ArithmeticError squarefree part of 12 does not recompose (internal bug)",
        "raised ArithmeticError the gram is not symmetric",
        "raised ValueError shape mismatch: 1x2 times 1x2",
        "raised ValueError shape mismatch: 1x2 times a vector of 1",
        "raised ValueError basis 0 must be the unit",
        "raised ArithmeticError C is not alternating (internal bug)",
        "raised ArithmeticError C is not alternating (internal bug)",
        "raised ArithmeticError ill-conditioned product solve",
        "raised ValueError plucker needs 3 rows of length 6",
        "raised ArithmeticError stabilizer witness is not rational (internal bug)"]


@pytest.mark.parametrize("q", [QuadExt(Fraction(3, 4), Fraction(-5, 6), -3),
                               QuadExt(-7, Fraction(2, 9), 2),
                               QuadExt(Fraction(11, 5), 0, 5)],
                         ids=["d<0", "d>0", "B=0"])
def test_quadext_copy_and_pickle_round_trip(q):
    import copy
    import pickle
    for f in (copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))):
        r = f(q)
        assert type(r) is QuadExt
        assert (r.a, r.b, r.d) == (q.a, q.b, q.d)
        assert r == q and hash(r) == hash(q)
        assert r * r == q * q and r - q == 0  # a working value, not a shell
    with pytest.raises(AttributeError, match="immutable"):
        copy.copy(q).d = 7


def _pell_pairs(d, unit, limit=10 ** 25):
    """(p, q) with p + q sqrt(d) the powers of a unit of Z[sqrt d], up to p = limit."""
    p, q = 1, 0
    while p <= limit:
        p, q = p * unit[0] + d * q * unit[1], p * unit[1] + q * unit[0]
        yield p, q


@pytest.mark.parametrize("d,unit", [(2, (1, 1)), (3, (2, 1)), (5, (2, 1))])
def test_real_sign_on_pell_pairs(d, unit):
    # p - q sqrt(d) for p^2 - d q^2 = +-1 cancels to about 1/p, which float()
    # loses past p ~ 1e8; the exact rule: for p, q > 0 the sign of p - q sqrt(d)
    # is that of p^2 - d q^2, and scaling by a rational c multiplies the sign
    norms = set()
    for p, q in _pell_pairs(d, unit):
        want = 1 if p * p > d * q * q else -1
        norms.add(p * p - d * q * q)
        for c in (1, -1, Fraction(3, 7), Fraction(-5, 2)):
            v = QuadExt(p, -q, d) * c
            assert real_sign(v) == want * real_sign(c)
            assert real_sign(-v) == -real_sign(v)
            assert real_sign(QuadExt(p, q, d) * c) == real_sign(c)
    assert len(norms) == (2 if d != 3 else 1)  # both signs where -1 is a norm
    assert real_sign(QuadExt(0, 0, d)) == 0


def test_real_sign_of_rationals_floats_and_imaginary_values():
    assert [real_sign(v) for v in (0, -3, Fraction(1, 9), Fraction(-2, 3), 0.0, -1e-300)] \
        == [0, -1, 1, -1, 0, -1]
    assert real_sign(QuadExt(-5, 0, -3)) == -1 and real_sign(QuadExt(0, 0, -1)) == 0
    assert real_sign(QuadExt(Fraction(-1, 2), 1, 2)) == 1
    with pytest.raises(ValueError, match="no real sign"):
        real_sign(QuadExt(1, 1, -3))


def old_scalar_to_json(x):
    """scalar_to_json as it was: the isinstance chain, a QuadExt through the
    Fractions .a and .b."""
    if isinstance(x, (list, tuple)):
        return [old_scalar_to_json(v) for v in x]
    if isinstance(x, int):
        x = Fraction(x)
    if isinstance(x, Fraction):
        return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
    if isinstance(x, QuadExt):
        return {"a": old_scalar_to_json(x.a), "b": old_scalar_to_json(x.b), "d": x.d}
    if isinstance(x, float):
        return x
    raise TypeError(f"unsupported scalar {type(x).__name__}")


def test_scalar_to_json_matches_the_old_chain():
    rng = random.Random(15)

    def draw(depth=0):
        kind = rng.choice(("int", "fraction", "float", "quad", "list", "tuple", "bool")
                          if depth < 2 else ("int", "fraction", "quad"))
        if kind == "int":
            return rng.randint(-10 ** 30, 10 ** 30)
        if kind == "fraction":
            return Fraction(rng.randint(-99, 99), rng.randint(1, 10 ** rng.randint(1, 25)))
        if kind == "float":
            return rng.uniform(-1e6, 1e6)
        if kind == "bool":
            return rng.random() < 0.5
        if kind == "quad":  # d < 0 and d > 0, B = 0 and D > 1 among them
            a, b = (Fraction(rng.randint(-50, 50), rng.choice((1, 1, 2, 6, 35, 10 ** 20)))
                    for _ in range(2))
            return QuadExt(a, b if rng.random() < 0.7 else 0, rng.choice((2, -3, 5, -1, 13)))
        seq = [draw(depth + 1) for _ in range(rng.randint(0, 4))]
        return seq if kind == "list" else tuple(seq)

    values = [draw() for _ in range(400)]
    quads = [v for v in values if type(v) is QuadExt]
    assert {v.d < 0 for v in quads} == {True, False}
    assert any(v._B == 0 for v in quads) and any(v._D > 1 for v in quads)
    for v in values:
        assert scalar_to_json(v) == old_scalar_to_json(v)
    for bad in (None, "1/2", complex(1, 1)):
        with pytest.raises(TypeError, match="unsupported scalar"):
            scalar_to_json(bad)
