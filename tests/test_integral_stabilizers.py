"""The integral copy a LieSubalgebra holds: for each basis matrix a denominator
D and the integral entries of D times the matrix.

On the forms of strategies.py (dense and sparse, over Q and Q(sqrt d), trivectors
on 6- and 7-space and two-forms on 8-space):

* D times each matrix of the views is the stored copy, D minimal (the gcd of D
  and the integer parts of the entries is 1);
* an algebra rebuilt from its divided entries, LieSubalgebra(n, L.entries),
  holds the same copy and gives the same fixed space, closure verdict and
  witness, span dimension and .basis, by value and by type;
* the stab JSON, written from the integral copy, is the JSON of .basis byte for
  byte, against a writer that reads the Fraction parts (``oracle_json``), for
  rational, Q(sqrt d) and float forms.
"""

import json
import math
import os
import tempfile
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from altforms.cli import main
from altforms.representatives import make_rep
from altforms.scalars import QuadExt, scalar_to_json
from altforms.serialize import form_to_dict
from altforms.stabilizers import (LieSubalgebra, fixed_space, join, span_dim, stab_lie_algebra,
                                  subalgebra_closed)
from strategies import alternating_forms, fields
from test_elimination_oracles import same, types

SETTINGS = settings(max_examples=15, deadline=None, database=None)
SHAPES = st.sampled_from(((6, 3), (7, 3), (8, 2)))
exact_forms = st.tuples(SHAPES, fields).flatmap(lambda s: alternating_forms(*s[0], s[1]))
float_forms = SHAPES.flatmap(lambda s: alternating_forms(*s)).map(lambda x: x.as_float())


def parts(v):
    """The integer parts of an int or of a QuadExt over Z[sqrt d]."""
    return (v,) if type(v) is int else (v._A, v._B)


@SETTINGS
@given(exact_forms)
def test_each_matrix_is_its_least_denominator_over_its_integral_entries(x):
    L, n = stab_lie_algebra(x), x.dim
    assert len(L.cleared) == L.dim
    for a, (D, nz) in enumerate(L.cleared):
        assert type(D) is int and D >= 1
        assert all(type(v) is int or (type(v) is QuadExt and v._D == 1) for v in nz.values())
        assert math.gcd(D, *(p for v in nz.values() for p in parts(v))) == 1
        M = L.matrix(a)
        scaled = {i * n + j: v * D for i, row in enumerate(M) for j, v in enumerate(row) if v}
        assert scaled == nz
        # an int is a Fraction of the views, a QuadExt stays a QuadExt
        assert [type(M[e // n][e % n]) for e in nz] == [
            Fraction if type(v) is int else QuadExt for v in nz.values()]


def checks(L, shape=None):
    """span_dim, and the fixed space of the given shape, but for a dim-7 one over
    Q(sqrt d), which takes up to a second; with no shape, the closure verdict
    and witness instead (a closed stabilizer brackets every pair: seconds for
    sp(8) over Q(sqrt d))."""
    if shape is None:
        closed = subalgebra_closed(L)
        return closed, types(closed[1])
    out = {"span": span_dim([L])}
    if not (shape[0] == 7 and any(type(v) is QuadExt for _, nz in L.cleared
                                  for v in nz.values())):
        out["fixed"] = [(form_to_dict(f), types(sorted(f.coeffs.items())))
                        for f in fixed_space(L, shape)]
    return out


@SETTINGS
@given(exact_forms)
def test_an_algebra_rebuilt_from_its_entries_checks_as_the_kernel_built_one(x):
    n, shape = x.dim, (x.dim, x.degree)
    L = stab_lie_algebra(x)
    E = LieSubalgebra(n, [{1: Fraction(1)}])  # E_12 first: the span is not closed
    for built, fixed in ((L, shape), (join(E, L), None)):
        rebuilt = LieSubalgebra(n, built.entries)
        assert rebuilt.cleared == built.cleared
        assert [[(v, type(v)) for v in nz.values()] for nz in rebuilt.entries] \
            == [[(v, type(v)) for v in nz.values()] for nz in built.entries]
        assert checks(rebuilt, fixed) == checks(built, fixed)
        same(rebuilt.basis, built.basis)


def oracle_json(v):
    """scalar_to_json of one scalar, read off its Fraction parts."""
    if type(v) is QuadExt:
        return {"a": str(v.a), "b": str(v.b), "d": v.d}
    return str(v) if type(v) is Fraction else v


@SETTINGS
@given(st.one_of(exact_forms, float_forms))
def test_stab_json_from_the_integral_copy_is_the_json_of_the_basis(x):
    L = stab_lie_algebra(x)
    want = [[[oracle_json(v) for v in row] for row in M] for M in L.basis]
    assert json.dumps(L.basis_json()) == json.dumps(scalar_to_json(L.basis)) == json.dumps(want)


def test_stab_command_prints_the_json_of_the_basis(capsys):
    forms = [make_rep("case1_w"), make_rep("case2_w"), make_rep("case1_walpha", d=-3),
             make_rep("case3_w", n=4), make_rep("case2_w1").as_float(),
             make_rep("case1_w").scale(Fraction(7, 12))]
    with tempfile.TemporaryDirectory() as tmp:
        for k, x in enumerate(forms):
            path = os.path.join(tmp, f"{k}.json")
            with open(path, "w") as f:
                json.dump(form_to_dict(x), f)
            assert main(["stab", path]) == 0
            L = stab_lie_algebra(x)
            doc = {"dim": L.dim, "ambient": L.ambient_dim, "basis": scalar_to_json(L.basis)}
            assert capsys.readouterr().out == json.dumps(doc, indent=2) + "\n"
