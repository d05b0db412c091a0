"""JSON round trips of form and target documents.

A form written by form_to_dict, passed through json, and read back by
form_from_dict is the same form, for rational, Q(sqrt d) (d of both signs)
and finite float coefficients on each form shape the program handles
(dim-6 and dim-7 trivectors, two-forms on 2n-space); a target of each case
survives target_to_dict and target_from_dict the same way.
"""

import json

from hypothesis import given, settings, strategies as st

from altforms.multilinear import AlternatingForm, all_keys
from altforms.perturb import PartialTarget, constrained_keys
from altforms.scalars import QuadExt
from altforms.serialize import form_from_dict, form_to_dict, target_from_dict, target_to_dict

SETTINGS = settings(max_examples=40, deadline=None, database=None)
SHAPES = st.sampled_from(((6, 3), (7, 3), (4, 2), (6, 2), (8, 2)))
DS = st.sampled_from((2, 3, 5, 7, -1, -2, -3, -7))
rationals = st.fractions(min_value=-10 ** 6, max_value=10 ** 6, max_denominator=10 ** 6)
floats = st.floats(allow_nan=False, allow_infinity=False)


def forms(shape, coeff):
    dim, degree = shape
    keys = all_keys(dim, degree)
    return st.dictionaries(st.sampled_from(keys), coeff, max_size=len(keys)).map(
        lambda coeffs: AlternatingForm(dim, degree, coeffs))


def quadexts(d):
    return st.builds(lambda a, b: QuadExt(a, b, d), rationals, rationals)


@st.composite
def quad_forms(draw):
    shape, d = draw(SHAPES), draw(DS)
    x = draw(forms(shape, quadexts(d)))
    # one coefficient with an irrational part, so the document names its d
    key, b = draw(st.sampled_from(all_keys(*shape))), draw(rationals.filter(bool))
    return AlternatingForm(x.dim, x.degree, {**x.coeffs, key: QuadExt(1, b, d)})


rational_forms = SHAPES.flatmap(lambda s: forms(s, rationals))
float_forms = SHAPES.flatmap(lambda s: forms(s, floats))


@SETTINGS
@given(st.one_of(rational_forms, quad_forms(), float_forms))
def test_form_json_round_trip(x):
    back = form_from_dict(json.loads(json.dumps(form_to_dict(x))))
    assert back == x
    assert back.scalar_kind() == x.scalar_kind()
    assert form_to_dict(back) == form_to_dict(x)


@st.composite
def targets(draw):
    case = draw(st.sampled_from((1, 2, 3)))
    n = draw(st.integers(1, 5)) if case == 3 else None
    keys = constrained_keys(case, n)
    vals = draw(st.lists(floats, min_size=len(keys), max_size=len(keys)))
    return PartialTarget(case, dict(zip(keys, vals)), n=n)


@SETTINGS
@given(targets())
def test_target_round_trip(t):
    assert target_from_dict(target_to_dict(t)) == t
    assert target_from_dict(json.loads(json.dumps(target_to_dict(t)))) == t
