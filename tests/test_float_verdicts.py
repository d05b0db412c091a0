"""Float orbit verdicts are scale-free and decided by one zero rule.

The three spaces are prehomogeneous under groups that contain the scalars, so
every real orbit is a cone: for t > 0, t * x lies in the orbit of x.  A float
invariant of degree k is zero when |inv(x)| <= tol * s^k with s = max |x_I|,
which is |inv(x / s)| <= tol, so classify_real(t * x) must agree with
classify_real(x) at every scale.  The dim-7 semistability test of
octonion_from_form is the same eigenvalue test on Bryant's B_x = Q_x / 6.
"""

import json
import random

import numpy as np
import pytest

from altforms.cayley_dickson import octonion_from_form
from altforms.cli import main
from altforms.invariants import q_case2
from altforms.multilinear import AlternatingForm, all_keys
from altforms.orbits import classify_real
from altforms.representatives import make_rep

SCALES = [10.0 ** k for k in range(-6, 7)]
REPS = [("case1_w", None), ("case1_w1", None), ("case2_w", None), ("case2_w1", None),
        ("case2_wprime", None), ("case3_w", 2), ("case3_w", 3), ("case3_w", 5)]


def float_rep(name, n=None):
    return make_rep(name, n=n).as_float()


def random_forms(dim, degree, count, seed):
    rng = random.Random(f"{dim},{degree}:{seed}")
    return [AlternatingForm(dim, degree, {k: rng.uniform(-1, 1) for k in all_keys(dim, degree)})
            for _ in range(count)]


def orbits_at_every_scale(x):
    return {classify_real(x.scale(t)).real_orbit for t in SCALES}


def test_cone_law_on_the_representatives():
    for name, n in REPS:
        x = float_rep(name, n)
        assert orbits_at_every_scale(x) == {classify_real(x).real_orbit}, (name, n)


@pytest.mark.parametrize("dim, degree", ((6, 3), (7, 3), (8, 2)))
def test_cone_law_on_random_float_forms(dim, degree):
    for x in random_forms(dim, degree, 4, seed=1):
        want = classify_real(x).real_orbit
        assert want != "degenerate"
        assert orbits_at_every_scale(x) == {want}


def _octonion_verdict(x):
    try:
        octonion_from_form(x)
    except ValueError as exc:
        assert str(exc) == "not semistable"
        return "degenerate"
    return "built"


def test_octonion_table_is_refused_exactly_on_degenerate_forms():
    # case2_wprime + e * case2_w: the smallest |eigenvalue| of B_x is e / 2, so the
    # family crosses the cutoff between e = 1e-8 and e = 1e-9
    wp, w = float_rep("case2_wprime"), float_rep("case2_w")
    forms = [wp + w.scale(e) for e in (1e-2, 1e-5, 1e-8, 1e-9, 1e-11)]
    forms += random_forms(7, 3, 3, seed=2)
    seen = set()
    for x in forms:
        for t in (1e-3, 1.0, 1e3):
            xt = x.scale(t)
            orbit = classify_real(xt).real_orbit
            verdict = _octonion_verdict(xt)
            assert (verdict == "degenerate") == (orbit == "degenerate"), (t, orbit)
            seen.add(verdict)
    assert seen == {"built", "degenerate"}


def test_small_float_forms_keep_their_orbits(tmp_path, capsys):
    # each was called degenerate (or, for the octonion table, not semistable) because
    # the cutoff did not shrink below unit size
    path = tmp_path / "x.json"
    path.write_text(json.dumps({"dim": 6, "degree": 3, "scalar": "float",
                                "coeffs": {"1,2,3": 0.001, "4,5,6": 0.001}}))
    assert main(["classify", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["real_orbit"], doc["delta"]) == ("case1_positive", 1e-12)
    assert classify_real(float_rep("case2_w").scale(1e-4)).real_orbit == "case2_split"
    assert classify_real(float_rep("case3_w", 3).scale(1e-3)).real_orbit == "case3_nondegenerate"
    x = float_rep("case2_w").scale(0.01)
    assert classify_real(x).real_orbit == "case2_split"
    A = octonion_from_form(x)
    assert A.dim == 8 and A.label == "O_x"


def test_b_x_cutoff_on_the_band_of_dim7_forms():
    # min |eig Q_x| = 3e-9 lies in (tol s^3, 6 tol s^3]: B_x = Q_x / 6 has 5e-10 <= 1e-9
    x = float_rep("case2_wprime") + float_rep("case2_w").scale(1e-9)
    eig = np.linalg.eigvalsh(np.array(q_case2(x), dtype=float))
    assert 1e-9 < np.abs(eig).min() <= 6e-9 and x.max_abs() == 1.0
    assert classify_real(x).real_orbit == "degenerate"
    assert _octonion_verdict(x) == "degenerate"


def test_zero_rule_on_the_zero_form_and_past_the_float_range():
    from altforms.orbits import float_zero
    assert float_zero(0.0, AlternatingForm(6, 3, {}).max_abs(), 4, 1e-9)
    assert float_zero(1e300, 1e80, 4, 1e-9)  # the cutoff 1e-9 * 1e320 exceeds every float
    assert not float_zero(1e306, 1e78, 4, 1e-9)  # s^4 = 1e312 overflows, the cutoff does not


@pytest.mark.parametrize("dim, degree, coeffs, orbit, value", (
    (4, 2, {"1,2": 1e155, "3,4": 1e153}, "case3_nondegenerate", 1e308),
    (6, 3, {"1,2,3": 1e78, "4,5,6": 1e75}, "case1_positive", 1e306)))
def test_forms_whose_s_to_the_k_overflows_keep_their_orbits(tmp_path, capsys, dim, degree,
                                                             coeffs, orbit, value):
    # s^k passes the float range while inv(x) does not, and inv(x / s) is 1e-2 or 1e-6:
    # the cutoff tol * s^k raised "too large" (exit 1)
    path = tmp_path / "x.json"
    path.write_text(json.dumps({"dim": dim, "degree": degree, "scalar": "float",
                                "coeffs": coeffs}))
    assert main(["classify", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["real_orbit"], doc["delta"]) == (orbit, value)


def test_cone_law_up_to_the_float_range():
    # Pf(t * x) = 0.01 t^2 stays finite up to t = 1e155, past the t = 1e154.5 where s^2 overflows
    x = AlternatingForm(4, 2, {(1, 2): 1.0, (3, 4): 0.01})
    orbits = {classify_real(x.scale(t)).real_orbit for t in (1e-150, 1e-6, 1.0, 1e150, 1e155)}
    assert orbits == {"case3_nondegenerate"}
