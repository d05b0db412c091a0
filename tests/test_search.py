import math
import random
import tracemalloc

import numpy as np
import pytest

from altforms import search as S
from altforms.multilinear import AlternatingForm, all_keys, evaluate
from altforms.perturb import PartialTarget, constrained_keys
from altforms.representatives import make_rep
from altforms.stabilizers import stab_lie_algebra


def restriction_target(x, h=None):
    case = 1 if (x.dim, x.degree) == (6, 3) else 2 if (x.dim, x.degree) == (7, 3) else 3
    n = x.dim // 2 if case == 3 else None
    keys = constrained_keys(case, n)
    if h is None:
        h = np.eye(x.dim)
    vals = {}
    for k in keys:
        cols = [list(map(float, h[:, i - 1])) for i in k]
        vals[k] = float(evaluate(x, *cols))
    return PartialTarget(case, vals, n=n)


IRRATIONAL_X4 = AlternatingForm(4, 2, {
    (1, 2): math.sqrt(2), (1, 3): math.pi / 3.0, (1, 4): math.e / 4.0,
    (2, 3): math.sqrt(5) / 2.0, (2, 4): 0.25 + math.sqrt(3), (3, 4): 1.0})


def test_objective_trivials():
    x = make_rep("case1_w").as_float()
    y = restriction_target(x)
    assert S.objective(x, y, np.eye(6, dtype=np.int64)) == 0.0
    zero = PartialTarget(1, {k: 0.0 for k in constrained_keys(1)})
    assert S.objective(x, zero, np.eye(6, dtype=np.int64)) == 1.0


def test_objective_rejects_non_unimodular():
    x = make_rep("case1_w").as_float()
    y = restriction_target(x)
    with pytest.raises(ValueError):
        S.objective(x, y, 2 * np.eye(6, dtype=np.int64))


def test_objective_planted_zero():
    x = make_rep("case1_w").as_float()
    moves = S.generator_moves(6)
    h = np.eye(6, dtype=np.int64) @ moves[0] @ moves[13]
    y = restriction_target(x, h)
    assert S.objective(x, y, h) == 0.0


def test_approximate_trivial_target():
    x = make_rep("case1_w").as_float()
    y = restriction_target(x)
    res = S.approximate(x, y, S.SearchConfig(beam_width=8, max_depth=2))
    assert res.success
    assert res.candidate.objective == 0.0
    assert res.candidate.word == ()


def test_plant_and_recover():
    rng = random.Random(71)
    for case, name, kwargs, n in ((1, "case1_w", {}, 6), (3, "case3_w", {"n": 2}, 4)):
        x = make_rep(name, **kwargs).as_float()
        moves = S.generator_moves(n)
        for trial in range(5):
            h = np.eye(n, dtype=np.int64)
            for _ in range(rng.randint(1, 4)):
                h = h @ moves[rng.randrange(len(moves))]
            y = restriction_target(x, h)
            res = S.approximate(x, y, S.SearchConfig(beam_width=64, max_depth=6))
            assert res.candidate.objective < 1e-9
            assert res.success


def test_trace_is_monotone_and_reproducible():
    y = {(1, 2): 0.3, (1, 3): -0.7, (2, 3): 0.11}
    cfg = S.SearchConfig(beam_width=32, max_depth=5)
    r1 = S.approximate(IRRATIONAL_X4, y, cfg)
    r2 = S.approximate(IRRATIONAL_X4, y, cfg)
    assert all(a >= b for a, b in zip(r1.trace, r1.trace[1:]))
    assert r1.candidate.word == r2.candidate.word
    assert r1.trace == r2.trace


def test_repeat_runs_agree_bit_for_bit():
    y = {(1, 2): 0.3, (1, 3): -0.7, (2, 3): 0.11}
    cfg = S.SearchConfig(beam_width=64, max_depth=6)
    r1 = S.approximate(IRRATIONAL_X4, y, cfg)
    r2 = S.approximate(IRRATIONAL_X4, y, cfg)
    assert r1.candidate.word == r2.candidate.word
    assert r1.candidate.objective == r2.candidate.objective
    assert np.array_equal(r1.candidate.h, r2.candidate.h)
    assert r1.trace == r2.trace


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_target_values_are_rejected(bad):
    # a NaN target used to trip the monotone-trace check, an inf one to run the whole search
    # and return objective inf
    y = {(1, 2): 0.5, (1, 3): bad, (2, 3): 1.0}
    message = f"non-finite target value {bad!r} at '1,3'"
    for target in (y, PartialTarget(3, y, n=2)):
        with pytest.raises(ValueError, match=message):
            S.approximate(IRRATIONAL_X4, target, S.SearchConfig(beam_width=4, max_depth=2))
        with pytest.raises(ValueError, match=message):
            S.deviations(IRRATIONAL_X4, target, np.eye(4))
    y7 = {k: 0.1 for k in constrained_keys(2)}
    y7[(1, 2, 7)] = bad  # not in the constrained set: never read
    x7 = make_rep("case2_w").as_float()
    assert S.approximate(x7, y7, S.SearchConfig(beam_width=2, max_depth=1)).trace[0] < math.inf


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_coefficients_are_rejected(bad):
    # a NaN coefficient used to trip the monotone-trace check, which names no input
    sparse = AlternatingForm(4, 2, {(1, 2): bad, (3, 4): 1.0})
    forms = [(sparse, (1, 2))]
    for x in (IRRATIONAL_X4, make_rep("case1_w").as_float(), make_rep("case2_w").as_float()):
        key = sorted(x.coeffs)[-1]
        forms.append((AlternatingForm(x.dim, x.degree, {**x.coeffs, key: bad}), key))
    for x, key in forms:
        case = {4: 3, 6: 1, 7: 2}[x.dim]
        y = {k: 0.5 for k in constrained_keys(case, 2 if case == 3 else None)}
        message = f"non-finite coefficient {bad!r} at {','.join(map(str, key))!r}"
        for both in (False, True):
            with pytest.raises(ValueError) as err:
                S.approximate(x, y, S.SearchConfig(beam_width=4, max_depth=2, both_sides=both))
            assert str(err.value) == message


def test_an_overflowing_form_is_rejected_before_the_search(tmp_path, capsys):
    # the search ran every depth with numpy overflow warnings and returned objective 1e308;
    # the CLI exited 1 only after it, from hypothesis_check
    import json
    import warnings
    from altforms.cli import main
    from altforms.serialize import form_to_dict
    x = AlternatingForm(4, 2, {(1, 2): 1e308, (3, 4): 1e308, (1, 3): 0.5})
    y = {(1, 2): 0.5, (1, 3): 0.0, (2, 3): 1.0}
    message = "coefficients too large: sum |c| * 2^53 overflows"
    xpath, ypath = tmp_path / "x.json", tmp_path / "y.json"
    xpath.write_text(json.dumps(form_to_dict(x)))
    ypath.write_text(json.dumps({"case": 3, "n": 2, "values": {"1,2": 0.5, "1,3": 0.0,
                                                               "2,3": 1.0}}))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError) as err:
            S.approximate(x, y, S.SearchConfig(beam_width=4, max_depth=3))
        assert str(err.value) == message
        code = main(["approximate", str(xpath), str(ypath), "--beam", "4", "--depth", "3"])
    out = capsys.readouterr()
    assert (code, out.out, out.err) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("both_sides, bound", ((False, 3.5e6), (True, 4.2e6)))
def test_search_memory_is_bounded(both_sides, bound):
    # the traced peak of a dense dim-7 search, beam 128 and depth 4: 2.98 MB plain and
    # 3.63 MB with left moves, where int64 minors copied to float at each depth and
    # unchunked scoring buffers took 5.46 and 14.37 MB; numpy reports its buffers to
    # tracemalloc, so the figures do not depend on the host
    rng = random.Random(82)
    x = AlternatingForm(7, 3, {k: rng.uniform(-1, 1) for k in all_keys(7, 3)})
    y = {k: rng.uniform(-1, 1) for k in constrained_keys(2)}
    config = S.SearchConfig(beam_width=128, max_depth=4, epsilon=1e-12, seed=2,
                            both_sides=both_sides)
    S.approximate(x, y, config)  # the move tables are cached from here on
    tracemalloc.start()
    try:
        S.approximate(x, y, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound


def test_candidate_determinant_maintained():
    y = {(1, 2): 0.5, (1, 3): 0.5, (2, 3): 0.5}
    res = S.approximate(IRRATIONAL_X4, y, S.SearchConfig(beam_width=16, max_depth=6))
    h = [[int(v) for v in row] for row in res.candidate.h]
    from fractions import Fraction
    from altforms import linalg
    assert linalg.mat_det([[Fraction(v) for v in row] for row in h]) == 1


def test_deviations_and_objective_matrix_match_an_evaluate_loop():
    rng = random.Random(23)
    for dim, degree, case in ((4, 2, 3), (6, 3, 1), (7, 3, 2)):
        n = dim // 2 if case == 3 else None
        keys = constrained_keys(case, n)
        for _ in range(5):
            x = AlternatingForm(dim, degree, {k: rng.uniform(-1, 1) for k in all_keys(dim, degree)})
            y = PartialTarget(case, {k: rng.uniform(-1, 1) for k in keys}, n=n)
            h = np.array([[rng.uniform(-2, 2) for _ in range(dim)] for _ in range(dim)])
            expected = {}
            for k in keys:
                value = evaluate(x, *(h[:, i - 1] for i in k))
                expected[",".join(map(str, k))] = abs(y.values[k] - value)
            devs = S.deviations(x, y, h)
            assert list(devs) == list(expected) and devs == expected
            assert S.objective_matrix(x, y, h) == max(expected.values())


def test_stabilizer_directions_leave_objective_flat():
    x = make_rep("case3_w", n=2).as_float()
    y = {k: 0.25 for k in constrained_keys(3, 2)}
    L = stab_lie_algebra(x)
    h0 = np.eye(4)
    moves = S.generator_moves(4)
    h0 = (np.eye(4, dtype=np.int64) @ moves[1] @ moves[5]).astype(float)
    base = S.objective_matrix(x, y, h0)
    for X in L.basis[:6]:
        Xt = np.array([[float(X[j][i]) for j in range(4)] for i in range(4)])
        t = 1e-6
        exptX = np.eye(4) + t * Xt + 0.5 * t * t * (Xt @ Xt)
        moved = S.objective_matrix(x, y, exptX @ h0)
        assert abs(moved - base) / t < 1e-6


def test_hypothesis_check_verdicts():
    warn1 = S.hypothesis_check(make_rep("case2_w1"))
    assert warn1["verdict"] == "warn"
    assert any("rank" in r for r in warn1["reasons"])

    warn2 = S.hypothesis_check(make_rep("case3_w", n=2))
    assert warn2["verdict"] == "warn"
    assert any("rational" in r for r in warn2["reasons"])

    ok = S.hypothesis_check(IRRATIONAL_X4, max_den=1000, tol=1e-12)
    assert ok["verdict"] == "pass"

    degenerate = AlternatingForm(6, 3, {(1, 2, 3): 1.0})
    assert S.hypothesis_check(degenerate)["verdict"] == "warn"


def test_dim7_float_paths_build_q_once(monkeypatch):
    # hypothesis_check classifies and flags a dim-7 form from one S_x; perturb case2
    # classifies its completion, and reads its delta, from the S_x it completed with
    from altforms import invariants, perturb
    from altforms.orbits import classify_real, irrationality_report
    calls = []
    s_case2 = invariants.s_case2
    monkeypatch.setattr(invariants, "s_case2", lambda x: calls.append(x) or s_case2(x))
    rng = random.Random(90)
    x = AlternatingForm(7, 3, {k: rng.uniform(-1, 1) for k in constrained_keys(2)})
    x = x + AlternatingForm(7, 3, {(1, 2, 7): 0.5, (3, 4, 7): 1.0, (5, 6, 7): -1.0})
    check = S.hypothesis_check(x)
    assert len(calls) == 1
    rep, irr = classify_real(x), irrationality_report(x)
    assert check["orbit"] == rep.real_orbit
    assert check["flags"]["Q"]["rational"] is irr.flags["Q"].rational
    calls.clear()
    y = {k: rng.uniform(-1, 1) for k in constrained_keys(2)}
    cert = perturb.extend_case2(y, 0.1)
    assert len(calls) == 1  # the completion, classified once
    assert cert.auxiliaries["delta"] == invariants.delta_case2(cert.form)[0] == cert.orbit.delta
    assert cert.orbit == classify_real(cert.form)


def test_depth_improves_objective_for_random_targets():
    rng = random.Random(72)
    improved = 0
    for _ in range(10):
        y = {k: rng.uniform(-1, 1) for k in constrained_keys(3, 2)}
        res = S.approximate(IRRATIONAL_X4, y,
                            S.SearchConfig(beam_width=64, max_depth=6, epsilon=1e-12))
        if res.trace[-1] < res.trace[0]:
            improved += 1
    assert improved >= 9


def test_project_target_via_orbit():
    x = make_rep("case1_w").as_float()
    y = PartialTarget(1, {k: 0.05 for k in constrained_keys(1)})
    target, cert = S.project_target_via_orbit(x, y, 0.02)
    assert cert.deviation < 0.02
    assert classify_orbit_of_target(target) == "case1_positive"


def classify_orbit_of_target(target):
    # completing the projected restriction again lands on the same orbit
    from altforms.perturb import extend_case1
    cert = extend_case1(target, 0.5, "+")
    return cert.orbit.real_orbit


def test_both_sides_search_also_recovers():
    x = make_rep("case1_w").as_float()
    moves = S.generator_moves(6)
    h = np.eye(6, dtype=np.int64) @ moves[3] @ moves[40]
    y = restriction_target(x, h)
    res = S.approximate(x, y, S.SearchConfig(beam_width=64, max_depth=6, both_sides=True))
    assert res.candidate.objective < 1e-9


def test_search_and_perturb_checks_run_under_python_O():
    # forced failures of the search and certificate checks must raise even
    # when asserts are stripped
    import os
    import subprocess
    import sys

    import altforms
    src = os.path.dirname(os.path.dirname(altforms.__file__))
    code = (
        "assert False, 'asserts are on'\n"
        "import altforms.perturb as P\n"
        "import altforms.search as S\n"
        "from altforms.representatives import make_rep\n"
        "class Stuck:\n"
        "    objective = float('inf')\n"
        "    def __init__(self, h, word, objective):\n"
        "        self.h, self.word = h, word\n"
        "y = {(1, 2): 0.3, (1, 3): -0.7, (2, 3): 0.11}\n"
        "y1 = {k: 0.1 for k in P.constrained_keys(1)}\n"
        "x = make_rep('case3_w', n=2).as_float()\n"
        "def search():\n"
        "    S.BasisCandidate = Stuck\n"
        "    S.approximate(x, y, S.SearchConfig(beam_width=4, max_depth=2))\n"
        "def growth():\n"
        "    P.GROWTH_CAP = 0.5\n"
        "    P.extend_case1(y1, 0.1, '+')\n"
        "def deviation():\n"
        "    P._deviation = lambda z, y: 1.0\n"
        "    P.extend_case3(P.PartialTarget(3, y, 2), 0.1)\n"
        "for f in (search, growth, deviation):\n"
        "    try:\n"
        "        f()\n"
        "    except ArithmeticError as exc:\n"
        "        print('raised', exc)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == [
        "raised best-so-far must be non-increasing",
        "raised z_456 reached 2^64 without the classifier finding case1_positive",
        "raised certificate deviation is not below eps"]
