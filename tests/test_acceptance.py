"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with -s to see the per-criterion lines; every stated tolerance and
runtime budget is asserted here, nothing is deferred.
"""

import itertools
import json
import math
import random
import time
from fractions import Fraction

import numpy as np

from altforms import cayley_dickson as cd
from altforms import linalg, serialize
from altforms import search as S
from altforms.cli import main as cli_main
from altforms.invariants import (delta_case1, delta_case1_explicit, delta_case2,
                                 pfaffian, q_case2, s_case1)
from altforms.multilinear import AlternatingForm, all_keys, evaluate, gl_action
from altforms.orbits import classify_real
from altforms.perturb import (PartialTarget, constrained_keys, extend_case1,
                              extend_case2, extend_case3)
from altforms.representatives import make_rep, stabilizer_witness_case1
from altforms.scalars import QuadExt
from altforms.stabilizers import (fixed_space, h1_case1, join, stab_lie_algebra,
                                  subalgebra_closed, t_case1, u1_case1, u2_case1,
                                  span_dim)

PASS_LINES = []


def report(num, label, t0, budget=None):
    dt = time.time() - t0
    line = f"[criterion {num}] PASS ({dt:.2f}s): {label}"
    PASS_LINES.append(line)
    print(line)
    if budget is not None:
        assert dt < budget, f"criterion {num} exceeded its {budget}s budget ({dt:.2f}s)"


def rand_form(rng, dim, degree, span=5, density=1.0):
    coeffs = {}
    for key in all_keys(dim, degree):
        if rng.random() <= density:
            v = rng.randint(-span, span)
            if v:
                coeffs[key] = Fraction(v)
    return AlternatingForm(dim, degree, coeffs)


def rand_invertible(rng, n, span=2):
    while True:
        g = [[Fraction(rng.randint(-span, span)) for _ in range(n)] for _ in range(n)]
        if linalg.mat_det(g) != 0:
            return g


def test_criterion_1_golden_invariants_exact():
    t0 = time.time()
    # dim-7 quadratic covariants, coefficient for coefficient
    gram = q_case2(make_rep("case2_w"))
    expected = [[Fraction(0)] * 7 for _ in range(7)]
    expected[0][0] = Fraction(-6)
    for i, j in ((1, 4), (2, 5), (3, 6)):
        expected[i][j] = expected[j][i] = Fraction(3)
    assert gram == expected

    gramp = q_case2(make_rep("case2_wprime"))
    expectedp = [[Fraction(0)] * 7 for _ in range(7)]
    expectedp[0][3] = expectedp[3][0] = Fraction(-3)
    expectedp[1][2] = expectedp[2][1] = Fraction(3)
    assert gramp == expectedp

    # dim-6 quartic invariant values
    assert delta_case1(make_rep("case1_w")) == 1
    assert delta_case1(make_rep("case1_w1")) == -64
    for d in (-1, 2, 3, 5):
        assert delta_case1(make_rep("case1_walpha", d=d)) == 64 * d

    # dim-7 degree-7 invariant values
    assert delta_case2(make_rep("case2_w")) == (Fraction(6), True)
    assert delta_case2(make_rep("case2_w1")) == (Fraction(2 ** 9 * 6), True)

    # split-octonion trilinear form, all 35 coefficients
    cform = cd.c_form(cd.split_octonions())
    half = Fraction(1, 2)
    want = {(2, 3, 4): half, (5, 6, 7): half, (1, 2, 5): half,
            (1, 3, 6): half, (1, 4, 7): half}
    for key in all_keys(7, 3):
        assert cform.coeffs.get(key, Fraction(0)) == want.get(key, Fraction(0))
    report(1, "golden invariants exact", t0, budget=5.0)


def test_criterion_2_defining_identity_cross_check():
    t0 = time.time()
    rng = random.Random(1002)
    for _ in range(100):
        x = rand_form(rng, 6, 3, span=5)
        d = delta_case1_explicit(x)
        S_x = s_case1(x)
        S2 = linalg.mat_mul(S_x, S_x)
        for i in range(6):
            for j in range(6):
                assert S2[i][j] == (d if i == j else 0)
    report(2, "S_x^2 = delta(x) I on 100 random rational forms", t0, budget=30.0)


def test_criterion_3_covariance_laws():
    t0 = time.time()
    rng = random.Random(1003)
    for _ in range(50):
        x = rand_form(rng, 6, 3, span=3, density=0.6)
        g = rand_invertible(rng, 6)
        assert delta_case1(gl_action(g, x)) == linalg.mat_det(g) ** 2 * delta_case1(x)

        x7 = rand_form(rng, 7, 3, span=2, density=0.4)
        g7 = rand_invertible(rng, 7)
        t = Fraction(rng.choice([1, -1, 2, 3]))
        lhs = q_case2(gl_action(g7, x7).scale(t))
        G = q_case2(x7)
        c = t ** 3 * linalg.mat_det(g7)
        rhs = [[c * v for v in row]
               for row in linalg.mat_mul(linalg.mat_mul(g7, G), linalg.transpose(g7))]
        assert lhs == rhs

        n = rng.choice([2, 3])
        x2 = rand_form(rng, 2 * n, 2, span=3)
        g2 = rand_invertible(rng, 2 * n)
        assert pfaffian(gl_action(g2, x2)) == linalg.mat_det(g2) * pfaffian(x2)
    report(3, "covariance laws exact on 50 random group elements", t0)


def test_criterion_4_lie_theoretic_dimensions():
    t0 = time.time()
    L1 = stab_lie_algebra(make_rep("case1_w"))
    L2 = stab_lie_algebra(make_rep("case2_w"))
    L3 = stab_lie_algebra(make_rep("case3_w", n=2))
    assert (L1.dim, L2.dim, L3.dim) == (16, 14, 10)

    assert len(fixed_space(L1, (6, 3))) == 2
    assert len(fixed_space(L2, (7, 3))) == 1
    assert len(fixed_space(L3, (4, 2))) == 1

    h1, u1, u2, t = h1_case1(), u1_case1(), u2_case1(), t_case1()
    assert (h1.dim, u1.dim, u2.dim, t.dim) == (16, 9, 9, 1)
    assert span_dim([h1, u1, u2, t]) == 35

    ok3, _ = subalgebra_closed(join(h1, u1))
    ok4, _ = subalgebra_closed(join(h1, u2))
    bad, _ = subalgebra_closed(join(h1, u1, u2))
    assert ok3 and ok4 and not bad
    report(4, "stabilizer/fixed dims 16-14-10 / 2-1-1, 16+9+9+1=35, closures", t0,
           budget=60.0)


def test_criterion_5_normed_algebra_suite():
    t0 = time.time()
    rng = random.Random(1005)
    algebras = {
        "quaternions": cd.quaternions(),
        "octonions": cd.octonions(),
        "split octonions": cd.split_octonions(),
        "reconstructed split": cd.octonion_from_form(make_rep("case2_w")),
        "reconstructed definite": cd.octonion_from_form(make_rep("case2_w1")),
    }
    for name, A in algebras.items():
        for _ in range(1000):
            u = A.element([Fraction(rng.randint(-3, 3)) for _ in range(A.dim)])
            v = A.element([Fraction(rng.randint(-3, 3)) for _ in range(A.dim)])
            assert (u * v).norm() == u.norm() * v.norm(), name
        for _ in range(100):
            u = A.element([Fraction(rng.randint(-3, 3)) for _ in range(A.dim)])
            v = A.element([Fraction(rng.randint(-3, 3)) for _ in range(A.dim)])
            assert (u * v).conj().coords == (v.conj() * u.conj()).coords
            assert u.inner(v) == (u * v.conj()).re()
            assert (u * u.conj()).coords == tuple(u.norm() * c for c in A.one.coords)

    # associator: alternating in both octonion models, identically zero in H
    H = cd.quaternions()
    for i, j, k in itertools.product(range(4), repeat=3):
        assert all(c == 0 for c in
                   H.basis_element(i).associator(H.basis_element(j), H.basis_element(k)).coords)
    for A in (cd.split_octonions(), cd.octonions()):
        seen_nonzero = False
        for _ in range(100):
            x, y, z = (A.element([Fraction(rng.randint(-2, 2)) for _ in range(8)])
                       for _ in range(3))
            a = x.associator(y, z).coords
            if any(c != 0 for c in a):
                seen_nonzero = True
            assert y.associator(x, z).coords == tuple(-c for c in a)
            assert x.associator(z, y).coords == tuple(-c for c in a)
        assert seen_nonzero

    assert algebras["reconstructed split"] == algebras["split octonions"]
    assert linalg.congruent_signature(algebras["reconstructed definite"].gram) == (8, 0, 0)
    report(5, "normed-algebra suite (1000 pairs x 5 algebras, exact)", t0)


def test_criterion_6_stabilizer_rationality():
    t0 = time.time()
    rng = random.Random(1006)
    wa = make_rep("case1_walpha", d=2)
    for _ in range(20):
        A = linalg.identity(3)
        A = [[QuadExt(v, 0, 2) for v in row] for row in A]
        for _ in range(4):
            i, j = rng.sample(range(3), 2)
            E = [[QuadExt(1 if a == b else 0, 0, 2) for b in range(3)] for a in range(3)]
            E[i][j] = QuadExt(Fraction(rng.randint(-2, 2)),
                              Fraction(rng.randint(-2, 2)), 2)
            A = linalg.mat_mul(A, E)
        out = stabilizer_witness_case1(A, 2)
        assert all(isinstance(v, Fraction) for row in out for v in row)
        assert gl_action(out, wa) == wa
    report(6, "20 unimodular quadratic-extension witnesses: rational and fixing", t0)


def test_criterion_7_perturbation():
    t0 = time.time()
    rng = random.Random(1007)
    for eps in (0.1, 0.01):
        for i in range(50):
            y1 = PartialTarget(1, {k: rng.uniform(-1, 1) for k in constrained_keys(1)})
            sign, orbit = ("+", "case1_positive") if i % 2 == 0 else ("-", "case1_negative")
            cert = extend_case1(y1, eps, sign)
            assert cert.deviation < eps
            assert classify_real(cert.form).real_orbit == orbit

            y2 = PartialTarget(2, {k: rng.uniform(-1, 1) for k in constrained_keys(2)})
            cert = extend_case2(y2, eps)
            assert cert.deviation < eps
            assert classify_real(cert.form).real_orbit == "case2_split"

            n = 2 if i % 2 == 0 else 3
            y3 = PartialTarget(3, {k: rng.uniform(-1, 1) for k in constrained_keys(3, n)}, n=n)
            cert = extend_case3(y3, eps, n=n)
            assert cert.deviation < eps
            assert classify_real(cert.form).real_orbit == "case3_nondegenerate"
    report(7, "perturbation certificates: 100 targets/case at eps 0.1 and 0.01", t0,
           budget=60.0)


def _restriction_target(x, h):
    case = 1 if (x.dim, x.degree) == (6, 3) else 3
    n = x.dim // 2 if case == 3 else None
    vals = {}
    for k in constrained_keys(case, n):
        cols = [list(map(float, h[:, i - 1])) for i in k]
        vals[k] = float(evaluate(x, *cols))
    return PartialTarget(case, vals, n=n)


def test_criterion_8a_plant_and_recover():
    t0 = time.time()
    rng = random.Random(1008)
    for name, kwargs, n in (("case1_w", {}, 6), ("case3_w", {"n": 2}, 4)):
        x = make_rep(name, **kwargs).as_float()
        moves = S.generator_moves(n)
        for _ in range(20):
            h = np.eye(n, dtype=np.int64)
            for _ in range(rng.randint(1, 4)):
                h = h @ moves[rng.randrange(len(moves))]
            y = _restriction_target(x, h)
            run_start = time.time()
            res = S.approximate(x, y, S.SearchConfig(beam_width=64, max_depth=6, seed=7))
            assert time.time() - run_start < 60.0
            assert res.candidate.objective < 1e-9
    report("8a", "plant-and-recover: 20 words each in the 6- and 4-dim groups (seed 7)", t0)


def test_criterion_8b_monotone_trace():
    t0 = time.time()
    x = make_rep("case3_w", n=2).as_float()
    rng = random.Random(1009)
    for _ in range(5):
        y = PartialTarget(3, {k: rng.uniform(-1, 1) for k in constrained_keys(3, 2)}, n=2)
        res = S.approximate(x, y, S.SearchConfig(beam_width=32, max_depth=6, epsilon=1e-12))
        assert all(a >= b for a, b in zip(res.trace, res.trace[1:]))
    report("8b", "best-so-far trace is non-increasing", t0)


def test_criterion_8c_stabilizer_flatness():
    t0 = time.time()
    x = make_rep("case3_w", n=2).as_float()
    rng = random.Random(1010)
    y = PartialTarget(3, {k: rng.uniform(-1, 1) for k in constrained_keys(3, 2)}, n=2)
    res = S.approximate(x, y, S.SearchConfig(beam_width=32, max_depth=5, epsilon=1e-12))
    incumbent = res.candidate.h.astype(float)
    base = S.objective_matrix(x, y, incumbent)
    L = stab_lie_algebra(x)
    step = 1e-6
    for X in L.basis:
        Xt = np.array([[float(X[j][i]) for j in range(4)] for i in range(4)])
        flow = np.eye(4) + step * Xt + 0.5 * step * step * (Xt @ Xt)
        moved = S.objective_matrix(x, y, flow @ incumbent)
        assert abs(moved - base) / step < 1e-6
    report("8c", "objective flat along stabilizer directions at the incumbent", t0)


def test_criterion_8d_depth_improves_heuristic_irrational_instance():
    t0 = time.time()
    x = AlternatingForm(4, 2, {
        (1, 2): math.sqrt(2), (1, 3): math.pi / 3.0, (1, 4): math.e / 4.0,
        (2, 3): math.sqrt(5) / 2.0, (2, 4): 0.25 + math.sqrt(3), (3, 4): 1.0})
    hyp = S.hypothesis_check(x, max_den=1000, tol=1e-12)
    assert hyp["verdict"] == "pass"
    rng = random.Random(1011)
    improved = 0
    for _ in range(50):
        y = PartialTarget(3, {k: rng.uniform(-1, 1) for k in constrained_keys(3, 2)}, n=2)
        res = S.approximate(x, y, S.SearchConfig(beam_width=256, max_depth=8, epsilon=1e-12))
        if res.trace[-1] < res.trace[0]:
            improved += 1
    assert improved >= 45
    report("8d", f"depth-8 beats depth-0 on {improved}/50 random targets", t0)


def test_criterion_8e_serial_parallel_identical(tmp_path, capsys):
    t0 = time.time()
    x = AlternatingForm(4, 2, {
        (1, 2): math.sqrt(2), (1, 3): math.pi / 3.0, (1, 4): math.e / 4.0,
        (2, 3): math.sqrt(5) / 2.0, (2, 4): 0.25 + math.sqrt(3), (3, 4): 1.0})
    y = PartialTarget(3, {(1, 2): 0.4, (1, 3): -0.2, (2, 3): 0.9}, n=2)
    cfg = S.SearchConfig(beam_width=128, max_depth=7)
    first, second = S.approximate(x, y, cfg), S.approximate(x, y, cfg)
    assert first.candidate.word == second.candidate.word
    assert first.candidate.objective == second.candidate.objective
    assert np.array_equal(first.candidate.h, second.candidate.h)
    assert first.trace == second.trace
    # the CLI accepts --threads and ignores it: the same bytes with and without the flag
    xpath, ypath = tmp_path / "x.json", tmp_path / "y.json"
    xpath.write_text(json.dumps(serialize.form_to_dict(x)))
    ypath.write_text(json.dumps(serialize.target_to_dict(y)))
    argv = ["approximate", str(xpath), str(ypath), "--beam", "128", "--depth", "7"]
    outs = []
    for extra in ([], ["--threads", "4"]):
        assert cli_main(argv + extra) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    with capsys.disabled():
        report("8e", "repeated runs agree bit for bit; --threads 4 changes no output byte", t0)


def test_criterion_9_verify_command(capsys):
    t0 = time.time()
    code = cli_main(["verify"])
    out = capsys.readouterr().out
    assert code == 0
    import json
    doc = json.loads(out)
    assert doc["all_pass"] is True
    assert all(row["pass"] for row in doc["rows"])
    with capsys.disabled():
        report(9, "verify command exits 0 with every golden row passing", t0)
