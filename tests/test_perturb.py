import itertools
import random

import pytest

from altforms.orbits import classify_real
from altforms.perturb import (PartialTarget, constrained_keys, discriminant_case1,
                              extend_case1, extend_case2, extend_case3, f1_case1,
                              f3_case2, fit_discriminant_case1)


def zero_target(case, n=None):
    return PartialTarget(case, {k: 0.0 for k in constrained_keys(case, n)}, n=n)


def rand_target(rng, case, n=None, span=1.0):
    return PartialTarget(case, {k: rng.uniform(-span, span)
                                for k in constrained_keys(case, n)}, n=n)


def test_partial_target_validates_index_set():
    with pytest.raises(ValueError):
        PartialTarget(1, {(1, 2, 3): 0.0})
    with pytest.raises(ValueError):
        PartialTarget(3, {(1, 2): 0.0}, n=2)
    t = zero_target(1)
    assert len(t.values) == 10
    assert len(zero_target(2).values) == 20
    assert len(zero_target(3, n=2).values) == 3


def test_case1_trivial_target_positive():
    vals = {k: 0.0 for k in constrained_keys(1)}
    vals[(1, 2, 3)] = 1.0
    cert = extend_case1(PartialTarget(1, vals), 0.5, "+")
    assert cert.deviation == 0.0
    assert cert.orbit.real_orbit == "case1_positive"
    assert cert.auxiliaries["delta"] > 0


def test_case1_zero_target_both_signs():
    for sign, orbit in (("+", "case1_positive"), ("-", "case1_negative")):
        cert = extend_case1(zero_target(1), 0.1, sign)
        assert cert.deviation < 0.1
        assert cert.orbit.real_orbit == orbit


def test_case1_negative_certificate_fields():
    rng = random.Random(61)
    cert = extend_case1(rand_target(rng, 1), 0.1, "-")
    aux = cert.auxiliaries
    assert aux["discriminant"] > 0
    assert aux["delta"] < 0
    assert abs(aux["f1"]) > 0


def test_probe_fit_matches_closed_form_and_bilinearity():
    rng = random.Random(62)
    for _ in range(25):
        z = {k: rng.uniform(-2, 2) for k in constrained_keys(1)}
        f1, f2, f3, f4 = fit_discriminant_case1(z)
        assert abs(f1 - f1_case1(z)) <= 1e-9 * max(1.0, abs(f1))
        # the model reproduces the discriminant at a fifth probe point
        zz = dict(z)
        zz[(1, 5, 6)] = 1.7
        zz[(2, 4, 6)] = -0.3
        pred = f1 * 1.7 * (-0.3) + f2 * 1.7 + f3 * (-0.3) + f4
        assert abs(pred - discriminant_case1(zz)) <= 1e-6 * max(1.0, abs(pred))


def test_case1_random_targets():
    rng = random.Random(63)
    for eps in (0.1, 0.01):
        for _ in range(15):
            y = rand_target(rng, 1)
            for sign, orbit in (("+", "case1_positive"), ("-", "case1_negative")):
                cert = extend_case1(y, eps, sign)
                assert cert.deviation < eps
                assert cert.orbit.real_orbit == orbit


def test_case1_validates_epsilon_and_sign():
    with pytest.raises(ValueError):
        extend_case1(zero_target(1), 0.0, "+")
    with pytest.raises(ValueError):
        extend_case1(zero_target(1), 0.1, "x")


@pytest.mark.parametrize("key", constrained_keys(1), ids=lambda k: "".join(map(str, k)))
def test_case1_one_entry_targets_land_on_the_requested_orbit_or_raise(key):
    # a degenerate certificate came back for some of them, reported as a completion
    for value, eps, sign in itertools.product((1.0, -1.0, 0.5), (0.1, 0.01), "+-"):
        y = PartialTarget(1, {**zero_target(1).values, key: value})
        want = "case1_positive" if sign == "+" else "case1_negative"
        try:
            cert = extend_case1(y, eps, sign)
        except ArithmeticError:
            assert sign == "-"  # the + construction completes every one of them
            continue
        assert cert.deviation < eps
        assert cert.orbit.real_orbit == classify_real(cert.form).real_orbit == want


def test_case2_zero_and_random_targets():
    rng = random.Random(64)
    cert = extend_case2(zero_target(2), 0.1)
    assert cert.deviation < 0.1
    assert cert.orbit.real_orbit == "case2_split"
    for eps in (0.1, 0.01):
        for _ in range(15):
            cert = extend_case2(rand_target(rng, 2), eps)
            assert cert.deviation < eps
            assert cert.orbit.real_orbit == "case2_split"


def test_case2_sign_structure():
    rng = random.Random(65)
    cert = extend_case2(rand_target(rng, 2), 0.1)
    aux = cert.auxiliaries
    z = cert.form.coeffs
    assert aux["f1"] > 0 and aux["f2"] < 0
    prod = z.get((1, 2, 7), 0.0) * z.get((3, 4, 7), 0.0) * z.get((5, 6, 7), 0.0)
    assert abs(aux["f2"] - 6.0 * prod) <= 1e-6 * max(1.0, abs(aux["f2"]))
    assert abs(f3_case2({k: v for k, v in z.items()}) - aux["f3"]) < 1e-9


def test_case2_auxiliaries_read_off_the_certified_form():
    from altforms.invariants import q_case2
    rng = random.Random(66)
    for target in (zero_target(2), rand_target(rng, 2), rand_target(rng, 2, span=3.0)):
        cert = extend_case2(target, 0.05)
        gram, aux = q_case2(cert.form), cert.auxiliaries
        assert (aux["f1"], aux["f2"]) == (float(gram[0][0]), float(gram[6][6]))
        assert aux["f3"] == f3_case2(cert.form.coeffs)
        assert aux["delta"] == cert.orbit.delta


def test_case2_target_restriction_of_split_rep():
    from altforms.representatives import make_rep
    w = make_rep("case2_w")
    vals = {k: float(w.coeffs.get(k, 0)) for k in constrained_keys(2)}
    cert = extend_case2(PartialTarget(2, vals), 0.5)
    assert cert.deviation < 0.5
    assert cert.orbit.real_orbit == "case2_split"


@pytest.mark.parametrize("key, value, eps", (((1, 2, 4), 2.0, 0.1), ((1, 3, 5), 2.0, 0.01),
                                             ((1, 4, 5), 1.0, 0.01), ((4, 5, 6), 2.0, 0.1)))
def test_case2_certificates_clear_the_cutoff_on_bryants_b(key, value, eps):
    # one-entry targets whose case2_split certificates had a B_x = Q_x / 6 within
    # 1e-9 * s^3 of singular: the Q_x cutoff was 6 times looser than the same rule on B_x;
    # each now certifies a form clear of that cutoff (23 others of the 33 now exit 1)
    import numpy as np
    from altforms.invariants import q_case2
    y = {k: (value if k == key else 0.0) for k in constrained_keys(2)}
    x = extend_case2(y, eps).form
    eig = np.linalg.eigvalsh(np.array(q_case2(x), dtype=float)) / 6
    assert np.abs(eig).min() > 1e-9 * x.max_abs() ** 3
    assert eig.min() < 0 < eig.max()


def test_case3_trivial_and_zero():
    vals = {k: 0.0 for k in constrained_keys(3, 2)}
    vals[(1, 2)] = 1.0
    cert = extend_case3(PartialTarget(3, vals, n=2), 0.1)
    assert cert.deviation == 0.0
    assert cert.orbit.real_orbit == "case3_nondegenerate"

    cert = extend_case3(zero_target(3, n=2), 0.1, n=2)
    assert cert.deviation < 0.1
    assert abs(cert.auxiliaries["pfaffian"]) > 0


def test_case3_random_targets():
    rng = random.Random(66)
    for n in (2, 3):
        for eps in (0.1, 0.01):
            for _ in range(10):
                cert = extend_case3(rand_target(rng, 3, n=n), eps, n=n)
                assert cert.deviation < eps
                assert cert.orbit.real_orbit == "case3_nondegenerate"


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_case3_zero_target(n):
    # the free column alone cannot help: the constrained block needs rank 2n-2
    cert = extend_case3(zero_target(3, n=n), 0.1)
    assert cert.deviation < 0.1
    assert cert.orbit.real_orbit == "case3_nondegenerate"
    assert abs(cert.auxiliaries["pfaffian"]) > 1e-9


def test_case3_rank_two_target():
    rng = random.Random(68)
    n = 5
    u = [rng.uniform(-1, 1) for _ in range(2 * n - 1)]
    v = [rng.uniform(-1, 1) for _ in range(2 * n - 1)]
    y = PartialTarget(3, {(i, j): u[i - 1] * v[j - 1] - u[j - 1] * v[i - 1]
                          for i, j in constrained_keys(3, n)}, n=n)
    cert = extend_case3(y, 0.1)
    assert cert.deviation < 0.1
    assert cert.orbit.real_orbit == "case3_nondegenerate"


def test_case3_rejects_a_different_n():
    with pytest.raises(ValueError, match="target is for n = 2, not n = 7"):
        extend_case3(zero_target(3, n=2), 0.1, n=7)
    assert extend_case3(zero_target(3, n=2), 0.1, n=2).deviation < 0.1


def test_case3_keeps_trivial_completion():
    rng = random.Random(67)
    y = rand_target(rng, 3, n=2)
    cert = extend_case3(y, 0.1, n=2)
    if cert.deviation == 0.0:
        for k, v in y.values.items():
            assert cert.form.coeffs.get(k, 0.0) == v


def test_covariant_corner_entries_match_combinatorial_sums():
    # the (1,1) and (7,7) gram entries of the quadratic covariant equal the
    # signed sums over index partitions used by the perturbation strategy
    import itertools
    import random as _random
    from fractions import Fraction
    from altforms.invariants import q_case2
    from altforms.multilinear import AlternatingForm, all_keys, sort_sign

    def corner(z, anchor):
        pool = tuple(m for m in range(1, 8) if m != anchor)
        total = Fraction(0)
        pairs = list(itertools.combinations(pool, 2))
        for p1 in pairs:
            r1 = [m for m in pool if m not in p1]
            for p2 in itertools.combinations(r1, 2):
                p3 = tuple(m for m in r1 if m not in p2)
                _, s = sort_sign(p1 + p2 + p3)
                total += s * _get(z, anchor, p1) * _get(z, anchor, p2) * _get(z, anchor, p3)
        return total

    def _get(z, anchor, pair):
        return z.get(tuple(sorted((anchor,) + pair)), Fraction(0))

    rng = _random.Random(68)
    for _ in range(10):
        z = {k: Fraction(rng.randint(-3, 3)) for k in all_keys(7, 3)}
        gram = q_case2(AlternatingForm(7, 3, {k: v for k, v in z.items() if v}))
        assert gram[0][0] == corner(z, 1)
        assert gram[6][6] == corner(z, 7)
