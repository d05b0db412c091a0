"""Constructive perturbations: extend a partially specified real target to a
semistable point on a requested real orbit, with a verifiable certificate.

The free coordinates are the ones carrying the top index (6, 7, or 2n); the
constrained ones are everything below it.  "Large" values are produced by
geometric doubling capped at 2**64, and "generic" values by deterministic
nudges of eps/2 (halved per sweep) so that results are reproducible.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .invariants import delta_case1_explicit
from .multilinear import AlternatingForm, all_keys, sort_sign
from .orbits import classify_real

GROWTH_CAP = 2.0 ** 64


def constrained_keys(case, n=None):
    """The keys a partial target fixes: all keys of the form that avoid its top index."""
    if case in (1, 2):
        return all_keys(5 if case == 1 else 6, 3)
    if case == 3:
        if not n:
            raise ValueError("case 3 needs n")
        return all_keys(2 * n - 1, 2)
    raise ValueError(f"unknown case {case}")


@dataclass
class PartialTarget:
    """Real values on the constrained index set of one of the three cases."""

    case: int
    values: dict
    n: int = None

    def __post_init__(self):
        want = set(constrained_keys(self.case, self.n))
        got = {tuple(k) for k in self.values}
        if got != want:
            missing = sorted(want - got)[:3]
            extra = sorted(got - want)[:3]
            raise ValueError(f"target must carry exactly the constrained index set "
                             f"(missing {missing}, extra {extra})")
        self.values = {tuple(k): float(v) for k, v in self.values.items()}


@dataclass
class PerturbationCertificate:
    form: AlternatingForm
    deviation: float
    auxiliaries: dict = field(default_factory=dict)
    orbit: object = None


def _check(ok, message):
    """A certificate check that also runs under python -O."""
    if not ok:
        raise ArithmeticError(message)


def _positive(eps):
    if not eps > 0:  # NaN too
        raise ValueError("eps must be positive")


def _certify(form, y, eps, aux, want, rep):
    """The certificate of a completion of y, given rep = classify_real(form):
    ArithmeticError unless its deviation is below eps and rep is on want."""
    cert = PerturbationCertificate(form, _deviation(form.coeffs, y), aux, rep)
    _check(cert.deviation < eps, "certificate deviation is not below eps")
    _check(rep.real_orbit == want, f"the completion is {rep.real_orbit}, not {want}")
    return cert


def _nudge_until(z, coords, predicate, eps):
    """Deterministically bump coordinates by eps/2 (halving per sweep) until the
    predicate holds, else ArithmeticError after 64 sweeps.  The condition is open
    and dense, yet that bounds no sweep count: the zero case-3 target at n = 6
    and eps = 0.01 uses all 64."""
    if predicate(z):
        return z
    delta = eps / 2.0
    for _ in range(64):
        for c in coords:
            z = dict(z)
            z[c] = z.get(c, 0.0) + delta
            if predicate(z):
                return z
        delta /= 2.0
    raise ArithmeticError("nudge loop failed to reach a generic point")


def _form_of(z, dim, degree):
    return AlternatingForm(dim, degree,
                           {k: float(v) for k, v in z.items() if v != 0.0})


def _deviation(z, y):
    return max((abs(z.get(k, 0.0) - v) for k, v in y.values.items()), default=0.0)


def _scale(z):
    return max(1.0, max((abs(v) for v in z.values()), default=1.0))


# ---------------------------------------------------------------- case 1 ----

def _quadratic_in_z456(z):
    """Coefficients (a, b, c) of delta as a quadratic in z_456."""
    c, p, m = (delta_case1_explicit(_form_of({**z, (4, 5, 6): t}, 6, 3))
               for t in (0.0, 1.0, -1.0))
    return (p + m) / 2.0 - c, (p - m) / 2.0, c


def discriminant_case1(z):
    """b^2 - 4ac of delta as a quadratic in z_456."""
    a, b, c = _quadratic_in_z456(z)
    return b * b - 4.0 * a * c


def f1_case1(z):
    """Closed form of the bilinear z_156 z_246 coefficient of the discriminant.

    16 z123^2 (z123 z345 + z234 z135 - z134 z235); this is the variant that
    matches the probe fit of the discriminant exactly (see tests).
    """
    g = lambda *t: z.get(t, 0.0)
    return 16.0 * g(1, 2, 3) ** 2 * (g(1, 2, 3) * g(3, 4, 5)
                                     + g(2, 3, 4) * g(1, 3, 5)
                                     - g(1, 3, 4) * g(2, 3, 5))


def fit_discriminant_case1(z):
    """(f1, f2, f3, f4) of discriminant = f1 uv + f2 u + f3 v + f4 in
    u = z_156, v = z_246, obtained from four probe points."""
    vals = {}
    for (u, v) in ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)):
        zz = dict(z)
        zz[(1, 5, 6)] = u
        zz[(2, 4, 6)] = v
        vals[(u, v)] = discriminant_case1(zz)
    f4 = vals[(0.0, 0.0)]
    f2 = vals[(1.0, 0.0)] - f4
    f3 = vals[(0.0, 1.0)] - f4
    f1 = vals[(1.0, 1.0)] - f2 - f3 - f4
    return f1, f2, f3, f4


def extend_case1(y, eps, sign):
    """Complete a target on indices i<j<k<=5 to a semistable dim-6 trivector
    with the requested invariant sign."""
    _positive(eps)
    if sign not in ("+", "-", 1, -1):
        raise ValueError("sign must be '+' or '-'")
    want = "case1_positive" if sign in ("+", 1) else "case1_negative"
    y = y if isinstance(y, PartialTarget) else PartialTarget(1, y)
    z = dict(y.values)

    z = _nudge_until(z, [(1, 2, 3)], lambda w: abs(w[(1, 2, 3)]) > eps / 8.0, eps)
    aux = {}
    if want == "case1_positive":
        # with every top-index coordinate but z_456 zero, the invariant is
        # exactly (z_123 * z_456)^2; z_456 doubles until the classifier's
        # cutoff, which grows with the largest coefficient, no longer hides it
        t = 1.0
        while t <= GROWTH_CAP:
            z[(4, 5, 6)] = t
            form = _form_of(z, 6, 3)
            rep = classify_real(form)
            if rep.real_orbit == want:
                break
            t *= 2.0
        _check(t <= GROWTH_CAP, "z_456 reached 2^64 without the classifier finding case1_positive")
    else:
        # zero the top-index coordinates except the three live ones
        live = {(1, 5, 6), (2, 4, 6), (4, 5, 6)}
        for k in all_keys(6, 3):
            if 6 in k and tuple(k) not in live:
                z[tuple(k)] = 0.0

        def generic(w):
            return abs(f1_case1(w)) > 1e-9 * _scale(w) ** 4

        order = [(3, 4, 5), (1, 3, 5), (2, 3, 4), (1, 3, 4), (2, 3, 5), (1, 2, 3)]
        z = _nudge_until(z, order, generic, eps)
        f1, f2, f3, f4 = fit_discriminant_case1(z)
        _check(abs(f1 - f1_case1(z)) <= 1e-6 * max(1.0, abs(f1)),
               "probe fit disagrees with the closed bilinear coefficient")
        s = 1.0 if f1 > 0 else -1.0
        t = 1.0
        disc = None
        while t <= GROWTH_CAP:
            disc = f1 * (s * t) * t + f2 * (s * t) + f3 * t + f4
            # dominance margin: the bilinear term must carry the sign alone
            if disc > 0 and abs(f1) * t * t > 2.0 * ((abs(f2) + abs(f3)) * t + abs(f4) + 1e-9):
                break
            t *= 2.0
        _check(t <= GROWTH_CAP, "growth cap exceeded while opening the discriminant")
        z[(1, 5, 6)] = s * t
        z[(2, 4, 6)] = t
        a, b, c = _quadratic_in_z456(z)
        z[(4, 5, 6)] = -b / (2.0 * a)
        form = _form_of(z, 6, 3)
        rep = classify_real(form)
        aux.update({"f1": f1, "f2": f2, "f3": f3, "f4": f4, "discriminant": disc})
    aux["delta"] = rep.delta
    return _certify(form, y, eps, aux, want, rep)


# ---------------------------------------------------------------- case 2 ----

def f3_case2(z):
    """Quadratic coefficient controlling the top-index growth direction:
    sum over complementary pairs (j,k),(j',k') of {3,4,5,6} of
    sgn * z_1jk z_1j'k'."""
    total = 0.0
    for p1 in itertools.combinations((3, 4, 5, 6), 2):
        p2 = tuple(m for m in (3, 4, 5, 6) if m not in p1)
        _, s = sort_sign(p1 + p2)
        total += s * z.get((1,) + p1, 0.0) * z.get((1,) + p2, 0.0)
    return total


def extend_case2(y, eps):
    """Complete a target on indices i<j<k<=6 to a semistable dim-7 trivector
    with indefinite quadratic covariant (the split real orbit).

    The deviation budget is split over two disjoint coordinate families: the
    (1,j,k) entries make the growth direction generic, and entries touching
    neither index 1 nor index 7 restore semistability when the completed
    point happens to land on the degenerate locus.  Coordinates of the
    second family change neither of the two controlled covariant entries.
    """
    _positive(eps)
    y = y if isinstance(y, PartialTarget) else PartialTarget(2, y)
    z = dict(y.values)
    live = {(1, 2, 7), (3, 4, 7), (5, 6, 7)}
    for k in all_keys(7, 3):
        if 7 in k and tuple(k) not in live:
            z[tuple(k)] = 0.0

    def generic(w):
        return abs(f3_case2(w)) > 1e-9 * _scale(w) ** 2

    order = [(1, 3, 4), (1, 5, 6), (1, 3, 5), (1, 4, 6), (1, 3, 6), (1, 4, 5)]
    z = _nudge_until(z, order, generic, eps)
    f3 = f3_case2(z)
    s = 1.0 if f3 > 0 else -1.0

    def complete(zc):
        # Q_x[0][0] = 3 z_127 f3 + (terms free of z_127): z_127 grows with the sign of f3
        # until the classifier puts the completion on the split orbit
        t = 1.0
        while t <= 2.0 ** 40:
            zc[(1, 2, 7)] = s * t
            zc[(3, 4, 7)] = 1.0
            zc[(5, 6, 7)] = -s
            form = _form_of(zc, 7, 3)
            rep = classify_real(form)
            if rep.real_orbit == "case2_split":
                return form, rep
            t *= 2.0
        return None, None

    spare = [(2, 3, 4), (2, 5, 6), (3, 4, 5), (2, 4, 5), (3, 5, 6), (4, 5, 6),
             (2, 3, 5), (2, 4, 6), (3, 4, 6), (2, 3, 6)]
    delta_step = eps / 2.0
    for _ in range(64):
        form, rep = complete(dict(z))
        if form is not None:
            _, gram = rep.q
            aux = {"f1": float(gram[0][0]), "f2": float(gram[6][6]), "f3": f3, "delta": rep.delta}
            return _certify(form, y, eps, aux, "case2_split", rep)
        # degenerate completion: move off the zero locus without touching
        # the (1,j,k) or (i,j,7) coordinates
        c = spare[0]
        spare = spare[1:] + [c]
        z = dict(z)
        z[c] = z.get(c, 0.0) + delta_step
        delta_step /= 2.0
    raise ArithmeticError("nudge loop failed to reach a semistable completion")


# ---------------------------------------------------------------- case 3 ----

def extend_case3(y, eps, n=None):
    """Complete a target on i<j<=2n-1 to a nondegenerate two-form by one unit
    entry of the free last column.

    With the free column zero, pf(z + t e_{i,2n}) = t * pf_i for a signed
    sub-Pfaffian pf_i of the constrained block; the first i that classify_real
    finds nondegenerate gets t = 1.  The constrained entries are only nudged
    when every pf_i vanishes (the block has rank below 2n-2).  n, when given,
    must be the target's.
    """
    _positive(eps)
    if not isinstance(y, PartialTarget):
        y = PartialTarget(3, y, n)
    elif n is not None and n != y.n:
        raise ValueError(f"target is for n = {y.n}, not n = {n}")
    n = y.n
    dim = 2 * n
    found = {}

    def completes(w):
        for i in range(1, dim):
            form = _form_of({**w, (i, dim): 1.0}, dim, 2)
            rep = classify_real(form)
            if rep.real_orbit == "case3_nondegenerate":
                found.update(form=form, rep=rep)
                return True
        return False

    _nudge_until(y.values, constrained_keys(3, n), completes, eps)
    return _certify(found["form"], y, eps, {"pfaffian": found["rep"].delta},
                    "case3_nondegenerate", found["rep"])
