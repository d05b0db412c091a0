"""Real and rational orbit classification, eigenspace geometry, and the
irrationality predicates feeding the density search.

Rationality of a projective or Grassmannian point is certified only in exact
arithmetic (rational or quadratic-extension coefficients); float inputs get a
bounded-denominator reconstruction verdict, and every report records which
mode produced it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from operator import add, sub

from . import linalg
from .invariants import (_delta_from_q, _delta_from_s, _finite, _q_integral, _s_integral,
                         case_of, delta_case1_explicit, pfaffian, s_case1)
from .multilinear import _small_det, all_keys, integral_multiple
from .scalars import (QuadExt, demote, rational_reconstruct, rational_sqrt, real_sign,
                      squarefree_part)

@dataclass
class OrbitReport:
    case: int
    real_orbit: str
    field_d: int = None          # squarefree d with k(x) = Q(sqrt(d)); 1 means Q
    delta: object = None
    # the integral copy (D, G) of the gram G / D of Q_x of a dim-7 form (invariants._q_integral)
    q: tuple = field(default=None, repr=False, compare=False)

    @property
    def real_rank_positive(self):
        """Real rank of the identity component of the special stabilizer: positive
        on every semistable orbit except the definite dim-7 one."""
        return self.real_orbit not in ("case2_nonsplit", "degenerate")


@dataclass
class GrassmannPoint:
    """Unordered pair of 3-dimensional subspaces of a 6-space: a basis and a
    Plücker vector of each (plucker's coordinate order).  An exact point has d,
    the field Q(sqrt d) of its coordinates (d = 1: Q), and each coordinate as
    an int pair (A, B) standing for A + B sqrt(d): the minors of its integral
    kernel vectors, a common rational multiple of plucker(basis).  A float
    point has d = None and plucker(basis)."""

    basis1: list
    basis2: list
    plucker1: list
    plucker2: list
    d: int = None


def classify_real(x, tol=1e-9):
    """OrbitReport for a form of any of the three shapes.

    Exact coefficients give exact verdicts.  Float ones go by float_zero: delta
    at degree 4, the Pfaffian at degree n, and the eigenvalues of Q_x read as
    Bryant's B_x = Q_x / 6 (float_signature); so t * x gets the verdict of x for
    every t > 0.  NaN/inf coefficients, an overflowing float invariant or a tol
    not finite and > 0 raise ValueError.  report.q keeps the integral copy of the
    gram of a dim-7 Q_x, whose signature is read on its ints.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and > 0, not {tol}")
    case = case_of(x)
    is_float = x.scalar_kind() == "float"
    if is_float and not all(math.isfinite(v) for v in x.coeffs.values()):
        raise ValueError("classify_real needs finite float coefficients")

    def zero(v, degree):
        return float_zero(_finite(v), x.max_abs(), degree, tol) if is_float else v == 0

    if case == 1:
        if is_float:
            d = delta_case1_explicit(x)
        else:  # the quartic on D x over Z or Z[sqrt d], divided by D^4 once
            D, xs = integral_multiple(x)
            d = linalg._over(delta_case1_explicit(xs), D ** 4)
        if zero(d, 4):
            orbit = "degenerate"
        elif real_sign(d) > 0:
            orbit = "case1_positive"
        else:
            orbit = "case1_negative"
        rep = OrbitReport(1, orbit, delta=d)
        if orbit != "degenerate" and x.scalar_kind() == "rational":
            rep.field_d = squarefree_part(d)[0]  # k(x) = Q(sqrt delta), without building S_x
        return rep
    if case == 2:
        q = _q_integral(x)
        npos, nneg, nzero = (float_signature(x, q[1], tol) if is_float
                             else linalg.congruent_signature(q[1]))
        delta, _ = _delta_from_q(q, x.scalar_kind())
        if nzero:
            orbit = "degenerate"
        elif npos and nneg:
            orbit = "case2_split"
        else:
            orbit = "case2_nonsplit"
        return OrbitReport(2, orbit, delta=delta, q=q)
    pf = pfaffian(x)
    orbit = "degenerate" if zero(pf, x.dim // 2) else "case3_nondegenerate"
    return OrbitReport(3, orbit, delta=pf)


def float_zero(value, s, degree, tol):
    """Whether a float invariant of x of the given degree is zero: |value| <= tol * s^degree
    with s = x.max_abs(), i.e. |inv(x / s)| <= tol, so the verdict holds on the cone of t * x,
    t > 0, and the zero form is zero.  |value| is divided by s one factor at a time, so
    s^degree is never formed and neither overflows nor underflows."""
    if s == 0:
        return value == 0
    r = abs(float(value))
    for _ in range(degree):
        r /= s
    return r <= tol


def float_signature(x, q, tol=1e-9):
    """(n_plus, n_minus, n_zero) of the gram q of Q_x of a float dim-7 form, read as
    Bryant's B_x = Q_x / 6: an eigenvalue of B_x counts as zero by float_zero at
    degree 3.  The default tol is classify_real's."""
    import numpy as np
    eig = [float(e) / 6 for e in np.linalg.eigvalsh(np.array(q, dtype=float))]
    s = x.max_abs()
    zero = [float_zero(e, s, 3, tol) for e in eig]
    return (sum(e > 0 and not z for e, z in zip(eig, zero)),
            sum(e < 0 and not z for e, z in zip(eig, zero)), sum(zero))


def eigenspaces(x, tol=1e-9):
    """The two rank-3 eigenspaces of S_x for the eigenvalues +/- sqrt(delta).

    Exact over Q(sqrt(d)) for rational input (basis1 belongs to +sqrt(delta)):
    the canonical kernel vectors of S' -/+ Dk sqrt(delta) I over Z or Z[sqrt d],
    (Dk, S') the integral copy of S_x (invariants._s_integral), by
    linalg.int_nullspace, and the Plücker vectors from the primitive ones, on
    ints (_plucker_zd).
    Float input uses complex numpy arithmetic.  ValueError when sqrt(delta)
    lies outside Q and the field of S_x (a field tower).
    """
    if x.scalar_kind() == "float":
        return _eigenspaces_float(x, tol)
    Dk, S = _s_integral(x, 6)
    delta = demote(_delta_from_s(Dk, S))
    if delta == 0:
        raise ValueError("not semistable")
    fields = {v.d for row in S for v in row if isinstance(v, QuadExt)}  # Q(sqrt d) of S_x
    root = None if isinstance(delta, QuadExt) else rational_sqrt(delta)
    if root is None or isinstance(root, QuadExt) and fields - {root.d}:
        raise ValueError("eigenspaces need a rational invariant (no field towers)")
    d = root.d if isinstance(root, QuadExt) else next(iter(fields), 1)
    # Dk sqrt(delta) = sqrt(Dk^2 delta): an int, or a QuadExt over Z[sqrt d]
    root = Dk * root if type(root) is QuadExt else (Dk * root).numerator
    bases, coords = [], []
    for lam in (root, -root):
        rows = [{j: v for j in range(6) if (v := S[i][j] - (lam if i == j else 0))}
                for i in range(6)]
        ns = linalg.int_nullspace(rows, 6)
        if len(ns) != 3:
            raise ArithmeticError("eigenspace dimension must be 3 (internal bug)")
        bases.append([[demote(linalg._over(v.get(b, 0), v[fc])) for b in range(6)] for fc, v in ns])
        coords.append(_plucker_zd([[_parts(v.get(b, 0)) for b in range(6)] for _, v in ns], d))
    return GrassmannPoint(*bases, *coords, d)


def _eigenspaces_float(x, tol):
    import numpy as np
    S = np.array([[float(v) for v in row] for row in s_case1(x)])
    delta = _finite(float(delta_case1_explicit(x)))
    if float_zero(delta, x.max_abs(), 4, tol):
        raise ValueError("not semistable")
    lam = np.sqrt(complex(delta))
    bases = []
    for sign in (1, -1):
        M = S.astype(complex) - sign * lam * np.eye(6)
        u, s, vh = np.linalg.svd(M)
        ns = vh[np.sum(s > s[0] * 1e-9):].conj()
        if ns.shape[0] != 3:
            raise ArithmeticError("eigenspace dimension must be 3")
        bases.append([[complex(v) for v in row] for row in ns])
    return GrassmannPoint(*bases, plucker(bases[0]), plucker(bases[1]))


def plucker(basis):
    """Length-20 coordinate vector of a 3-plane in 6-space given by 3 rows."""
    if len(basis) != 3 or any(len(r) != 6 for r in basis):
        raise ValueError("plucker needs 3 rows of length 6")
    out = []
    for cols in itertools.combinations(range(6), 3):
        out.append(_small_det([[basis[r][c] for c in cols] for r in range(3)]))
    return out


def _plucker_zd(rows, d):
    """plucker of 3 rows of int pairs (A, B) = A + B sqrt(d) over Z[sqrt d], as
    pairs: each minor expanded along the last row, on the 2 x 2 minors of the
    first two."""
    r0, r1, r2 = rows
    m2 = {(i, j): tuple(map(sub, _mul(r0[i], r1[j], d), _mul(r0[j], r1[i], d)))
          for i, j in itertools.combinations(range(6), 2)}
    return [tuple(a - b + c for a, b, c in zip(
        _mul(r2[i], m2[j, k], d), _mul(r2[j], m2[i, k], d), _mul(r2[k], m2[i, j], d)))
        for i, j, k in itertools.combinations(range(6), 3)]


def _mul(p, q, d):
    """The product of int pairs (A, B) = A + B sqrt(d)."""
    return p[0] * q[0] + d * p[1] * q[1], p[0] * q[1] + p[1] * q[0]


def _parts(v):
    """(A, B) for an exact coordinate v, a positive rational multiple of A + B sqrt(d):
    an int pair as it is, a QuadExt's ints (its denominator dropped), a rational as (v, 0)."""
    if type(v) is tuple:
        return v
    return (v._A, v._B) if type(v) is QuadExt else (v, 0)


def _normalize(vec):
    """(is_float, vec scaled by its pivot): is_float when some entry is a float
    or complex, and the pivot is then the entry of largest modulus (the first
    of them), else the first nonzero entry."""
    is_float = any(isinstance(v, (float, complex)) for v in vec)
    pivot = (max(vec, key=lambda v: abs(complex(v)), default=0) if is_float
             else next((v for v in vec if v != 0), 0))
    if pivot == 0:
        raise ValueError("zero vector has no projective normalization")
    return is_float, [v / pivot for v in vec]


@dataclass
class PointVerdict:
    rational: bool
    mode: str            # "exact" (certified) or "float" (heuristic)
    detail: str = ""


def point_rationality(vec, max_den=1000, tol=1e-9):
    """Rationality of a projective point given by a coordinate vector.

    Exact coordinates (rationals, QuadExts, or the int pairs (A, B) of an exact
    GrassmannPoint): certified by cross-multiplication, with no division: for
    the first nonzero coordinate p, v / p is rational exactly when B_v A_p ==
    A_v B_p.  Floats/complex: heuristic bounded-denominator reconstruction;
    for the verdict to discriminate, tol must be well below 1/max_den^2
    (a generic real reconstructs to ~1/q^2 at the best q <= max_den).
    """
    if not any(isinstance(v, (float, complex)) for v in vec):
        parts = [_parts(v) for v in vec]
        Ap, Bp = next((p for p in parts if p[0] or p[1]), (0, 0))
        if not (Ap or Bp):
            raise ValueError("zero vector has no projective normalization")
        ok = all(B * Ap == A * Bp for A, B in parts)
        return PointVerdict(ok, "exact", "all coordinate ratios rational" if ok
                            else "some coordinate ratio lies outside Q")
    _, nv = _normalize(vec)
    for v in nv:
        c = complex(v)
        if abs(c.imag) > tol:
            return PointVerdict(False, "float", "nonreal coordinate ratio")
        if rational_reconstruct(c.real, max_den, tol) is None:
            return PointVerdict(False, "float", "no rational point found")
    return PointVerdict(True, "float", "all ratios reconstruct")


def grassmann_rationality(gr, max_den=1000, tol=1e-9):
    """Rationality of the unordered pair via symmetric functions of the
    normalized coordinate vectors (sum and coordinatewise product).  An exact
    pair takes them projectively, over Z[sqrt d] with p_0 and q_0 the first
    nonzero coordinates: p_i q_0 + q_i p_0 and p_i q_i."""
    if gr.d is not None:
        d, p, q = gr.d, gr.plucker1, gr.plucker2
        p0, q0 = (next(c for c in v if c[0] or c[1]) for v in (p, q))
        s = [tuple(map(add, _mul(a, q0, d), _mul(b, p0, d))) for a, b in zip(p, q)]
        m = [_mul(a, b, d) for a, b in zip(p, q)]
        is_float = False
    else:
        float1, p = _normalize(gr.plucker1)
        float2, q = _normalize(gr.plucker2)
        is_float = float1 or float2
        s = [a + b for a, b in zip(p, q)]
        m = [a * b for a, b in zip(p, q)]
    flags = []
    for vec in (s, m):
        if all(abs(complex(v)) <= tol if is_float else not any(_parts(v)) for v in vec):
            flags.append(PointVerdict(True, "float" if is_float else "exact",
                                      "symmetric function vanishes"))
        else:
            flags.append(point_rationality(vec, max_den, tol))
    rational = all(f.rational for f in flags)
    mode = "exact" if all(f.mode == "exact" for f in flags) else "float"
    return PointVerdict(rational, mode, "symmetric functions of the pair")


@dataclass
class IrrationalityReport:
    case: int
    flags: dict = field(default_factory=dict)   # name -> PointVerdict


def check_max_den(max_den):
    """ValueError unless max_den >= 1: for irrationality_report, and before any orbit
    verdict in the classify command and search.hypothesis_check."""
    if max_den < 1:
        raise ValueError(f"max_den must be >= 1, not {max_den}")


def irrationality_report(x, max_den=1000, tol=1e-9, q=None):
    """Per-predicate rationality flags for the case of x.

    dim 6: the two eigenspace points and the unordered pair; dim 7: the
    projective image of Q_x, read on the integral copy q of its gram
    (invariants._q_integral, passed if the caller has built it); degree 2: that
    of x itself.  ValueError if max_den < 1 (check_max_den).
    """
    check_max_den(max_den)
    case = case_of(x)
    rep = IrrationalityReport(case)
    if case == 1:
        gr = eigenspaces(x, tol=tol)
        rep.flags["E1"] = point_rationality(gr.plucker1, max_den, tol)
        rep.flags["E2"] = point_rationality(gr.plucker2, max_den, tol)
        rep.flags["Gr"] = grassmann_rationality(gr, max_den, tol)
        return rep
    if case == 2:
        _, gram = _q_integral(x) if q is None else q
        rep.flags["Q"] = point_rationality([gram[i][j] for i in range(7) for j in range(i, 7)],
                                           max_den, tol)
        return rep
    vec = [x.coeffs.get(k, 0) for k in all_keys(x.dim, 2)]
    rep.flags["x"] = point_rationality(vec, max_den, tol)
    return rep

