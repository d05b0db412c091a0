"""The three workloads: seeded input files, the command stream of one round,
and the check that every command's output must pass.

A workload is built once per process from its seed.  ``build`` writes the
input files into a work directory and returns the round: a list of ``Op``,
each one ``altforms`` command line plus a check on its parsed JSON output.
Every check compares against ``exact`` (Hitchin's lambda, Bryant's B, sympy
determinants, derived actions written here) or against a property the
method must have, never against a stored copy of the program's output.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random
from fractions import Fraction

import exact as E

WORKLOADS = ("golden", "exact_dense", "float_search")


class CheckError(Exception):
    pass


def require(cond, msg):
    if not cond:
        raise CheckError(msg)


class Op:
    """One command of a round; ``check(doc)`` raises CheckError on a wrong output."""

    __slots__ = ("argv", "check", "command")

    def __init__(self, argv, check):
        self.argv = argv
        self.check = check
        self.command = argv[0]


# ----------------------------------------------------------------- files ----

def _key(k):
    return ",".join(map(str, k))


def _scalar_json(v):
    if isinstance(v, E.Q2):
        return {"a": str(v.a), "b": str(v.b), "d": v.d}
    if isinstance(v, Fraction):
        return str(v)
    return float(v)


def scalar(v):
    """Parse one emitted scalar: 'p/q' strings, {a, b, d} dicts, or numbers."""
    if isinstance(v, str):
        return Fraction(v)
    if isinstance(v, dict):
        return E.Q2(Fraction(v["a"]), Fraction(v["b"]), int(v["d"]))
    if isinstance(v, bool):
        raise CheckError(f"boolean where a scalar was expected: {v!r}")
    return float(v)


def matrix(rows):
    return [[scalar(v) for v in row] for row in rows]


def form_doc(x, dim, degree, kind, d=None):
    doc = {"dim": dim, "degree": degree, "scalar": kind,
           "coeffs": {_key(k): _scalar_json(v) for k, v in sorted(x.items())}}
    if d is not None:
        doc["d"] = d
    return doc


def parse_form_doc(doc):
    require(isinstance(doc, dict) and "coeffs" in doc, "form document without coeffs")
    return {tuple(int(i) for i in k.split(",")): scalar(v) for k, v in doc["coeffs"].items()}


class Files:
    """Writes numbered JSON input files into one work directory."""

    def __init__(self, root):
        self.root = root
        self.count = 0

    def write(self, doc):
        self.count += 1
        path = os.path.join(self.root, f"in{self.count:03d}.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        return path


# ---------------------------------------------------------------- golden ----

# Paper constants of the golden rows whose expected value is a plain number
# or list; the remaining rows (matrices, forms, algebra tables) must pass.
GOLDEN_CONSTANTS = {
    "case1 delta(w) = 1": "1",
    "case1 delta(w_alpha(-1)) = 64d": "-64",
    "case1 delta(w_alpha(2)) = 64d": "128",
    "case1 delta(w_alpha(3)) = 64d": "192",
    "case1 delta(w_alpha(5)) = 64d": "320",
    "case1 delta(w1) = -64": "-64",
    "case2 delta(w) = 6": "6",
    "case2 delta(w') = 0": "0",
    "case2 delta(w1) = 2^9*6": str(2 ** 9 * 6),
    "reconstructed algebra of case2 w equals the split table": "True",
    "stabilizer dimensions (16, 14, 10)": "[16, 14, 10]",
    "fixed-space dimensions (2, 1, 1)": "[2, 1, 1]",
    "sl(6) decomposition 16+9+9+1 = 35": "35",
    "block subalgebra closures (True, True, False)": "[True, True, False]",
}


def check_golden(doc):
    require(doc.get("all_pass") is True, "all_pass is not true")
    rows = doc.get("rows") or []
    by_name = {r["name"]: r for r in rows}
    for r in rows:
        require(r["pass"] is True and r["computed"] == r["expected"], f"row failed: {r['name']}")
    for name, value in GOLDEN_CONSTANTS.items():
        require(name in by_name, f"golden row missing: {name}")
        require(by_name[name]["computed"] == value,
                f"{name}: computed {by_name[name]['computed']}, paper says {value}")


def build_golden(rng, files):
    return [Op(["verify"], check_golden)]


# ----------------------------------------------------------- exact_dense ----

# Denominators of the rational tier: the divisors of 240, all below 2^8.
# A common small multiple keeps the heights of the degree-21 determinant of
# the dim-7 covariant below 2^1000, under the float-seeded cube root's
# overflow point (see CHANGES.md), and the numerator of delta for dim 6
# near 50 bits, which sympy factors (for classify) in milliseconds.
DENOMS = tuple(q for q in range(1, 256) if 240 % q == 0)
QUAD_DS = (-7, -6, -5, -3, -2, -1, 2, 3, 5, 6, 7, 10, 11, 13)
STAB_DIM = {(6, 3): 16, (7, 3): 14, (8, 2): 36}
FIXED_DIM = {(6, 3): 2}


def _w_constants():
    """The two normalizations, fixed once on the paper's representatives:
    delta(e123 + e456) = 1, and Q_w = 6(-e1^2 + e2e5 + e3e6 + e4e7)."""
    one = Fraction(1)
    w6 = {(1, 2, 3): one, (4, 5, 6): one}
    w7 = {(2, 3, 4): one, (5, 6, 7): one, (1, 2, 5): one, (1, 3, 6): one, (1, 4, 7): one}
    lam_ratio = Fraction(1) / E.hitchin_lambda(w6)
    q_ratio = Fraction(-6) / E.bryant_b(w7)[0][0]
    return lam_ratio, q_ratio


LAMBDA_RATIO, Q_RATIO = _w_constants()


def skew(x, n):
    M = [[Fraction(0)] * n for _ in range(n)]
    for (i, j), v in x.items():
        M[i - 1][j - 1] = v
        M[j - 1][i - 1] = -v
    return M


def _sympy_det(M):
    import sympy
    return Fraction(str(sympy.Matrix([[sympy.Rational(str(v)) for v in r] for r in M]).det()))


def _is_rational_square(q):
    q = Fraction(q)
    return q >= 0 and all(math.isqrt(n) ** 2 == n for n in (q.numerator, q.denominator))


def _squarefree(d):
    from sympy import factorint
    return d != 0 and all(e == 1 for e in factorint(abs(d)).values())


class DenseForm:
    """A seeded nondegenerate form and its reference invariants."""

    def __init__(self, x, dim, degree, d=None, delta=None):
        self.x, self.dim, self.degree, self.d = x, dim, degree, d
        self.stab = None
        self.delta = delta
        if (dim, degree) == (7, 3):
            self.B = E.bryant_b(x)
            self.det_b = E.det(self.B)
        elif degree == 2:
            self.det_skew = _sympy_det(skew(x, dim))


def _draw(rng, dim, degree, tier):
    while True:
        x = {}
        for k in itertools.combinations(range(1, dim + 1), degree):
            if tier == "int":
                v = Fraction(rng.randint(-5, 5))
            else:
                v = Fraction(rng.randint(-255, 255), rng.choice(DENOMS))
            if v:
                x[k] = v
        if (dim, degree) == (6, 3):
            lam = E.hitchin_lambda(x)
            if lam != 0:
                return DenseForm(x, dim, degree, delta=LAMBDA_RATIO * lam)
        elif (dim, degree) == (7, 3):
            f = DenseForm(x, dim, degree)
            if f.det_b != 0:
                return f
        else:
            f = DenseForm(x, dim, degree)
            if f.det_skew != 0:
                return f


def g_alpha(d):
    """The block matrix carrying e123 + e456 to w_alpha(d), det -8 sqrt(d)."""
    P = (Fraction(1, 2), Fraction(1), Fraction(1))
    Q = (Fraction(2, d), Fraction(1), Fraction(1))
    g = [[E.Q2(0, 0, d) for _ in range(6)] for _ in range(6)]
    for i in range(3):
        g[i][i] = g[i][i + 3] = E.Q2(P[i], 0, d)
        g[i + 3][i] = E.Q2(0, Q[i], d)
        g[i + 3][i + 3] = E.Q2(0, -Q[i], d)
    return g


def _quad_form(rng):
    base = _draw(rng, 6, 3, "int")
    d = rng.choice(QUAD_DS)
    x = E.push_forward(g_alpha(d), base.x, 3)
    # delta has weight det^2, and det g_alpha(d) = -8 sqrt(d)
    return DenseForm(x, 6, 3, d=d, delta=64 * d * base.delta)


def check_invariant(f):
    def check(doc):
        require(doc["delta_exact"] is True, "exact input gave an inexact invariant")
        if f.dim == 6:
            require(doc["case"] == 1, "wrong case")
            delta = scalar(doc["delta"])
            require(delta == f.delta, f"delta {delta} != reference {f.delta}")
            S = matrix(doc["s_matrix"])
            S2 = E.mat_mul(S, S)
            require(all(S2[i][j] == (delta if i == j else 0) for i in range(6) for j in range(6)),
                    "S_x^2 != delta I")
        elif f.dim == 7:
            require(doc["case"] == 2, "wrong case")
            delta = scalar(doc["delta"])
            G = matrix(doc["q_gram"])
            require(all(G[i][j] == Q_RATIO * f.B[i][j] for i in range(7) for j in range(7)),
                    "Q_x is not the fixed multiple of Bryant's B_x")
            require(E.det(G) == Fraction(81, 4) * delta ** 3, "det gram Q != (81/4) delta^3")
        else:
            require(doc["case"] == 3, "wrong case")
            pf = scalar(doc["pfaffian"])
            require(pf * pf == f.det_skew, "pf^2 != det of the skew matrix")
    return check


def check_classify(f):
    def check(doc):
        flags = doc.get("irrationality") or {}
        require(all(v["mode"] == "exact" for v in flags.values()), "inexact verdict on exact input")
        if f.dim == 6:
            square = _is_rational_square(f.delta)
            orbit = "case1_positive" if f.delta > 0 else "case1_negative"
            require(doc["real_orbit"] == orbit and doc["real_rank_positive"] is True, "wrong orbit")
            require(scalar(doc["delta"]) == f.delta, "delta differs from Hitchin's lambda")
            fd = doc["field_d"]
            require((fd == 1) == square, "field_d = 1 exactly when delta is a square")
            require(fd == 1 or (_is_rational_square(f.delta / fd) and _squarefree(fd)),
                    "delta / field_d is not a square times a squarefree d")
            require(set(flags) == {"E1", "E2", "Gr"}, "dim-6 flags")
            require(flags["E1"]["rational"] == flags["E2"]["rational"] == square,
                    "eigenspaces are rational exactly when delta is a square")
            require(flags["Gr"]["rational"] is True, "the Galois-stable pair must be rational")
        elif f.dim == 7:
            kind = E.definiteness(f.B)
            orbit = "case2_split" if kind == "indefinite" else "case2_nonsplit"
            require(doc["real_orbit"] == orbit, f"orbit {doc['real_orbit']}, B_x is {kind}")
            require(doc["real_rank_positive"] is (orbit == "case2_split"), "real rank flag")
            delta = scalar(doc["delta"])
            require(Fraction(81, 4) * delta ** 3 == Q_RATIO ** 7 * f.det_b,
                    "delta^3 does not match det of Bryant's B_x")
            require(set(flags) == {"Q"} and flags["Q"]["rational"] is True, "Q flag")
        else:
            require(doc["real_orbit"] == "case3_nondegenerate" and doc["real_rank_positive"],
                    "wrong orbit")
            pf = scalar(doc["delta"])
            require(pf * pf == f.det_skew, "pf^2 != det of the skew matrix")
            require(set(flags) == {"x"} and flags["x"]["rational"] is True, "x flag")
    return check


def check_stab(f):
    def check(doc):
        n = f.dim
        basis = [matrix(M) for M in doc["basis"]]
        want = STAB_DIM[(f.dim, f.degree)]
        require(doc["dim"] == len(basis) == want, f"stabilizer dimension {doc['dim']} != {want}")
        for X in basis:
            require(sum((X[i][i] for i in range(n)), 0) == 0, "basis matrix not traceless")
            require(not E.derived_action(X, f.x, n, f.degree), "basis matrix does not annihilate x")
        require(E.rank([[v for row in X for v in row] for X in basis]) == want,
                "stabilizer basis is not independent")
        f.stab = basis
    return check


def check_fixed(f):
    def check(doc):
        # the basis that `stab` emitted for this form earlier in the round
        require(f.stab is not None, "no verified stabilizer basis for this form")
        forms = [parse_form_doc(g) for g in doc["basis"]]
        want = FIXED_DIM[(f.dim, f.degree)]
        require(doc["dim"] == len(forms) == want, f"fixed-space dimension {doc['dim']} != {want}")
        for g in forms:
            for X in f.stab:
                require(not E.derived_action(X, g, f.dim, f.degree), "emitted form is not fixed")
        keys = list(itertools.combinations(range(1, f.dim + 1), f.degree))
        rows = [[g.get(k, 0) for k in keys] for g in forms]
        require(E.rank(rows) == want and E.rank(rows + [[f.x.get(k, 0) for k in keys]]) == want,
                "fixed forms are dependent or miss x itself")
    return check


def check_octonion(f, rng):
    samples = [([Fraction(rng.randint(-3, 3)) for _ in range(8)],
                [Fraction(rng.randint(-3, 3)) for _ in range(8)]) for _ in range(6)]

    def check(doc):
        T = [[[scalar(c) for c in vec] for vec in row] for row in doc["table"]]
        G = matrix(doc["norm_gram"])
        require(doc["dim"] == 8 and len(T) == 8, "octonion table must be 8-dimensional")

        def mul(u, v):
            out = [0] * 8
            for i in range(8):
                if u[i]:
                    for j in range(8):
                        if v[j]:
                            c = u[i] * v[j]
                            out = [o + c * t for o, t in zip(out, T[i][j])]
            return out

        def norm(u):
            return sum((G[i][j] * u[i] * u[j] for i in range(8) for j in range(8)), 0)

        for i in range(8):
            e = [Fraction(int(m == i)) for m in range(8)]
            require(T[0][i] == e and T[i][0] == e, "basis 0 is not the unit")
        require(E.det(G) != 0, "degenerate norm")
        for u, v in samples:
            require(norm(mul(u, v)) == norm(u) * norm(v), "norm is not multiplicative")
    return check


EXACT_SHAPES = ((6, 3), (7, 3), (8, 2))


def build_exact_dense(rng, files):
    ops = []
    for tier in ("int", "rat"):
        for dim, degree in EXACT_SHAPES:
            f = _draw(rng, dim, degree, tier)
            path = files.write(form_doc(f.x, dim, degree, "rational"))
            ops.append(Op(["invariant", path], check_invariant(f)))
            ops.append(Op(["classify", path], check_classify(f)))
            ops.append(Op(["stab", path], check_stab(f)))
            if dim == 7:
                ops.append(Op(["octonion", "table", path], check_octonion(f, rng)))
            elif dim == 6:
                # fixed on a dense dim-7 or 8-dim form row-reduces a
                # (stabilizer dim x keys) x keys system: several seconds
                ops.append(Op(["fixed", path], check_fixed(f)))
    f = _quad_form(rng)
    path = files.write(form_doc(f.x, 6, 3, "quadext", d=f.d))
    ops.append(Op(["invariant", path], check_invariant(f)))
    ops.append(Op(["stab", path], check_stab(f)))
    # Without these, the round has 9 commands under 0.1 s, 4 of 0.1-0.2 s and
    # 11 above, and the median latency would fall on the edge between the
    # middle and heavy groups; three more cheap invariants and middle stabs
    # put it inside the 0.1-0.2 s group for every seed.
    for _ in range(3):
        f = _draw(rng, 6, 3, "int")
        path = files.write(form_doc(f.x, 6, 3, "rational"))
        ops.append(Op(["invariant", path], check_invariant(f)))
        ops.append(Op(["stab", path], check_stab(f)))
    return ops


# ---------------------------------------------------------- float_search ----

def constrained_keys(case, n=None):
    if case == 1:
        return list(itertools.combinations(range(1, 6), 3))
    if case == 2:
        return list(itertools.combinations(range(1, 7), 3))
    return list(itertools.combinations(range(1, 2 * n), 2))


def float_orbit(x, dim, degree):
    """Real orbit re-derived from lambda, B_x or the skew determinant."""
    import numpy as np
    scale = max(1.0, max(abs(v) for v in x.values()))
    if (dim, degree) == (6, 3):
        lam = float(E.hitchin_lambda(x))
        if abs(lam) <= 1e-9 * scale ** 4:
            return "degenerate"
        return "case1_positive" if lam > 0 else "case1_negative"
    if (dim, degree) == (7, 3):
        eig = np.linalg.eigvalsh(np.array(E.bryant_b(x), dtype=float))
        tol = 1e-9 * scale ** 3
        if np.min(np.abs(eig)) <= tol:
            return "degenerate"
        return "case2_split" if eig.min() < 0 < eig.max() else "case2_nonsplit"
    M = np.array(skew(x, dim), dtype=float)
    detv = abs(float(np.linalg.det(M)))
    return "case3_nondegenerate" if math.sqrt(detv) > 1e-9 * scale ** (dim // 2) \
        else "degenerate"


def restriction(x, H, keys):
    """Evaluations x(u_I) for the columns u_i of H, from numpy minors."""
    import numpy as np
    H = np.asarray(H, dtype=float)
    out = {}
    for I in keys:
        cols = [i - 1 for i in I]
        out[I] = sum(c * float(np.linalg.det(H[np.ix_([k - 1 for k in K], cols)]))
                     for K, c in x.items())
    return out


def check_perturb(case, target, eps, sign=None, n=None):
    dim, degree = {1: (6, 3), 2: (7, 3), 3: (2 * (n or 0), 2)}[case]

    def check(doc):
        z = parse_form_doc(doc["form"])
        dev = max(abs(z.get(k, 0.0) - v) for k, v in target.items())
        require(dev < eps, f"deviation {dev} not below epsilon {eps}")
        require(abs(dev - doc["deviation"]) <= 1e-12 * max(1.0, dev), "reported deviation differs")
        orbit = float_orbit(z, dim, degree)
        want = {1: "case1_positive" if sign == "+" else "case1_negative",
                2: "case2_split", 3: "case3_nondegenerate"}[case]
        require(orbit == want, f"re-derived orbit {orbit}, requested {want}")
        require(doc["orbit"] == want, f"reported orbit {doc['orbit']}, requested {want}")
    return check


def check_approximate(x, dim, degree, target, eps, planted):
    import numpy as np
    keys = sorted(target)

    def check(doc):
        rows = doc["basis_rows"]
        require(all(isinstance(v, int) for r in rows for v in r), "basis is not integral")
        require(E.det([[Fraction(v) for v in r] for r in rows]) == 1, "basis determinant is not 1")
        H = np.array(rows, dtype=float).T
        vals = restriction(x, H, keys)
        devs = {k: abs(target[k] - vals[k]) for k in keys}
        obj = max(devs.values())
        tol = 1e-9 * max(1.0, max(abs(v) for v in vals.values()))
        require(abs(obj - doc["objective"]) <= tol, f"objective {doc['objective']} != {obj}")
        for k in keys:
            require(abs(devs[k] - doc["per_index_deviation"][_key(k)]) <= tol, "per-index deviation")
        trace = doc["trace"]
        require(all(a >= b for a, b in zip(trace, trace[1:])), "trace increases")
        require(abs(trace[-1] - doc["objective"]) <= tol, "trace does not end at the objective")
        require(doc["success"] is (doc["objective"] < eps), "success flag")
        if planted:
            require(obj < 1e-9 and doc["success"], f"planted word not recovered ({obj})")
        hyp = doc["hypothesis"]
        orbit = float_orbit(x, dim, degree)
        require(hyp["orbit"] == orbit, f"hypothesis orbit {hyp['orbit']}, re-derived {orbit}")
        require(hyp["real_rank_positive"] is (orbit != "case2_nonsplit"), "real rank flag")
    return check


def moves(n):
    """The search alphabet: E_ij(s) = I + s e_i e_j^T, i != j, s = +-1."""
    out = []
    for i in range(n):
        for j in range(n):
            if i != j:
                for s in (1, -1):
                    M = [[int(r == c) for c in range(n)] for r in range(n)]
                    M[i][j] = s
                    out.append(M)
    return out


def _int_mat_mul(A, B):
    return [[sum(A[i][t] * B[t][j] for t in range(len(B))) for j in range(len(B[0]))]
            for i in range(len(A))]


IRRATIONAL_X4 = {(1, 2): math.sqrt(2), (1, 3): math.pi / 3.0, (1, 4): math.e / 4.0,
                 (2, 3): math.sqrt(5) / 2.0, (2, 4): 0.25 + math.sqrt(3), (3, 4): 1.0}


def _target_doc(case, values, n=None):
    doc = {"case": case, "values": {_key(k): v for k, v in sorted(values.items())}}
    if n:
        doc["n"] = n
    return doc


def build_float_search(rng, files):
    # Six commands of a few ms (perturb case1 +/-, case3 at n = 3, 4, two
    # planted searches), six of 25-45 ms (case2, five case3 at n = 5) and four
    # heavy ones: the median latency falls on perturb case3 at n = 5, whose
    # work (a fixed number of dense Pfaffians) does not depend on the seed.
    ops = []
    eps = 0.1

    def uniform(keys):
        return {k: rng.uniform(-1.0, 1.0) for k in keys}

    for sign in ("+", "-"):
        t = uniform(constrained_keys(1))
        path = files.write(_target_doc(1, t))
        ops.append(Op(["perturb", "case1", path, "--epsilon", str(eps), "--sign", sign],
                      check_perturb(1, t, eps, sign=sign)))
    t = uniform(constrained_keys(2))
    path = files.write(_target_doc(2, t))
    ops.append(Op(["perturb", "case2", path, "--epsilon", str(eps)], check_perturb(2, t, eps)))
    for n in (3, 4, 5, 5, 5, 5, 5, 6):
        t = uniform(constrained_keys(3, n))
        path = files.write(_target_doc(3, t, n))
        ops.append(Op(["perturb", "case3", path, "--epsilon", str(eps)],
                      check_perturb(3, t, eps, n=n)))

    one = 1.0
    w6 = {(1, 2, 3): one, (4, 5, 6): one}
    w4 = {(1, 3): one, (2, 4): one}
    for x, dim, degree, case in ((w6, 6, 3, 1), (w4, 4, 2, 3)):
        xpath = files.write(form_doc(x, dim, degree, "float"))
        alphabet = moves(dim)
        # Words of one or two moves: the beam (64) holds the whole alphabet
        # (60 or 24 moves), so depth 2 scores every such word and recovery is
        # certain.  Longer words are not always recovered (see CHANGES.md).
        h = [[int(r == c) for c in range(dim)] for r in range(dim)]
        for _ in range(rng.randint(1, 2)):
            h = _int_mat_mul(h, rng.choice(alphabet))
        keys = constrained_keys(case, dim // 2 if case == 3 else None)
        t = restriction(x, h, keys)
        tpath = files.write(_target_doc(case, t, dim // 2 if case == 3 else None))
        ops.append(Op(["approximate", xpath, tpath, "--epsilon", "1e-9", "--beam", "64",
                       "--depth", "6", "--seed", str(rng.randint(0, 999))],
                      check_approximate(x, dim, degree, t, 1e-9, planted=True)))

    xpath = files.write(form_doc(IRRATIONAL_X4, 4, 2, "float"))
    for _ in range(2):
        t = uniform(constrained_keys(3, 2))
        tpath = files.write(_target_doc(3, t, 2))
        ops.append(Op(["approximate", xpath, tpath, "--epsilon", "1e-12", "--beam", "256",
                       "--depth", "8", "--seed", str(rng.randint(0, 999))],
                      check_approximate(IRRATIONAL_X4, 4, 2, t, 1e-12, planted=False)))

    while True:
        x = {k: rng.uniform(-1.0, 1.0) for k in itertools.combinations(range(1, 8), 3)}
        if float_orbit(x, 7, 3) != "degenerate":
            break
    xpath = files.write(form_doc(x, 7, 3, "float"))
    t = uniform(constrained_keys(2))
    tpath = files.write(_target_doc(2, t))
    ops.append(Op(["approximate", xpath, tpath, "--epsilon", "1e-12", "--beam", "128",
                   "--depth", "4", "--seed", str(rng.randint(0, 999))],
                  check_approximate(x, 7, 3, t, 1e-12, planted=False)))
    return ops


BUILDERS = {"golden": build_golden, "exact_dense": build_exact_dense,
            "float_search": build_float_search}


def build(workload, seed, workdir):
    """The round of one workload: its ops, with input files written to workdir."""
    rng = random.Random(f"{workload}:{seed}")
    return BUILDERS[workload](rng, Files(workdir))
