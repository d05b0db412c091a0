"""Reference mathematics for the benchmark's output checks.

Nothing here imports altforms.  A form is a dict {strictly increasing
1-based index tuple: scalar}; a matrix is a list of rows.  Scalars are
Fraction, float, or Q2 (a + b*sqrt(d)), and every function below only uses
+ - * / and comparisons with zero, so one code path serves all three.

The invariants are computed from their classical definitions, not from the
program's constructions:

* Hitchin (arXiv:math/0010054): for a 3-form rho on a 6-space,
  K_rho(v) = i_v rho ^ rho in L^5 = V (x) L^6, and lambda = tr(K^2) / 6.
* Bryant (arXiv:math/0305124): for a 3-form phi on a 7-space,
  B(u, v) vol = (1/6) i_u phi ^ i_v phi ^ phi.
"""

from __future__ import annotations

import itertools
from fractions import Fraction


class Q2:
    """a + b*sqrt(d) with rational a, b; the field Q(sqrt(d)) for one d."""

    __slots__ = ("a", "b", "d")

    def __init__(self, a, b, d):
        self.a = Fraction(a)
        self.b = Fraction(b)
        self.d = d

    def _lift(self, o):
        if isinstance(o, Q2):
            if o.d != self.d:
                raise ValueError("mixed discriminants")
            return o
        if isinstance(o, (int, Fraction)):
            return Q2(o, 0, self.d)
        return None

    def __add__(self, o):
        o = self._lift(o)
        return NotImplemented if o is None else Q2(self.a + o.a, self.b + o.b, self.d)

    __radd__ = __add__

    def __sub__(self, o):
        o = self._lift(o)
        return NotImplemented if o is None else Q2(self.a - o.a, self.b - o.b, self.d)

    def __rsub__(self, o):
        o = self._lift(o)
        return NotImplemented if o is None else Q2(o.a - self.a, o.b - self.b, self.d)

    def __neg__(self):
        return Q2(-self.a, -self.b, self.d)

    def __mul__(self, o):
        o = self._lift(o)
        if o is None:
            return NotImplemented
        return Q2(self.a * o.a + self.d * self.b * o.b, self.a * o.b + self.b * o.a, self.d)

    __rmul__ = __mul__

    def __truediv__(self, o):
        o = self._lift(o)
        if o is None:
            return NotImplemented
        n = o.a * o.a - o.d * o.b * o.b
        return self * Q2(o.a / n, -o.b / n, o.d)

    def __rtruediv__(self, o):
        return self._lift(o) / self

    def __eq__(self, o):
        if isinstance(o, Q2):
            return self.d == o.d and self.a == o.a and self.b == o.b
        if isinstance(o, (int, Fraction)):
            return self.b == 0 and self.a == o
        return NotImplemented

    def __hash__(self):
        return hash((self.a, self.b, self.d))

    def __repr__(self):
        return f"Q2({self.a}, {self.b}, {self.d})"


def perm_sign(seq):
    """Sign of the permutation sorting seq; 0 when an entry repeats."""
    if len(set(seq)) < len(seq):
        return 0
    inversions = sum(1 for a, b in itertools.combinations(seq, 2) if a > b)
    return -1 if inversions % 2 else 1


def coeff(x, idx):
    """Value of the alternating form x on an arbitrary-order index tuple."""
    s = perm_sign(idx)
    if not s:
        return 0
    v = x.get(tuple(sorted(idx)))
    return 0 if v is None else s * v


def interior(a, x):
    """Contraction i_{u_a} x with the a-th basis vector (1-based)."""
    out = {}
    for key, v in x.items():
        if a in key:
            p = key.index(a)
            rest = key[:p] + key[p + 1:]
            out[rest] = out.get(rest, 0) + (v if p % 2 == 0 else -v)
    return out


def wedge(x, y):
    out = {}
    for kx, vx in x.items():
        for ky, vy in y.items():
            s = perm_sign(kx + ky)
            if s:
                key = tuple(sorted(kx + ky))
                out[key] = out.get(key, 0) + s * vx * vy
    return out


def hitchin_lambda(x):
    """Hitchin's quartic lambda(x) = tr(K_x^2) / 6 of a 3-form on a 6-space."""
    K = [[0] * 6 for _ in range(6)]
    for a in range(1, 7):
        for key, c in wedge(interior(a, x), x).items():
            (b,) = set(range(1, 7)) - set(key)
            # L^5 -> V (x) L^6:  u_b (x) vol  <->  i_{u_b} vol = (-1)^(b-1) (vol without b)
            K[b - 1][a - 1] += c if b % 2 else -c
    return Fraction(1, 6) * sum(K[i][j] * K[j][i] for i in range(6) for j in range(6))


def bryant_b(x):
    """Bryant's symmetric form B_x of a 3-form on a 7-space, as a 7x7 matrix."""
    ix = [interior(a, x) for a in range(1, 8)]
    # only the top coefficient of i_a x ^ i_b x ^ x is needed: pair each
    # 4-form term with the coefficient of x on the complementary indices
    comp = {}
    for key, v in x.items():
        rest = tuple(m for m in range(1, 8) if m not in key)
        comp[rest] = perm_sign(rest + key) * v
    B = [[0] * 7 for _ in range(7)]
    for a in range(7):
        for b in range(a, 7):
            top = sum((c * comp[k] for k, c in wedge(ix[a], ix[b]).items() if k in comp), 0)
            B[a][b] = B[b][a] = Fraction(1, 6) * top
    return B


def derived_action(X, x, dim, degree):
    """X acting as a derivation on an alternating form (push-forward convention):
    (X.x)(l_1..l_p) = sum_a sum_m X[l_a][m] x(l_1..m..l_p)."""
    out = {}
    for L in itertools.combinations(range(1, dim + 1), degree):
        total = 0
        for a in range(degree):
            row = X[L[a] - 1]
            for m in range(1, dim + 1):
                c = row[m - 1]
                if c != 0:
                    v = coeff(x, L[:a] + (m,) + L[a + 1:])
                    if v != 0:
                        total = total + c * v
        if total != 0:
            out[L] = total
    return out


def echelon(rows):
    """Row echelon form by Gaussian elimination over an exact field; returns
    (reduced rows, rank, sign) where sign tracks the row swaps."""
    M = [list(r) for r in rows]
    rank, sign = 0, 1
    ncols = len(M[0]) if M else 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(M)) if M[i][c] != 0), None)
        if piv is None:
            continue
        if piv != rank:
            M[rank], M[piv] = M[piv], M[rank]
            sign = -sign
        p = M[rank][c]
        for i in range(rank + 1, len(M)):
            if M[i][c] != 0:
                f = M[i][c] / p
                M[i] = [a - f * b for a, b in zip(M[i], M[rank])]
        rank += 1
    return M, rank, sign


def rank(rows):
    return echelon(rows)[1] if rows else 0


def det(M):
    R, r, sign = echelon(M)
    if r < len(M):
        return 0
    out = sign
    for i in range(len(M)):
        out = out * R[i][i]
    return out


def definiteness(G):
    """'positive', 'negative', 'indefinite' or 'degenerate' for an exact
    symmetric matrix, by Sylvester's criterion on leading minors."""
    n = len(G)
    if det(G) == 0:
        return "degenerate"
    for sgn, name in ((1, "positive"), (-1, "negative")):
        H = [[sgn * v for v in row] for row in G]
        if all(det([row[:k] for row in H[:k]]) > 0 for k in range(1, n + 1)):
            return name
    return "indefinite"


def mat_mul(A, B):
    return [[sum((A[i][t] * B[t][j] for t in range(len(B))), 0) for j in range(len(B[0]))]
            for i in range(len(A))]


def push_forward(g, x, degree):
    """g.x for a matrix g acting on the underlying space: e_k -> sum_r g[r][k] e_r."""
    dim = len(g)
    out = {}
    for L in itertools.combinations(range(1, dim + 1), degree):
        total = 0
        for K, v in x.items():
            minor = det([[g[l - 1][k - 1] for k in K] for l in L])
            if minor != 0:
                total = total + v * minor
        if total != 0:
            out[L] = total
    return out
