"""Beam search over words in elementary integer matrices: find a unimodular
basis whose evaluations of a fixed form approximate a target.

The word alphabet is the elementary matrices E_ij(+-1), i != j (their
inverses are in the set).  Words extend a candidate by right multiplication
(refining the basis); left extension can be enabled as well.  Selection is a
stable sort on (objective, seeded hash, word), and the copies of a matrix are
dropped after it, by content, so runs are reproducible bit for bit.  The
search runs in one thread and has no thread setting.
"""

from __future__ import annotations

import functools
import itertools
import math
# hashlib.blake2b is this function (CPython never takes blake2 from OpenSSL), and importing
# hashlib loads OpenSSL
from _blake2 import blake2b
from dataclasses import dataclass

import numpy as np

from . import linalg
from .invariants import case_of
from .multilinear import all_keys, entry_moves, evaluate
from .orbits import classify_real, irrationality_report
from .perturb import PartialTarget, constrained_keys

_REQUIRED_FLAGS = {
    "case1_positive": ("E1", "E2", "Gr"),
    "case1_negative": ("Gr",),
    "case2_split": ("Q",),
    "case2_nonsplit": ("Q",),
    "case3_nondegenerate": ("x",),
}


@dataclass
class SearchConfig:
    beam_width: int = 64
    max_depth: int = 6
    seed: int = 0
    epsilon: float = 1e-9
    both_sides: bool = False

    def __post_init__(self):
        if self.beam_width < 1:
            raise ValueError("beam_width must be >= 1")
        if self.max_depth < 0:
            raise ValueError("max_depth must be >= 0")
        if not self.epsilon >= 0:  # NaN too
            raise ValueError(f"epsilon must be >= 0, not {self.epsilon}")
        if not -2 ** 63 <= self.seed < 2 ** 63:
            raise ValueError("seed must be a signed 64-bit integer")


@dataclass
class BasisCandidate:
    h: np.ndarray
    word: tuple
    objective: float

    def basis_rows(self):
        """The basis vectors u_i (columns of h) as row lists."""
        return [list(map(int, self.h[:, i])) for i in range(self.h.shape[0])]


def generator_moves(n):
    """Elementary moves E_ij(s), i != j, s in {+1, -1}, in a fixed order."""
    eye = np.eye(n, dtype=np.int64)
    return [eye + s * np.outer(eye[i], eye[j]) for i, j, s in _move_list(n)]


def _move_list(n):
    return [(i, j, s) for i in range(n) for j in range(n) if i != j for s in (1, -1)]


def _unimodular_check(h):
    det = linalg.mat_det(np.asarray(h, dtype=np.int64).tolist())
    if det != 1:
        raise ValueError(f"matrix is not unimodular (det {det})")


def _x_items(x):
    items = [(key, float(v)) for key, v in sorted(x.coeffs.items())]
    for key, v in items:
        if not math.isfinite(v):
            raise ValueError(f"non-finite coefficient {v!r} at {','.join(map(str, key))!r}")
    # the depth guard keeps every minor below 2^53, so every value x(h) is finite when this is
    if not math.isfinite(sum(abs(v) for _, v in items) * 2.0 ** 53):
        raise ValueError("coefficients too large: sum |c| * 2^53 overflows")
    return [([i - 1 for i in key], v) for key, v in items]


def _targets(x, y):
    case = case_of(x)
    n = x.dim // 2 if case == 3 else None
    keys = constrained_keys(case, n)
    if isinstance(y, PartialTarget):
        vals = y.values
    else:
        vals = {tuple(k): float(v) for k, v in y.items()}
    missing = [k for k in keys if k not in vals]
    if missing:
        raise ValueError(f"target missing keys {missing[:3]}")
    for k in keys:
        if not math.isfinite(float(vals[k])):
            raise ValueError(f"non-finite target value {vals[k]!r} at {','.join(map(str, k))!r}")
    return [([i - 1 for i in k], float(vals[k])) for k in keys]


def deviations(x, y, h):
    """{"i,j,k": |y_I - x(u_I)|} for the columns u_i of a real basis matrix h, in
    constrained-key order, through multilinear.evaluate; no unimodularity check."""
    cols = np.asarray(h, dtype=float).T.tolist()
    return {",".join(str(i + 1) for i in key): abs(v - float(evaluate(x, *(cols[i] for i in key))))
            for key, v in _targets(x, y)}


def objective(x, y, h):
    """Max deviation |y_I - x(u_i...)| over the constrained index set.

    h must be a unimodular integer matrix; its columns are the basis.  The
    reference definition the search tests check; no program path calls it.
    """
    h = np.asarray(h, dtype=np.int64)
    _unimodular_check(h)
    return objective_matrix(x, y, h)


def objective_matrix(x, y, h):
    """The largest of the deviations of an arbitrary (real) basis matrix."""
    return max(deviations(x, y, h).values())


@dataclass
class SearchResult:
    candidate: BasisCandidate
    success: bool
    trace: list


def approximate(x, y, config=None):
    """Beam search for a unimodular basis minimizing the target deviation.

    Deterministic for a given config: candidates are ranked by
    (objective, seeded content hash, word), duplicates are pruned by matrix
    content, and the best-so-far objective is non-increasing in depth
    (checked).  The seeded hash spreads exact objective ties uniformly
    instead of biasing the beam toward low-index generators, which matters
    on the large plateaus the sparse representatives produce; the word order
    remains the final tie-break, so runs with one seed agree bit for bit.

    A depth scores every child, named by (parent, move), from its parent's exact minors
    det h[K, I], updated by the move on the target columns the move changes, as the sum over
    x's coefficients c of c det h[K, I] that multilinear.evaluate forms.  The sibling moves
    E_ij(+1), E_ij(-1) change the same columns by opposite amounts, so one gather serves both.
    A child's objective is the larger of two maxima, taken per sibling pair: its parent's
    deviations on the targets the pair leaves alone, and its own on the targets the pair
    changes; no array of every child's values is built.  A score is a fixed-order sum over
    exact minors, so the copies of one matrix score the same bit for bit and the stable
    ranking holds them in expansion order: duplicates are dropped after ranking, by content
    (a stable argsort over one byte row per matrix, first copies kept), from a prefix of the
    ranking that grows until it holds the beam and the whole tie group at its end.  Child
    matrices are built only for that prefix.  One lexsort orders the children reaching into
    the beam by (objective, hash, parent word, move), and hashes only the children that tie
    with another; the digest is _blake2.blake2b, the function hashlib.blake2b names, taken
    without hashlib, which loads OpenSSL.  The minors of the beam are its parents' minors
    plus each move's term where the move changes them.  Each depth sums its parents' values
    from their minors, from zeros in the order that scored them: exact integer minors make
    these the floats their objectives were taken from, so no values are carried from one
    depth to the next.

    The minors are float64 from the start: the depth guard keeps deg! max|h|^deg, which
    bounds every minor of every child, below 2^53, so each minor, each parent's minor plus
    or minus a move's term, and each sum of the update is an integer that float64 holds
    exactly.  Parents are scored a block at a
    time, the scores and the ranking are freed before the update, and the update allocates
    one new minors array.
    """
    config = config or SearchConfig()
    n, deg, both, beam = x.dim, x.degree, config.both_sides, config.beam_width
    items, targets = _x_items(x), _targets(x, y)
    sets, dst, src, sign, csrc, ccoef, rsrc, rcoef = _move_tables(n, deg, both)
    nm, nc, nt = len(csrc), len(sets), len(targets)
    nr = nm // 2 if both else nm
    kpos = [sets.index(tuple(k)) for k, _ in items]
    krows = kpos if both else range(len(items))
    tcols = np.array([sets.index(tuple(k)) for k, _ in targets], dtype=np.intp)
    tvals = np.array([v for _, v in targets])
    # one item per (sibling pair 2q, 2q + 1; target column the pair changes; left moves: all),
    # the same for every parent.  Per row set the pair adds +-e to the parent's minor m1:
    # e = ccoef m2 (m2 the minor at csrc) for a right move, rcoef m3 for a left one.
    changed = (ccoef[::2, tcols] != 0) | (np.arange(0, nm, 2) >= nr)[:, None]
    pq, pt = np.nonzero(changed)
    uq, ut = np.nonzero(~changed)  # the targets a pair leaves alone
    mq, tc = 2 * pq, tcols[pt]  # mq: the pair's first move, E_ij(+1)
    a2, c2 = ccoef[mq, tc].astype(float), csrc[mq, tc]
    # without left moves e = m2, and m1 + e goes to the sibling whose ccoef is +1: on the
    # columns flip (a2 < 0) that is E_ij(-1)
    flip = np.flatnonzero((a2 < 0) & (not both))
    if both:
        rs, rc = rsrc[mq][:, krows], rcoef[mq][:, krows].astype(float)
    salt = int(config.seed).to_bytes(8, "little", signed=True)
    nb = 8 * n * n

    def per_pair(q):
        """The max of an array's columns per sibling pair, for columns of pairs q (ascending);
        0 for a pair without columns: deviations are >= 0."""
        starts = np.flatnonzero(np.diff(q, prepend=-1))

        def reduce(a):
            out = np.zeros((len(a), nm // 2))
            if len(q):
                out[:, q[starts]] = np.maximum.reduceat(a, starts, axis=1)
            return out
        return reduce
    kept_max, changed_max = per_pair(uq), per_pair(pq)

    def children(H, p, m):
        """The child matrices of parents p under moves m."""
        out, k = H[p].reshape(len(p), n * n), np.arange(len(p))[:, None]
        out[k, dst[m]] += sign[m, None] * out[k, src[m]]
        return out.reshape(-1, n, n)

    def devs(minors):
        """[b, t]: |x(h_b) - y_t|, x(h_b) summed over x's items from zeros as scores are."""
        out, term = np.zeros((minors.shape[1], nt)), np.empty((minors.shape[1], nt))
        for r, (_, c) in zip(krows, items):
            out += np.multiply(minors[r][:, tcols], c, out=term)
        return np.abs(out - tvals)

    def scores(minors):
        """Every child's objective, child p * nm + m for parent p and move m.  Parents are
        scored a block at a time, on buffers of at most 2^14 items: a child's sums do not
        depend on the other children."""
        nh = minors.shape[1]
        flat = minors.reshape(len(minors), nh * nc)
        # a child's objective: the larger of its parent's deviations on the targets its pair
        # leaves alone and its own on the targets the pair changes (a max is exact)
        keep = kept_max(devs(minors)[:, ut])
        objs = np.empty((nh, nm // 2, 2))
        step = min(nh, max(1, 2 ** 14 // max(1, len(pq))))
        bufs = np.empty((5, step, len(pq)))
        for lo in range(0, nh, step):
            hi = min(lo + step, nh)
            base = (np.arange(lo, hi) * nc)[:, None]
            i1, i2 = base + tc, base + c2
            plus, minus, m1, e, m1e = bufs[:, :hi - lo]
            plus.fill(0)
            minus.fill(0)
            for k, (r, (_, c)) in enumerate(zip(krows, items)):
                flat[r].take(i1, out=m1, mode="clip")  # in range: clip takes into m1 unbuffered
                flat[r].take(i2, out=e, mode="clip")
                if both:
                    e *= a2
                    e += rc[:, k] * flat[rs[:, k], i1]
                np.add(m1, e, out=m1e)
                m1 -= e
                m1e *= c
                m1 *= c
                plus += m1e
                minus += m1
            for d in (plus, minus):
                d -= tvals[pt]
                np.abs(d, out=d)
            plus[:, flip], minus[:, flip] = minus[:, flip], plus[:, flip]
            np.maximum(keep[lo:hi], changed_max(plus), out=objs[lo:hi, :, 0])
            np.maximum(keep[lo:hi], changed_max(minus), out=objs[lo:hi, :, 1])
        return objs.reshape(-1)

    def select(objs, H, words):
        """The beam's parents, moves and matrices, and the objective of its first child."""
        order = np.argsort(objs, kind="stable")
        ranked = objs[order]
        # the first copy of each matrix, over a prefix of the ranking that holds beam distinct
        # children and ends past the objective of the last of them (its whole tie group)
        top, stop = H[:0], 0
        while stop < len(order):
            start, stop = stop, min(2 * max(stop, beam), len(order))
            top = np.concatenate([top, children(H, *np.divmod(order[start:stop], nm))])
            pos = _first_copies(top.reshape(stop, nb // 8).view(np.dtype((np.void, nb))).ravel())
            if len(pos) >= beam and ranked[stop - 1] > ranked[pos[beam - 1]]:
                break
        order, ranked = order[pos], ranked[pos]
        cut = min(beam, len(order))
        end = int(np.searchsorted(ranked, ranked[cut - 1], side="right"))
        top = top[pos[:end]]  # every child reaching into the beam, in order
        # ties in objective go by (seeded hash, word): the parent's word, then the move
        pk, mk = np.divmod(order[:end], nm)
        _, run, size = np.unique(ranked[:end], return_inverse=True, return_counts=True)
        tied, raw = np.flatnonzero(size[run] > 1).tolist(), top.tobytes()
        digest = np.zeros(end, dtype=np.uint64)
        digest[tied] = np.frombuffer(b"".join(
            blake2b(salt + raw[k * nb:(k + 1) * nb], digest_size=8).digest()
            for k in tied), dtype=">u8")
        idx = np.lexsort((mk, *words[pk].T[::-1], digest, run))[:cut]
        return pk[idx], mk[idx], top[idx], float(ranked[idx[0]])

    def update(minors, ps, mm):
        """The minors of the children (ps, mm): their parents' minors, in one new array, with
        each move's term added where the move changes them."""
        kk, cc = np.nonzero(ccoef[mm])
        right = minors[:, ps[kk], csrc[mm[kk], cc]]
        right *= ccoef[mm[kk], cc]
        right += minors[:, ps[kk], cc]
        if both:
            lk, rr = np.nonzero(rcoef[mm])
            left = minors[rsrc[mm[lk], rr], ps[lk], :]
            left *= rcoef[mm[lk], rr][:, None]
            left += minors[rr, ps[lk], :]
        new = minors.take(ps, axis=1)
        new[:, kk, cc] = right
        if both:
            new[rr, lk, :] = left
        return new

    # minors[r, b, c] = det h_b[row set r, sets[c]], held as floats: integers below 2^53
    minors = np.eye(nc)[list(range(nc)) if both else kpos][:, None, :]
    H, words = np.eye(n, dtype=np.int64)[None], np.zeros((1, 0), dtype=np.intp)
    trace = [float(devs(minors).max())]
    best = BasisCandidate(H[0].copy(), (), trace[0])

    for depth in range(1, config.max_depth + 1):
        # max |child entry|: a move adds one row (column) entry to another of the same row (column)
        hmax = np.sort(np.abs(H), axis=2)[:, :, -2:].sum(2).max()
        if both:
            hmax = max(hmax, np.sort(np.abs(H), axis=1)[:, -2:, :].sum(1).max())
        if math.factorial(deg) * int(hmax) ** deg >= 2 ** 53:
            raise ArithmeticError("basis entries too large for exact float minors")
        # so the minors and every child's minor are integers below 2^53: m1 +- e, the terms the
        # update adds, and the score sums are exact
        ps, mm, H, first = select(scores(minors), H, words)
        minors, words = update(minors, ps, mm), np.concatenate([words[ps], mm[:, None]], axis=1)
        if first < best.objective:
            best = BasisCandidate(H[0].copy(), tuple(words[0].tolist()), first)
        trace.append(best.objective)
        if not trace[-1] <= trace[-2] + 1e-15:
            raise ArithmeticError("best-so-far must be non-increasing")
        if best.objective < config.epsilon:
            break

    _unimodular_check(best.h)
    return SearchResult(best, best.objective < config.epsilon, trace)


def _first_copies(rows):
    """np.sort(np.unique(rows, return_index=True)[1]), the index of the first copy of each
    value in index order, with one copy of rows where np.unique makes three."""
    perm = rows.argsort(kind="stable")
    ordered = rows[perm]
    first = np.ones(len(rows), dtype=bool)
    first[1:] = ordered[1:] != ordered[:-1]
    return np.sort(perm[first])


@functools.lru_cache(maxsize=None)
def _move_tables(n, deg, both_sides):
    """The moves on h, and on its minors.  A move adds sign times the entries src of h
    to its entries dst (flat indices): column j += s column i for a right move E_ij(s),
    row i += s row j for a left one.  On the minors, over index sets of size deg, a right
    move adds ccoef * det h[K, csrc] to det h[K, I] (csrc: I with j -> i; ccoef: s times
    the reordering sign, 0 unless j in I, i not in I): E_ij e_I = sign * e_csrc, read from
    multilinear.entry_moves (1-based keys, in the order of sets).  Left moves follow, on
    row sets."""
    sets = list(itertools.combinations(range(n), deg))
    mv, moves = _move_list(n), entry_moves(n, deg)
    index = {K: k for k, K in enumerate(all_keys(n, deg))}
    ident = np.tile(np.arange(len(sets)), (len(mv), 1))
    src, coef = ident.copy(), np.zeros_like(ident)
    for m, (i, j, s) in enumerate(mv):
        for I, T, sign in moves[i * n + j]:
            src[m, index[I]], coef[m, index[I]] = index[T], s * sign
    mi, mj, ms = (np.array(col) for col in zip(*mv))
    a, ri, rj = np.arange(n), mi[:, None], mj[:, None]
    dst, esrc = a * n + rj, a * n + ri  # column j += s column i
    if not both_sides:
        return sets, dst, esrc, ms, src, coef, None, None
    tr = [mv.index((j, i, s)) for i, j, s in mv]
    return (sets, np.concatenate([dst, ri * n + a]), np.concatenate([esrc, rj * n + a]),
            np.tile(ms, 2), np.concatenate([src, ident]), np.concatenate([coef, 0 * coef]),
            np.concatenate([ident, src[tr]]), np.concatenate([0 * coef, coef[tr]]))


def hypothesis_check(x, max_den=1000, tol=1e-9):
    """Combined verdict on the density hypotheses: orbit rank and irrationality.

    Returns {"verdict": "pass"|"warn", "reasons": [...], "orbit": ...,
    "flags": {...}}; a warn lists every failing hypothesis.
    """
    rep = classify_real(x, tol)  # rep.q: Q_x of a dim-7 form, reused for its flag
    reasons = []
    flags = {}
    if rep.real_orbit == "degenerate":
        reasons.append("form is degenerate")
    else:
        if not rep.real_rank_positive:
            reasons.append("stabilizer real rank is zero on this orbit")
        irr = irrationality_report(x, max_den=max_den, tol=tol, q=rep.q).flags
        flags = {k: {"rational": v.rational, "mode": v.mode} for k, v in irr.items()}
        for name in _REQUIRED_FLAGS.get(rep.real_orbit, ()):
            if irr[name].rational:
                reasons.append(f"{name} is rational ({irr[name].mode} mode)")
    return {"verdict": "pass" if not reasons else "warn",
            "reasons": reasons,
            "orbit": rep.real_orbit,
            "real_rank_positive": rep.real_rank_positive,
            "flags": flags}


def project_target_via_orbit(x, y, eps):
    """Replace the target by the restriction of a point on x's real orbit.

    Keeps the search objective a literal deviation bound while guaranteeing
    an attainable target; used by the CLI's theorem mode.
    """
    from . import perturb
    case = case_of(x)
    rep = classify_real(x)
    if case == 1:
        sign = "+" if rep.real_orbit == "case1_positive" else "-"
        cert = perturb.extend_case1(y, eps, sign)
    elif case == 2:
        cert = perturb.extend_case2(y, eps)
    else:
        cert = perturb.extend_case3(y, eps, n=x.dim // 2)
    keys = constrained_keys(case, x.dim // 2 if case == 3 else None)
    vals = {k: float(cert.form.coeffs.get(k, 0.0)) for k in keys}
    return PartialTarget(case, vals, n=x.dim // 2 if case == 3 else None), cert
