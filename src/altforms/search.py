"""Beam search over words in elementary integer matrices: find a unimodular
basis whose evaluations of a fixed form approximate a target.

The word alphabet is the elementary matrices E_ij(+-1), i != j (their
inverses are in the set).  Words extend a candidate by right multiplication
(refining the basis); left extension can be enabled as well.  Selection is a
stable sort on (objective, seeded hash, word), and the copies of a matrix are
dropped after it, by content, so runs are reproducible bit for bit.  Each depth
ranks its children on screen values with a proven error bound and re-scores
exactly only those the bound cannot order, so every result is that of exact
scoring (see approximate).  The search runs in one thread and has no thread
setting.
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
    """The best candidate, whether it met epsilon, the best objective after each depth, and,
    per depth, the children scored, the children re-scored exactly, the copies of a matrix
    dropped from the ranking prefix and the tie-break digests taken."""
    candidate: BasisCandidate
    success: bool
    trace: list
    scored: list
    rescored: list
    dropped: list
    digests: list


def approximate(x, y, config=None):
    """Beam search for a unimodular basis minimizing the target deviation.

    Deterministic for a given config: candidates are ranked by (objective, seeded content
    hash, word), duplicates are pruned by matrix content, and the best-so-far objective is
    non-increasing in depth (checked).  The seeded hash spreads exact objective ties
    uniformly instead of biasing the beam toward low-index generators, which matters on the
    large plateaus the sparse representatives produce; the word order remains the final
    tie-break, so runs with one seed agree bit for bit.

    A child, named by (parent, move), has exact integer minors det h[K, I]: its parent's,
    plus the move's term where the move changes them.  Its exact value at a target is the
    fixed-order sum over x's coefficients c_k of c_k times its minor on row set K_k (the sum
    multilinear.evaluate forms), and its objective is its largest |value - target|; the
    copies of one matrix have one exact objective.

    A depth screens every child instead of summing its minors.  Per parent, P = sum_k c_k
    minors[K_k] is one row over every column, exact at the targets.  A child's value at a
    target its sibling pair changes is P[tc] +- P[c2] (c2 the column a right move reads), or
    P[tc] +- one small matmul of the coefficients with the parent's minors on the row sets a
    left move reads; at the others it is its parent's.  Its screen objective, the larger of
    its parent's deviations on the targets the pair leaves alone (keep) and its screen
    deviations on the others, is within delta of its exact objective (_delta derives it from
    Higham's gamma_n bound on sums of rounded products).  A child whose screen deviations
    plus delta are at most keep is certain: its objective is keep, exactly.  Two children
    whose screen objectives differ by more than 2 delta are in the order of their exact ones.

    The ranking is a prefix of the children by (screen objective, child index), grown a
    block at a time (one argpartition, then the block sorted) until it holds beam distinct
    matrices and ends more than 2 delta past the first copy of the beam-th: every child past
    it is exactly worse than beam distinct matrices, so the prefix holds every copy of every
    matrix that can reach the beam.  Each block's byte rows are looked up in a dict of the
    distinct rows already found, so no row is deduped twice.  A matrix keeps its lowest
    child index among its copies, the copy a stable sort on exact objectives keeps, and that
    child's screen objective.  In a cluster of the prefix (a run with steps of at most
    2 delta) that holds two or more matrices, up to 2 delta past the beam-th objective, and
    for the first matrix, an uncertain child is re-scored by the fixed-order sum.  Sorting
    the matrices by (objective, child index) is then, up to the beam's tie group, the stable
    sort of the exact objectives over first copies, and the first objective, which the
    trace records, is exact: words, bases, objectives and traces are those of scoring every
    child exactly.

    The children reaching into the beam are put in order by one lexsort on (objective, hash,
    parent word, move), hashing only the children that tie with another; the digest is
    _blake2.blake2b, the function hashlib.blake2b names, taken without hashlib, which loads
    OpenSSL.  Each depth sums its parents' values from their minors, so no values are
    carried from one depth to the next.

    The minors are float64 from the start: the depth guard keeps deg! max|h|^deg, which
    bounds every minor of every child, below 2^53, so each minor, each parent's minor plus
    or minus a move's term, and each sum of the update is an integer that float64 holds
    exactly.  The screen and the re-scoring work on arrays of at most 2^14 items, and the
    update allocates one new minors array.  The result counts, per depth, the children
    screened and re-scored, the copies dropped from the prefix and the digests taken.
    """
    config = config or SearchConfig()
    n, deg, both, beam = x.dim, x.degree, config.both_sides, config.beam_width
    items, targets = _x_items(x), _targets(x, y)
    sets, dst, src, sign, csrc, ccoef, rsrc, rcoef = _move_tables(n, deg, both)
    nm, nc, nt, nk = len(csrc), len(sets), len(targets), len(items)
    nr, npair = (nm // 2 if both else nm), nm // 2
    kpos = [sets.index(tuple(k)) for k, _ in items]
    krows = np.array(kpos if both else range(nk), dtype=np.intp)
    coefs = np.array([c for _, c in items])
    tcols = np.array([sets.index(tuple(k)) for k, _ in targets], dtype=np.intp)
    tvals = np.array([v for _, v in targets])
    # the screen's items: one per (sibling pair 2q, 2q + 1; target column the pair changes;
    # left moves: all), the same for every parent.  The pair adds +-e to the parent's minor on
    # each row set: e = ccoef m2 (m2 the minor at csrc) for a right move, rcoef m3 (m3 on row
    # set rsrc) for a left one; the first sibling, E_ij(+1), adds +e
    changed = (ccoef[::2, tcols] != 0) | (np.arange(npair) >= nr // 2)[:, None]
    pq, pt = np.nonzero(changed)
    uq, ut = np.nonzero(~changed)  # the targets a pair leaves alone
    mq, tc = 2 * pq, tcols[pt]  # mq: the pair's first move, E_ij(+1)
    a2, c2 = ccoef[mq, tc], csrc[mq, tc]
    nright = np.searchsorted(pq, nr // 2)  # the items of right moves come first
    c2n = c2[:nright] + nc * (a2[:nright] < 0)  # the screen reads a2 P[c2] from [P, -P]
    if both:
        # a left pair's e on every target, sum_k c_k rcoef m3 = lw minors[:, b, tc]: the row
        # sets rsrc of one move are distinct where rcoef is not 0
        lm = np.arange(nr, nm, 2)
        lq, lk = np.nonzero(rcoef[lm][:, krows])
        lw = np.zeros((len(lm), nc))
        lw[lq, rsrc[lm[lq], krows[lk]]] = coefs[lk] * rcoef[lm[lq], krows[lk]]
    salted_state = blake2b(int(config.seed).to_bytes(8, "little", signed=True), digest_size=8)

    def salted(raw):
        """The digest of salt + raw: a copy of the salted state, updated by raw."""
        h = salted_state.copy()
        h.update(raw)
        return h.digest()
    nb = 8 * n * n
    void = np.dtype((np.void, nb))

    def per_pair(q):
        """The max of an array's columns per sibling pair, for columns of pairs q (ascending);
        0 for a pair without columns: deviations are >= 0."""
        starts = np.flatnonzero(np.diff(q, prepend=-1))

        def reduce(a):
            out = np.zeros((len(a), npair))
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

    def screen(minors):
        """Every child's screen objective and whether it is uncertain (child p * nm + m for
        parent p and move m), and delta.  Parents are screened a block at a time, on
        buffers of at most 2^14 items."""
        P = values(minors)
        keep = kept_max(np.abs(P[:, tcols] - tvals)[:, ut])
        nh, delta = P.shape[0], _delta(coefs, minors, tvals)
        flat = np.concatenate([P, -P], axis=1).ravel()
        objs, unsure = np.empty((nh, npair, 2)), np.empty((nh, npair, 2), dtype=bool)
        step = min(nh, max(1, 2 ** 14 // max(1, len(pq))))
        both_signs, e = np.empty((2, step, len(pq))), np.empty((step, len(pq)))
        for lo in range(0, nh, step):
            hi = min(lo + step, nh)
            base = (np.arange(lo, hi) * 2 * nc)[:, None]
            v, d = both_signs[:, :hi - lo], e[:hi - lo]
            flat.take(base + tc, out=v[0], mode="clip")  # in range: clip takes unbuffered
            flat.take(base + c2n, out=d[:, :nright], mode="clip")
            if both:
                left = np.matmul(lw, minors[:, lo:hi, tcols].transpose(1, 0, 2))
                d[:, nright:] = left.reshape(hi - lo, -1)
            np.subtract(v[0], d, out=v[1])
            v[0] += d
            v -= tvals[pt]
            np.abs(v, out=v)
            high = changed_max(v.reshape(-1, len(pq))).reshape(2, hi - lo, npair)
            high = high.transpose(1, 2, 0)  # [parent, pair, sibling], as objs
            np.maximum(keep[lo:hi, :, None], high, out=objs[lo:hi])
            np.greater(high + delta, keep[lo:hi, :, None], out=unsure[lo:hi])
        return objs.reshape(-1), unsure.reshape(-1), delta

    def exact(minors, kids):
        """The objectives of children kids by the fixed-order sum: the largest |value - target|
        over the targets, from the child's minors on the target columns, its parent's plus the
        move's term as update adds it.  A block of at most 2^14 minors at a time."""
        flat = minors.reshape(len(minors), minors.shape[1] * nc)
        out = np.empty(len(kids))
        step = max(1, 2 ** 14 // (max(1, len(flat)) * nt))
        for lo in range(0, len(kids), step):
            p, m = np.divmod(kids[lo:lo + step], nm)
            at = p[:, None] * nc
            own = flat.take(at + tcols, axis=1)
            z = flat.take(at + csrc[m][:, tcols], axis=1)[krows]
            z *= ccoef[m][:, tcols]
            if both:
                rows = rsrc[m][:, krows].T[:, :, None]
                z += rcoef[m][:, krows].T[:, :, None] * np.take_along_axis(own, rows, axis=0)
            z += own[krows]  # exact: at most one term is not 0, and the sum is a minor
            out[lo:lo + step] = np.abs(_fixed_sum(z, coefs, z.shape[1:]) - tvals).max(axis=1)
        return out

    def select(objs, unsure, delta, minors, H, words):
        """The beam's parents, moves and matrices, the objective of its first child, and the
        counts of children screened and re-scored, copies dropped and digests taken."""
        # a prefix of the ranking that holds beam distinct matrices and ends 2 delta past the
        # first copy of the beam-th, grown a block at a time: its objectives, the first
        # position of each matrix in it, and at that position the lowest child index among the
        # matrix's copies.  seen maps each distinct byte row found to its first position, in
        # the order of first, so a block is deduped against the rows before it without sorting
        # them again, and holds the bytes of every matrix the beam can take
        stop, ranked, seen = 0, np.empty(0), {}
        first, lowest = np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp)
        while stop < len(objs):
            start, stop = stop, min(2 * max(stop, beam), len(objs))
            # the first stop children by (objective, child index), the order of a stable sort
            part = np.argpartition(objs, stop - 1)[:stop]
            bound = objs[part].max()
            less = part[objs[part] < bound]
            kids = np.concatenate([less, np.flatnonzero(objs == bound)[:stop - len(less)]])
            kids = kids[np.lexsort((kids, objs[kids]))][start:]
            rows = children(H, *np.divmod(kids, nm)).reshape(len(kids), nb // 8)
            rows = rows.view(void).ravel().tolist()
            key = np.fromiter(map(seen.setdefault, rows, range(start, stop)), np.intp, len(kids))
            ranked, lowest = np.concatenate([ranked, objs[kids]]), np.concatenate([lowest, kids])
            np.minimum.at(lowest, key, kids)
            first = np.concatenate([first, start + np.flatnonzero(key == np.arange(start, stop))])
            if len(first) >= beam and ranked[-1] > ranked[first[beam - 1]] + 2 * delta:
                break
        # a matrix takes its lowest child index, the copy a stable sort on exact objectives
        # keeps, and that child's screen objective.  In a cluster (a run of the prefix with
        # steps of at most 2 delta) of two or more matrices, up to 2 delta past the beam-th
        # screen objective (no matrix past it reaches the beam), and first, a matrix whose
        # child is uncertain is re-scored exactly: then every two matrices whose objectives
        # are 2 delta or less apart and may reach the beam have exact objectives
        cluster = np.cumsum(np.append(True, ranked[1:] - ranked[:-1] > 2 * delta))[first]
        low = lowest[first]
        vals, cut = objs[low], min(beam, len(low))
        many = np.bincount(cluster)[cluster] > 1
        many &= vals <= vals[np.argpartition(vals, cut - 1)[cut - 1]] + 2 * delta
        many[0] = True  # the first objective is the trace's
        redo = np.flatnonzero(many & unsure[low])
        if len(redo):
            vals[redo] = exact(minors, low[redo])
        o = np.lexsort((low, vals))
        kids, ranked = low[o], vals[o]
        end = int(np.searchsorted(ranked, ranked[cut - 1], side="right"))
        pk, mk = np.divmod(kids[:end], nm)
        distinct = list(seen)
        rows = [distinct[k] for k in o[:end].tolist()]  # every child reaching into the beam
        top = np.frombuffer(b"".join(rows), dtype=H.dtype).reshape(end, n, n)
        # ties in objective go by (seeded hash, word): the parent's word, then the move
        _, run, size = np.unique(ranked[:end], return_inverse=True, return_counts=True)
        tied = np.flatnonzero(size[run] > 1)
        digest = np.zeros(end, dtype=np.uint64)
        digest[tied] = np.frombuffer(b"".join(salted(rows[k]) for k in tied.tolist()), dtype=">u8")
        idx = np.lexsort((mk, *words[pk].T[::-1], digest, run))[:cut]
        counts = len(objs), len(redo), stop - len(first), len(tied)
        return pk[idx], mk[idx], top[idx], float(ranked[idx[0]]), counts

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

    def values(minors):
        """[b, c]: x(h_b) on column c, P = sum_k c_k minors[K_k]."""
        return _fixed_sum([minors[r] for r in krows], coefs, minors.shape[1:])

    # minors[r, b, c] = det h_b[row set r, sets[c]], held as floats: integers below 2^53
    minors = np.eye(nc)[list(range(nc)) if both else kpos][:, None, :]
    H, words = np.eye(n, dtype=np.int64)[None], np.zeros((1, 0), dtype=np.intp)
    trace = [float(np.abs(values(minors)[:, tcols] - tvals).max())]
    best = BasisCandidate(H[0].copy(), (), trace[0])
    scored, rescored, dropped, digests = [], [], [], []

    for depth in range(1, config.max_depth + 1):
        # max |child entry|: a move adds one row (column) entry to another of the same row (column)
        hmax = np.sort(np.abs(H), axis=2)[:, :, -2:].sum(2).max()
        if both:
            hmax = max(hmax, np.sort(np.abs(H), axis=1)[:, -2:, :].sum(1).max())
        if math.factorial(deg) * int(hmax) ** deg >= 2 ** 53:
            raise ArithmeticError("basis entries too large for exact float minors")
        # so the minors and every child's minor are integers below 2^53: m1 +- e, the terms the
        # update adds, and the exact sums' terms are exact
        ps, mm, H, first, counts = select(*screen(minors), minors, H, words)
        for total, count in zip((scored, rescored, dropped, digests), counts):
            total.append(count)
        minors, words = update(minors, ps, mm), np.concatenate([words[ps], mm[:, None]], axis=1)
        if first < best.objective:
            best = BasisCandidate(H[0].copy(), tuple(words[0].tolist()), first)
        trace.append(best.objective)
        if not trace[-1] <= trace[-2] + 1e-15:
            raise ArithmeticError("best-so-far must be non-increasing")
        if best.objective < config.epsilon:
            break

    _unimodular_check(best.h)
    return SearchResult(best, best.objective < config.epsilon, trace, scored, rescored, dropped,
                        digests)


def _fixed_sum(rows, coefs, shape):
    """sum_k coefs[k] rows[k] (arrays of the given shape), from zeros in the order of the
    coefficients: the sum multilinear.evaluate forms, and the one by which the search takes
    every exact value."""
    out, term = np.zeros(shape), np.empty(shape)
    for row, c in zip(rows, coefs):
        out += np.multiply(row, c, out=term)
    return out


def _delta(coefs, minors, targets):
    """A bound on |screen deviation - exact deviation| for every child of minors, doubled.

    With u = 2^-53, K = len(coefs) and M = sum |c_k| max |minor|, which bounds
    sum_k |c_k| |m_k| for every column of minors a value reads, the fixed-order sum
    sum_k c_k (m1_k +- e_k) and the screen value P[tc] +- P[c2] (or P[tc] +- the left term)
    are each within gamma_K 2M + u 2M (1 + gamma_K) of the real value: gamma_n = nu/(1 - nu)
    bounds the error of a sum of n rounded products in any order (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., section 3.1), a zero term adds none, and the
    screen rounds its +- once more.  Subtracting a target t rounds each once more, so the two
    deviations differ by at most (2 gamma_K + 3u(1 + gamma_K)) 2M + 2u max|t|, which is below
    2(K + 4) u (2M + max|t|) for K below 10^6.  The other half of delta covers the rounding
    of M and of the comparisons made with delta."""
    bound = np.abs(coefs).sum() * max(minors.max(initial=0.0), -minors.min(initial=0.0))
    return 4 * (len(coefs) + 4) * 2.0 ** -53 * (2 * bound + np.abs(targets).max(initial=0.0))


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
