"""The vectorized beam search against a test-local copy of the per-candidate
search it replaced.

``loop_approximate`` expands each beam entry move by move with ``h @ E``,
dedupes through a ``seen`` set of matrix bytes, scores every child with
float 2x2/3x3 determinants of the basis matrix (``batch_objective``) and the
max over all targets, hashes every candidate and ranks with one tuple sort
on (objective, digest bytes, word).  The program carries exact integer
minors instead and takes each child's objective as the larger of two
per-sibling-pair maxima (its parent's deviations on the targets the pair
leaves alone, its own on the targets the pair changes), carrying values only
for the beam.  It screens every child with a value within delta of that
objective, re-scores exactly the near ties the screen cannot order, drops the
copies of a matrix over a prefix of its ranking, and orders the children that
reach into the beam with one ``np.lexsort`` on (objective run, digest as a
big-endian integer, word columns, move), hashing only ties.  The results
must agree bit for bit: word (Python ints), basis, objective and trace.  The
``colliding_keys`` fixture makes the digests collide, so that tie order
rests on the word columns.
``loop_move_tables`` builds the move tables with the sort_sign loop that
``_move_tables`` ran before it read ``multilinear.entry_moves``; the tables
must be equal.
"""

import hashlib
import itertools
import math
import random

import numpy as np
import pytest

from altforms import search as S
from altforms.multilinear import AlternatingForm, all_keys, evaluate, sort_sign
from altforms.perturb import PartialTarget, constrained_keys
from altforms.representatives import make_rep

IRRATIONAL_X4 = AlternatingForm(4, 2, {
    (1, 2): math.sqrt(2), (1, 3): math.pi / 3.0, (1, 4): math.e / 4.0,
    (2, 3): math.sqrt(5) / 2.0, (2, 4): 0.25 + math.sqrt(3), (3, 4): 1.0})


def batch_objective(items, targets, H):
    B = H.shape[0]
    Hf = H.astype(float)
    out = np.zeros(B)
    deg = len(items[0][0]) if items else 3
    for tkey, tval in targets:
        vals = np.zeros(B)
        for xkey, c in items:
            sub = Hf[:, xkey, :][:, :, tkey]
            if deg == 2:
                det = sub[:, 0, 0] * sub[:, 1, 1] - sub[:, 0, 1] * sub[:, 1, 0]
            else:
                det = (sub[:, 0, 0] * (sub[:, 1, 1] * sub[:, 2, 2] - sub[:, 1, 2] * sub[:, 2, 1])
                       - sub[:, 0, 1] * (sub[:, 1, 0] * sub[:, 2, 2] - sub[:, 1, 2] * sub[:, 2, 0])
                       + sub[:, 0, 2] * (sub[:, 1, 0] * sub[:, 2, 1] - sub[:, 1, 1] * sub[:, 2, 0]))
            vals += c * det
        out = np.maximum(out, np.abs(vals - tval))
    return out


def loop_approximate(x, y, config, heads=None):
    """The search as a loop.  A list heads gets, per depth, the objectives of the first
    2 * beam_width children ranked with their copies (stable, in expansion order) and the
    objectives of the distinct matrices among them."""
    n = x.dim
    items = S._x_items(x)
    targets = S._targets(x, y)
    moves = S.generator_moves(n)
    nmoves = len(moves)
    salt = int(config.seed).to_bytes(8, "little", signed=True)

    def tie_hash(h):
        return hashlib.blake2b(salt + h.tobytes(), digest_size=8).digest()

    ident = np.eye(n, dtype=np.int64)
    obj0 = float(batch_objective(items, targets, ident[None])[0])
    beam = [(obj0, (), ident)]
    best = (ident.copy(), (), obj0)
    trace = [obj0]
    for _ in range(config.max_depth):
        stacked, words, seen, kids = [], [], set(), []
        for _, word, h in beam:
            children = [(h @ moves[m], m) for m in range(nmoves)]
            if config.both_sides:
                children += [(moves[m] @ h, m + nmoves) for m in range(nmoves)]
            if heads is not None:
                kids += [h2 for h2, _ in children]
            for h2, m in children:
                if h2.tobytes() not in seen:
                    seen.add(h2.tobytes())
                    stacked.append(h2)
                    words.append(word + (m,))
        if heads is not None:
            all_objs = batch_objective(items, targets, np.stack(kids))
            head = np.argsort(all_objs, kind="stable")[:2 * config.beam_width]
            first = {}
            for i in head.tolist():
                first.setdefault(kids[i].tobytes(), all_objs[i])
            heads.append((all_objs[head].tolist(), list(first.values())))
        objs = batch_objective(items, targets, np.stack(stacked))
        order = sorted(range(len(words)),
                       key=lambda i: (objs[i], tie_hash(stacked[i]), words[i]))
        beam = [(float(objs[i]), words[i], stacked[i]) for i in order[:config.beam_width]]
        if beam[0][0] < best[2]:
            best = (beam[0][2].copy(), beam[0][1], beam[0][0])
        trace.append(best[2])
        if best[2] < config.epsilon:
            break
    return best, trace


def restriction(x, h, case, n=None):
    vals = {k: float(evaluate(x, *[list(map(float, h[:, i - 1])) for i in k]))
            for k in constrained_keys(case, n)}
    return PartialTarget(case, vals, n=n)


def planted(x, word, case, n=None):
    moves = S.generator_moves(x.dim)
    h = np.eye(x.dim, dtype=np.int64)
    for m in word:
        h = h @ moves[m]
    return restriction(x, h, case, n)


def assert_same(x, y, config, heads=None):
    (h, word, objective), trace = loop_approximate(x, y, config, heads)
    res = S.approximate(x, y, config)
    assert res.candidate.word == word
    assert all(type(m) is int for m in res.candidate.word)
    assert np.array_equal(res.candidate.h, h)
    assert res.candidate.objective == objective
    assert res.trace == trace
    assert res.success == (objective < config.epsilon)
    return res


def test_irrational_dim4_beam256_depth8():
    rng = random.Random(81)
    for seed in (0, 3):
        y = {k: rng.uniform(-1, 1) for k in constrained_keys(3, 2)}
        assert_same(IRRATIONAL_X4, y,
                    S.SearchConfig(beam_width=256, max_depth=8, epsilon=1e-12, seed=seed))


def test_dense_dim7_beam128_depth4():
    rng = random.Random(82)
    x = AlternatingForm(7, 3, {k: rng.uniform(-1, 1) for k in all_keys(7, 3)})
    y = {k: rng.uniform(-1, 1) for k in constrained_keys(2)}
    res = assert_same(x, y, S.SearchConfig(beam_width=128, max_depth=4, epsilon=1e-12, seed=2))
    assert len(res.candidate.word) == 4


def test_case1_planted_word_on_the_tie_plateau():
    # the planted word of four moves is not recovered: the objective is flat
    # at 1.0 around the identity, so the hash decides the whole beam
    x = make_rep("case1_w").as_float()
    y = planted(x, (16, 53, 11, 13), 1)
    res = assert_same(x, y, S.SearchConfig(beam_width=64, max_depth=6, seed=7))
    assert res.trace == [1.0] * 7


def test_case1_planted_words_recovered():
    x = make_rep("case1_w").as_float()
    for word, seed in (((16, 53), 0), ((5, 40, 22), 7)):
        assert_same(x, planted(x, word, 1), S.SearchConfig(beam_width=64, max_depth=6, seed=seed))


def test_both_sides():
    x = make_rep("case1_w").as_float()
    assert_same(x, planted(x, (16, 53), 1),
                S.SearchConfig(beam_width=64, max_depth=6, both_sides=True))
    rng = random.Random(83)
    x7 = AlternatingForm(7, 3, {k: rng.uniform(-1, 1) for k in all_keys(7, 3)})
    y7 = {k: rng.uniform(-1, 1) for k in constrained_keys(2)}
    assert_same(x7, y7, S.SearchConfig(beam_width=16, max_depth=3, both_sides=True, seed=5))
    x3 = make_rep("case3_w", n=2).as_float()
    assert_same(x3, planted(x3, (1, 5), 3, 2),
                S.SearchConfig(beam_width=64, max_depth=6, both_sides=True))


def test_irrational_x4_matches_the_oracle():
    y = {(1, 2): 0.3, (1, 3): -0.7, (2, 3): 0.11}
    assert_same(IRRATIONAL_X4, y, S.SearchConfig(beam_width=64, max_depth=6))


def test_sparse_form():
    # support of x smaller than C(n, deg): the minors cover its rows only
    rng = random.Random(84)
    x = AlternatingForm(6, 3, {k: rng.uniform(-1, 1) for k in all_keys(6, 3)
                               if rng.random() < 0.4})
    assert 0 < len(x.coeffs) < 20
    y = {k: rng.uniform(-1, 1) for k in constrained_keys(1)}
    assert_same(x, y, S.SearchConfig(beam_width=64, max_depth=5, seed=11))
    assert_same(x, y, S.SearchConfig(beam_width=16, max_depth=4, seed=11, both_sides=True))
    x8 = AlternatingForm(8, 2, {(1, 2): 0.5, (3, 4): -1.25, (5, 8): 2.0, (6, 7): 0.75})
    y8 = {k: rng.uniform(-1, 1) for k in constrained_keys(3, 4)}
    assert_same(x8, y8, S.SearchConfig(beam_width=32, max_depth=4, seed=1))


def test_zero_form():
    x = AlternatingForm(4, 2, {})
    y = {(1, 2): 0.5, (1, 3): -0.25, (2, 3): 1.0}
    res = assert_same(x, y, S.SearchConfig(beam_width=8, max_depth=3))
    assert res.trace == [1.0] * 4


def test_overflow_guard():
    # the targets pull the basis entries up until 2 * max|h|^2 reaches 2^53,
    # where float minors stop being exact: the search raises instead
    y = {(1, 2): 1e16, (1, 3): 1e16, (2, 3): 1e16}
    config = S.SearchConfig(beam_width=1, max_depth=200)
    with pytest.raises(ArithmeticError, match="too large for exact float minors"):
        S.approximate(IRRATIONAL_X4, y, config)
    depth = 0
    while True:
        try:
            res = S.approximate(IRRATIONAL_X4, y, S.SearchConfig(beam_width=1, max_depth=depth + 1))
        except ArithmeticError:
            break
        depth += 1
    assert 2 * int(np.abs(res.candidate.h).max()) ** 2 >= 2 ** 50
    # up to the last depth that passes the guard the oracle agrees
    assert_same(IRRATIONAL_X4, y, S.SearchConfig(beam_width=1, max_depth=depth))


def test_overflow_guard_at_degree_3():
    # test_overflow_guard on a dense dim-6 trivector: one target of 1e16 pulls the basis
    # entries up until 6 * max|h|^3 reaches 2^53.  The last depth that passes is the one
    # nearest the bound, and there the float minors must still give the oracle's result
    rng = random.Random(95)
    x = AlternatingForm(6, 3, {k: rng.uniform(-1, 1) for k in all_keys(6, 3)})
    y = {k: 1e16 if k == (1, 2, 3) else x.coeffs[k] for k in constrained_keys(1)}
    config = S.SearchConfig(beam_width=1, max_depth=200, both_sides=True)
    with pytest.raises(ArithmeticError, match="too large for exact float minors"):
        S.approximate(x, y, config)
    depth = 0
    while True:
        try:
            config.max_depth = depth + 1
            res = S.approximate(x, y, config)
        except ArithmeticError:
            break
        depth += 1
    assert 2 ** 50 <= 6 * int(np.abs(res.candidate.h).max()) ** 3 < 2 ** 53
    config.max_depth = depth
    assert_same(x, y, config)


def test_dim4_beam256_depth6():
    rng = random.Random(85)
    y = {k: rng.uniform(-1, 1) for k in constrained_keys(3, 2)}
    assert_same(IRRATIONAL_X4, y,
                S.SearchConfig(beam_width=256, max_depth=6, epsilon=1e-12, seed=4))


def test_dense_dim7_and_both_sides():
    rng = random.Random(86)
    x = AlternatingForm(7, 3, {k: rng.uniform(-1, 1) for k in all_keys(7, 3)})
    y = {k: rng.uniform(-1, 1) for k in constrained_keys(2)}
    assert_same(x, y, S.SearchConfig(beam_width=64, max_depth=3, epsilon=1e-12, seed=2))
    assert_same(x, y, S.SearchConfig(beam_width=16, max_depth=3, both_sides=True, seed=6))
    w = make_rep("case1_w").as_float()
    assert_same(w, planted(w, (16, 53), 1),
                S.SearchConfig(beam_width=64, max_depth=4, both_sides=True))


def test_sparse_form_and_plateau():
    rng = random.Random(87)
    x = AlternatingForm(6, 3, {k: rng.uniform(-1, 1) for k in all_keys(6, 3)
                               if rng.random() < 0.4})
    y = {k: rng.uniform(-1, 1) for k in constrained_keys(1)}
    assert_same(x, y, S.SearchConfig(beam_width=64, max_depth=4, seed=11))
    w = make_rep("case1_w").as_float()
    res = assert_same(w, planted(w, (16, 53, 11, 13), 1),
                      S.SearchConfig(beam_width=64, max_depth=4, seed=7))
    assert res.trace == [1.0] * 5


@pytest.fixture(params=["zeros", "mod3"])
def colliding_keys(request, monkeypatch):
    # every tie-break hash collides (zeros) or most do (values 0, 1, 2), in the program and
    # the oracle alike: the order of a tie group must then rest on the word alone.  Returns
    # the list of the program's digest calls, which each test checks is not empty.  The
    # program hashes by copying a salted state and updating it, so the stand-in streams too.
    calls = []

    class Digest:
        def __init__(self, data, digest_size):
            self.data, self.size = data, digest_size

        def update(self, data):
            self.data += data

        def copy(self):
            return type(self)(self.data, self.size)

        def digest(self):
            value = 0 if request.param == "zeros" else sum(self.data) % 3
            return value.to_bytes(self.size, "big")

    class ProgramDigest(Digest):
        def digest(self):
            calls.append(self.data)
            return super().digest()

    monkeypatch.setattr(hashlib, "blake2b", Digest)
    monkeypatch.setattr(S, "blake2b", ProgramDigest)
    return calls


def test_the_program_digest_is_hashlib_blake2b():
    # the program's tie-break digest is the function hashlib.blake2b names, without hashlib
    assert S.blake2b is hashlib.blake2b


def test_colliding_keys_dim4_beam256(colliding_keys):
    test_dim4_beam256_depth6()
    assert colliding_keys


def test_colliding_keys_dense_dim7_and_both_sides(colliding_keys):
    test_dense_dim7_and_both_sides()
    assert colliding_keys


def test_colliding_keys_sparse_form_and_plateau(colliding_keys):
    test_sparse_form_and_plateau()
    assert colliding_keys


def test_dim10_two_form():
    rng = random.Random(88)
    x = AlternatingForm(10, 2, {k: rng.uniform(-1, 1) for k in all_keys(10, 2)})
    y = {k: rng.uniform(-1, 1) for k in constrained_keys(3, 5)}
    assert_same(x, y, S.SearchConfig(beam_width=16, max_depth=3, epsilon=1e-12, seed=9))


def test_dim8_two_form():
    rng = random.Random(89)
    x = AlternatingForm(8, 2, {k: rng.uniform(-1, 1) for k in all_keys(8, 2)})
    y = {k: rng.uniform(-1, 1) for k in constrained_keys(3, 4)}
    assert_same(x, y, S.SearchConfig(beam_width=32, max_depth=4, epsilon=1e-12, seed=10))
    assert_same(x, y, S.SearchConfig(beam_width=8, max_depth=3, both_sides=True, seed=10))


def test_prefix_grows_past_copies_of_one_matrix():
    # the beam of depth 1 is E_a, E_b with E_a E_b = E_b E_a, so at depth 2 the first
    # 2 * beam = 4 ranked children are four copies of that product, by a right and by a left
    # move from each parent.  The prefix must grow until it holds beam distinct children.
    rng = random.Random(194)
    x = AlternatingForm(4, 2, {k: rng.uniform(-1, 1) for k in all_keys(4, 2)})
    heads = []
    assert_same(x, planted(x, (11, 4, 20, 3), 3, 2),
                S.SearchConfig(beam_width=2, max_depth=4, epsilon=0.0, both_sides=True), heads)
    objs, distinct = heads[1]
    assert len(objs) == 4 and len(distinct) == 1


def test_tie_group_at_the_beam_boundary_reaches_past_the_first_prefix():
    # on the case-1 plateau the first 2 * beam ranked children are distinct and tie with the
    # beam-th: the prefix must grow until it holds the whole tie group, which the hash orders
    w = make_rep("case1_w").as_float()
    heads = []
    res = assert_same(w, planted(w, (10, 48, 51, 4), 1), S.SearchConfig(beam_width=8, max_depth=4),
                      heads)
    objs, distinct = heads[0]
    assert len(distinct) == len(objs) == 16 and objs[-1] == distinct[7]
    assert res.trace == [1.0] * 4 + [0.0] and res.candidate.word == (37, 37, 4, 51)


@pytest.mark.parametrize("dim", (4, 6, 7))
def test_sibling_pairs_under_both_sides(dim):
    # a left pair E_ij(+-1) adds +-rcoef m3 per row set, a right pair +-ccoef m2: each
    # sibling must take its own sign
    rng = random.Random(93 + dim)
    deg, case, n = (2, 3, 2) if dim == 4 else (3, dim - 5, None)
    x = AlternatingForm(dim, deg, {k: rng.uniform(-1, 1) for k in all_keys(dim, deg)})
    y = {k: rng.uniform(-1, 1) for k in constrained_keys(case, n)}
    beam = {4: 32, 6: 16, 7: 8}[dim]
    assert_same(x, y, S.SearchConfig(beam_width=beam, max_depth=3, both_sides=True, seed=dim))


def test_random_small_configurations():
    rng = random.Random(91)
    shapes = {4: (2, 3, 2), 6: (3, 1, None), 7: (3, 2, None), 8: (2, 3, 4)}
    for _ in range(100):
        dim = rng.choice((4, 4, 6, 6, 7, 8))
        deg, case, n = shapes[dim]
        r = rng.random()
        if r < 0.2 and dim in (6, 7):
            x = make_rep("case1_w" if dim == 6 else "case2_w").as_float()
        else:
            # dense integer (ties), dense or sparse real coefficients
            density, ints = (1.0, r < 0.5) if r < 0.7 else (0.4, False)
            x = AlternatingForm(dim, deg, {
                k: float(rng.randint(-2, 2)) if ints else rng.uniform(-1, 1)
                for k in all_keys(dim, deg) if rng.random() < density})
        if rng.random() < 0.5:
            y = {k: rng.choice((rng.uniform(-1, 1), float(rng.randint(-1, 1))))
                 for k in constrained_keys(case, n)}
        else:
            y = planted(x, [rng.randrange(2 * dim * (dim - 1)) for _ in range(rng.randint(1, 3))],
                        case, n)
        assert_same(x, y, S.SearchConfig(beam_width=rng.choice((1, 2, 3, 5, 8)),
                                         max_depth=rng.randint(0, 3), seed=rng.randrange(100),
                                         epsilon=rng.choice((0.0, 1e-9)),
                                         both_sides=rng.random() < 0.4))


def deep_configurations():
    # depths 4-6 and beams 4-32 (the dim-7 oracle is slow: beam 4, depth 4-5): tie runs at
    # depth >= 3 reach the parent's word columns when hashes collide; dense, sparse and plateau
    # forms, random and planted targets
    rng = random.Random(96)
    shapes = {4: (2, 3, 2), 6: (3, 1, None), 7: (3, 2, None)}
    plateaus = {4: ("case3_w", 2), 6: ("case1_w", None), 7: ("case2_w", None)}
    for i in range(60):
        dim = (4, 4, 4, 6, 7)[i % 5]
        deg, case, n = shapes[dim]
        kind = i // 5 % 4
        if kind == 0:
            x = make_rep(plateaus[dim][0], n=plateaus[dim][1]).as_float()
        else:
            x = AlternatingForm(dim, deg, {k: rng.uniform(-1, 1) for k in all_keys(dim, deg)
                                           if kind != 1 or rng.random() < 0.4})
        if kind == 3:
            y = {k: rng.uniform(-1, 1) for k in constrained_keys(case, n)}
        else:
            y = planted(x, [rng.randrange(2 * dim * (dim - 1)) for _ in range(rng.randint(2, 5))],
                        case, n)
        beam = rng.choice({4: (4, 8, 16, 32), 6: (4, 8, 16), 7: (4,)}[dim])
        yield x, y, S.SearchConfig(beam_width=beam, max_depth=rng.randint(4, 5 if dim == 7 else 6),
                                   seed=rng.randrange(1000), epsilon=0.0,
                                   both_sides=i % 2 == 1)


def test_deep_configurations():
    for x, y, config in deep_configurations():
        assert_same(x, y, config)


def test_colliding_keys_deep_configurations(colliding_keys):
    test_deep_configurations()


@pytest.mark.parametrize("both_sides, y", [
    (False, {(1, 2): 1e16, (1, 3): 1e16, (2, 3): 1e16}),
    (True, {(1, 2): 0.0, (1, 3): 0.0, (2, 3): 1e16}),  # a left child (a column sum) trips it
])
def test_overflow_guard_trips_at_the_first_child_past_the_bound(both_sides, y):
    # the guard reads max |child entry| off the beam; it must trip at the first depth whose
    # beam has a child with 2 * max|h|^2 >= 2^53, found here by a walk with explicit
    # children and the oracle's ranking (a beam of one keeps the first child of the order)
    items, targets = S._x_items(IRRATIONAL_X4), S._targets(IRRATIONAL_X4, y)
    moves = S.generator_moves(4)
    salt = (0).to_bytes(8, "little", signed=True)
    h, depth = np.eye(4, dtype=np.int64), 0
    while True:
        kids = [h @ g for g in moves] + ([g @ h for g in moves] if both_sides else [])
        if 2 * max(int(np.abs(k).max()) for k in kids) ** 2 >= 2 ** 53:
            break
        objs = batch_objective(items, targets, np.stack(kids))
        best = min(range(len(kids)), key=lambda i: (
            objs[i], hashlib.blake2b(salt + kids[i].tobytes(), digest_size=8).digest(), i))
        h, depth = kids[best], depth + 1
    config = S.SearchConfig(beam_width=1, max_depth=depth, both_sides=both_sides)
    S.approximate(IRRATIONAL_X4, y, config)
    config.max_depth = depth + 1
    with pytest.raises(ArithmeticError, match="too large for exact float minors"):
        S.approximate(IRRATIONAL_X4, y, config)


def loop_move_tables(n, deg, both_sides):
    """_move_tables as it was before it read multilinear.entry_moves: the right moves'
    minor tables from a sort_sign loop over every (move, index set)."""
    sets = list(itertools.combinations(range(n), deg))
    mv = S._move_list(n)
    ident = np.tile(np.arange(len(sets)), (len(mv), 1))
    src, coef = ident.copy(), np.zeros_like(ident)
    for m, (i, j, s) in enumerate(mv):
        for k, I in enumerate(sets):
            if j in I and i not in I:
                swapped, sign = sort_sign([i if c == j else c for c in I])
                src[m, k], coef[m, k] = sets.index(swapped), s * sign
    mi, mj, ms = (np.array(col) for col in zip(*mv))
    a, ri, rj = np.arange(n), mi[:, None], mj[:, None]
    dst, esrc = a * n + rj, a * n + ri
    if not both_sides:
        return sets, dst, esrc, ms, src, coef, None, None
    tr = [mv.index((j, i, s)) for i, j, s in mv]
    return (sets, np.concatenate([dst, ri * n + a]), np.concatenate([esrc, rj * n + a]),
            np.tile(ms, 2), np.concatenate([src, ident]), np.concatenate([coef, 0 * coef]),
            np.concatenate([ident, src[tr]]), np.concatenate([0 * coef, coef[tr]]))


@pytest.mark.parametrize("both_sides", [False, True])
@pytest.mark.parametrize("deg", [2, 3])
@pytest.mark.parametrize("n", range(3, 8))
def test_move_tables_match_the_sort_sign_loop(n, deg, both_sides):
    got, want = S._move_tables(n, deg, both_sides), loop_move_tables(n, deg, both_sides)
    assert got[0] == want[0]
    for g, w in zip(got[1:], want[1:]):
        assert (g is None and w is None) or (g.dtype == w.dtype and np.array_equal(g, w))


# The screen: every child is ranked on a value within delta of its fixed-order sum, and the
# matrices whose screen objectives are 2 delta or less apart are re-scored exactly.  Where
# delta is large (large minors) or the objectives are close (planted targets, whose best
# children all score near 0), screen and exact values order children differently, and only
# the re-scoring keeps the results the oracle's.

@pytest.mark.parametrize("both_sides", [False, True])
def test_screen_at_the_beam_boundary_with_large_minors(both_sides):
    # targets of 1e12 pull the basis entries up to about 1e6 and the minors to about 1e12,
    # where a screen value is off its fixed-order sum by up to 1e-4
    rng = random.Random(311 + both_sides)
    for seed in range(3):
        x = AlternatingForm(4, 2, {k: rng.uniform(-1, 1) for k in all_keys(4, 2)})
        y = {k: rng.choice((1e12, -1e12, 3e11, 0.5)) for k in constrained_keys(3, 2)}
        assert_same(x, y, S.SearchConfig(beam_width=16, max_depth=24, seed=seed,
                                         both_sides=both_sides))


@pytest.mark.parametrize("dim", [6, 7])
def test_screen_at_the_beam_boundary_with_planted_targets(dim):
    # a planted word's matrix and its neighbours score within rounding of 0, and of each
    # other, on a dense form: their order is the exact sums'
    rng = random.Random(320 + dim)
    case = dim - 5
    for i in range(4):
        x = AlternatingForm(dim, 3, {k: rng.uniform(-1, 1) for k in all_keys(dim, 3)})
        word = [rng.randrange(2 * dim * (dim - 1)) for _ in range(3)]
        assert_same(x, planted(x, word, case), S.SearchConfig(
            beam_width=8 if dim == 7 else 16, max_depth=4, epsilon=0.0, seed=i,
            both_sides=i % 2 == 1))


DECIMALS = (0.1, 0.2, 1 / 3, -0.7, 2.0)
# forms with decimal coefficients (one character per key of all_keys(dim, deg): an index into
# DECIMALS, or '.' for none) and planted words.  Near the planted matrix, sums of these
# coefficients times integer minors fall within rounding of each other, and screen and exact
# objectives order children differently: with delta 0, which re-scores only exact screen
# ties, each of these returns another word or trace.  (dim, coefficients, planted word, beam,
# depth, seed, both_sides)
NEAR_TIES = [
    (4, ".040..", (21, 3), 3, 4, 27, True),
    (8, "0.310303102.2000.100..041324", (6, 3, 3, 33), 3, 5, 51, False),
    (7, "42.......2.31234......0.30.334.33.0", (65, 22, 24), 1, 3, 73, False),
    (4, "0443.0", (18, 7), 1, 3, 85, False),
    (7, "1212..40......1.1.4.4..302..34.03..", (63, 17), 1, 3, 58, False),
    (6, ".3.30.13.1024.23113.", (7, 29, 32, 15), 8, 4, 4, False),
    (7, "23110.12210...043.0..41.42141.33122", (60, 73, 50), 2, 4, 32, True),
]


@pytest.mark.parametrize("dim, code, word, beam, depth, seed, both_sides", NEAR_TIES)
def test_screen_near_ties_of_decimal_coefficients(dim, code, word, beam, depth, seed, both_sides):
    deg, case, n = {4: (2, 3, 2), 6: (3, 1, None), 7: (3, 2, None), 8: (2, 3, 4)}[dim]
    x = AlternatingForm(dim, deg, {k: DECIMALS[int(c)] for k, c in zip(all_keys(dim, deg), code)
                                   if c != "."})
    res = assert_same(x, planted(x, word, case, n), S.SearchConfig(
        beam_width=beam, max_depth=depth, seed=seed, epsilon=0.0, both_sides=both_sides))
    assert sum(res.rescored) > 0


def test_dense_dim7_rescores_few_children():
    # the configuration of test_dense_dim7_beam128_depth4: past depth 1 (84 children, so 84
    # parents at depth 2) the screen leaves at most 5% of the children to the exact sum
    rng = random.Random(82)
    x = AlternatingForm(7, 3, {k: rng.uniform(-1, 1) for k in all_keys(7, 3)})
    y = {k: rng.uniform(-1, 1) for k in constrained_keys(2)}
    res = S.approximate(x, y, S.SearchConfig(beam_width=128, max_depth=4, epsilon=1e-12, seed=2))
    assert res.scored == [84, 84 * 84, 128 * 84, 128 * 84]
    assert all(r <= 0.05 * s for r, s in zip(res.rescored[1:], res.scored[1:]))


def loop_tied_counts(x, y, config):
    """Per depth of loop_approximate (right moves), the number of distinct children reaching
    into the beam (objective at most the beam-th's) whose objective another of them shares:
    those the ranking hashes."""
    moves = S.generator_moves(x.dim)
    items, targets = S._x_items(x), S._targets(x, y)
    salt = int(config.seed).to_bytes(8, "little", signed=True)
    beam, counts = [((), np.eye(x.dim, dtype=np.int64))], []
    for _ in range(config.max_depth):
        kids, seen = [], set()
        for word, h in beam:
            for m, g in enumerate(moves):
                if (h @ g).tobytes() not in seen:
                    seen.add((h @ g).tobytes())
                    kids.append((word + (m,), h @ g))
        objs = batch_objective(items, targets, np.stack([h for _, h in kids]))
        cut = np.sort(objs)[min(config.beam_width, len(kids)) - 1]
        _, size = np.unique(objs[objs <= cut], return_counts=True)
        counts.append(int(size[size > 1].sum()))
        order = sorted(range(len(kids)), key=lambda i: (
            objs[i], hashlib.blake2b(salt + kids[i][1].tobytes(), digest_size=8).digest(),
            kids[i][0]))
        beam = [kids[i] for i in order[:config.beam_width]]
    return counts


def test_digests_on_the_tie_plateau_are_the_tied_children():
    # every target 0.3 on case1_w: whole depths tie, and a digest is taken for each child
    # reaching into the beam that ties with another, no more
    x = make_rep("case1_w").as_float()
    y = {k: 0.3 for k in constrained_keys(1)}
    config = S.SearchConfig(beam_width=64, max_depth=6, seed=7)
    res = assert_same(x, y, config)
    assert res.digests == loop_tied_counts(x, y, config)
    assert res.digests[0] == 60 and all(d > 64 for d in res.digests[1:])  # 60 moves at depth 1
