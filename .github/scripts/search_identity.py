"""Seeded identity sweep of the beam search: prints one line per configuration.

Each line holds the configuration, then the best word, the sha256 of the basis matrix
(int64 bytes), float.hex of the objective and of every trace entry, or the error the search
raised.  The configurations cover dims 4, 6, 7 and 8, beams 1 to 128 and depths 0 to 6,
with left moves in about 40% of them and planted targets in about 30%, on dense, sparse,
integer and representative forms, plus deep dim-4 searches on targets up to 1e16, some
of which stop at the 2^53 guard.
Two versions of the search are identical when their sweeps are.

    PYTHONPATH=src python .github/scripts/search_identity.py > sweep.txt
    python .github/scripts/search_identity.py --compare a.txt b.txt
"""

import argparse
import hashlib
import random
import sys

import numpy as np

from altforms import search as S
from altforms.multilinear import AlternatingForm, all_keys, evaluate
from altforms.perturb import PartialTarget, constrained_keys
from altforms.representatives import make_rep

SHAPES = {4: (2, 3, 2), 6: (3, 1, None), 7: (3, 2, None), 8: (2, 3, 4)}
REPS = {4: ("case3_w", 2), 6: ("case1_w", None), 7: ("case2_w", None), 8: ("case3_w", 4)}
# the largest beam per dim and the cost of a depth, which grows with the alphabet
BEAMS = {4: (1, 2, 3, 5, 8, 16, 32, 64, 128), 6: (1, 2, 4, 8, 16, 32, 64),
         7: (1, 2, 4, 8, 16, 32, 64, 128), 8: (1, 2, 4, 8, 16, 32)}


def planted(x, word, case, n):
    moves = S.generator_moves(x.dim)
    h = np.eye(x.dim, dtype=np.int64)
    for m in word:
        h = h @ moves[m]
    cols = h.T.astype(float).tolist()
    return PartialTarget(case, {k: float(evaluate(x, *(cols[i - 1] for i in k)))
                                for k in constrained_keys(case, n)}, n=n)


def configurations():
    rng = random.Random(1996)
    for _ in range(580):
        dim = rng.choice((4, 4, 6, 6, 7, 7, 8))
        deg, case, n = SHAPES[dim]
        r = rng.random()
        if r < 0.15:
            x = make_rep(REPS[dim][0], n=REPS[dim][1]).as_float()
        else:
            # dense real, dense integer (ties) or sparse real coefficients
            density, ints = (1.0, r < 0.35) if r < 0.75 else (0.4, False)
            x = AlternatingForm(dim, deg, {
                k: float(rng.randint(-2, 2)) if ints else rng.uniform(-1, 1)
                for k in all_keys(dim, deg) if rng.random() < density})
        if rng.random() < 0.3:
            word = [rng.randrange(2 * dim * (dim - 1)) for _ in range(rng.randint(1, 4))]
            y = planted(x, word, case, n)
        else:
            y = {k: rng.choice((rng.uniform(-1, 1), rng.uniform(-3, 3), float(rng.randint(-1, 1))))
                 for k in constrained_keys(case, n)}
        beam = rng.choice(BEAMS[dim])
        depth = rng.randint(0, 6 if beam <= 16 or dim == 4 else 4)
        yield x, y, S.SearchConfig(beam_width=beam, max_depth=depth, seed=rng.randrange(1000),
                                   epsilon=rng.choice((0.0, 1e-9, 1e-12)),
                                   both_sides=rng.random() < 0.4)
    # targets up to 1e16 pull the basis entries up, in some runs until the guard stops them
    for i in range(20):
        y = {k: rng.choice((0.0, 1e16, -1e16, 3e15)) for k in constrained_keys(3, 2)}
        x = AlternatingForm(4, 2, {k: rng.uniform(-1, 1) for k in all_keys(4, 2)})
        yield x, y, S.SearchConfig(beam_width=rng.choice((1, 2, 4)),
                                   max_depth=rng.choice((40, 200)), seed=i, both_sides=i % 2 == 1)


def line(i, x, y, config):
    head = (f"{i} dim={x.dim} beam={config.beam_width} depth={config.max_depth} "
            f"seed={config.seed} epsilon={config.epsilon} both={int(config.both_sides)}")
    try:
        res = S.approximate(x, y, config)
    except (ArithmeticError, ValueError) as err:
        return f"{head} error={type(err).__name__}: {err}"
    cand = res.candidate
    h = hashlib.sha256(np.ascontiguousarray(cand.h, dtype=np.int64).tobytes()).hexdigest()
    return (f"{head} word={','.join(map(str, cand.word))} h={h} "
            f"objective={cand.objective.hex()} trace={','.join(v.hex() for v in res.trace)}")


def compare(a, b):
    with open(a) as fa, open(b) as fb:
        left, right = fa.read().splitlines(), fb.read().splitlines()
    differ = [i for i, (u, v) in enumerate(zip(left, right)) if u != v]
    for i in differ[:10]:
        print(f"line {i + 1} differs:\n  {left[i]}\n  {right[i]}")
    if len(left) != len(right):
        print(f"{a} has {len(left)} lines, {b} has {len(right)}")
    total = max(len(left), len(right))
    same = total - len(differ) - abs(len(left) - len(right))
    print(f"{same} of {total} identical")
    return 0 if same == total else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two sweep outputs line by line")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    for i, (x, y, config) in enumerate(configurations()):
        print(line(i, x, y, config), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
