"""Seeded identity sweep of the exact commands: prints one line per command run.

Each line holds the command and its input, then the exit code and the sha256 of
stdout and of stderr, each command run in-process through altforms.cli.main.
The commands are stab, fixed, invariant, classify and octonion table, on two seeded
dense and two 30%-sparse forms each of shapes (6, 3), (7, 3) and (8, 2) over Q and over
Q(sqrt d) for d in {2, -3, 5, -1, 13}, on seeded forms g (e123 + e456) (delta a
square: rational eigenspaces) and g w1 (delta < 0) with g rational, and on every
representative; then octonion table on seeded float dim-7 forms, rep of every
representative, and verify.  `fixed` is left out on the dense dim-7 Q(sqrt d)
forms, which take seconds each.  Then the float routes: perturb case1 (both
signs), case2 and case3 at n = 2..5 on seeded dense and half-sparse targets at
two epsilons, and approximate on seeded float and representative forms of
dims 4, 6 and 7, each run plain, with --both-sides and with --via-orbit (its
hypothesis flags and the case-2 completion read Q_x).  Two versions of the
program print the same bytes on these commands when their sweeps are identical.

    PYTHONPATH=src python .github/scripts/exact_identity.py > sweep.txt
    python .github/scripts/exact_identity.py --compare a.txt b.txt
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import sys
import tempfile
from fractions import Fraction

from altforms.cli import main as altforms
from altforms.linalg import mat_det
from altforms.multilinear import AlternatingForm, all_keys, gl_action
from altforms.perturb import PartialTarget, constrained_keys
from altforms.representatives import REP_NAMES, make_rep
from altforms.scalars import QuadExt
from altforms.serialize import form_to_dict, target_to_dict
from search_identity import compare  # the same line-by-line count

SHAPES = ((6, 3), (7, 3), (8, 2))
FIELDS = (None, 2, -3, 5, -1, 13)  # None: over Q
COMMANDS = (("stab",), ("fixed",), ("invariant",), ("classify",), ("octonion", "table"))
REP_KWARGS = {"case1_walpha": {"d": 2}, "case3_w": {"n": 3}}
# (case, --sign or n) of the perturb commands
PERTURBS = (("case1", "+"), ("case1", "-"), ("case2", None),
            ("case3", 2), ("case3", 3), ("case3", 4), ("case3", 5))
# (dim, degree, case, n, representatives) of the approximate commands
APPROXIMATES = ((4, 2, 3, 2, ("case3_w",)), (6, 3, 1, None, ("case1_w", "case1_w1")),
                (7, 3, 2, None, ("case2_w", "case2_w1")))
APPROXIMATE_FLAGS = ((), ("--both-sides",), ("--via-orbit",))


def rational(rng):
    return Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 4, 6)))


def forms():
    """(name, form) pairs: the seeded forms, then the representatives."""
    rng = random.Random(1996)
    for dim, degree in SHAPES:
        for d in FIELDS:
            for density, draw in ((1.0, 1), (1.0, 2), (0.3, 1), (0.3, 2)):
                coeffs = {}
                for k in all_keys(dim, degree):
                    if rng.random() < density:
                        v = rational(rng) if d is None else QuadExt(rational(rng), rational(rng), d)
                        if v:
                            coeffs[k] = v
                field = "Q" if d is None else f"Q(sqrt {d})"
                kind = "dense" if density == 1.0 else "sparse"
                yield f"{kind}{draw}-{dim}-{degree}-{field}", AlternatingForm(dim, degree, coeffs)
    for name in ("case1_w", "case1_w1"):
        for draw in (1, 2, 3):
            while True:
                g = [[Fraction(rng.randint(-2, 2)) for _ in range(6)] for _ in range(6)]
                if mat_det(g):
                    break
            yield f"g{draw}-{name}", gl_action(g, make_rep(name))
    for name in REP_NAMES:
        yield name, make_rep(name, **REP_KWARGS.get(name, {}))


def float_forms():
    """(name, form) pairs: seeded dense and sparse float dim-7 forms."""
    rng = random.Random(7)
    for draw, density in enumerate((1.0, 1.0, 0.5, 0.5), 1):
        coeffs = {k: round(rng.uniform(-3, 3), 3) for k in all_keys(7, 3) if rng.random() < density}
        yield f"float{draw}-7-3", AlternatingForm(7, 3, coeffs)


def seeded_target(rng, case, n, density):
    """A target of the case: each value uniform in [-2, 2] at 3 decimals with
    probability density, else 0.0."""
    return PartialTarget(case, {k: round(rng.uniform(-2, 2), 3) if rng.random() < density else 0.0
                                for k in constrained_keys(case, n)}, n=n)


def run(argv):
    """(exit code, stdout, stderr) of altforms.cli.main(argv), in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = altforms(list(argv))
    return code, out.getvalue(), err.getvalue()


def line(label, argv):
    code, out, err = run(argv)
    digest = [hashlib.sha256(s.encode()).hexdigest() for s in (out, err)]
    return f"{label} exit={code} stdout={digest[0]} stderr={digest[1]}"


def write(workdir, name, doc):
    path = os.path.join(workdir, f"{name}.json")
    with open(path, "w") as f:
        json.dump(doc, f)
    return path


def float_route_lines(workdir):
    """perturb and approximate, whose verdicts go through the float routes."""
    rng = random.Random(31)
    for case, arg in PERTURBS:
        k, n = int(case[-1]), arg if case == "case3" else None
        sign = ["--sign", arg] if case == "case1" else []
        for draw, density in enumerate((1.0, 1.0, 0.5), 1):
            path = write(workdir, f"target{draw}-{case}-{arg}",
                         target_to_dict(seeded_target(rng, k, n, density)))
            for eps in ("0.1", "0.01"):
                argv = ["perturb", case, path, "--epsilon", eps, *sign]
                label = f"target{draw}" + (f"-n{n}" if n else "")
                yield line(f"{' '.join(argv[:2] + argv[3:])} {label}", argv)
    for dim, degree, case, n, reps in APPROXIMATES:
        tpath = write(workdir, f"target-{dim}", target_to_dict(seeded_target(rng, case, n, 1.0)))
        xs = [(name, make_rep(name, n=n)) for name in reps]
        xs += [(f"float{draw}-{dim}-{degree}", AlternatingForm(dim, degree, {
            k: round(rng.uniform(-2, 2), 3) for k in all_keys(dim, degree)})) for draw in (1, 2)]
        for name, x in xs:
            xpath = write(workdir, f"x-{name}", form_to_dict(x))
            for flags in APPROXIMATE_FLAGS:
                yield line(f"approximate {name} target-{dim} {' '.join(flags)}".rstrip(),
                           ["approximate", xpath, tpath, "--depth", "2", "--beam", "8", *flags])


def lines(workdir):
    for name, x in forms():
        path = write(workdir, name, form_to_dict(x))
        skip_fixed = name.startswith("dense") and "-7-3-Q(sqrt" in name
        for cmd in COMMANDS:
            if cmd == ("fixed",) and skip_fixed:
                continue
            yield line(f"{' '.join(cmd)} {name}", [*cmd, path])
    for name, x in float_forms():
        path = write(workdir, name, form_to_dict(x))
        yield line(f"octonion table {name}", ["octonion", "table", path])
    for name in REP_NAMES:
        flags = [a for k, v in REP_KWARGS.get(name, {}).items() for a in (f"--{k}", str(v))]
        yield line(f"rep {name}", ["rep", name, *flags])
    yield line("verify", ["verify"])
    yield from float_route_lines(workdir)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two sweep outputs line by line")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    with tempfile.TemporaryDirectory() as workdir:
        for text in lines(workdir):
            print(text, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
