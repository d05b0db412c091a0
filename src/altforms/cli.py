"""Command-line surface: representatives, invariants, classification,
stabilizers, octonion tables, perturbation, basis search, and the golden
verification suite.

All commands print JSON on stdout (``--pretty`` switches to an aligned text
rendering).  Exit codes: 0 success, 1 domain error, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from functools import lru_cache

from . import cayley_dickson as cd
from . import linalg, perturb, serialize, stabilizers
from .invariants import _delta_from_q, delta_case1, delta_case2, invariant_report, q_case2, s_case1
from .multilinear import AlternatingForm, gl_action
from .orbits import classify_real, irrationality_report
from .representatives import REP_NAMES, g_alpha, make_rep
from .scalars import QuadExt, demote, scalar_to_json
from .serialize import FormFormatError


def _emit(obj, pretty=False):
    if pretty:
        _emit_pretty(obj)
        return
    try:
        text = _json(obj, "\n")
    except TypeError:  # a dict key not a str: json.dumps coerces it, or raises
        text = json.dumps(obj, indent=2, default=str)
    print(text)


_ascii = json.encoder.encode_basestring_ascii  # the string encoder json.dumps uses
_leaf = json.JSONEncoder(default=str).encode  # json's C encoder: no indent, same leaves


def _json(obj, pad):
    """json.dumps(obj, indent=2, default=str) for an obj whose dict keys are all
    str (else TypeError), nested at the indent that pad ("\n" and spaces) gives.

    json.dumps runs its pure-Python encoder whenever it indents.  Here each
    list of str is joined by one C call, and every other leaf (numbers,
    None, bools, str() of any other object) is json's own C spelling."""
    if isinstance(obj, str):
        return _ascii(obj)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = pad + "  "
        try:
            body = ("," + inner).join(map(_ascii, obj))
        except TypeError:  # an entry not a str
            body = ("," + inner).join([_json(v, inner) for v in obj])
        return "[" + inner + body + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = pad + "  "
        return "{" + inner + ("," + inner).join(
            [_ascii(k) + ": " + _json(v, inner) for k, v in obj.items()]) + pad + "}"
    return int.__repr__(obj) if type(obj) is int else _leaf(obj)


def _emit_pretty(obj, indent=0):
    pad = "  " * indent
    if isinstance(obj, dict):
        width = max((len(str(k)) for k in obj), default=0)
        for k, v in obj.items():
            if isinstance(v, (dict, list)) and v and not _is_flat(v):
                print(f"{pad}{k}:")
                _emit_pretty(v, indent + 1)
            else:
                print(f"{pad}{str(k):<{width}}  {_flat(v)}")
    elif isinstance(obj, list):
        for k, v in enumerate(obj):
            if not isinstance(v, (dict, list)) or _is_flat(v):  # a scalar, or a row on one line
                print(f"{pad}{_flat(v)}")
                continue
            if k and isinstance(v, list) and isinstance(obj[k - 1], list):
                print()  # one blank line between consecutive matrices
            _emit_pretty(v, indent)
    else:
        print(f"{pad}{_flat(obj)}")


def _is_flat(v):
    """Whether v prints on one line: a Q(sqrt d) value, or a list of scalars and such values."""
    if isinstance(v, list):
        return all(not isinstance(x, (dict, list)) or _is_quad(x) for x in v)
    return _is_quad(v)


def _is_quad(v):
    return isinstance(v, dict) and v.keys() == {"a", "b", "d"}


def _flat(v):
    """v on one line: a list as [x, y, ...], a Q(sqrt d) value as a + b sqrt(d)."""
    if isinstance(v, list):
        return "[" + ", ".join(_flat(x) for x in v) + "]"
    if _is_quad(v):
        b = str(v["b"])
        return f"{v['a']} - {b[1:]} sqrt({v['d']})" if b.startswith("-") else \
            f"{v['a']} + {b} sqrt({v['d']})"
    return str(v)


def cmd_rep(args):
    form = make_rep(args.name, d=args.d, n=args.n)
    _emit(serialize.form_to_dict(form), args.pretty)
    return 0


def cmd_invariant(args):
    x = serialize.parse_form(args.form)
    rep = invariant_report(x)
    out = {"case": rep.case,
           "delta": scalar_to_json(rep.delta) if rep.delta is not None else None,
           "delta_exact": rep.delta_exact}
    if rep.s_matrix is not None:
        out["s_matrix"] = scalar_to_json(rep.s_matrix)
    if rep.q_gram is not None:
        out["q_gram"] = scalar_to_json(rep.q_gram)
    if rep.pfaffian is not None:
        out["pfaffian"] = scalar_to_json(rep.pfaffian)
    _emit(out, args.pretty)
    return 0


def cmd_classify(args):
    x = serialize.parse_form(args.form)
    rep = classify_real(x, tol=args.tol)
    out = {"case": rep.case, "real_orbit": rep.real_orbit,
           "real_rank_positive": rep.real_rank_positive,
           "delta": scalar_to_json(rep.delta) if rep.delta is not None else None}
    if rep.field_d is not None:
        out["field_d"] = rep.field_d
    if rep.real_orbit != "degenerate":
        irr = irrationality_report(x, max_den=args.max_den, tol=args.tol, q=rep.q)
        out["irrationality"] = {
            name: {"rational": v.rational, "mode": v.mode, "detail": v.detail}
            for name, v in irr.flags.items()}
    _emit(out, args.pretty)
    return 0


def cmd_stab(args):
    x = serialize.parse_form(args.form)
    L = stabilizers.stab_lie_algebra(x)
    _emit({"dim": L.dim, "ambient": L.ambient_dim,
           "basis": L.basis_json()}, args.pretty)
    return 0


def cmd_fixed(args):
    x = serialize.parse_form(args.form)
    L = stabilizers.stab_lie_algebra(x)
    basis = stabilizers.fixed_space(L, (x.dim, x.degree))
    _emit({"dim": len(basis),
           "basis": [serialize.form_to_dict(f) for f in basis]}, args.pretty)
    return 0


def _algebra_checks(A):
    norm_ok, unit_ok = cd.algebra_laws(A)
    return {"norm_multiplicative_on_samples": norm_ok, "unit_law": unit_ok,
            "norm_of_unit": scalar_to_json(A.one.norm())}


def cmd_octonion(args):
    if args.what == "table":
        if not args.form:
            raise FormFormatError("octonion table needs a form file")
        x = serialize.parse_form(args.form)
        A = cd.octonion_from_form(x)
        out = {"dim": A.dim,
               "table": scalar_to_json(A.table),
               "norm_gram": scalar_to_json(A.gram),
               "checks": _algebra_checks(A)}
        _emit(out, args.pretty)
        return 0
    A = cd.split_octonions() if args.algebra == "split" else cd.octonions()  # c-form
    _emit(serialize.form_to_dict(cd.c_form(A)), args.pretty)
    return 0


def cmd_perturb(args):
    target = serialize.parse_target(args.target)
    case = {"case1": 1, "case2": 2, "case3": 3}[args.case]
    if case != target.case:
        raise FormFormatError(f"target file is case {target.case}, command says {args.case}")
    if case == 1:
        cert = perturb.extend_case1(target, args.epsilon, args.sign or "+")
    elif case == 2:
        cert = perturb.extend_case2(target, args.epsilon)
    else:
        cert = perturb.extend_case3(target, args.epsilon)
    out = {"form": serialize.form_to_dict(cert.form),
           "deviation": cert.deviation,
           "auxiliaries": {k: scalar_to_json(v) for k, v in cert.auxiliaries.items()},
           "orbit": cert.orbit.real_orbit,
           "real_rank_positive": cert.orbit.real_rank_positive}
    _emit(out, args.pretty)
    return 0


def cmd_approximate(args):
    from . import search  # lazily: it imports numpy, which no other command needs
    x = serialize.parse_form(args.x)
    target = serialize.parse_target(args.target)
    config = search.SearchConfig(beam_width=args.beam, max_depth=args.depth,
                                 seed=args.seed, epsilon=args.epsilon,
                                 both_sides=args.both_sides)
    cert = None
    if args.via_orbit:
        target, cert = search.project_target_via_orbit(x, target, args.epsilon / 2.0)
    xf = x.as_float()
    result = search.approximate(xf, target, config)
    cand = result.candidate
    out = {"success": result.success,
           "objective": cand.objective,
           "word": list(cand.word),
           "basis_rows": cand.basis_rows(),
           "per_index_deviation": search.deviations(xf, target, cand.h),
           "trace": result.trace,
           "trace_note": "per-depth best objective; convergence rate is a "
                         "property of this search, not a guarantee",
           "hypothesis": search.hypothesis_check(x)}
    if cert is not None:
        out["via_orbit_deviation"] = cert.deviation
    _emit(out, args.pretty)
    return 0


def _verify_rows():
    rows = []

    def row(name, computed, expected):
        rows.append({"name": name, "computed": str(computed), "expected": str(expected),
                     "pass": computed == expected})

    w1 = make_rep("case1_w")
    expected_S = [[Fraction(1 if i < 3 else -1) if i == j else Fraction(0)
                   for j in range(6)] for i in range(6)]
    row("case1 S_w = diag(1,1,1,-1,-1,-1)", s_case1(w1), expected_S)
    row("case1 delta(w) = 1", delta_case1(w1), Fraction(1))
    for d in (-1, 2, 3, 5):
        row(f"case1 delta(w_alpha({d})) = 64d", delta_case1(make_rep("case1_walpha", d=d)),
            Fraction(64 * d))
    row("case1 delta(w1) = -64", delta_case1(make_rep("case1_w1")), Fraction(-64))
    for d in (-1, 2):
        det = linalg.mat_det(g_alpha(d))
        row(f"det g_alpha({d}) = -8 sqrt({d})", det, QuadExt(0, -8, d))
    row("g_alpha(2) carries w to w_alpha(2)",
        gl_action(g_alpha(2), w1).map_coeffs(demote), make_rep("case1_walpha", d=2))

    w2 = make_rep("case2_w")
    q = q_case2(w2)
    expected = [[Fraction(0)] * 7 for _ in range(7)]
    expected[0][0] = Fraction(-6)
    for (i, j) in ((1, 4), (2, 5), (3, 6)):
        expected[i][j] = expected[j][i] = Fraction(3)
    row("case2 Q_w = 6(-e1^2+e2e5+e3e6+e4e7)", q, expected)
    wp = make_rep("case2_wprime")
    qp = q_case2(wp)
    expectedp = [[Fraction(0)] * 7 for _ in range(7)]
    expectedp[0][3] = expectedp[3][0] = Fraction(-3)
    expectedp[1][2] = expectedp[2][1] = Fraction(3)
    row("case2 Q_w' = 6(-e1e4+e2e3)", qp, expectedp)
    row("case2 delta(w) = 6", _delta_from_q(q, "rational")[0], Fraction(6))
    row("case2 delta(w') = 0", _delta_from_q(qp, "rational")[0], Fraction(0))
    row("case2 delta(w1) = 2^9*6", delta_case2(make_rep("case2_w1"))[0], Fraction(2 ** 9 * 6))

    split = cd.split_octonions()
    cf = cd.c_form(split)
    half = Fraction(1, 2)
    expected_c = AlternatingForm(7, 3, {(2, 3, 4): half, (5, 6, 7): half, (1, 2, 5): half,
                                        (1, 3, 6): half, (1, 4, 7): half})
    row("split octonion trilinear form (35 coefficients)", cf, expected_c)
    row("reconstructed algebra of case2 w equals the split table",
        cd.octonion_from_form(w2, q) == split, True)

    dims = []
    fixed_dims = []
    for name, kwargs, shape in (("case1_w", {}, (6, 3)), ("case2_w", {}, (7, 3)),
                                ("case3_w", {"n": 2}, (4, 2))):
        x = make_rep(name, **kwargs)
        L = stabilizers.stab_lie_algebra(x)
        dims.append(L.dim)
        fixed_dims.append(len(stabilizers.fixed_space(L, shape)))
    row("stabilizer dimensions (16, 14, 10)", dims, [16, 14, 10])
    row("fixed-space dimensions (2, 1, 1)", fixed_dims, [2, 1, 1])

    pieces = [stabilizers.h1_case1(), stabilizers.u1_case1(), stabilizers.u2_case1(),
              stabilizers.t_case1()]
    row("sl(6) decomposition 16+9+9+1 = 35", stabilizers.span_dim(pieces), 35)
    closed3, _ = stabilizers.subalgebra_closed(stabilizers.join(pieces[0], pieces[1]))
    closed4, _ = stabilizers.subalgebra_closed(stabilizers.join(pieces[0], pieces[2]))
    bad, _ = stabilizers.subalgebra_closed(stabilizers.join(pieces[0], pieces[1], pieces[2]))
    row("block subalgebra closures (True, True, False)", [closed3, closed4, bad],
        [True, True, False])
    return rows


def cmd_verify(args):
    rows = _verify_rows()
    ok = all(r["pass"] for r in rows)
    if args.pretty:
        for r in rows:
            mark = "PASS" if r["pass"] else "FAIL"
            print(f"[{mark}] {r['name']}")
            if not r["pass"]:
                print(f"       computed: {r['computed']}")
                print(f"       expected: {r['expected']}")
        print(f"{sum(r['pass'] for r in rows)}/{len(rows)} golden rows pass")
    else:
        _emit({"rows": rows, "all_pass": ok})
    return 0 if ok else 1


def build_parser():
    p = argparse.ArgumentParser(prog="altforms", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--pretty", action="store_true", help="human-readable output")

    sp = sub.add_parser("rep", help="emit a canonical representative form")
    sp.add_argument("name", choices=REP_NAMES)
    sp.add_argument("--d", type=int, help="squarefree discriminant for case1_walpha")
    sp.add_argument("--n", type=int, help="half-dimension for case3_w")
    common(sp)
    sp.set_defaults(func=cmd_rep)

    sp = sub.add_parser("invariant", help="invariant report for a form file")
    sp.add_argument("form")
    common(sp)
    sp.set_defaults(func=cmd_invariant)

    sp = sub.add_parser("classify", help="real orbit and irrationality report")
    sp.add_argument("form")
    sp.add_argument("--max-den", type=int, default=1000, dest="max_den")
    sp.add_argument("--tol", type=float, default=1e-9)
    common(sp)
    sp.set_defaults(func=cmd_classify)

    sp = sub.add_parser("stab", help="stabilizer algebra basis of a form")
    sp.add_argument("form")
    common(sp)
    sp.set_defaults(func=cmd_stab)

    sp = sub.add_parser("fixed", help="forms annihilated by the stabilizer algebra")
    sp.add_argument("form")
    common(sp)
    sp.set_defaults(func=cmd_fixed)

    sp = sub.add_parser("octonion", help="octonion tables and trilinear forms")
    sp.add_argument("what", choices=["table", "c-form"])
    sp.add_argument("form", nargs="?")
    sp.add_argument("--algebra", choices=["split", "nonsplit"], default="split")
    common(sp)
    sp.set_defaults(func=cmd_octonion)

    sp = sub.add_parser("perturb", help="extend a partial target onto a real orbit")
    sp.add_argument("case", choices=["case1", "case2", "case3"])
    sp.add_argument("target")
    sp.add_argument("--epsilon", type=float, required=True)
    sp.add_argument("--sign", choices=["+", "-"])
    common(sp)
    sp.set_defaults(func=cmd_perturb)

    sp = sub.add_parser("approximate", help="beam search for an integral basis")
    sp.add_argument("x")
    sp.add_argument("target")
    sp.add_argument("--epsilon", type=float, default=1e-9)
    sp.add_argument("--depth", type=int, default=6)
    sp.add_argument("--beam", type=int, default=64)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--via-orbit", action="store_true", dest="via_orbit")
    sp.add_argument("--both-sides", action="store_true", dest="both_sides")
    sp.add_argument("--threads", type=int, default=0,
                    help="accepted and ignored; the search runs in one thread")
    common(sp)
    sp.set_defaults(func=cmd_approximate)

    sp = sub.add_parser("verify", help="golden identity suite; exit 0 iff all rows pass")
    common(sp)
    sp.set_defaults(func=cmd_verify)
    return p


# built once per process: parse_args reads the parser and fills a new namespace each call
_parser = lru_cache(maxsize=None)(build_parser)


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
        return code
    except BrokenPipeError:  # the reader is gone: the rest goes to devnull ("Note on SIGPIPE")
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (FormFormatError, ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
