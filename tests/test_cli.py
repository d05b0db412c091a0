import json
import os
import warnings

import pytest

from altforms.cli import main
from altforms.serialize import (FormFormatError, form_from_dict, form_to_dict,
                                parse_form, parse_target, target_from_dict, target_to_dict)
from altforms.multilinear import AlternatingForm
from altforms.perturb import PartialTarget, constrained_keys
from altforms.representatives import make_rep
from fractions import Fraction


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write_json(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_form_round_trip():
    for name, kwargs in (("case1_w", {}), ("case2_w", {}), ("case2_w1", {}),
                         ("case1_walpha", {"d": 2}), ("case3_w", {"n": 2})):
        x = make_rep(name, **kwargs)
        assert form_from_dict(form_to_dict(x)) == x
    f = AlternatingForm(6, 3, {(1, 2, 3): 0.5})
    assert form_from_dict(form_to_dict(f)) == f
    from altforms.scalars import QuadExt
    q = AlternatingForm(6, 3, {(1, 2, 3): QuadExt(1, Fraction(1, 2), 2)})
    assert form_from_dict(form_to_dict(q)) == q


def test_form_parse_errors_are_distinct():
    with pytest.raises(FormFormatError, match="strictly increasing"):
        form_from_dict({"dim": 6, "degree": 3, "scalar": "rational",
                        "coeffs": {"2,1,3": "1"}})
    with pytest.raises(FormFormatError, match="zero denominator"):
        form_from_dict({"dim": 6, "degree": 3, "scalar": "rational",
                        "coeffs": {"1,2,3": "1/0"}})
    with pytest.raises(FormFormatError, match="bad index tuple"):
        form_from_dict({"dim": 6, "degree": 3, "scalar": "rational",
                        "coeffs": {"1,2,x": "1"}})
    with pytest.raises(FormFormatError, match="out of range"):
        form_from_dict({"dim": 6, "degree": 3, "scalar": "rational",
                        "coeffs": {"1,2,9": "1"}})
    with pytest.raises(FormFormatError, match="scalar kind"):
        form_from_dict({"dim": 6, "degree": 3, "scalar": "decimal", "coeffs": {}})


KEY_MESSAGES = [  # (key, message) for a rational dim-6 trivector document
    ("1,x,3", "bad index tuple '1,x,3'"),
    ("", "bad index tuple ''"),
    ("1,2", "bad index tuple '1,2': expected 3 indices"),
    ("1,2,3,4", "bad index tuple '1,2,3,4': expected 3 indices"),
    ("1,2,2", "indices not strictly increasing"),
    ("3,2,1", "indices not strictly increasing"),
    ("0,2,3", "bad index tuple '0,2,3': out of range for dim 6"),
    ("1,2,7", "bad index tuple '1,2,7': out of range for dim 6"),
    ("-1,2,3", "bad index tuple '-1,2,3': out of range for dim 6"),
    ("1,3,2", "indices not strictly increasing"),
    # a key failing several checks gets the first: int, length, order, range
    ("1,x", "bad index tuple '1,x'"),
    ("3,2", "bad index tuple '3,2': expected 3 indices"),
    ("9,2,1", "indices not strictly increasing"),
    ("0,0,1", "indices not strictly increasing"),
    ("7,8,9", "bad index tuple '7,8,9': out of range for dim 6"),
]


@pytest.mark.parametrize("key, message", KEY_MESSAGES)
def test_form_key_validation_messages(key, message):
    with pytest.raises(FormFormatError) as exc:
        form_from_dict({"dim": 6, "degree": 3, "coeffs": {"1,2,3": "1", key: "1"}})
    assert str(exc.value) == message


@pytest.mark.parametrize("key, message", [(k, m) for k, m in KEY_MESSAGES if "range" not in m])
def test_target_key_validation_messages(key, message):
    with pytest.raises(FormFormatError) as exc:
        target_from_dict({"case": 1, "values": {key: 0.5}})
    assert str(exc.value) == message


def test_form_keys_take_what_int_takes():
    x = form_from_dict({"dim": 6, "degree": 3, "coeffs": {" 1, +2 ,3 ": "1", "4,5,06": "2"}})
    assert x.coeffs == {(1, 2, 3): 1, (4, 5, 6): 2}


@pytest.mark.parametrize("key, message", [
    ((1, 2), "key (1, 2) has wrong length for degree 3"),
    ((1, 2, 3, 4), "key (1, 2, 3, 4) has wrong length for degree 3"),
    ((1, 2, 2), "indices not strictly increasing: (1, 2, 2)"),
    ((3, 2, 1), "indices not strictly increasing: (3, 2, 1)"),
    ((1, 3, 2), "indices not strictly increasing: (1, 3, 2)"),
    ((0, 2, 3), "index out of range in (0, 2, 3)"),
    ((1, 2, 7), "index out of range in (1, 2, 7)"),
    ((-1, 2, 3), "index out of range in (-1, 2, 3)"),
    # length, then range, then order
    ((3, 2), "key (3, 2) has wrong length for degree 3"),
    ((3, 2, 9), "index out of range in (3, 2, 9)"),
    ((2, 2, 0), "index out of range in (2, 2, 0)"),
    ((7, 8, 9), "index out of range in (7, 8, 9)"),
])
def test_alternating_form_key_validation_messages(key, message):
    with pytest.raises(ValueError) as exc:
        AlternatingForm(6, 3, {(1, 2, 3): 1, key: 1})
    assert str(exc.value) == message


def test_alternating_form_rejects_a_non_int_index_and_a_bad_degree():
    with pytest.raises(TypeError):
        AlternatingForm(6, 3, {(1, "x", 3): 1})
    with pytest.raises(TypeError):
        AlternatingForm(6, 3, {"123": 1})
    with pytest.raises(ValueError, match=r"^degree 4 out of range for dim 3$"):
        AlternatingForm(3, 4, {(1, 2, 3, 4): 1})
    assert AlternatingForm(6, 3, {iter((4, 5, 6)): 1}).coeffs == {(4, 5, 6): 1}


def test_zero_and_nan_coefficients_are_dropped_or_kept_as_they_compare():
    x = AlternatingForm(6, 3, {(1, 2, 3): -0.0, (1, 2, 4): 0.0, (1, 2, 5): Fraction(0),
                               (1, 2, 6): float("nan"), (1, 3, 4): 0.5})
    assert set(x.coeffs) == {(1, 2, 6), (1, 3, 4)} and x.coeffs[(1, 2, 6)] != 0
    doc = {"dim": 6, "degree": 3, "scalar": "float", "coeffs": {"1,2,3": -0.0, "4,5,6": 1.5}}
    assert form_from_dict(doc).coeffs == {(4, 5, 6): 1.5}
    with pytest.raises(FormFormatError, match=r"^non-finite float value nan$"):
        form_from_dict({"dim": 6, "degree": 3, "scalar": "float",
                        "coeffs": {"1,2,3": float("nan")}})


def test_parse_form_malformed_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(FormFormatError, match="malformed JSON"):
        parse_form(str(path))


def test_target_round_trip():
    t = PartialTarget(3, {k: 0.25 for k in constrained_keys(3, 2)}, n=2)
    assert target_from_dict(target_to_dict(t)).values == t.values


def test_cli_rep_and_invariant(tmp_path, capsys):
    code, out, _ = run(capsys, "rep", "case1_w")
    assert code == 0
    doc = json.loads(out)
    assert doc["coeffs"] == {"1,2,3": "1", "4,5,6": "1"}

    path = write_json(tmp_path, "w.json", doc)
    code, out, _ = run(capsys, "invariant", path)
    assert code == 0
    rep = json.loads(out)
    assert rep["case"] == 1 and rep["delta"] == "1"

    code, out, _ = run(capsys, "rep", "case1_walpha", "--d", "2")
    assert code == 0
    path = write_json(tmp_path, "wa.json", json.loads(out))
    code, out, _ = run(capsys, "invariant", path)
    assert json.loads(out)["delta"] == "128"


def test_cli_classify(tmp_path, capsys):
    code, out, _ = run(capsys, "rep", "case2_w1")
    path = write_json(tmp_path, "w1.json", json.loads(out))
    code, out, _ = run(capsys, "classify", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["real_orbit"] == "case2_nonsplit"
    assert doc["real_rank_positive"] is False
    assert doc["irrationality"]["Q"]["rational"] is True


def test_cli_stab_and_fixed(tmp_path, capsys):
    code, out, _ = run(capsys, "rep", "case2_w")
    path = write_json(tmp_path, "w2.json", json.loads(out))
    code, out, _ = run(capsys, "stab", path)
    assert code == 0
    assert json.loads(out)["dim"] == 14
    code, out, _ = run(capsys, "fixed", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["dim"] == 1


def test_cli_fixed_rejects_float_forms(tmp_path, capsys):
    # a float stabilizer basis is approximate: an exact kernel of it would be
    # empty, while the fixed space of case1_w has dimension 2
    path = write_json(tmp_path, "w1f.json", form_to_dict(make_rep("case1_w").as_float()))
    code, out, err = run(capsys, "fixed", path)
    assert code == 1 and out == ""
    assert err.startswith("error:") and "float" in err


def _dense_rational_form(dim, degree, seed):
    import random
    from altforms.multilinear import all_keys
    rng = random.Random(seed)
    return AlternatingForm(dim, degree, {
        k: Fraction(rng.randint(-255, 255), rng.choice((1, 2, 3, 5, 8, 15, 16, 240)))
        for k in all_keys(dim, degree)})


@pytest.mark.parametrize("dim,degree,stab_dim", [(7, 3, 14), (8, 2, 36)])
def test_cli_fixed_on_dense_rational_forms_is_the_line_of_x(tmp_path, capsys, dim, degree,
                                                            stab_dim):
    # a generic 3-form on R^7 has stabilizer g2 and a generic two-form on R^8
    # sp(8); the forms either one fixes are the multiples of x
    x = _dense_rational_form(dim, degree, seed=dim)
    path = write_json(tmp_path, "x.json", form_to_dict(x))
    code, out, _ = run(capsys, "stab", path)
    assert code == 0 and json.loads(out)["dim"] == stab_dim
    code, out, _ = run(capsys, "fixed", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["dim"] == 1
    (f,) = [form_from_dict(b) for b in doc["basis"]]
    k = next(iter(x.coeffs))
    assert f == x.scale(f.coeffs[k] / x.coeffs[k])


def test_cli_stab_on_a_rational_form_does_not_import_sympy(tmp_path):
    import subprocess
    import sys

    import altforms
    path = write_json(tmp_path, "x.json", form_to_dict(_dense_rational_form(7, 3, seed=1)))
    code = ("import sys\n"
            "from altforms.cli import main\n"
            f"assert main(['stab', {path!r}]) == 0\n"
            "print('sympy' in sys.modules, file=sys.stderr)\n")
    src = os.path.dirname(os.path.dirname(altforms.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stderr.strip() == "False"


def test_cli_octonion(tmp_path, capsys):
    code, out, _ = run(capsys, "octonion", "c-form", "--algebra", "split")
    assert code == 0
    doc = json.loads(out)
    assert doc["coeffs"]["2,3,4"] == "1/2"
    code, out, _ = run(capsys, "rep", "case2_w")
    path = write_json(tmp_path, "w2.json", json.loads(out))
    code, out, _ = run(capsys, "octonion", "table", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["checks"]["norm_multiplicative_on_samples"] is True
    assert doc["checks"]["unit_law"] is True
    assert len(doc["table"]) == 8 and len(doc["table"][0][0]) == 8


def test_cli_perturb(tmp_path, capsys):
    target = {"case": 1, "values": {",".join(map(str, k)): 0.0
                                    for k in constrained_keys(1)}}
    path = write_json(tmp_path, "t1.json", target)
    code, out, _ = run(capsys, "perturb", "case1", path, "--epsilon", "0.1",
                       "--sign", "-")
    assert code == 0
    doc = json.loads(out)
    assert doc["orbit"] == "case1_negative"
    assert doc["deviation"] < 0.1


def _one_entry_case1(tmp_path, key, value):
    values = {",".join(map(str, k)): 0.0 for k in constrained_keys(1)}
    return write_json(tmp_path, "t.json", {"case": 1, "values": {**values, key: value}})


@pytest.mark.parametrize("key, value, eps, sign, message", (
    ("1,3,5", 1.0, "0.01", "-", "the completion is degenerate, not case1_negative"),
    ("3,4,5", 1000.0, "0.01", "+",
     "z_456 reached 2^64 without the classifier finding case1_positive")),
    ids=("minus", "plus"))
def test_cli_perturb_off_the_requested_orbit_is_an_error(tmp_path, capsys, key, value, eps,
                                                         sign, message):
    # each printed "orbit": "degenerate" and exited 0
    path = _one_entry_case1(tmp_path, key, value)
    code, out, err = run(capsys, "perturb", "case1", path, "--epsilon", eps, "--sign", sign)
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_cli_perturb_positive_outgrows_the_classifier_cutoff(tmp_path, capsys):
    # z_456 = 1 passed the old dominance test, and the certificate was degenerate
    path = _one_entry_case1(tmp_path, "3,4,5", 1000.0)
    code, out, _ = run(capsys, "perturb", "case1", path, "--epsilon", "0.1", "--sign", "+")
    doc = json.loads(out)
    assert code == 0 and doc["orbit"] == "case1_positive" and doc["deviation"] < 0.1
    assert doc["form"]["coeffs"]["4,5,6"] == 1024.0


def test_cli_perturb_case3_rejects_a_different_n(tmp_path, capsys):
    # n comes from the target file alone: perturb has no --n option
    path = write_json(tmp_path, "t.json", target_to_dict(
        PartialTarget(3, {k: 0.5 for k in constrained_keys(3, 2)}, n=2)))
    with pytest.raises(SystemExit) as exc:
        main(["perturb", "case3", path, "--epsilon", "0.1", "--n", "7"])
    assert exc.value.code == 2
    assert "--n" in capsys.readouterr().err


def test_cli_perturb_case3_at_n_10(tmp_path, capsys):
    # a 20-dim form: (2n-1)!! = 654,729,075 terms per Pfaffian by expansion
    import random
    rng = random.Random(10)
    values = {k: rng.uniform(-1.0, 1.0) for k in constrained_keys(3, 10)}
    path = write_json(tmp_path, "t.json", target_to_dict(PartialTarget(3, values, n=10)))
    code, out, _ = run(capsys, "perturb", "case3", path, "--epsilon", "0.01")
    assert code == 0
    doc = json.loads(out)
    assert doc["form"]["dim"] == 20
    assert doc["deviation"] < 0.01
    assert doc["orbit"] == "case3_nondegenerate"
    assert abs(doc["auxiliaries"]["pfaffian"]) > 0


def test_cli_approximate(tmp_path, capsys):
    code, out, _ = run(capsys, "rep", "case3_w", "--n", "2")
    xpath = write_json(tmp_path, "x.json", json.loads(out))
    target = {"case": 3, "n": 2,
              "values": {"1,2": 1.0, "1,3": 0.0, "2,3": 0.0}}
    tpath = write_json(tmp_path, "t.json", target)
    code, out, _ = run(capsys, "approximate", xpath, tpath,
                       "--depth", "4", "--beam", "16", "--epsilon", "1e-9")
    assert code == 0
    doc = json.loads(out)
    assert doc["hypothesis"]["verdict"] == "warn"  # integer form is rational
    assert len(doc["trace"]) >= 1
    assert len(doc["basis_rows"]) == 4


def _approximate_configurations(tmp_path, seed):
    """The approximate commands of the benchmark's float_search round for a seed."""
    import importlib
    import sys
    bench = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
    sys.path.insert(0, bench)
    try:
        workloads = importlib.import_module("workloads")
    finally:
        sys.path.remove(bench)
    ops = workloads.build("float_search", seed, str(tmp_path))
    return [op.argv for op in ops if op.command == "approximate"]


@pytest.mark.parametrize("seed", (1, 2, 3))
def test_cli_approximate_objective_is_the_largest_printed_deviation(tmp_path, capsys, seed):
    # the search scores from maintained minors, per_index_deviation comes from
    # multilinear.evaluate: on these configurations the two agree exactly
    configurations = _approximate_configurations(tmp_path, seed)
    assert configurations
    for argv in configurations:
        code, out, _ = run(capsys, *argv)
        doc = json.loads(out)
        assert code == 0
        assert list(doc["per_index_deviation"]) == sorted(doc["per_index_deviation"])
        assert doc["objective"] == max(doc["per_index_deviation"].values())


def test_cli_verify(capsys):
    code, out, _ = run(capsys, "verify")
    assert code == 0
    doc = json.loads(out)
    assert doc["all_pass"] is True
    assert len(doc["rows"]) >= 20

    code, out, _ = run(capsys, "verify", "--pretty")
    assert code == 0
    assert "PASS" in out


def test_cli_domain_error_exit_code(tmp_path, capsys):
    path = write_json(tmp_path, "bad.json",
                      {"dim": 6, "degree": 3, "scalar": "rational",
                       "coeffs": {"2,1,3": "1"}})
    code, _, err = run(capsys, "invariant", path)
    assert code == 1
    assert "strictly increasing" in err


def test_cli_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["rep", "--bogus-flag"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["rep", "not_a_rep_name"])
    assert exc.value.code == 2


def test_cli_pretty_output(tmp_path, capsys):
    code, out, _ = run(capsys, "rep", "case1_w", "--pretty")
    assert code == 0
    assert "dim" in out and "{" not in out.splitlines()[0]


def test_cli_approximate_via_orbit_and_threads(tmp_path, capsys):
    code, out, _ = run(capsys, "rep", "case3_w", "--n", "2")
    xpath = write_json(tmp_path, "x.json", json.loads(out))
    target = {"case": 3, "n": 2, "values": {"1,2": 0.2, "1,3": -0.4, "2,3": 0.6}}
    tpath = write_json(tmp_path, "t.json", target)
    code, out, _ = run(capsys, "approximate", xpath, tpath, "--epsilon", "0.05",
                       "--depth", "4", "--beam", "32", "--via-orbit", "--threads", "2")
    assert code == 0
    doc = json.loads(out)
    assert "via_orbit_deviation" in doc
    assert doc["via_orbit_deviation"] < 0.025


@pytest.mark.parametrize("option, value, message", (
    ("--epsilon", "nan", "epsilon must be >= 0, not nan"),
    ("--epsilon", "-1", "epsilon must be >= 0, not -1.0"),
    ("--seed", str(2 ** 64), "seed must be a signed 64-bit integer"),
    ("--seed", str(-2 ** 63 - 1), "seed must be a signed 64-bit integer")),
    ids=("epsilon-nan", "epsilon-negative", "seed-2^64", "seed-below-int64"))
@pytest.mark.parametrize("via_orbit", (False, True))
def test_cli_approximate_rejects_bad_search_settings(tmp_path, capsys, option, value, message,
                                                    via_orbit):
    # a NaN or negative epsilon ran the whole search and exited 0; the seed failed with
    # "int too big to convert" after the search
    code, out, _ = run(capsys, "rep", "case3_w", "--n", "2")
    xpath = write_json(tmp_path, "x.json", json.loads(out))
    tpath = write_json(tmp_path, "t.json",
                       {"case": 3, "n": 2, "values": {"1,2": 0.2, "1,3": -0.4, "2,3": 0.6}})
    argv = ["approximate", xpath, tpath, "--depth", "2", "--beam", "4", option, value]
    code, out, err = run(capsys, *argv, *(["--via-orbit"] if via_orbit else []))
    assert (code, out, err) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("case", ("case1", "case2", "case3"))
@pytest.mark.parametrize("eps", ("nan", "0", "-0.5"))
def test_cli_perturb_rejects_a_non_positive_epsilon(tmp_path, capsys, case, eps):
    # --epsilon nan got as far as "certificate deviation is not below eps"
    k = int(case[-1])
    keys = constrained_keys(k, 2 if k == 3 else None)
    doc = {"case": k, **({"n": 2} if k == 3 else {}),
           "values": {",".join(map(str, key)): 0.5 for key in keys}}
    path = write_json(tmp_path, "t.json", doc)
    code, out, err = run(capsys, "perturb", case, path, "--epsilon", eps)
    assert (code, out, err) == (1, "", "error: eps must be positive\n")


def test_rational_commands_do_not_import_numpy(tmp_path):
    # cli imported search, and with it numpy, for every command
    import subprocess
    import sys

    import altforms
    src = os.path.dirname(os.path.dirname(altforms.__file__))
    script = """
import contextlib, io, sys
from altforms.cli import main
path = sys.argv[1]
for argv in (["rep", "case2_w"], ["invariant", path], ["stab", path], ["classify", path]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
sys.exit("numpy" in sys.modules)
"""
    path = write_json(tmp_path, "w.json", form_to_dict(make_rep("case2_w")))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    p = subprocess.run([sys.executable, "-c", script, path], env=env, capture_output=True,
                       timeout=120)
    assert (p.returncode, p.stderr) == (0, b"")


def test_approximate_does_not_import_openssl(tmp_path):
    # the search took its tie-break digest from hashlib, which loads OpenSSL (_hashlib)
    import subprocess
    import sys

    import altforms
    src = os.path.dirname(os.path.dirname(altforms.__file__))
    script = """
import contextlib, io, sys
from altforms.cli import main
xpath, tpath = sys.argv[1:]
for extra in ([], ["--both-sides"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["approximate", xpath, tpath, "--depth", "3", "--beam", "8", *extra]) == 0
sys.exit("_hashlib" in sys.modules)
"""
    xpath = write_json(tmp_path, "w.json", form_to_dict(make_rep("case3_w", n=2).as_float()))
    tpath = write_json(tmp_path, "t.json",
                       {"case": 3, "n": 2, "values": {"1,2": 0.25, "1,3": 0.0, "2,3": -1.0}})
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    p = subprocess.run([sys.executable, "-c", script, xpath, tpath], env=env,
                       capture_output=True, timeout=120)
    assert (p.returncode, p.stderr) == (0, b"")


def test_cli_rejects_non_squarefree_discriminant(tmp_path, capsys):
    path = write_json(tmp_path, "d4.json",
                      {"dim": 6, "degree": 3, "scalar": "quadext", "d": 4,
                       "coeffs": {"1,2,3": "1", "4,5,6": {"a": "0", "b": "1", "d": 4}}})
    with pytest.raises(FormFormatError, match="discriminant"):
        parse_form(path)
    code, out, err = run(capsys, "invariant", path)
    assert code == 1 and out == ""
    assert err.startswith("error:") and "discriminant" in err


@pytest.mark.parametrize("bad", (float("nan"), float("inf")))
def test_cli_rejects_non_finite_form_coefficients(tmp_path, capsys, bad):
    path = write_json(tmp_path, "nan.json",
                      {"dim": 6, "degree": 3, "scalar": "float",
                       "coeffs": {"1,2,3": bad, "4,5,6": 1.0}})
    with pytest.raises(FormFormatError, match="non-finite"):
        parse_form(path)
    code, out, err = run(capsys, "classify", path)
    assert code == 1 and out == ""
    assert err.startswith("error:") and "non-finite" in err


def _rejected(tmp_path, capsys, command, doc, message):
    """The document fails to parse with message, and the command on its file exits 1."""
    path = write_json(tmp_path, "doc.json", doc)
    code, out, err = run(capsys, *command, path)
    assert (code, out, err) == (1, "", f"error: {message}\n")


FORM_FIELDS = {"dim": 6, "degree": 3, "scalar": "rational", "coeffs": {"1,2,3": "1", "4,5,6": "1"}}


@pytest.mark.parametrize("bad", (6.7, 6.0, True, None, "six", "6"))
def test_form_dim_must_be_a_json_integer(tmp_path, capsys, bad):
    # 6.7 ran as a dim-6 form and exited 0; true ran as dim 1
    doc = {**FORM_FIELDS, "dim": bad}
    message = "form document needs integer 'dim' and 'degree'"
    with pytest.raises(FormFormatError, match=message):
        form_from_dict(doc)
    _rejected(tmp_path, capsys, ("invariant",), doc, message)


@pytest.mark.parametrize("bad", (3.9, 3.0, True, [], "6"))
def test_form_degree_must_be_a_json_integer(tmp_path, capsys, bad):
    doc = {**FORM_FIELDS, "degree": bad}
    message = "form document needs integer 'dim' and 'degree'"
    with pytest.raises(FormFormatError, match=message):
        form_from_dict(doc)
    _rejected(tmp_path, capsys, ("classify",), doc, message)


def _case1_values():
    return {",".join(map(str, k)): 0.5 for k in constrained_keys(1)}


@pytest.mark.parametrize("bad", (1.0, 3.9, True, False, "x", "6"))
def test_target_case_must_be_a_json_integer(tmp_path, capsys, bad):
    # "case": 3.9 ran as case 3
    doc = {"case": bad, "values": _case1_values()}
    message = "target document needs an integer 'case'"
    with pytest.raises(FormFormatError, match=message):
        target_from_dict(doc)
    _rejected(tmp_path, capsys, ("perturb", "case1", "--epsilon", "0.1"), doc, message)


@pytest.mark.parametrize("bad", (2.5, 2.0, True, False, "6"))
def test_target_n_must_be_a_json_integer(tmp_path, capsys, bad):
    # "n": 2.5 ran as n = 2
    doc = {"case": 3, "n": bad, "values": {"1,2": 0.2, "1,3": -0.4, "2,3": 0.6}}
    with pytest.raises(FormFormatError, match="target 'n' must be an integer"):
        target_from_dict(doc)
    _rejected(tmp_path, capsys, ("perturb", "case3", "--epsilon", "0.1"), doc,
              "target 'n' must be an integer")
    assert target_from_dict({**doc, "n": 2}).n == 2
    assert target_from_dict({"case": 1, "n": None, "values": _case1_values()}).n is None


@pytest.mark.parametrize("spelling", ("1,2,03", " 1, 2, 3", "+1,2,3"))
def test_two_spellings_of_one_index_tuple_are_rejected(tmp_path, capsys, spelling):
    # each parsed, keeping only the later of the two values
    message = f"index tuple {spelling!r} repeats '1,2,3'"
    form = {**FORM_FIELDS, "coeffs": {"1,2,3": "1", spelling: "5"}}
    target = {"case": 1, "values": {**_case1_values(), spelling: 0.25}}
    for parse, doc, command in ((form_from_dict, form, ("invariant",)),
                                (target_from_dict, target, ("perturb", "case1", "--epsilon", "0.1"))):
        with pytest.raises(FormFormatError) as exc:
            parse(doc)
        assert str(exc.value) == message
        _rejected(tmp_path, capsys, command, doc, message)


@pytest.mark.parametrize("text, key, parse, command", (
    ('{"dim": 6, "degree": 3, "coeffs": {"1,2,3": "1", "4,5,6": "1", "1,2,3": "5"}}',
     "1,2,3", parse_form, ("invariant",)),
    ('{"dim": 6, "degree": 3, "dim": 7, "coeffs": {}}', "dim", parse_form, ("classify",)),
    ('{"case": 1, "values": %s, "case": 2}' % json.dumps(_case1_values()), "case",
     parse_target, ("perturb", "case1", "--epsilon", "0.1"))),
    ids=("coeffs-key", "form-field", "target-field"))
def test_a_repeated_json_key_is_rejected(tmp_path, capsys, text, key, parse, command):
    # json.load kept the last value: the first document ran with coefficient 5
    path = tmp_path / "doc.json"
    path.write_text(text)
    message = f"JSON object repeats the key {key!r}"
    with pytest.raises(FormFormatError) as exc:
        parse(str(path))
    assert str(exc.value) == message
    code, out, err = run(capsys, *command, str(path))
    assert (code, out, err) == (1, "", f"error: {message}\n")


MALFORMED = {
    "coeffs-list": (("invariant",), {**FORM_FIELDS, "coeffs": ["1,2,3"]},
                    "form 'coeffs' must be a JSON object"),
    "coeffs-string": (("classify",), {**FORM_FIELDS, "coeffs": "abc"},
                      "form 'coeffs' must be a JSON object"),
    "coeffs-empty-list": (("classify",), {**FORM_FIELDS, "coeffs": []},
                          "form 'coeffs' must be a JSON object"),
    "values-list": (("perturb", "case1", "--epsilon", "0.1"), {"case": 1, "values": [1, 2]},
                    "target 'values' must be a JSON object"),
    "quadext-without-b": (("invariant",), {**FORM_FIELDS, "scalar": "quadext", "d": 2,
                                           "coeffs": {"1,2,3": {"a": "1"}}},
                          "bad quadext value {'a': '1'} at '1,2,3'"),
    "float-list": (("invariant",), {**FORM_FIELDS, "scalar": "float", "coeffs": {"1,2,3": [1]}},
                   "bad float value [1] at '1,2,3'"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_documents_get_one_error_line(tmp_path, capsys, case):
    # each ended in an AttributeError, KeyError or TypeError traceback
    command, doc, message = MALFORMED[case]
    _rejected(tmp_path, capsys, command, doc, message)


def test_a_directory_in_place_of_a_file_gets_one_error_line(tmp_path, capsys):
    # an IsADirectoryError traceback: only FileNotFoundError was caught
    code, out, err = run(capsys, "invariant", str(tmp_path))
    assert (code, out, err) == (1, "", f"error: [Errno 21] Is a directory: {str(tmp_path)!r}\n")


def test_a_closed_stdout_ends_quietly():
    # the reader closes the pipe at once: a BrokenPipeError traceback on stderr
    import subprocess
    import sys

    import altforms
    src = os.path.dirname(os.path.dirname(altforms.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    for argv in (["verify"], ["rep", "case1_w"]):
        p = subprocess.Popen([sys.executable, "-m", "altforms.cli", *argv], env=env,
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        p.stdout.close()
        err = p.stderr.read()
        p.stderr.close()
        assert (p.wait(timeout=120), err) == (1, b"")


def test_cli_rejects_non_finite_perturb_target(tmp_path, capsys):
    values = {",".join(map(str, k)): 0.5 for k in constrained_keys(1)}
    values["1,2,3"] = float("nan")
    with pytest.raises(FormFormatError, match="bad target value"):
        target_from_dict({"case": 1, "values": values})
    path = write_json(tmp_path, "t.json", {"case": 1, "values": values})
    code, out, err = run(capsys, "perturb", "case1", path, "--epsilon", "0.1")
    assert code == 1 and out == ""
    assert err.startswith("error:") and "bad target value" in err


@pytest.mark.parametrize("shape, coeffs", (
    ((6, 3), {"1,2,3": 1e200, "4,5,6": 1e200}),
    ((7, 3), {"1,2,3": 1e200, "4,5,6": 1e200, "1,4,7": 1.0}),
    ((4, 2), {"1,2": 1e200, "3,4": 1e200}),
))
def test_cli_classify_overflow_is_an_error(tmp_path, capsys, shape, coeffs):
    path = write_json(tmp_path, "big.json", {"dim": shape[0], "degree": shape[1],
                                             "scalar": "float", "coeffs": coeffs})
    code, out, err = run(capsys, "classify", path)
    assert code == 1 and out == ""
    assert err.startswith("error:") and "too large" in err


def test_cli_octonion_table_rejects_quadext(tmp_path, capsys):
    from altforms.cayley_dickson import octonion_from_form
    from altforms.multilinear import all_keys
    from altforms.scalars import QuadExt
    coeffs = {k: QuadExt(i % 5 - 2, (3 * i) % 7 - 3, 2) for i, k in enumerate(all_keys(7, 3))}
    x = AlternatingForm(7, 3, coeffs)
    with pytest.raises(ValueError, match="sqrt d"):
        octonion_from_form(x)
    path = write_json(tmp_path, "q7.json", form_to_dict(x))
    code, out, err = run(capsys, "octonion", "table", path)
    assert code == 1 and out == ""
    assert err.startswith("error:") and "sqrt d" in err


@pytest.mark.parametrize("dim, degree", ((6, 3), (7, 3), (8, 2)))
def test_cli_invariant_overflow_is_an_error(tmp_path, capsys, dim, degree):
    # dense 1e200 coefficients: the invariants overflow to inf or NaN, which
    # is not JSON
    from altforms.multilinear import all_keys
    coeffs = {",".join(map(str, k)): (-1) ** i * (i + 1) * 1e200
              for i, k in enumerate(all_keys(dim, degree))}
    path = write_json(tmp_path, "big.json", {"dim": dim, "degree": degree,
                                             "scalar": "float", "coeffs": coeffs})
    code, out, err = run(capsys, "invariant", path)
    assert code == 1 and out == ""
    assert err.startswith("error:") and "too large" in err


@pytest.mark.parametrize("command", ("invariant", "classify"))
def test_cli_an_overflowing_square_gets_the_overflow_message(tmp_path, capsys, command):
    # the float (ab - tr) ** 2 of delta raised OverflowError, printed as
    # "error: (34, 'Numerical result out of range')"
    doc = {"dim": 6, "degree": 3, "scalar": "float", "coeffs": {"1,2,3": 1e80, "4,5,6": 1e80}}
    _rejected(tmp_path, capsys, (command,), doc,
              "float coefficients too large: an invariant overflows")


@pytest.mark.parametrize("command", ("invariant", "classify"))
def test_cli_an_overflowing_dim7_delta_is_an_error(tmp_path, capsys, command):
    # Q_x of 1e20 * case2_w is finite but its det is not: classify printed
    # "delta": Infinity (not JSON) and exited 0, after a numpy RuntimeWarning
    x = make_rep("case2_w").as_float().scale(1e20)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        _rejected(tmp_path, capsys, (command,), form_to_dict(x),
                  "float coefficients too large: an invariant overflows")


def test_cli_invariant_case3_float_is_not_exact(tmp_path, capsys):
    x = AlternatingForm(4, 2, {(1, 2): 0.5, (3, 4): 2.0})
    code, out, _ = run(capsys, "invariant", write_json(tmp_path, "x.json", form_to_dict(x)))
    assert code == 0
    assert json.loads(out) == {"case": 3, "delta": None, "delta_exact": False, "pfaffian": 1.0}
    code, out, _ = run(capsys, "rep", "case3_w", "--n", "2")
    code, out, _ = run(capsys, "invariant", write_json(tmp_path, "w.json", json.loads(out)))
    assert json.loads(out)["delta_exact"] is True


def test_successive_main_calls_share_no_arguments(capsys):
    # the parser is built once per process; each call parses into a new namespace
    code, out, _ = run(capsys, "rep", "case3_w", "--n", "3", "--pretty")
    assert code == 0 and not out.startswith("{")
    code, out, err = run(capsys, "rep", "case3_w")
    assert code == 1 and out == "" and err == "error: n must be a positive integer; got None\n"
    code, out, _ = run(capsys, "rep", "case1_w")
    assert code == 0 and json.loads(out) == form_to_dict(make_rep("case1_w"))
    with pytest.raises(SystemExit) as exc:
        main(["rep", "case1_w", "--d"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: altforms rep") and "expected one argument" in err
    code, out, _ = run(capsys, "rep", "case1_walpha", "--d", "2")
    assert code == 0 and json.loads(out) == form_to_dict(make_rep("case1_walpha", d=2))


def test_cli_classify_rejects_quadext_dim7(tmp_path, capsys):
    # the exact signature of a Q(sqrt d) gram compared QuadExt with 0: a TypeError traceback
    from altforms.multilinear import all_keys
    from altforms.orbits import classify_real
    from altforms.scalars import QuadExt
    coeffs = {k: QuadExt(i % 5 - 2, (3 * i) % 7 - 3, 2) for i, k in enumerate(all_keys(7, 3))}
    x = AlternatingForm(7, 3, coeffs)
    with pytest.raises(ValueError, match=r"Q\(sqrt 2\)"):
        classify_real(x)
    code, out, err = run(capsys, "classify", write_json(tmp_path, "q7.json", form_to_dict(x)))
    assert code == 1 and out == ""
    assert err.startswith("error:") and "Q(sqrt 2)" in err
    # a degenerate Q(sqrt d) form needs no order: its zero gram has no pivot to compare
    r = QuadExt(1, 1, 2)
    x = AlternatingForm(7, 3, {(1, 2, 5): r, (1, 2, 6): 2 * r, (1, 3, 6): r - 1, (3, 5, 6): r})
    code, out, _ = run(capsys, "classify", write_json(tmp_path, "deg.json", form_to_dict(x)))
    assert code == 0 and json.loads(out)["real_orbit"] == "degenerate"


def test_cli_rational_values_of_an_imaginary_field(tmp_path, capsys):
    # a rational value stored over Q(sqrt d), d < 0, has a float image: float() of it
    # took sqrt(d) and failed with "math domain error"
    from altforms.multilinear import gl_action
    from altforms.representatives import g_alpha
    from altforms.scalars import QuadExt
    x = gl_action(g_alpha(-1), make_rep("case1_w"))
    code, out, err = run(capsys, "classify", write_json(tmp_path, "a.json", form_to_dict(x)))
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["real_orbit"] == "case1_negative"
    assert doc["delta"] == {"a": "-64", "b": "0", "d": -1}
    w = make_rep("case2_w")
    z = AlternatingForm(7, 3, {k: QuadExt(v, 0, -3) for k, v in w.coeffs.items()})
    code, out, err = run(capsys, "invariant", write_json(tmp_path, "z.json", form_to_dict(z)))
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["case"] == 2 and doc["delta_exact"] is False
    assert abs(doc["delta"] - 6) < 1e-9
    assert float(QuadExt(-5, 0, -3)) == -5.0 and float(QuadExt(0, 0, -1)) == 0.0
    with pytest.raises(ValueError, match="no float image"):
        float(QuadExt(0, 1, -3))


def test_cli_classify_of_a_field_tower_is_an_error(tmp_path, capsys):
    # sqrt(delta) of this Q(sqrt 2) form lies in Q(sqrt -2): classify printed
    # "error: mixing sqrt(2) with sqrt(-2)" from inside the eigenspace solve
    from altforms.multilinear import gl_action
    from altforms.representatives import g_alpha
    x = gl_action(g_alpha(2), make_rep("case1_w1"))
    code, out, err = run(capsys, "classify", write_json(tmp_path, "t.json", form_to_dict(x)))
    assert code == 1 and out == ""
    assert err == "error: eigenspaces need a rational invariant (no field towers)\n"


def test_verify_builds_each_q_once(monkeypatch, capsys):
    # the gram rows build Q_w and Q_w', delta(w1) builds its own, and the
    # octonion row reads the Q_w of the gram row: three S_x per verify
    from altforms import invariants
    calls = []
    s_case2 = invariants.s_case2
    monkeypatch.setattr(invariants, "s_case2", lambda x: calls.append(x) or s_case2(x))
    code, out, _ = run(capsys, "verify")
    assert code == 0 and json.loads(out)["all_pass"] is True
    assert len(calls) == 3


def old_classify_doc(x, tol=1e-9, max_den=1000):
    """The classify JSON as it was built: classify_real, the field through
    field_kx (S_x and its S_x^2 check), and an irrationality_report that
    builds its own covariant."""
    from altforms.orbits import classify_real, field_kx, irrationality_report
    from altforms.scalars import scalar_to_json
    rep = classify_real(x, tol=tol)
    out = {"case": rep.case, "real_orbit": rep.real_orbit,
           "real_rank_positive": rep.real_rank_positive,
           "delta": scalar_to_json(rep.delta) if rep.delta is not None else None}
    if rep.case == 1 and rep.real_orbit != "degenerate" and x.scalar_kind() == "rational":
        out["field_d"] = field_kx(x)
    if rep.real_orbit != "degenerate":
        out["irrationality"] = {
            name: {"rational": v.rational, "mode": v.mode, "detail": v.detail}
            for name, v in irrationality_report(x, max_den=max_den, tol=tol).flags.items()}
    return out


def _classify_forms():
    import random
    from altforms.multilinear import all_keys, gl_action
    from altforms.representatives import g_alpha
    rng = random.Random(7)
    for dim in (6, 7):
        for den in (1, 6):
            yield AlternatingForm(dim, 3, {k: Fraction(rng.randint(-5, 5), rng.randint(1, den))
                                           for k in all_keys(dim, 3)})
    yield make_rep("case1_w")
    yield make_rep("case2_w")
    yield make_rep("case2_w1")
    yield make_rep("case1_walpha", d=5)
    yield gl_action(g_alpha(-3), make_rep("case1_w"))


def test_classify_builds_its_covariant_once(monkeypatch, capsys, tmp_path):
    # one S_x per dim-6 classify (in the eigenspaces; the field comes from the
    # explicit quartic) and one Q_x per dim-7 classify (the Q flag reuses it)
    from altforms import invariants, orbits
    forms = [form_from_dict(form_to_dict(x)) for x in _classify_forms()]
    want = [json.dumps(old_classify_doc(x), indent=2, default=str) + "\n" for x in forms]
    calls = []
    for name in ("s_case1", "s_case2"):
        counted = (lambda f, name: lambda x: calls.append(name) or f(x))(
            getattr(invariants, name), name)
        for module in (invariants, orbits):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted)
    for i, (x, doc) in enumerate(zip(forms, want)):
        calls.clear()
        code, out, err = run(capsys, "classify", write_json(tmp_path, f"f{i}.json",
                                                            form_to_dict(x)))
        assert (code, out, err) == (0, doc, "")
        assert json.loads(out)["real_orbit"] != "degenerate"
        assert calls == ["s_case1" if x.dim == 6 else "s_case2"]


@pytest.mark.parametrize("name", ["case1_w", "case1_w1", "case2_w", "case2_w1"])
def test_float_invariant_matrices_are_json_numbers(capsys, tmp_path, name):
    # a sparse float form leaves most S_x entries untouched; they printed as the string "0"
    doc = form_to_dict(make_rep(name))
    doc = dict(doc, scalar="float", coeffs={k: float(Fraction(v)) for k, v in doc["coeffs"].items()})
    code, out, err = run(capsys, "invariant", write_json(tmp_path, "x.json", doc))
    assert (code, err) == (0, "")
    out = json.loads(out)
    matrix = out["s_matrix" if out["case"] == 1 else "q_gram"]
    assert all(type(v) is float for row in matrix for v in row)
