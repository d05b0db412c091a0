"""JSON schemas for forms, targets, matrices and reports.

Form files:
    {"dim": 6, "degree": 3, "scalar": "rational" | "float" | "quadext",
     "d": <int, quadext only>, "coeffs": {"1,2,3": "1", "4,5,6": "1"}}
Keys are comma-joined strictly increasing 1-based indices; values follow the
scalar serialization (rationals as "p/q" strings, floats as numbers,
quadext as {"a": "p/q", "b": "p/q", "d": n}).

Target files:
    {"case": 1 | 2 | 3, "n": <int, case 3 only>, "values": {"1,2,3": 0.25, ...}}
"""

from __future__ import annotations

import json
from operator import lt

from .multilinear import AlternatingForm
from .perturb import PartialTarget
from .scalars import QuadExt, finite_float, scalar_from_json, scalar_to_json


class FormFormatError(ValueError):
    pass


def _parse_key(s, degree):
    try:
        idx = tuple(map(int, str(s).split(",")))
    except ValueError:
        raise FormFormatError(f"bad index tuple {s!r}")
    if len(idx) != degree:
        raise FormFormatError(f"bad index tuple {s!r}: expected {degree} indices")
    if not all(map(lt, idx, idx[1:])):
        raise FormFormatError("indices not strictly increasing")
    return idx


def _integer(data, field, message):
    """data[field] as an int; FormFormatError(message) unless it is a JSON integer
    (not a bool, a float such as 6.7 or 6.0, or a string such as "6")."""
    v = data.get(field)
    if type(v) is not int:  # bool is an int subclass
        raise FormFormatError(message)
    return v


def _entries(data, field, message, degree):
    """(key, index tuple, value) over the object data[field], none if it is missing
    or null; FormFormatError when two keys spell one index tuple ("1,2,3", "1,2,03")."""
    v = {} if data.get(field) is None else data[field]
    if not isinstance(v, dict):
        raise FormFormatError(message)
    seen = {}
    for key, val in v.items():
        idx = _parse_key(key, degree)
        first = seen.setdefault(idx, key)
        if first != key:
            raise FormFormatError(f"index tuple {key!r} repeats {first!r}")
        yield key, idx, val


def form_to_dict(x):
    kind = x.scalar_kind()
    out = {"dim": x.dim, "degree": x.degree, "scalar": kind,
           "coeffs": {",".join(map(str, k)): scalar_to_json(v) for k, v in x.terms()}}
    if kind == "quadext":
        ds = {v.d for v in x.coeffs.values() if isinstance(v, QuadExt)}
        if len(ds) != 1:
            raise FormFormatError("quadext form must use a single discriminant")
        out["d"] = ds.pop()
    return out


def form_from_dict(data):
    if not isinstance(data, dict):
        raise FormFormatError("form document must be a JSON object")
    dim, degree = (_integer(data, f, "form document needs integer 'dim' and 'degree'")
                   for f in ("dim", "degree"))
    kind = data.get("scalar", "rational")
    if kind not in ("rational", "float", "quadext"):
        raise FormFormatError(f"unknown scalar kind {kind!r}")
    d = data.get("d")
    coeffs = {}
    for key, idx, val in _entries(data, "coeffs", "form 'coeffs' must be a JSON object", degree):
        if idx[0] < 1 or idx[-1] > dim:  # increasing: the ends bound the rest
            raise FormFormatError(f"bad index tuple {key!r}: out of range for dim {dim}")
        try:
            coeffs[idx] = scalar_from_json(val, kind, d=d)
        except ValueError as exc:
            raise FormFormatError(str(exc))
        except (KeyError, TypeError):  # a quadext object without "a" or "b", a list as a float
            raise FormFormatError(f"bad {kind} value {val!r} at {key!r}") from None
    return AlternatingForm(dim, degree, coeffs)


def _unique_keys(pairs):
    """A JSON object as a dict; FormFormatError when a key is written twice."""
    out = {}
    for key, val in pairs:
        if key in out:
            raise FormFormatError(f"JSON object repeats the key {key!r}")
        out[key] = val
    return out


def _load_json(path):
    with open(path) as fh:
        try:
            return json.load(fh, object_pairs_hook=_unique_keys)
        except json.JSONDecodeError as exc:
            raise FormFormatError(f"malformed JSON: {exc}")


def parse_form(path):
    return form_from_dict(_load_json(path))


def target_to_dict(t):
    out = {"case": t.case,
           "values": {",".join(map(str, k)): v for k, v in sorted(t.values.items())}}
    if t.n:
        out["n"] = t.n
    return out


def target_from_dict(data):
    if not isinstance(data, dict):
        raise FormFormatError("target document must be a JSON object")
    case = _integer(data, "case", "target document needs an integer 'case'")
    n = None if data.get("n") is None else _integer(data, "n", "target 'n' must be an integer")
    values = {}
    degree = 2 if case == 3 else 3
    for key, idx, val in _entries(data, "values", "target 'values' must be a JSON object", degree):
        try:
            values[idx] = finite_float(val)
        except (TypeError, ValueError):
            raise FormFormatError(f"bad target value {val!r} at {key!r}")
    try:
        return PartialTarget(case, values, n=n or None)
    except ValueError as exc:
        raise FormFormatError(str(exc))


def parse_target(path):
    return target_from_dict(_load_json(path))

