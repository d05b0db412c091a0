"""cli._emit prints the bytes of json.dumps(obj, indent=2, default=str).

The writer builds containers itself and encodes strings with json's C
encoder; these tests hold it to the standard library's output on nested
dicts, lists and tuples of every leaf json spells, objects that go through
default=str, and dict keys json coerces (int, float, bool, None).
"""

import contextlib
import enum
import io
import json
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from altforms import cli
from altforms.scalars import QuadExt

SETTINGS = settings(max_examples=150, deadline=None, database=None)


class Label:
    def __str__(self):
        return 'a "label", [1, 2]\né'


class Level(enum.IntEnum):
    HIGH = 3


class Text(str):
    pass


texts = st.text() | st.sampled_from(['[', ',', '"', '\\', '",\n  "', '\x00\x1f\x7f', ' ',
                                     '\U0001f600', 'café', '', ' ', '{}', '[]'])
leaves = (texts | st.integers() | st.booleans() | st.none() | st.floats()
          | st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.0, 1e300, 5e-324])
          | st.fractions() | st.sampled_from([Label(), Decimal("1.50"), 1 + 2j, QuadExt(1, 2, 2),
                                              Level.HIGH, np.float64(0.1), np.int64(7),
                                              Text("subé"), b"bytes", range(2)]))
str_keys = texts
any_keys = texts | st.integers() | st.floats() | st.booleans() | st.none()


def trees(keys):
    return st.recursive(leaves, lambda kids: st.lists(kids, max_size=5)
                        | st.lists(kids, max_size=5).map(tuple)
                        | st.lists(texts, max_size=5)
                        | st.dictionaries(keys, kids, max_size=5), max_leaves=40)


def emitted(obj):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._emit(obj)
    return out.getvalue()


@SETTINGS
@given(trees(str_keys))
def test_emit_prints_json_dumps_indent_2(obj):
    assert emitted(obj) == json.dumps(obj, indent=2, default=str) + "\n"


@SETTINGS
@given(trees(any_keys))
def test_emit_with_non_str_keys_prints_json_dumps_indent_2(obj):
    assert emitted(obj) == json.dumps(obj, indent=2, default=str) + "\n"


def test_emit_of_the_shapes_the_commands_print():
    q = QuadExt(Fraction(1, 3), -2, 5)
    for obj in ({"dim": 2, "basis": [[["1/2", "0"], ["0", "-1/2"]]]},
                {"table": [[["1", "0"], ["0", "1"]]], "checks": {"unit_law": True}},
                {"a": [], "b": {}, "c": [[]], "d": [{}], "e": ({"x": None},)},
                {"coeffs": {"1,2,3": {"a": "1/3", "b": "-2", "d": 5}}, "q": q},
                [1.5, -0.0, float("nan"), 2, "x"], "top", 7, None, Fraction(1, 2)):
        assert emitted(obj) == json.dumps(obj, indent=2, default=str) + "\n"


def test_emit_raises_as_json_dumps_on_a_key_json_cannot_coerce():
    with pytest.raises(TypeError, match="keys must be str, int, float, bool or None"):
        emitted({"ok": 1, (1, 2): 3})
