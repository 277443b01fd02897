"""`defkit._jsontext.indented` against its reference, `json.dumps(obj,
indent=2, sort_keys=True)` with each record replaced by its `_asdict()`,
over nested values."""

import enum
import json
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defkit._jsontext import indented
from defkit.stdc import HoldoutReport, Step


class Pair(NamedTuple):
    left: object
    right: object


class Level(enum.IntEnum):
    HIGH = 3


class Text(str):
    """A str subclass: json writes it as a string, not through `default`."""


ODD_CHARACTERS = ['"', "\\", "/", "\x00", "\x1f", "\x7f", " ", " ", "\U0001f600", "\ud800", "\udfff", "é"]
TEXT = st.text(st.characters() | st.sampled_from(ODD_CHARACTERS), max_size=6)
FLOATS = st.floats() | st.sampled_from([-0.0, 5e-324, 1e300, -1e300, float("inf"), float("-inf"), float("nan")])
SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(-(2**200), 2**200)
    | FLOATS
    | TEXT
)
KEYS = TEXT | st.integers(-5, 5) | FLOATS | st.booleans() | st.none()
VALUES = st.recursive(
    SCALARS,
    lambda kids: st.lists(kids, max_size=4)
    | st.lists(kids, max_size=4).map(tuple)
    | st.dictionaries(TEXT, kids, max_size=4)
    | st.dictionaries(KEYS, kids, max_size=3)
    | st.builds(Pair, kids, kids),
    max_leaves=20,
)


def plain(obj):
    """obj with each record in it, at any depth, replaced by its `_asdict()`."""
    if hasattr(obj, "_asdict"):
        return plain(obj._asdict())
    if isinstance(obj, dict):
        return {key: plain(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [plain(item) for item in obj]
    return obj


def _reference(obj):
    return json.dumps(plain(obj), indent=2, sort_keys=True)


@given(VALUES)
@settings(max_examples=1000, deadline=None)
def test_indented_is_the_json_text(obj):
    try:
        expected = _reference(obj)
    except TypeError as exc:  # keys of types sorted() cannot order
        with pytest.raises(type(exc)):
            indented(obj)
        return
    assert indented(obj) == expected


@pytest.mark.parametrize(
    "obj",
    [
        [],
        {},
        (),
        [[], {}, ()],
        {"a": {"b": []}},
        "\ud800",
        -0.0,
        10**40,
        {True: 1, 1.5: 3, 2: 4, -7: float("nan")},
        {None: 2},
        {"level": Level.HIGH, "text": Text("a\"b"), Text("key"): [Level.HIGH, -0.0]},
        {"compression": Step(3, "NP", ("the", "fox"), 0.25, True), "holdout": None},
        HoldoutReport(before=0.5, after=float("inf"), coverage=float("-inf")),
    ],
)
def test_examples(obj):
    assert indented(obj) == _reference(obj)


def test_a_value_json_cannot_write_raises_as_json_does():
    with pytest.raises(TypeError):
        _reference({"x": {1, 2}})
    with pytest.raises(TypeError):
        indented({"x": {1, 2}})
    with pytest.raises(TypeError):
        indented({object(): 1})
