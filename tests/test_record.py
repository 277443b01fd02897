"""`defkit._record.record` against its reference, stdlib
`dataclasses.dataclass(frozen=True)`: the same class bodies, built once
with each, behave alike."""

import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defkit import _record

from conftest import fields


def _bodies():
    """Fresh class bodies, one set for each decorator that will build them."""

    class Point:
        x: int
        y: object = 0

    class Checked:
        low: object
        high: object = 10

        def __post_init__(self):
            if isinstance(self.low, int) and isinstance(self.high, int) and self.low > self.high:
                raise ValueError("low above high")

    class One:
        only: object

    return [Point, Checked, One]


REFERENCE = {cls.__name__: dataclasses.dataclass(frozen=True)(cls) for cls in _bodies()}
RECORD = {cls.__name__: _record.record(cls) for cls in _bodies()}

VALUES = (
    st.integers(-3, 12)
    | st.text(max_size=3)
    | st.none()
    | st.floats(allow_nan=True)
    | st.lists(st.integers(0, 2), max_size=2)
    | st.tuples(st.integers(0, 2))
)


@st.composite
def calls(draw):
    """A class key and the arguments of one call: positional values, then
    keyword values in any order, sometimes with a field left out or an
    unknown keyword."""
    key = draw(st.sampled_from(sorted(REFERENCE)))
    names = [f.name for f in dataclasses.fields(REFERENCE[key])]
    values = {name: draw(VALUES) for name in names if draw(st.integers(0, 5))}
    n_positional = draw(st.integers(0, len(names)))
    args = []
    for name in names[:n_positional]:
        if name not in values:
            break
        args.append(values.pop(name))
    kwargs = dict(draw(st.permutations(list(values.items()))))
    if draw(st.integers(0, 9)) == 0:
        kwargs[draw(st.sampled_from(["z", *names]))] = draw(VALUES)  # unknown or given twice
    return key, tuple(args), kwargs


def _outcome(cls, args, kwargs):
    """The instance, or the type of the error the call raised."""
    try:
        return cls(*args, **kwargs)
    except (TypeError, ValueError) as exc:
        return type(exc)


def _same_value(a, b) -> bool:
    """a and b are alike, NaN being alike to NaN."""
    if isinstance(a, float) and isinstance(b, float) and math.isnan(a) and math.isnan(b):
        return True
    return a == b


def _hash_outcome(obj):
    try:
        return hash(obj)
    except TypeError:
        return TypeError


@given(first=calls(), second=calls())
@settings(max_examples=600, deadline=None)
def test_record_behaves_as_the_dataclass(first, second):
    key, args, kwargs = first
    ref, rec = _outcome(REFERENCE[key], args, kwargs), _outcome(RECORD[key], args, kwargs)
    if isinstance(ref, type):
        assert rec is ref  # the same error for a missing, unknown or repeated argument
        return
    assert repr(rec) == repr(ref)
    assert list(vars(rec)) == list(vars(ref))
    assert all(map(_same_value, vars(rec).values(), vars(ref).values()))
    assert fields(rec) == tuple(f.name for f in dataclasses.fields(ref))

    # == within a type, against a second call that may build another class
    key2, args2, kwargs2 = second
    ref2, rec2 = _outcome(REFERENCE[key2], args2, kwargs2), _outcome(RECORD[key2], args2, kwargs2)
    if not isinstance(ref2, type):
        assert (rec == rec2) is (ref == ref2)
        assert (rec != rec2) is (ref != ref2)
    assert (rec == rec) is (ref == ref)
    # across the two implementations, and against other types
    assert rec != ref and ref != rec
    assert rec != (1,) and ref != (1,)

    assert _hash_outcome(rec) == _hash_outcome(ref)  # a value, or TypeError for both

    name = fields(rec)[0]
    for obj in (ref, rec):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(obj, name, 99)
    assert repr(rec) == repr(ref)


def test_frozen_error_is_an_attribute_error_and_deletes_are_refused():
    obj = RECORD["Point"](1, 2)
    with pytest.raises(AttributeError, match="cannot assign to field 'x'"):
        obj.x = 3
    with pytest.raises(AttributeError, match="cannot delete field 'x'"):
        del obj.x

