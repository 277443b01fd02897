"""Every record is a `NamedTuple`: frozen, compared and hashed by value. A
validated record runs its checks whenever it is built, through its
constructor (as `conftest.replace` builds a copy)."""

import pytest

from defkit.annotations import AnnotationSet, ContentCategory, Span
from defkit.corpus import ExampleSet, SplitRole
from defkit.errors import ConfigError, InvariantError
from defkit.scorer import GenerationParams, ScoreRecord
from defkit.stdc import StdcConfig
from defkit.triplet import TripletDefinition

from conftest import make_task, replace

TASK = make_task()

# one valid record of each validated class, and two plain ones
RECORDS = {
    "Task": TASK,
    "Instance": TASK.instances[0],
    "Demonstration": TASK.demonstrations[0],
    "ExampleSet": ExampleSet(TASK.id, TASK.instances[:2], SplitRole.FIT),
    "ScoreRecord": ScoreRecord("k", "d", "fp", 0.5, (0.25, 0.75), "b"),
    "StdcConfig": StdcConfig(epsilon=0.1),
    "TripletDefinition": TripletDefinition("t", "the text", "classify it", ("yes", "no")),
    "AnnotationSet": AnnotationSet("t", (Span(0, 3, ContentCategory.INPUT_CONTENT),), "a1"),
    "GenerationParams": GenerationParams(seed=3),
}


@pytest.mark.parametrize("name", RECORDS)
def test_a_record_is_frozen_and_compared_and_hashed_by_value(name):
    record = RECORDS[name]
    copy = replace(record)
    assert copy is not record
    assert copy == record and hash(copy) == hash(record)
    assert not hasattr(record, "__dict__")
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], record[0])
    with pytest.raises(AttributeError):
        delattr(record, record._fields[0])
    with pytest.raises(AttributeError):
        record.other = 1


# (record, fields changed, the error and its message): the check each
# validated record makes when it is built
BAD_FIELDS = [
    ("Task", dict(definition="  "), InvariantError, "definition: empty after trimming"),
    ("Task", dict(demonstrations=TASK.demonstrations[:1]), InvariantError,
     "demonstrations: need >= 2"),
    ("Task", dict(instances=TASK.instances[:1] * 2), InvariantError,
     "instances: id 'inst0' repeated at indices 0 and 1"),
    ("Instance", dict(references=()), InvariantError, "instance inst0: references empty"),
    ("Demonstration", dict(input=""), InvariantError, "demonstration input is empty"),
    ("Demonstration", dict(output=""), InvariantError, "demonstration output is empty"),
    ("ExampleSet", dict(instances=TASK.instances[:1] * 2), InvariantError,
     "example set: instance ids not unique"),
    ("ScoreRecord", dict(mean_score=0.4), InvariantError,
     "mean_score inconsistent with per_instance"),
    ("StdcConfig", dict(epsilon=float("nan")), ConfigError, "epsilon must be finite and >= 0"),
    ("StdcConfig", dict(baseline_mode="other"), ConfigError, "unknown baseline mode 'other'"),
    ("TripletDefinition", dict(output_entry=("yes", "")), InvariantError,
     "triplet entries must be non-empty"),
]


@pytest.mark.parametrize(
    "name, changes, error, message",
    [pytest.param(*row, id=f"{row[0]}-{'-'.join(row[1])}") for row in BAD_FIELDS],
)
def test_a_validated_record_checks_its_fields_when_built(name, changes, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        replace(RECORDS[name], **changes)
