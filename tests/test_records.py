"""Every record is a plain `NamedTuple`: frozen, compared and hashed by
value. A record read from outside input is checked by the reader that
builds it, once, where that input enters; no record checks itself."""

import json

import pytest

from defkit.annotations import AnnotationSet, ContentCategory, Span
from defkit.cli import build_parser, cmd_compress
from defkit.corpus import ExampleSet, SplitRole, task_from_dict
from defkit.errors import ConfigError, InvariantError
from defkit.parse import parse_bracketed
from defkit.scorer import GenerationParams, ScoreRecord
from defkit.stdc import StdcConfig
from defkit.triplet import TripletDefinition, build_triplet

from conftest import make_task, task_to_dict

TASK = make_task()

# one record of each class that a reader checks, and two others
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
    copy = record._replace()
    assert copy is not record
    assert copy == record and hash(copy) == hash(record)
    assert not hasattr(record, "__dict__")
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], record[0])
    with pytest.raises(AttributeError):
        delattr(record, record._fields[0])
    with pytest.raises(AttributeError):
        record.other = 1


def _read_task(**changes):
    """`task_from_dict` over the task file of TASK with fields changed."""
    return task_from_dict(task_to_dict(TASK._replace(**changes)))


def _read_cache_line(**changes):
    """`ScoreRecord.from_dict` over the cache line of a record with fields
    changed, as `ScoreCache.put` writes it."""
    record = RECORDS["ScoreRecord"]._replace(**changes)
    return ScoreRecord.from_dict(json.loads(json.dumps(record._asdict())))


def _compress_with_epsilon(epsilon: str):
    """`compress` with `--epsilon`: it refuses a bad one before it reads
    or writes anything, so the paths name no file."""
    argv = ["compress", "--tasks", "t", "--parses", "p", "--backend", "keyword",
            "--fit-n", "1", "--holdout-n", "0", "--out", "o", "--epsilon", epsilon]
    return cmd_compress(build_parser().parse_args(argv))


def _triplet_with_an_empty_label_definition():
    """`build_triplet` where the one label_definition span is the final
    ".", which the output entry strips to nothing."""
    ann = AnnotationSet(TASK.id, (
        Span(0, 8, ContentCategory.ACTION_CONTENT),
        Span(9, 17, ContentCategory.INPUT_CONTENT),
        Span(17, 18, ContentCategory.LABEL_DEFINITION),
    ))
    tree = parse_bracketed("(S (VP (VB Classify) (NP (DT the) (NN text))) (. .))")
    return build_triplet(TASK, ann, tree)


DEMO = TASK.demonstrations[0]

# (record-field, the reader fed a bad input, the error and its message): the
# check that the reader of each record makes on what it reads. `ExampleSet`
# and `StdcConfig.baseline_mode` have none: a split slices a loaded task,
# whose instance ids are unique, and argparse refuses any other `--mode`.
BAD_FIELDS = [
    ("Task-definition", lambda: _read_task(definition="  "), InvariantError,
     "definition: empty after trimming"),
    ("Task-demonstrations", lambda: _read_task(demonstrations=TASK.demonstrations[:1]),
     InvariantError, "demonstrations: need >= 2"),
    ("Task-instances", lambda: _read_task(instances=TASK.instances[:1] * 2), InvariantError,
     "instances: id 'inst0' repeated at indices 0 and 1"),
    ("Instance-references",
     lambda: _read_task(instances=(TASK.instances[0]._replace(references=()),)),
     InvariantError, "instance inst0: references empty"),
    ("Demonstration-input", lambda: _read_task(demonstrations=(DEMO._replace(input=""), DEMO)),
     InvariantError, "demonstration input is empty"),
    ("Demonstration-output",
     lambda: _read_task(demonstrations=(DEMO._replace(output=""), DEMO)),
     InvariantError, "demonstration output is empty"),
    ("ScoreRecord-mean_score", lambda: _read_cache_line(mean_score=0.4), InvariantError,
     "mean_score inconsistent with per_instance"),
    ("StdcConfig-epsilon", lambda: _compress_with_epsilon("nan"), ConfigError,
     "epsilon must be finite and >= 0"),
    ("TripletDefinition-output_entry", _triplet_with_an_empty_label_definition, InvariantError,
     "triplet entries must be non-empty"),
]


@pytest.mark.parametrize(
    "read, error, message", [pytest.param(*row[1:], id=row[0]) for row in BAD_FIELDS]
)
def test_a_validated_record_checks_its_fields_when_built(read, error, message):
    """Each check runs where a reader builds the record from what it read."""
    with pytest.raises(error, match=f"^{message}$"):
        read()
