"""Task data model, task-file loading, prompt assembly, and fit/holdout splits."""

from __future__ import annotations

import enum
import json
import logging
import random
import re
from dataclasses import dataclass
from functools import cached_property, lru_cache
from pathlib import Path

from .errors import InvariantError, SchemaError, SizeError, TemplateError

logger = logging.getLogger(__name__)

DEFAULT_TEMPLATE = (
    "Definition: {definition}\n\n"
    "Positive Example 1-\nInput: {demo1_in}\nOutput: {demo1_out}\n\n"
    "Positive Example 2-\nInput: {demo2_in}\nOutput: {demo2_out}\n\n"
    "Now complete the following example-\nInput: {input}\nOutput:"
)

_PLACEHOLDERS = {"definition", "demo1_in", "demo1_out", "demo2_in", "demo2_out", "input"}
_PLACEHOLDER = re.compile(r"\{(\w+)\}")


class TaskKind(enum.Enum):
    CLASSIFICATION = "classification"
    GENERATION = "generation"


class SplitRole(enum.Enum):
    FIT = "fit"
    HOLDOUT = "holdout"


@dataclass(frozen=True)
class Demonstration:
    input: str
    output: str
    explanation: str | None = None

    def __post_init__(self):
        if not self.input:
            raise InvariantError("demonstration input is empty")
        if not self.output:
            raise InvariantError("demonstration output is empty")


@dataclass(frozen=True)
class Instance:
    id: str
    input: str
    references: tuple[str, ...]

    def __post_init__(self):
        if not self.references:
            raise InvariantError(f"instance {self.id}: references empty")


@dataclass(frozen=True)
class Task:
    id: str
    name: str
    definition: str
    category: str
    domains: tuple[str, ...]
    reasoning_types: tuple[str, ...]
    kind: TaskKind
    label_list: tuple[str, ...] | None
    demonstrations: tuple[Demonstration, ...]
    instances: tuple[Instance, ...]

    def __post_init__(self):
        if not self.definition.strip():
            raise InvariantError("definition: empty after trimming")
        if len(self.demonstrations) < 2:
            raise InvariantError("demonstrations: need >= 2")
        if self.kind is TaskKind.CLASSIFICATION:
            if not self.label_list:
                raise InvariantError("label_list: required for classification tasks")
            trimmed = [label.strip() for label in self.label_list]
            if len(set(trimmed)) != len(trimmed):
                raise InvariantError("label_list: entries not unique after trimming")

    @cached_property
    def _instances_by_id(self) -> dict[str, Instance]:
        index: dict[str, Instance] = {}
        for inst in self.instances:
            index.setdefault(inst.id, inst)  # a repeated id finds its first instance
        return index

    def instance_by_id(self, instance_id: str) -> Instance:
        return self._instances_by_id[instance_id]

    def to_dict(self) -> dict:
        d = {
            "id": self.id,
            "name": self.name,
            "definition": self.definition,
            "category": self.category,
            "domains": list(self.domains),
            "reasoning_types": list(self.reasoning_types),
            "kind": self.kind.value,
            "demonstrations": [
                {"input": demo.input, "output": demo.output}
                | ({"explanation": demo.explanation} if demo.explanation is not None else {})
                for demo in self.demonstrations
            ],
            "instances": [
                {"id": inst.id, "input": inst.input, "references": list(inst.references)}
                for inst in self.instances
            ],
        }
        if self.label_list is not None:
            d["label_list"] = list(self.label_list)
        return d


@dataclass(frozen=True)
class ExampleSet:
    task_id: str
    instance_ids: tuple[str, ...]
    role: SplitRole

    def __post_init__(self):
        if len(set(self.instance_ids)) != len(self.instance_ids):
            raise InvariantError("example set: instance ids not unique")


_TASK_KEYS = {
    "id": str,
    "name": str,
    "definition": str,
    "category": str,
    "domains": list,
    "reasoning_types": list,
    "kind": str,
    "demonstrations": list,
    "instances": list,
}
_OPTIONAL_TASK_KEYS = {"label_list": list}


def _require(obj: dict, key: str, typ, where: str):
    if key not in obj:
        raise SchemaError(f"{where}: missing field '{key}'")
    if not isinstance(obj[key], typ):
        raise SchemaError(f"{where}: field '{key}' has wrong type, expected {typ.__name__}")
    return obj[key]


def task_from_dict(data: dict, *, lenient: bool = False, where: str = "task") -> Task:
    if not isinstance(data, dict):
        raise SchemaError(f"{where}: top level must be a JSON object")
    known = set(_TASK_KEYS) | set(_OPTIONAL_TASK_KEYS)
    unknown = set(data) - known
    if unknown:
        if lenient:
            logger.warning("%s: ignoring unknown keys %s", where, sorted(unknown))
        else:
            raise SchemaError(f"{where}: unknown keys {sorted(unknown)}")
    for key, typ in _TASK_KEYS.items():
        _require(data, key, typ, where)
    kind_raw = data["kind"]
    try:
        kind = TaskKind(kind_raw)
    except ValueError:
        raise SchemaError(f"{where}: field 'kind' must be 'classification' or 'generation', got {kind_raw!r}")
    label_list = None
    if "label_list" in data:
        labels = _require(data, "label_list", list, where)
        label_list = tuple(str(x) for x in labels)

    demos = []
    for i, entry in enumerate(data["demonstrations"]):
        if not isinstance(entry, dict):
            raise SchemaError(f"{where}: demonstrations[{i}] must be an object")
        demos.append(
            Demonstration(
                input=_require(entry, "input", str, f"{where}: demonstrations[{i}]"),
                output=_require(entry, "output", str, f"{where}: demonstrations[{i}]"),
                explanation=entry.get("explanation"),
            )
        )
    instances = []
    for i, entry in enumerate(data["instances"]):
        if not isinstance(entry, dict):
            raise SchemaError(f"{where}: instances[{i}] must be an object")
        refs = _require(entry, "references", list, f"{where}: instances[{i}]")
        if not all(isinstance(r, str) for r in refs):
            raise SchemaError(f"{where}: instances[{i}].references must be strings")
        instances.append(
            Instance(
                id=_require(entry, "id", str, f"{where}: instances[{i}]"),
                input=_require(entry, "input", str, f"{where}: instances[{i}]"),
                references=tuple(refs),
            )
        )
    return Task(
        id=data["id"],
        name=data["name"],
        definition=data["definition"],
        category=data["category"],
        domains=tuple(str(x) for x in data["domains"]),
        reasoning_types=tuple(str(x) for x in data["reasoning_types"]),
        kind=kind,
        label_list=label_list,
        demonstrations=tuple(demos),
        instances=tuple(instances),
    )


def load_task_file(path: str | Path, *, lenient: bool = False) -> Task:
    """Load and validate one task from a UTF-8 JSON file."""
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:  # JSONDecodeError, or UnicodeDecodeError from read_text
        raise SchemaError(f"{path}: not valid UTF-8 JSON: {exc}") from exc
    try:
        return task_from_dict(data, lenient=lenient, where=str(path))
    except InvariantError as exc:
        raise InvariantError(f"{path}: {exc}") from exc


def load_task_dir(directory: str | Path, *, lenient: bool = False) -> list[Task]:
    """Load every *.json file in a directory, sorted by filename."""
    if not Path(directory).is_dir():
        raise FileNotFoundError(f"no task directory at {directory}")
    files = sorted(Path(directory).glob("*.json"))
    return [load_task_file(f, lenient=lenient) for f in files]


@lru_cache(maxsize=64)
def _check_template(template: str) -> None:
    """Raise TemplateError for a bad template; a good one is checked once."""
    names = set(_PLACEHOLDER.findall(template))
    unknown = names - _PLACEHOLDERS
    if unknown:
        raise TemplateError(f"unresolved placeholder(s): {sorted(unknown)}")
    if "input" not in names:
        raise TemplateError("template is missing the {input} placeholder")


def assemble_prompt(
    task: Task,
    definition: str,
    instance: Instance,
    template: str = DEFAULT_TEMPLATE,
) -> str:
    """Substitute the template placeholders verbatim; no other text is altered.

    Exactly the first two demonstrations are used. The template must contain
    the {input} placeholder and no placeholders outside the supported set.
    """
    _check_template(template)
    values = {
        "definition": definition,
        "demo1_in": task.demonstrations[0].input,
        "demo1_out": task.demonstrations[0].output,
        "demo2_in": task.demonstrations[1].input,
        "demo2_out": task.demonstrations[1].output,
        "input": instance.input,
    }
    return _PLACEHOLDER.sub(lambda m: values[m.group(1)], template)


def split_examples(
    task: Task, n_fit: int, n_holdout: int, seed: int
) -> tuple[ExampleSet, ExampleSet]:
    """Seeded Fisher-Yates shuffle of instance ids, then prefix slicing."""
    if n_fit < 0 or n_holdout < 0:
        raise SizeError("split sizes must be non-negative")
    if n_fit + n_holdout > len(task.instances):
        raise SizeError(
            f"task {task.id}: need {n_fit}+{n_holdout} instances, have {len(task.instances)}"
        )
    ids = [inst.id for inst in task.instances]
    random.Random(seed).shuffle(ids)
    fit = ExampleSet(task.id, tuple(ids[:n_fit]), SplitRole.FIT)
    holdout = ExampleSet(task.id, tuple(ids[n_fit : n_fit + n_holdout]), SplitRole.HOLDOUT)
    return fit, holdout
