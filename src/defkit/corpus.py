"""Task data model, task-file loading, prompt assembly, and fit/holdout splits."""

from __future__ import annotations

import enum
import json
import math
import random
from pathlib import Path
from typing import Callable, Iterator, NamedTuple

from .errors import DefkitError, InvariantError, warn

# The one prompt every definition is scored through: the Super-NaturalInstructions
# layout of definition, two positive examples, then the instance input.
DEFAULT_TEMPLATE = (
    "Definition: {definition}\n\n"
    "Positive Example 1-\nInput: {demo1_in}\nOutput: {demo1_out}\n\n"
    "Positive Example 2-\nInput: {demo2_in}\nOutput: {demo2_out}\n\n"
    "Now complete the following example-\nInput: {input}\nOutput:"
)


class TaskKind(enum.Enum):
    CLASSIFICATION = "classification"
    GENERATION = "generation"


class SplitRole(enum.Enum):
    FIT = "fit"
    HOLDOUT = "holdout"


class Demonstration(NamedTuple):
    input: str
    output: str
    explanation: str | None = None


class Instance(NamedTuple):
    id: str
    input: str
    references: tuple[str, ...]


class Task(NamedTuple):
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


class ExampleSet(NamedTuple):
    task_id: str
    instances: tuple[Instance, ...]
    role: SplitRole


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
        raise DefkitError(f"{where}: missing field '{key}'")
    if not isinstance(obj[key], typ):
        raise DefkitError(f"{where}: field '{key}' has wrong type, expected {typ.__name__}")
    return obj[key]


def _strings(obj: dict, key: str, where: str) -> tuple[str, ...]:
    """obj[key], a list of strings, as a tuple: no entry is turned into one."""
    items = _require(obj, key, list, where)
    if not all(isinstance(x, str) for x in items):
        raise DefkitError(f"{where}: field '{key}' must hold strings only")
    return tuple(items)


def task_from_dict(data: dict, *, lenient: bool = False, where: str = "task") -> Task:
    if not isinstance(data, dict):
        raise DefkitError(f"{where}: top level must be a JSON object")
    known = set(_TASK_KEYS) | set(_OPTIONAL_TASK_KEYS)
    unknown = set(data) - known
    if unknown:
        if lenient:
            warn(__name__, f"{where}: ignoring unknown keys {sorted(unknown)}")
        else:
            raise DefkitError(f"{where}: unknown keys {sorted(unknown)}")
    for key, typ in _TASK_KEYS.items():
        _require(data, key, typ, where)
    kind_raw = data["kind"]
    try:
        kind = TaskKind(kind_raw)
    except ValueError:
        raise DefkitError(f"{where}: field 'kind' must be 'classification' or 'generation', got {kind_raw!r}")
    label_list = None
    if "label_list" in data:
        label_list = _strings(data, "label_list", where)

    demos = []
    for i, entry in enumerate(data["demonstrations"]):
        if not isinstance(entry, dict):
            raise DefkitError(f"{where}: demonstrations[{i}] must be an object")
        if not isinstance(entry.get("explanation"), (str, type(None))):
            raise DefkitError(f"{where}: demonstrations[{i}]: field 'explanation' must be a string")
        demo = Demonstration(
            input=_require(entry, "input", str, f"{where}: demonstrations[{i}]"),
            output=_require(entry, "output", str, f"{where}: demonstrations[{i}]"),
            explanation=entry.get("explanation"),
        )
        if not demo.input:
            raise InvariantError("demonstration input is empty")
        if not demo.output:
            raise InvariantError("demonstration output is empty")
        demos.append(demo)
    instances = []
    for i, entry in enumerate(data["instances"]):
        if not isinstance(entry, dict):
            raise DefkitError(f"{where}: instances[{i}] must be an object")
        inst = Instance(
            id=_require(entry, "id", str, f"{where}: instances[{i}]"),
            input=_require(entry, "input", str, f"{where}: instances[{i}]"),
            references=_strings(entry, "references", f"{where}: instances[{i}]"),
        )
        if not inst.references:
            raise InvariantError(f"instance {inst.id}: references empty")
        instances.append(inst)
    domains = _strings(data, "domains", where)
    reasoning_types = _strings(data, "reasoning_types", where)
    if not data["definition"].strip():
        raise InvariantError("definition: empty after trimming")
    if len(demos) < 2:
        raise InvariantError("demonstrations: need >= 2")
    if kind is TaskKind.CLASSIFICATION:
        if not label_list:
            raise InvariantError("label_list: required for classification tasks")
        trimmed = [label.strip() for label in label_list]
        if len(set(trimmed)) != len(trimmed):
            raise InvariantError("label_list: entries not unique after trimming")
    first: dict[str, int] = {}
    for i, inst in enumerate(instances):
        j = first.setdefault(inst.id, i)
        if j != i:
            raise InvariantError(f"instances: id {inst.id!r} repeated at indices {j} and {i}")
    return Task(
        id=data["id"],
        name=data["name"],
        definition=data["definition"],
        category=data["category"],
        domains=domains,
        reasoning_types=reasoning_types,
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
    # JSONDecodeError, UnicodeDecodeError from read_text, or RecursionError
    # from a value nested past the interpreter's recursion limit
    except (ValueError, RecursionError) as exc:
        raise DefkitError(f"{path}: not valid UTF-8 JSON: {exc}") from exc
    try:
        return task_from_dict(data, lenient=lenient, where=str(path))
    except InvariantError as exc:
        raise InvariantError(f"{path}: {exc}") from exc


def numbered_lines(
    path: str | Path, on_undecodable: Callable[[int], None] | None = None
) -> Iterator[tuple[int, str]]:
    """(line number, text) of each non-blank line of a UTF-8 file.

    Lines end at "\n" only, so U+0085, U+2028 and U+2029 inside a JSON
    string neither split a record nor shift the line numbers after it. A
    line that is not UTF-8 raises DefkitError naming path:line, or, given
    `on_undecodable`, is passed to it by number and skipped.
    """
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, 1):
            try:
                line = raw.decode("utf-8").rstrip("\r\n")
            except UnicodeDecodeError as exc:
                if on_undecodable is None:
                    raise DefkitError(f"{path}:{lineno}: not valid UTF-8: {exc}") from exc
                on_undecodable(lineno)
                continue
            if line.strip():
                yield lineno, line


def finite_number(value) -> float:
    """A JSON number as a float: not a bool, and finite. Raises TypeError,
    ValueError, or OverflowError for an int past the float range."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, got {value!r}")
    number = float(value)
    if not math.isfinite(number):
        raise ValueError(f"expected a finite number, got {value!r}")
    return number


def load_task_dir(directory: str | Path, *, lenient: bool = False) -> list[Task]:
    """Load every *.json file in a directory, sorted by filename.

    `compress` names each task's output file after its id, beside the
    run's `manifest.json`, so an id must be unique in the directory, must
    not be `manifest`, and must be a plain file name: not empty, `.` or
    `..`, and without `/`, `\\` or NUL. Raises DefkitError otherwise.
    """
    if not Path(directory).is_dir():
        raise FileNotFoundError(f"no task directory at {directory}")
    tasks = []
    file_of: dict[str, Path] = {}
    for path in sorted(Path(directory).glob("*.json")):
        task = load_task_file(path, lenient=lenient)
        if task.id in ("", ".", "..") or any(c in task.id for c in "/\\\0"):
            raise DefkitError(f"{path}: task id {task.id!r} is not a plain file name")
        if task.id == "manifest":
            raise DefkitError(f"{path}: task id 'manifest' would overwrite the run's manifest.json")
        if task.id in file_of:
            raise DefkitError(f"{path}: task id {task.id!r} is also the id in {file_of[task.id]}")
        file_of[task.id] = path
        tasks.append(task)
    return tasks


def assemble_prompt(task: Task, definition: str, instance: Instance) -> str:
    """Fill DEFAULT_TEMPLATE with the definition, the first two
    demonstrations and the instance input; the values go in verbatim."""
    demo1, demo2 = task.demonstrations[:2]
    return DEFAULT_TEMPLATE.format(
        definition=definition,
        demo1_in=demo1.input,
        demo1_out=demo1.output,
        demo2_in=demo2.input,
        demo2_out=demo2.output,
        input=instance.input,
    )


def split_examples(
    task: Task, n_fit: int, n_holdout: int, seed: int
) -> tuple[ExampleSet, ExampleSet]:
    """Seeded Fisher-Yates shuffle of the task's instances, then prefix slicing."""
    if n_fit < 0 or n_holdout < 0:
        raise DefkitError("split sizes must be non-negative")
    if n_fit + n_holdout > len(task.instances):
        raise DefkitError(
            f"task {task.id}: need {n_fit}+{n_holdout} instances, have {len(task.instances)}"
        )
    shuffled = list(task.instances)
    random.Random(seed).shuffle(shuffled)
    fit = ExampleSet(task.id, tuple(shuffled[:n_fit]), SplitRole.FIT)
    holdout = ExampleSet(task.id, tuple(shuffled[n_fit : n_fit + n_holdout]), SplitRole.HOLDOUT)
    return fit, holdout
