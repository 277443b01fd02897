"""Eight-category content annotations over task definitions.

Covers the span data model with validation, the rule-based sentence
pre-splitter, and Fleiss' kappa for inter-annotator agreement.
"""

from __future__ import annotations

import enum
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from .corpus import Task, _require
from .errors import DegenerateError, InvariantError, SchemaError


class ContentCategory(enum.Enum):
    INPUT_CONTENT = "input_content"
    ACTION_CONTENT = "action_content"
    OUTPUT_CONTENT = "output_content"
    LABEL_LIST = "label_list"
    LABEL_DEFINITION = "label_definition"
    ADDITIONAL_INPUT_DETAILS = "additional_input_details"
    ADDITIONAL_OUTPUT_DETAILS = "additional_output_details"
    INPUT_MENTION = "input_mention"


@dataclass(frozen=True)
class Span:
    start: int
    end: int
    category: ContentCategory


@dataclass(frozen=True)
class AnnotationSet:
    task_id: str
    spans: tuple[Span, ...]
    annotator: str = ""

    def by_category(self, category: ContentCategory) -> list[Span]:
        return [s for s in self.spans if s.category is category]


@dataclass(frozen=True)
class ValidationReport:
    problems: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.problems


def validate_annotation(task: Task, ann: AnnotationSet) -> ValidationReport:
    """Check an annotation set against a task definition.

    Violations are reported as data, not raised: the report lists every
    broken invariant with the offending span index.
    """
    problems: list[str] = []
    n = len(task.definition)
    if ann.task_id != task.id:
        problems.append(f"task id mismatch: annotation {ann.task_id!r} vs task {task.id!r}")
    for i, s in enumerate(ann.spans):
        if not (0 <= s.start < s.end <= n):
            problems.append(f"span {i}: out of bounds [{s.start},{s.end}) over length {n}")
    action_spans = [s for s in ann.spans if s.category is ContentCategory.ACTION_CONTENT]
    for i, s in enumerate(ann.spans):
        for j in range(i + 1, len(ann.spans)):
            t = ann.spans[j]
            if s.start < t.end and t.start < s.end:  # overlap
                if s.category is t.category:
                    problems.append(f"spans {i} and {j}: same-category overlap ({s.category.value})")
                elif {s.category, t.category} == {
                    ContentCategory.INPUT_MENTION,
                    ContentCategory.ACTION_CONTENT,
                }:
                    pass  # checked via containment below
                else:
                    problems.append(
                        f"spans {i} and {j}: cross-category overlap "
                        f"({s.category.value} vs {t.category.value})"
                    )
    for i, s in enumerate(ann.spans):
        if s.category is ContentCategory.INPUT_MENTION:
            inside = any(
                a.start <= s.start and s.end <= a.end and (s.start, s.end) != (a.start, a.end)
                for a in action_spans
            )
            if not inside:
                problems.append(f"span {i}: input_mention not strictly inside any action_content span")
    return ValidationReport(tuple(problems))


_TRIGGERS = ("Given ", "Provided with ", "You're given ", "You are given ")

_SENTENCE_END = re.compile(r"[.?!]+(?=\s|$)")


def presplit_definition(text: str) -> list[str]:
    """Split a definition into annotation units.

    First splits at sentence-final ./?/! marks; then, when a sentence begins
    with a trigger pattern such as "Given " or "You are given ", splits it
    again immediately after the next comma/semicolon/colon. Segments
    concatenate losslessly back to the input.
    """
    if not text:
        return []
    sentences: list[str] = []
    last = 0
    for m in _SENTENCE_END.finditer(text):
        sentences.append(text[last : m.end()])
        last = m.end()
    if last < len(text):
        sentences.append(text[last:])

    segments: list[str] = []
    for sent in sentences:
        stripped = sent.lstrip()
        lead = len(sent) - len(stripped)
        trigger = next((t for t in _TRIGGERS if stripped.startswith(t)), None)
        if trigger is not None:
            m = re.search(r"[,;:]", stripped[len(trigger) :])
            if m is not None:
                cut = lead + len(trigger) + m.end()
                if cut < len(sent):
                    segments.append(sent[:cut])
                    segments.append(sent[cut:])
                    continue
        segments.append(sent)
    return segments


@dataclass(frozen=True)
class RatingMatrix:
    """Per-item counts of annotators assigning each category.

    Rows are items, columns categories; every row must sum to the same
    number of raters.
    """

    counts: tuple[tuple[int, ...], ...]
    categories: tuple[str, ...] | None = None

    def __post_init__(self):
        if not self.counts:
            raise InvariantError("rating matrix: need >= 1 item")
        widths = {len(row) for row in self.counts}
        if len(widths) != 1:
            raise InvariantError("rating matrix: ragged rows")
        sums = {sum(row) for row in self.counts}
        if len(sums) != 1:
            raise InvariantError("rating matrix: rows sum to different rater counts")
        if any(c < 0 for row in self.counts for c in row):
            raise InvariantError("rating matrix: negative count")

    @property
    def n_raters(self) -> int:
        return sum(self.counts[0])


def fleiss_kappa(m: RatingMatrix | Sequence[Sequence[int]]) -> float:
    """Fleiss' kappa over a ratings matrix; requires >= 2 raters."""
    if not isinstance(m, RatingMatrix):
        m = RatingMatrix(tuple(tuple(row) for row in m))
    n = m.n_raters
    if n < 2:
        raise InvariantError("fleiss_kappa: need >= 2 raters")
    rows = m.counts
    n_items = len(rows)
    k = len(rows[0])
    # observed agreement
    p_bar = sum((sum(c * c for c in row) - n) / (n * (n - 1)) for row in rows) / n_items
    # expected agreement from marginal category proportions
    p_j = [sum(row[j] for row in rows) / (n_items * n) for j in range(k)]
    p_e = sum(p * p for p in p_j)
    if p_e >= 1.0:
        raise DegenerateError("fleiss_kappa: expected agreement is 1 (single category everywhere)")
    return (p_bar - p_e) / (1.0 - p_e)


def annotation_from_dict(data: dict, *, where: str = "annotation") -> AnnotationSet:
    if not isinstance(data, dict):
        raise SchemaError(f"{where}: record must be a JSON object")
    task_id = _require(data, "task_id", str, where)
    annotator = _require(data, "annotator", str, where)
    spans = []
    for i, s in enumerate(_require(data, "spans", list, where)):
        if not isinstance(s, dict):
            raise SchemaError(f"{where}: spans[{i}] must be an object")
        try:
            category = ContentCategory(s["category"])
        except (KeyError, ValueError) as exc:
            raise SchemaError(f"{where}: spans[{i}]: bad category") from exc
        if not isinstance(s.get("start"), int) or not isinstance(s.get("end"), int):
            raise SchemaError(f"{where}: spans[{i}]: start/end must be integers")
        spans.append(Span(s["start"], s["end"], category))
    return AnnotationSet(task_id=task_id, spans=tuple(spans), annotator=annotator)


def load_annotations(path: str | Path) -> list[AnnotationSet]:
    """Read a JSONL annotation file, one record per (task, annotator)."""
    out = []
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        if not line.strip():
            continue
        try:
            data = json.loads(line)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"{path}:{lineno}: not valid JSON") from exc
        out.append(annotation_from_dict(data, where=f"{path}:{lineno}"))
    return out


def annotation_to_dict(ann: AnnotationSet) -> dict:
    return {
        "task_id": ann.task_id,
        "annotator": ann.annotator,
        "spans": [
            {"start": s.start, "end": s.end, "category": s.category.value} for s in ann.spans
        ],
    }
