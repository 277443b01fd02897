"""Annotated-ablation variants and the Shuffled/Metadata baseline definitions."""

from __future__ import annotations

import enum
import random

from ._record import record
from .annotations import AnnotationSet, ContentCategory, validate_annotation
from .corpus import Task, TaskKind
from .errors import InvariantError, ValidationError, warn
from .metrics import compression_ratio  # also public here, as ablation.compression_ratio


class AblationName(enum.Enum):
    INPUT_ADD = "input_add"
    OUTPUT_ADD = "output_add"
    ALL_ADD = "all_add"
    LABEL_LIST = "label_list"
    LABEL_DESC = "label_desc"
    ALL_LABEL = "all_label"
    ALL_OUTPUT = "all_output"
    ALL_INPUT = "all_input"


REMOVED_CATEGORIES: dict[AblationName, frozenset[ContentCategory]] = {
    AblationName.INPUT_ADD: frozenset({ContentCategory.ADDITIONAL_INPUT_DETAILS}),
    AblationName.OUTPUT_ADD: frozenset({ContentCategory.ADDITIONAL_OUTPUT_DETAILS}),
    AblationName.ALL_ADD: frozenset(
        {ContentCategory.ADDITIONAL_INPUT_DETAILS, ContentCategory.ADDITIONAL_OUTPUT_DETAILS}
    ),
    AblationName.LABEL_LIST: frozenset({ContentCategory.LABEL_LIST}),
    AblationName.LABEL_DESC: frozenset({ContentCategory.LABEL_DEFINITION}),
    AblationName.ALL_LABEL: frozenset(
        {ContentCategory.LABEL_LIST, ContentCategory.LABEL_DEFINITION}
    ),
    AblationName.ALL_OUTPUT: frozenset(
        {
            ContentCategory.OUTPUT_CONTENT,
            ContentCategory.ADDITIONAL_OUTPUT_DETAILS,
            ContentCategory.LABEL_LIST,
            ContentCategory.LABEL_DEFINITION,
        }
    ),
    AblationName.ALL_INPUT: frozenset(
        {ContentCategory.INPUT_CONTENT, ContentCategory.ADDITIONAL_INPUT_DETAILS}
    ),
}


@record
class AblationSpec:
    name: AblationName

    @property
    def removed_categories(self) -> frozenset[ContentCategory]:
        return REMOVED_CATEGORIES[self.name]


@record
class AblatedDefinition:
    task_id: str
    text: str
    tokens_kept: int
    tokens_full: int

    @property
    def ratio(self) -> float:
        return self.tokens_kept / self.tokens_full if self.tokens_full else 0.0


def apply_ablation(task: Task, ann: AnnotationSet, spec: AblationSpec) -> AblatedDefinition:
    """Check the annotation against the task, then `remove_spans`."""
    report = validate_annotation(task, ann)
    if not report.ok:
        raise ValidationError("; ".join(report.problems))
    return remove_spans(task, ann, spec)


def remove_spans(task: Task, ann: AnnotationSet, spec: AblationSpec) -> AblatedDefinition:
    """Delete every annotated span of the spec's categories from the definition.

    The annotation must already be valid for the task (`validate_annotation`).
    InputMention spans are deleted only when their enclosing ActionContent
    span is deleted. Whitespace is collapsed afterwards; token counts are
    over whitespace tokens of the raw text.
    """
    # `in` a tuple finds a member by identity, in C; `in` a set would hash
    # each category with Enum.__hash__, which runs Python code
    removed = tuple(spec.removed_categories)
    delete: list[tuple[int, int]] = []
    deleted_actions = []
    for span in ann.spans:
        if span.category in removed and span.category is not ContentCategory.INPUT_MENTION:
            delete.append((span.start, span.end))
            if span.category is ContentCategory.ACTION_CONTENT:
                deleted_actions.append(span)
    if ContentCategory.INPUT_MENTION in removed:
        for span in ann.by_category(ContentCategory.INPUT_MENTION):
            if any(a.start <= span.start and span.end <= a.end for a in deleted_actions):
                delete.append((span.start, span.end))

    text = task.definition
    pieces: list[str] = []
    kept_from = 0  # text[kept_from:] is not yet known to be deleted
    for start, end in sorted(delete):
        pieces.append(text[kept_from:start])  # empty when start <= kept_from
        kept_from = max(kept_from, end)
    pieces.append(text[kept_from:])
    words = "".join(pieces).split()
    return AblatedDefinition(
        task_id=task.id,
        text=" ".join(words),
        tokens_kept=len(words),
        tokens_full=len(text.split()),
    )


def shuffle_definition(text: str, seed: int) -> str:
    """Seeded Fisher-Yates shuffle of whitespace tokens."""
    tokens = text.split()
    random.Random(seed).shuffle(tokens)
    return " ".join(tokens)


def build_metadata_definition(task: Task) -> str:
    """Fixed metadata template replacing the definition.

    The label slot becomes "generate free text" for generation tasks.
    """
    if task.kind is TaskKind.CLASSIFICATION and not task.label_list:
        raise InvariantError(f"task {task.id}: classification without label_list")
    for slot, value in (("reasoning type", task.reasoning_types), ("domain", task.domains)):
        if not value:
            warn(__name__, f"task {task.id}: empty {slot} slot in metadata definition")
    if not task.category:
        warn(__name__, f"task {task.id}: empty category slot in metadata definition")
    labels = (
        "generate free text"
        if task.kind is TaskKind.GENERATION
        else ", ".join(task.label_list)
    )
    return (
        f"Category: {task.category}. "
        f"Reasoning type: {', '.join(task.reasoning_types)}. "
        f"Domain: {', '.join(task.domains)}. "
        f"Label list: {labels}"
    )
