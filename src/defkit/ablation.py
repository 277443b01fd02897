"""Annotated-ablation variants and the Shuffled/Metadata baseline definitions."""

from __future__ import annotations

import random

from .annotations import AnnotationSet, ContentCategory, check_annotation
from .corpus import Task, TaskKind
from .errors import warn
from .metrics import compression_ratio  # also public here, as ablation.compression_ratio


# Each `ablate --spec` name and the categories its variant deletes, in the
# order `--spec all` writes them
REMOVED_CATEGORIES: dict[str, frozenset[ContentCategory]] = {
    "input_add": frozenset({ContentCategory.ADDITIONAL_INPUT_DETAILS}),
    "output_add": frozenset({ContentCategory.ADDITIONAL_OUTPUT_DETAILS}),
    "all_add": frozenset(
        {ContentCategory.ADDITIONAL_INPUT_DETAILS, ContentCategory.ADDITIONAL_OUTPUT_DETAILS}
    ),
    "label_list": frozenset({ContentCategory.LABEL_LIST}),
    "label_desc": frozenset({ContentCategory.LABEL_DEFINITION}),
    "all_label": frozenset({ContentCategory.LABEL_LIST, ContentCategory.LABEL_DEFINITION}),
    "all_output": frozenset(
        {
            ContentCategory.OUTPUT_CONTENT,
            ContentCategory.ADDITIONAL_OUTPUT_DETAILS,
            ContentCategory.LABEL_LIST,
            ContentCategory.LABEL_DEFINITION,
        }
    ),
    "all_input": frozenset(
        {ContentCategory.INPUT_CONTENT, ContentCategory.ADDITIONAL_INPUT_DETAILS}
    ),
}


def apply_ablation(task: Task, ann: AnnotationSet, categories: frozenset[ContentCategory]) -> str:
    """Check the annotation against the task, then `remove_spans`."""
    check_annotation(task, ann)
    return remove_spans(task, ann, categories)


def remove_spans(task: Task, ann: AnnotationSet, categories: frozenset[ContentCategory]) -> str:
    """The definition with every annotated span of the categories deleted.

    The annotation must already be valid for the task (`validate_annotation`).
    InputMention spans are deleted only when their enclosing ActionContent
    span is deleted. Whitespace runs in what is left become single spaces,
    and leading and trailing whitespace goes.
    """
    # `in` a tuple finds a member by identity, in C; `in` a set would hash
    # each category with Enum.__hash__, which runs Python code
    removed = tuple(categories)
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
    return " ".join("".join(pieces).split())


def shuffle_definition(text: str, seed: int) -> str:
    """Seeded Fisher-Yates shuffle of whitespace tokens."""
    tokens = text.split()
    random.Random(seed).shuffle(tokens)
    return " ".join(tokens)


def build_metadata_definition(task: Task) -> str:
    """Fixed metadata template replacing the definition.

    The label slot becomes "generate free text" for generation tasks.
    """
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
