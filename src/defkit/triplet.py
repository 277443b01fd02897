"""Structured input/action/output replacement definitions and the
meta-tuning training instances derived from them."""

from __future__ import annotations

import enum

from ._record import record
from .annotations import AnnotationSet, ContentCategory, Span
from .corpus import Task, TaskKind
from .errors import InvariantError, MissingSpanError
from .parse import ParseNode, ParseTree, leaf_offsets

META_FRAME = "Generate segments of task definitions based on the tag and two examples."


class MetaTag(enum.Enum):
    TASK_INPUT = "<Task input>"
    TASK_ACTION = "<Task action>"
    TASK_OUTPUT = "<Task output>"


@record
class TripletDefinition:
    task_id: str
    input_entry: str
    action_entry: str
    output_entry: tuple[str, ...]
    needs_review: bool = False

    def __post_init__(self):
        if not self.input_entry or not self.action_entry or not all(self.output_entry):
            raise InvariantError("triplet entries must be non-empty")

    def to_dict(self) -> dict:
        return {
            "task_id": self.task_id,
            "input": [self.input_entry],
            "action": [self.action_entry],
            "output": list(self.output_entry),
            "needs_review": self.needs_review,
        }


@record
class MetaTuneInstance:
    tag: MetaTag
    source: str
    target: str

    def to_dict(self) -> dict:
        return {"tag": self.tag.value, "source": self.source, "target": self.target}


def _base_label(label: str) -> str:
    return label.split("-")[0].split("=")[0]


def _overlap(a: tuple[int, int], b: tuple[int, int]) -> int:
    return max(0, min(a[1], b[1]) - max(a[0], b[0]))


def build_triplet(task: Task, ann: AnnotationSet, tree: ParseTree) -> TripletDefinition:
    """Extract the (input, action, output) entries from the annotated
    definition via its parse tree.

    Falls back to the raw annotated span text (flagging needs_review) when
    the tree's leaves do not spell the definition apart from whitespace, or
    the tree does not yield a usable constituent, mirroring a manual review
    queue for parser mistakes.
    """
    text = task.definition
    input_spans = sorted(ann.by_category(ContentCategory.INPUT_CONTENT), key=lambda s: s.start)
    action_spans = sorted(ann.by_category(ContentCategory.ACTION_CONTENT), key=lambda s: s.start)
    if not input_spans:
        raise MissingSpanError(f"task {task.id}: no input_content span annotated")
    if not action_spans:
        raise MissingSpanError(f"task {task.id}: no action_content span annotated")
    input_span = (input_spans[0].start, input_spans[0].end)
    action_span = (action_spans[0].start, action_spans[0].end)

    needs_review = False
    leaf_pos = leaf_offsets(tree, text)
    nodes = [n for n in tree.nodes() if not n.is_leaf] if leaf_pos is not None else []
    extents: dict[int, tuple[int, int] | None] = {}  # char extent of each internal node
    for node in nodes:
        lo, hi = tree.leaf_range(node.id)
        extents[node.id] = (leaf_pos[lo][0], leaf_pos[hi - 1][1]) if lo < hi else None

    def pick_np(window: tuple[int, int]) -> ParseNode | None:
        best, best_key = None, None
        for node in nodes:
            if _base_label(node.label) != "NP":
                continue
            extent = extents[node.id]
            if extent is None:
                continue
            ov = _overlap(extent, window)
            if ov <= 0:
                continue
            key = (ov, node.depth, -extent[0])
            if best_key is None or key > best_key:
                best, best_key = node, key
        return best

    # input entry: NP maximally overlapping the first InputContent span
    np_node = pick_np(input_span)
    if np_node is not None:
        start, end = extents[np_node.id]
        input_entry = text[start:end]
    else:
        input_entry = text[input_span[0] : input_span[1]].strip().rstrip(".")
        needs_review = True

    # action entry: lowest VP covering the span's root verb
    verb_leaf = None
    if leaf_pos is not None:
        parent: dict[int, ParseNode] = {}
        for node in nodes:
            for child in node.children:
                parent[child.id] = node
        for leaf, (start, end) in zip(tree.leaves(), leaf_pos):
            pre = parent.get(leaf.id)
            if (
                action_span[0] <= start
                and end <= action_span[1]
                and pre is not None
                and _base_label(pre.label).startswith("VB")
            ):
                verb_leaf, verb_end = leaf, end
                break
    vp_node = None
    if verb_leaf is not None:
        cursor = parent.get(verb_leaf.id)
        while cursor is not None:
            if _base_label(cursor.label) == "VP":
                vp_node = cursor
                break
            cursor = parent.get(cursor.id)
    if vp_node is not None:
        start, end = extents[vp_node.id]
        action_entry = text[start:end]
    else:
        action_entry = text[action_span[0] : action_span[1]].strip().rstrip(".")
        needs_review = True

    # output entry
    if task.kind is TaskKind.CLASSIFICATION:
        output_entry = [", ".join(task.label_list)]
        for span in sorted(ann.by_category(ContentCategory.LABEL_DEFINITION), key=lambda s: s.start):
            output_entry.append(text[span.start : span.end].strip().rstrip("."))
    else:
        obj = None
        if vp_node is not None:  # found from verb_leaf, so verb_end is set
            vp_lo, vp_hi = tree.leaf_range(vp_node.id)
            best_key = None
            for node in nodes:
                # below the VP: deeper than it, with leaves inside its leaf range
                lo, hi = tree.leaf_range(node.id)
                if node.depth <= vp_node.depth or not vp_lo <= lo < hi <= vp_hi:
                    continue
                extent = extents[node.id]
                if _base_label(node.label) != "NP" or extent[0] < verb_end:
                    continue
                key = (-extent[0], node.depth)
                if best_key is None or key > best_key:
                    obj, best_key = node, key
        if obj is not None:
            start, end = extents[obj.id]
            output_entry = [text[start:end]]
        else:
            out_spans = sorted(
                ann.by_category(ContentCategory.OUTPUT_CONTENT), key=lambda s: s.start
            )
            if out_spans:
                output_entry = [text[out_spans[0].start : out_spans[0].end].strip().rstrip(".")]
            else:
                output_entry = [action_entry]
            needs_review = True

    return TripletDefinition(
        task_id=task.id,
        input_entry=input_entry,
        action_entry=action_entry,
        output_entry=tuple(output_entry),
        needs_review=needs_review,
    )


def render_triplet(t: TripletDefinition) -> str:
    return (
        f"Task input: {t.input_entry}. "
        f"Task action: {t.action_entry}. "
        f"Task output: {'; '.join(t.output_entry)}"
    )


def meta_tuning_instances(
    task: Task, t: TripletDefinition, split_outputs: bool = False
) -> list[MetaTuneInstance]:
    """Three training instances per triplet, one per tag, sharing the same
    two demonstrations used in instruction prompts.

    With split_outputs=True, each output entry becomes its own TaskOutput
    instance instead of being joined with '; '.
    """
    if len(task.demonstrations) < 2:
        raise InvariantError(f"task {task.id}: need >= 2 demonstrations")
    d1, d2 = task.demonstrations[0], task.demonstrations[1]

    def source(tag: MetaTag) -> str:
        return (
            f"{META_FRAME} {tag.value}. "
            f"Input: {d1.input} Output: {d1.output}. "
            f"Input: {d2.input} Output: {d2.output}"
        )

    out = [
        MetaTuneInstance(MetaTag.TASK_INPUT, source(MetaTag.TASK_INPUT), t.input_entry),
        MetaTuneInstance(MetaTag.TASK_ACTION, source(MetaTag.TASK_ACTION), t.action_entry),
    ]
    if split_outputs:
        out.extend(
            MetaTuneInstance(MetaTag.TASK_OUTPUT, source(MetaTag.TASK_OUTPUT), entry)
            for entry in t.output_entry
        )
    else:
        out.append(
            MetaTuneInstance(
                MetaTag.TASK_OUTPUT, source(MetaTag.TASK_OUTPUT), "; ".join(t.output_entry)
            )
        )
    return out
