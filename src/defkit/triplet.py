"""Structured input/action/output replacement definitions and the
meta-tuning training instances derived from them."""

from __future__ import annotations

from typing import NamedTuple

from .annotations import AnnotationSet, ContentCategory
from .corpus import Task, TaskKind
from .errors import DefkitError, InvariantError
from .parse import ParseNode, ParseTree, leaf_offsets

META_FRAME = "Generate segments of task definitions based on the tag and two examples."

# the tag of each meta-tuning row
TASK_INPUT = "<Task input>"
TASK_ACTION = "<Task action>"
TASK_OUTPUT = "<Task output>"


class TripletDefinition(NamedTuple):
    task_id: str
    input_entry: str
    action_entry: str
    output_entry: tuple[str, ...]
    needs_review: bool = False

    def to_dict(self) -> dict:
        """The row `triplet` writes, its keys in sorted order."""
        return {
            "action": [self.action_entry],
            "input": [self.input_entry],
            "needs_review": self.needs_review,
            "output": list(self.output_entry),
            "task_id": self.task_id,
        }


def _base_label(label: str) -> str:
    return label.split("-")[0].split("=")[0]


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
        raise DefkitError(f"task {task.id}: no input_content span annotated")
    if not action_spans:
        raise DefkitError(f"task {task.id}: no action_content span annotated")
    input_start, input_end = input_spans[0].start, input_spans[0].end
    action_start, action_end = action_spans[0].start, action_spans[0].end

    needs_review = False
    leaf_pos = leaf_offsets(tree, text)
    # (node, char start, char end) of each NP and VP with a leaf, in
    # pre-order, and the index of each leaf whose preterminal is a verb
    nps: list[tuple[ParseNode, int, int]] = []
    vps: list[tuple[ParseNode, int, int]] = []
    verbs: list[int] = []
    for node in tree.nodes.values() if leaf_pos is not None else ():
        # a base label is NP, VP or VB... only if its label starts so
        if node.is_leaf or node.lo == node.hi or not node.label.startswith(("NP", "VP", "VB")):
            continue
        base = _base_label(node.label)
        if base == "NP" or base == "VP":
            (nps if base == "NP" else vps).append(
                (node, leaf_pos[node.lo][0], leaf_pos[node.hi - 1][1])
            )
        elif base.startswith("VB"):
            verbs.extend(child.lo for child in node.children if child.is_leaf)

    # input entry: NP maximally overlapping the first InputContent span
    np_extent, best_key = None, None
    for node, start, end in nps:
        overlap = min(end, input_end) - max(start, input_start)
        if overlap > 0:
            key = (overlap, node.depth, -start)
            if best_key is None or key > best_key:
                np_extent, best_key = (start, end), key
    if np_extent is not None:
        input_entry = text[np_extent[0] : np_extent[1]]
    else:
        input_entry = text[input_start:input_end].strip().rstrip(".")
        needs_review = True

    # action entry: lowest VP covering the span's root verb, the first leaf
    # of the span whose preterminal is a verb
    in_span = [i for i in verbs if action_start <= leaf_pos[i][0] and leaf_pos[i][1] <= action_end]
    vp_node = None
    if in_span:
        verb = min(in_span)
        verb_end = leaf_pos[verb][1]
        # the VPs whose leaves hold the verb's are its VP ancestors
        vp_node = max(
            (vp for vp in vps if vp[0].lo <= verb < vp[0].hi), key=lambda vp: vp[0].depth,
            default=None,
        )
    if vp_node is not None:
        action_entry = text[vp_node[1] : vp_node[2]]
    else:
        action_entry = text[action_start:action_end].strip().rstrip(".")
        needs_review = True

    # output entry
    if task.kind is TaskKind.CLASSIFICATION:
        output_entry = [", ".join(task.label_list)]
        for span in sorted(ann.by_category(ContentCategory.LABEL_DEFINITION), key=lambda s: s.start):
            output_entry.append(text[span.start : span.end].strip().rstrip("."))
    else:
        obj_extent = None
        if vp_node is not None:  # found from a verb, so verb_end is set
            vp = vp_node[0]
            best_key = None
            for node, start, end in nps:
                # below the VP: deeper than it, with leaves inside its leaf
                # range, and starting at or after the verb's end
                inside = vp.lo <= node.lo < node.hi <= vp.hi
                if node.depth <= vp.depth or not inside or start < verb_end:
                    continue
                key = (-start, node.depth)
                if best_key is None or key > best_key:
                    obj_extent, best_key = (start, end), key
        if obj_extent is not None:
            output_entry = [text[obj_extent[0] : obj_extent[1]]]
        else:
            out_spans = sorted(
                ann.by_category(ContentCategory.OUTPUT_CONTENT), key=lambda s: s.start
            )
            if out_spans:
                output_entry = [text[out_spans[0].start : out_spans[0].end].strip().rstrip(".")]
            else:
                output_entry = [action_entry]
            needs_review = True

    if not input_entry or not action_entry or not all(output_entry):
        raise InvariantError("triplet entries must be non-empty")
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
) -> list[dict]:
    """The rows `triplet` writes, their keys in sorted order: one per tag,
    each with the two demonstrations used in instruction prompts.

    With split_outputs=True, each output entry becomes its own TASK_OUTPUT
    row instead of being joined with '; '.
    """
    d1, d2 = task.demonstrations[0], task.demonstrations[1]
    demos = f"Input: {d1.input} Output: {d1.output}. Input: {d2.input} Output: {d2.output}"

    def row(tag: str, target: str) -> dict:
        return {"source": f"{META_FRAME} {tag}. {demos}", "tag": tag, "target": target}

    outputs = t.output_entry if split_outputs else ["; ".join(t.output_entry)]
    return [
        row(TASK_INPUT, t.input_entry),
        row(TASK_ACTION, t.action_entry),
        *(row(TASK_OUTPUT, entry) for entry in outputs),
    ]
