"""`ablation.remove_spans` and `triplet.build_triplet`, with the
`parse.leaf_offsets` it calls, as they were before whitespace was read with
`str.split` and `str.find` and the NP and VP ranges gathered in one pass: the
references that `test_ablation` and `test_triplet` hold the current
versions to, record for record."""

import re

from defkit.annotations import AnnotationSet, ContentCategory
from defkit.corpus import Task, TaskKind
from defkit.errors import DefkitError
from defkit.parse import ParseNode, ParseTree
from defkit.triplet import TripletDefinition


def remove_spans_reference(
    task: Task, ann: AnnotationSet, removed: frozenset[ContentCategory]
) -> str:
    """The definition with every annotated span of the categories deleted.

    The annotation must already be valid for the task (`validate_annotation`).
    InputMention spans are deleted only when their enclosing ActionContent
    span is deleted. Whitespace is collapsed afterwards.
    """
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
    return re.sub(r"\s+", " ", "".join(pieces)).strip()


_SPACES = re.compile(r"\s*")


def _leaf_offsets(tree: ParseTree, text: str) -> list[tuple[int, int]] | None:
    offsets: list[tuple[int, int]] = []
    pos = 0
    for tok in tree.source_tokens:
        pos = _SPACES.match(text, pos).end()
        if not text.startswith(tok, pos):
            return None
        offsets.append((pos, pos + len(tok)))
        pos += len(tok)
    return offsets if _SPACES.match(text, pos).end() == len(text) else None


def _base_label(label: str) -> str:
    return label.split("-")[0].split("=")[0]


def _overlap(a: tuple[int, int], b: tuple[int, int]) -> int:
    return max(0, min(a[1], b[1]) - max(a[0], b[0]))


def build_triplet_reference(task: Task, ann: AnnotationSet, tree: ParseTree) -> TripletDefinition:
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
    input_span = (input_spans[0].start, input_spans[0].end)
    action_span = (action_spans[0].start, action_spans[0].end)

    needs_review = False
    leaf_pos = _leaf_offsets(tree, text)
    nodes = [n for n in tree.nodes.values() if not n.is_leaf] if leaf_pos is not None else []
    extents: dict[int, tuple[int, int] | None] = {}  # char extent of each internal node
    for node in nodes:
        lo, hi = node.lo, node.hi
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
        for leaf, (start, end) in zip(tree.leaves, leaf_pos):
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
            best_key = None
            for node in nodes:
                # below the VP: deeper than it, with leaves inside its leaf range
                inside = vp_node.lo <= node.lo < node.hi <= vp_node.hi
                if node.depth <= vp_node.depth or not inside:
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
