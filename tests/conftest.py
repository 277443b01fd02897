import json
import random

import pytest

from defkit.annotations import AnnotationSet, ContentCategory, Span
from defkit.corpus import Demonstration, Instance, Task, TaskKind
from defkit.errors import DefkitError, InvariantError
from defkit.metrics import compression_ratio
from defkit.parse import PTB_ESCAPES, nodes_at_depth, parse_bracketed, spelling
from defkit.scorer import Backend, score_many
from defkit.stdc import (
    BASELINE_PAPER_LITERAL,
    CompressionResult,
    StdcConfig,
    Step,
    _remove,
    _render_checked,
    _spliced,
)


def make_task(
    task_id="task000",
    definition="Classify the text.",
    kind=TaskKind.CLASSIFICATION,
    label_list=("Yes", "No"),
    n_instances=3,
    references=None,
    inputs=None,
    category="Text Categorization",
    domains=("News",),
    reasoning_types=("Deductive",),
):
    demos = (
        Demonstration(input="demo input one", output="demo output one"),
        Demonstration(input="demo input two", output="demo output two"),
    )
    instances = []
    for i in range(n_instances):
        refs = references[i] if references is not None else [f"ref {i}"]
        instances.append(
            Instance(
                id=f"inst{i}",
                input=inputs[i] if inputs is not None else f"input {i}",
                references=tuple(refs),
            )
        )
    return Task(
        id=task_id,
        name=task_id,
        definition=definition,
        category=category,
        domains=tuple(domains),
        reasoning_types=tuple(reasoning_types),
        kind=kind,
        label_list=tuple(label_list) if label_list is not None else None,
        demonstrations=demos,
        instances=tuple(instances),
    )


REVIEW_DEFINITION = "You are given a review. Classify it. The labels are positive and negative."


@pytest.fixture
def review_task():
    return make_task(
        task_id="task_review",
        definition=REVIEW_DEFINITION,
        kind=TaskKind.CLASSIFICATION,
        label_list=("positive", "negative"),
    )


@pytest.fixture
def review_annotation():
    # "You are given a review." / "Classify it." / "The labels are positive and negative."
    assert REVIEW_DEFINITION[0:23] == "You are given a review."
    assert REVIEW_DEFINITION[24:36] == "Classify it."
    assert REVIEW_DEFINITION[37:74] == "The labels are positive and negative."
    return AnnotationSet(
        task_id="task_review",
        annotator="a1",
        spans=(
            Span(0, 23, ContentCategory.INPUT_CONTENT),
            Span(24, 36, ContentCategory.ACTION_CONTENT),
            Span(37, 74, ContentCategory.LABEL_LIST),
        ),
    )


FOX_TREE_TEXT = (
    "(S (NP (DT the) (JJ quick) (NN fox)) "
    "(VP (VBZ classifies) (NP (NNS reviews))))"
)


@pytest.fixture
def fox_tree():
    return parse_bracketed(FOX_TREE_TEXT)


@pytest.fixture
def fox_task():
    return make_task(
        task_id="task_fox",
        definition="the quick fox classifies reviews",
        kind=TaskKind.GENERATION,
        label_list=None,
        n_instances=4,
        references=[["review summary one"], ["review summary two"], ["three"], ["four"]],
    )


def padded(reference, fillers):
    """A generation with Rouge-L 2n / (2n + fillers) against a reference of
    n words: the reference, then `fillers` words it lacks."""
    return reference + " filler" * fillers


class SeededBackend(Backend):
    """Pseudo-random scores, fixed per (salt, definition), reached through
    generations as any backend's are: each instance generates nothing
    (Rouge-L 0.0) or its first reference padded with 0 to `levels - 2`
    fillers (1.0 and below), so a score takes one of `levels` values."""

    def __init__(self, salt, levels=20):
        super().__init__()
        self.salt = salt
        self.levels = levels
        self.backend_id = f"seeded:{salt}"

    def generate(self, ctx):
        self.count_call()
        rng = random.Random(f"{self.salt}:{ctx.definition}")
        out = []
        for inst in ctx.instances:
            fillers = rng.randrange(-1, self.levels - 1)
            out.append("" if fillers < 0 else padded(inst.references[0], fillers))
        return out


def task_to_dict(task):
    """The task-file JSON object of a Task."""
    d = {
        "id": task.id,
        "name": task.name,
        "definition": task.definition,
        "category": task.category,
        "domains": list(task.domains),
        "reasoning_types": list(task.reasoning_types),
        "kind": task.kind.value,
        "demonstrations": [
            {"input": demo.input, "output": demo.output}
            | ({"explanation": demo.explanation} if demo.explanation is not None else {})
            for demo in task.demonstrations
        ],
        "instances": [
            {"id": inst.id, "input": inst.input, "references": list(inst.references)}
            for inst in task.instances
        ],
    }
    if task.label_list is not None:
        d["label_list"] = list(task.label_list)
    return d


def write_task_file(path, task):
    path.write_text(json.dumps(task_to_dict(task), indent=2) + "\n", encoding="utf-8")
    return path


def annotation_to_dict(ann):
    """The annotation-file JSON object of an AnnotationSet."""
    return {
        "task_id": ann.task_id,
        "annotator": ann.annotator,
        "spans": [
            {"start": s.start, "end": s.end, "category": s.category.value} for s in ann.spans
        ],
    }


# each literal token by its escaped form, the inverse of PTB_ESCAPES
_PTB_UNESCAPES = {token: escaped for escaped, token in PTB_ESCAPES.items()}


def to_bracketed(tree):
    """A tree in bracketed notation, with its tokens escaped again, as
    `parse_bracketed` reads it; iterative, so deep trees print."""
    out = []
    stack = [tree.root]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
        elif item.is_leaf:
            out.append(_PTB_UNESCAPES.get(item.token, item.token))
        else:
            out.append(f"({item.label}")
            stack.append(")")
            for child in reversed(item.children):
                stack.extend((child, " "))
    return "".join(out)


def walk(root):
    """Every node below root, root first, in pre-order, as (node, lo, hi)
    where the node's leaves are leaves[lo:hi], and those leaves left to
    right: one iterative walk, the reference for the nodes, leaves and leaf
    ranges that `parse_bracketed` and `remove_subtree` give their trees."""
    walked, leaves = [], []
    stack = [root]
    while stack:
        item = stack.pop()
        # a [node, lo, hi] entry, not a node (nodes are tuples): every leaf
        # below that node has been seen
        if type(item) is list:
            item[2] = len(leaves)
            continue
        entry = [item, len(leaves), None]
        walked.append(entry)
        if item.is_leaf:
            leaves.append(item)
            entry[2] = len(leaves)
        else:
            stack.append(entry)
            stack.extend(reversed(item.children))
    return [tuple(entry) for entry in walked], leaves


def subtree_leaves(node):
    """The leaves below a node, left to right."""
    return walk(node)[1]


def fields(record_or_class):
    """The field names of a record class, or of a record, in order."""
    return record_or_class._fields


def layered_compress(task, tree, fit, backend, cfg=StdcConfig(), cache=None):
    """STDC one depth layer at a time: the reference for `stdc.compress`.

    A layer's pending nodes are those with a kept leaf. Paper mode scores
    the whole layer against the full definition in one `score_many` call
    and so waits for the layer's last answer before the next layer starts;
    current mode scores one node at a time against the current state."""
    if not fit.instances:
        raise InvariantError("fit set must be non-empty")
    full_text = _render_checked(task, tree)

    def f(definitions):
        return [r.mean_score for r in score_many(definitions, task, fit, backend, cache)]

    [full_score] = f([full_text])
    baseline = full_score
    tokens = tree.source_tokens
    written = list(map(spelling, tokens, [None, *tokens]))
    full = tuple(written)
    paper = cfg.baseline_mode == BASELINE_PAPER_LITERAL
    steps = []
    for depth in range(2, tree.depth + 1):
        nodes = map(tree.node, nodes_at_depth(tree, depth))
        pending = [node for node in nodes if any(written[node.lo : node.hi])]
        for batch in [pending] if paper else [[p] for p in pending]:
            base = full if paper else written
            candidates = [_spliced(tokens, base, node.lo, node.hi) for node in batch]
            for node, candidate_score in zip(batch, f(candidates)):
                lo, hi = node.lo, node.hi
                accepted = candidate_score >= baseline - cfg.epsilon
                surviving = tuple(tok for tok, w in zip(tokens[lo:hi], written[lo:hi]) if w)
                steps.append(Step(node.id, node.label, surviving, candidate_score, accepted))
                if accepted:
                    _remove(tokens, written, lo, hi)
                    if not paper:
                        baseline = candidate_score
    compressed = "".join(written)
    if not compressed.strip() and not cfg.allow_empty_result:
        raise DefkitError(f"task {task.id}: compression emptied the definition")
    return CompressionResult(
        task_id=task.id,
        full_definition=full_text,
        compressed_definition=compressed,
        ratio=compression_ratio(full_text, compressed),
        fit_score_before=full_score,
        fit_score_after=f([compressed])[0],
        steps=tuple(steps),
    )
