"""Syntax-guided greedy compression of task definitions over their
constituency parse trees, plus holdout evaluation and category-level
retention accounting."""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING

from ._record import record
from .corpus import ExampleSet, Task
from .errors import ConfigError, DefkitError, InvariantError, warn
from .metrics import compression_ratio, normalize, word_spans
from .parse import (
    ParseNode, ParseTree, leaf_offsets, nodes_at_depth, remove_subtree, render, spelling
)
from .scorer import Backend, ScoreCache, ScoreStream, score_many

if TYPE_CHECKING:  # category_retention imports annotations when it runs
    from .annotations import AnnotationSet

BASELINE_CURRENT = "current"
BASELINE_PAPER_LITERAL = "paper"

UNANNOTATED = "unannotated"


@record
class StdcConfig:
    baseline_mode: str = BASELINE_CURRENT  # "current" or "paper"
    epsilon: float = 0.0
    allow_empty_result: bool = False

    def __post_init__(self):
        if not 0 <= self.epsilon < float("inf"):  # NaN too
            raise ConfigError("epsilon must be finite and >= 0")
        if self.baseline_mode not in (BASELINE_CURRENT, BASELINE_PAPER_LITERAL):
            raise ConfigError(f"unknown baseline mode {self.baseline_mode!r}")


@record
class Step:
    node_id: int
    label: str
    leaves_removed: tuple[str, ...]
    candidate_score: float
    accepted: bool


@record
class CompressionResult:
    task_id: str
    full_definition: str
    compressed_definition: str
    ratio: float
    fit_score_before: float
    fit_score_after: float
    steps: tuple[Step, ...]

    def accepted_node_ids(self) -> list[int]:
        return [s.node_id for s in self.steps if s.accepted]


@record
class HoldoutReport:
    before: float
    after: float
    coverage: float


def _respelled(tokens: list[str], written: list[str], lo: int, hi: int) -> tuple[int, str]:
    """The first kept leaf j at or after hi, and what it writes once leaves
    [lo, hi) are removed from `written` too: its token spelled against the
    last kept leaf before lo. j is len(tokens), writing "", when no leaf
    after the range is kept. Both scans walk removed leaves only."""
    j = hi
    while j < len(written) and not written[j]:
        j += 1
    if j == len(written):
        return j, ""
    i = lo - 1
    while i >= 0 and not written[i]:
        i -= 1
    return j, spelling(tokens[j], tokens[i] if i >= 0 else None)


def _spliced(tokens: list[str], written: list[str], lo: int, hi: int) -> str:
    """The definition `written` holds, with leaves [lo, hi) removed as well."""
    j, piece = _respelled(tokens, written, lo, hi)
    return "".join(written[:lo]) + piece + "".join(written[j + 1 :])


def _remove(tokens: list[str], written: list[str], lo: int, hi: int) -> None:
    """Remove leaves [lo, hi) from the state `written`: they write nothing
    now, and the first kept leaf after them is spelled anew."""
    j, piece = _respelled(tokens, written, lo, hi)
    written[lo:hi] = [""] * (hi - lo)
    if j < len(written):
        written[j] = piece


def _render_checked(task: Task, tree: ParseTree) -> str:
    """render(tree), once it is known to hold the definition's words, so
    that word i of the one is word i of the other."""
    text = render(tree)
    if normalize(text) != normalize(task.definition):
        raise InvariantError(f"task {task.id}: rendered tree does not token-equal the definition")
    return text


def compress(
    task: Task,
    tree: ParseTree,
    fit: ExampleSet,
    backend: Backend,
    cfg: StdcConfig = StdcConfig(),
    cache: ScoreCache | None = None,
) -> CompressionResult:
    """Greedy top-down, layer-ordered removal of parse-tree subtrees, each
    candidate scored on the fit set by `backend` with its own params.

    Traverses depths 2..Dep(T); within a depth, surviving nodes left to
    right. A candidate removal is accepted when its score is >= baseline -
    epsilon, where the baseline is the running compressed score ("current"
    mode) or the original full-definition score ("paper" mode). Accepted
    subtrees are skipped thereafter; the search stops after all leaf-node
    removals have been attempted. Paper mode scores each removal alone,
    never their union, and current mode's slack adds up over its accepted
    removals: in either mode, when the result's fit score ends below the
    full score - epsilon, a warning names both scores.

    The nodes to try wait in one first-in-first-out queue, seeded with
    depth 2; a rejected node queues its children. That is the order above:
    a node with a leaf survives iff no ancestor was accepted, and then
    every leaf of it is kept. A paper-mode candidate is the full
    definition without the node, so it is sent to the backend when the
    node is queued; a current-mode candidate depends on every decision
    before it, so it is sent when the node reaches the head of the queue.
    """
    if not fit.instances:
        raise InvariantError("fit set must be non-empty")
    full_text = _render_checked(task, tree)
    # The compression state: written[i] is what leaf i writes into the
    # current definition, or "" once it is removed. Tokens are never empty,
    # so a leaf is kept iff it writes something.
    tokens = tree.source_tokens
    written = list(map(spelling, tokens, [None, *tokens]))
    full = tuple(written)
    paper = cfg.baseline_mode == BASELINE_PAPER_LITERAL
    steps: list[Step] = []
    queue: deque[ParseNode] = deque()

    with ScoreStream(task, fit, backend, cache) as stream:

        def enqueue(nodes) -> None:
            for node in nodes:
                if node.lo == node.hi:  # no leaf below it: nothing to remove
                    continue
                queue.append(node)
                if paper:
                    stream.submit(_spliced(tokens, full, node.lo, node.hi))

        stream.submit(full_text)
        enqueue(map(tree.node, nodes_at_depth(tree, 2)) if tree.depth > 1 else ())
        full_score = baseline = stream.take().mean_score
        while queue:
            node = queue.popleft()
            lo, hi = node.lo, node.hi
            if not paper:
                stream.submit(_spliced(tokens, written, lo, hi))
            candidate_score = stream.take().mean_score
            accepted = candidate_score >= baseline - cfg.epsilon
            steps.append(
                Step(
                    node_id=node.id,
                    label=node.label,
                    leaves_removed=tuple(tokens[lo:hi]),
                    candidate_score=candidate_score,
                    accepted=accepted,
                )
            )
            if accepted:
                _remove(tokens, written, lo, hi)
                if not paper:
                    baseline = candidate_score
            else:
                enqueue(node.children)

        compressed = "".join(written)
        if not compressed.strip() and not cfg.allow_empty_result:
            raise DefkitError(f"task {task.id}: compression emptied the definition")
        stream.submit(compressed)
        score_after = stream.take().mean_score
    if score_after < full_score - cfg.epsilon:
        warn(
            __name__,
            f"task {task.id}: {cfg.baseline_mode} mode ends at fit score {score_after:.3f}, "
            f"below the full definition's {full_score:.3f} - epsilon {cfg.epsilon:g}",
        )
    return CompressionResult(
        task_id=task.id,
        full_definition=full_text,
        compressed_definition=compressed,
        ratio=compression_ratio(full_text, compressed),
        fit_score_before=full_score,
        fit_score_after=score_after,
        steps=tuple(steps),
    )


def replay_removals(tree: ParseTree, accepted_node_ids: list[int]) -> str:
    """Re-apply an accepted removal list to the original tree."""
    current = tree
    for node_id in accepted_node_ids:
        current = remove_subtree(current, node_id)
    return render(current)


def evaluate_holdout(
    task: Task,
    result: CompressionResult,
    holdout: ExampleSet,
    backend: Backend,
    cache: ScoreCache | None = None,
    strict: bool = True,
) -> HoldoutReport:
    """Before/after means on the holdout set, scored by `backend` with its
    own params, plus coverage: the fraction of instances whose per-instance
    score increases under compression (strictly, unless strict=False)."""
    before, after = score_many(
        [result.full_definition, result.compressed_definition], task, holdout, backend, cache
    )
    pairs = list(zip(before.per_instance, after.per_instance))
    if strict:
        improved = sum(1 for b, a in pairs if a > b)
    else:
        improved = sum(1 for b, a in pairs if a >= b)
    return HoldoutReport(
        before=before.mean_score,
        after=after.mean_score,
        coverage=improved / len(pairs) if pairs else 0.0,
    )


def category_retention(
    task: Task,
    tree: ParseTree,
    result: CompressionResult,
    ann: AnnotationSet,
) -> dict[str, tuple[int, int, float]]:
    """Per content category: (words before, words after, kept fraction).

    The kept leaves are those outside every accepted node of the result,
    the leaves that still write text when `compress` ends. A definition
    word is kept when every leaf that writes one of its characters is kept.
    Words inside no annotated span are reported under the "unannotated"
    bucket. Only categories with at least one word are included.
    """
    from .annotations import check_annotation

    check_annotation(task, ann)
    full_text = _render_checked(task, tree)
    if result.full_definition != full_text:
        raise InvariantError(f"task {task.id}: the result was not compressed from this tree")
    # per character of full_text: whether no removed leaf writes it
    offsets = leaf_offsets(tree, full_text)
    kept_chars = [True] * len(full_text)
    for node_id in result.accepted_node_ids():
        node = tree.node(node_id)
        for start, end in offsets[node.lo : node.hi]:
            kept_chars[start:end] = [False] * (end - start)

    counts: dict[str, list[int]] = {}
    for (_, start, end), (_, lo, hi) in zip(word_spans(task.definition), word_spans(full_text)):
        for bucket in _categories(ann, start, end) or {UNANNOTATED}:
            count = counts.setdefault(bucket, [0, 0])
            count[0] += 1
            count[1] += all(kept_chars[lo:hi])
    return {
        bucket: (before_n, after_n, after_n / before_n)
        for bucket, (before_n, after_n) in counts.items()
    }


def unannotated_share(task: Task, ann: AnnotationSet) -> float:
    """Fraction of definition words lying in no annotated span."""
    spans = word_spans(task.definition)
    uncovered = sum(not _categories(ann, start, end) for _, start, end in spans)
    return uncovered / len(spans) if spans else 0.0


def _categories(ann: AnnotationSet, start: int, end: int) -> set[str]:
    """The categories of the annotated spans that overlap [start, end)."""
    return {s.category.value for s in ann.spans if s.start < end and start < s.end}
