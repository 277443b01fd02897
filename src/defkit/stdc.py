"""Syntax-guided greedy compression of task definitions over their
constituency parse trees, plus holdout evaluation and category-level
retention accounting."""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .ablation import compression_ratio
from .annotations import AnnotationSet, ContentCategory, validate_annotation
from .corpus import DEFAULT_TEMPLATE, ExampleSet, Task
from .errors import ConfigError, EmptyResultError, InvariantError, ScorerError, ValidationError
from .metrics import normalize
from .parse import ParseTree, detokenize, nodes_at_depth, remove_subtree, render
from .scorer import Backend, GenerationParams, ScoreCache, score_many

BASELINE_CURRENT = "current"
BASELINE_PAPER_LITERAL = "paper"

UNANNOTATED = "unannotated"


@dataclass(frozen=True)
class StdcConfig:
    baseline_mode: str = BASELINE_CURRENT  # "current" or "paper"
    epsilon: float = 0.0
    allow_empty_result: bool = False

    def __post_init__(self):
        if not self.epsilon >= 0:  # NaN too
            raise ConfigError("epsilon must be >= 0")
        if self.baseline_mode not in (BASELINE_CURRENT, BASELINE_PAPER_LITERAL):
            raise ConfigError(f"unknown baseline mode {self.baseline_mode!r}")


@dataclass(frozen=True)
class Step:
    node_id: int
    label: str
    leaves_removed: tuple[str, ...]
    candidate_score: float
    accepted: bool

    def to_dict(self) -> dict:
        return {
            "node_id": self.node_id,
            "label": self.label,
            "leaves_removed": list(self.leaves_removed),
            "candidate_score": self.candidate_score,
            "accepted": self.accepted,
        }


@dataclass(frozen=True)
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

    def to_dict(self) -> dict:
        return {
            "task_id": self.task_id,
            "full_definition": self.full_definition,
            "compressed_definition": self.compressed_definition,
            "ratio": self.ratio,
            "fit_score_before": self.fit_score_before,
            "fit_score_after": self.fit_score_after,
            "steps": [s.to_dict() for s in self.steps],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CompressionResult":
        return cls(
            task_id=data["task_id"],
            full_definition=data["full_definition"],
            compressed_definition=data["compressed_definition"],
            ratio=data["ratio"],
            fit_score_before=data["fit_score_before"],
            fit_score_after=data["fit_score_after"],
            steps=tuple(
                Step(
                    node_id=s["node_id"],
                    label=s["label"],
                    leaves_removed=tuple(s["leaves_removed"]),
                    candidate_score=s["candidate_score"],
                    accepted=s["accepted"],
                )
                for s in data["steps"]
            ),
        )


@dataclass(frozen=True)
class HoldoutReport:
    before: float
    after: float
    coverage: float

    def to_dict(self) -> dict:
        return {"before": self.before, "after": self.after, "coverage": self.coverage}


def _kept_text(tokens: list[str], kept: list[bool]) -> str:
    return detokenize([tok for tok, k in zip(tokens, kept) if k])


def compress(
    task: Task,
    tree: ParseTree,
    fit: ExampleSet,
    backend: Backend,
    params: GenerationParams = GenerationParams(),
    cfg: StdcConfig = StdcConfig(),
    cache: ScoreCache | None = None,
    template: str = DEFAULT_TEMPLATE,
) -> CompressionResult:
    """Greedy top-down, layer-ordered removal of parse-tree subtrees.

    Traverses depths 2..Dep(T); within a depth, surviving nodes left to
    right. A candidate removal is accepted when its score is >= baseline -
    epsilon, where the baseline is the running compressed score ("current"
    mode) or the original full-definition score ("paper" mode). Accepted
    subtrees are skipped thereafter; the search stops after all leaf-node
    removals have been attempted.
    """
    if not fit.instance_ids:
        raise InvariantError("fit set must be non-empty")
    full_text = render(tree)
    if normalize(full_text) != normalize(task.definition):
        raise InvariantError(
            f"task {task.id}: rendered tree does not token-equal the definition"
        )

    def f(definitions: list[str]) -> list[float]:
        records = score_many(definitions, task, fit, backend, params, cache, template)
        return [r.mean_score for r in records]

    [full_score] = f([full_text])
    baseline = full_score
    # the compression state: kept[i] says whether leaf i is still in the definition
    tokens = tree.source_tokens
    kept = [True] * len(tokens)
    full = [True] * len(tokens)
    paper = cfg.baseline_mode == BASELINE_PAPER_LITERAL
    steps: list[Step] = []

    for depth in range(2, tree.depth + 1):
        # A layer's pending nodes are those with a kept leaf. Nodes at one
        # depth are disjoint, so acceptances within the layer leave this
        # list exact. Paper mode scores the whole layer against the full
        # definition in one batch; in current mode the base changes with
        # each acceptance, so its batches hold one node.
        ranges = [(n, *tree.leaf_range(n)) for n in nodes_at_depth(tree, depth)]
        pending = [(n, lo, hi) for n, lo, hi in ranges if any(kept[lo:hi])]
        for batch in [pending] if paper else [[p] for p in pending]:
            base = full if paper else kept
            candidates = [
                _kept_text(tokens, base[:lo] + [False] * (hi - lo) + base[hi:])
                for _, lo, hi in batch
            ]
            for (node_id, lo, hi), candidate_score in zip(batch, f(candidates)):
                accepted = candidate_score >= baseline - cfg.epsilon
                surviving = tuple(tok for tok, k in zip(tokens[lo:hi], kept[lo:hi]) if k)
                steps.append(
                    Step(
                        node_id=node_id,
                        label=tree.node(node_id).label,
                        leaves_removed=surviving,
                        candidate_score=candidate_score,
                        accepted=accepted,
                    )
                )
                if accepted:
                    kept[lo:hi] = [False] * (hi - lo)
                    if not paper:
                        baseline = candidate_score

    compressed = _kept_text(tokens, kept)
    if not compressed.strip() and not cfg.allow_empty_result:
        raise EmptyResultError(f"task {task.id}: compression emptied the definition")
    ratio = compression_ratio(full_text, compressed)
    return CompressionResult(
        task_id=task.id,
        full_definition=full_text,
        compressed_definition=compressed,
        ratio=ratio,
        fit_score_before=full_score,
        fit_score_after=f([compressed])[0],
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
    params: GenerationParams = GenerationParams(),
    cache: ScoreCache | None = None,
    template: str = DEFAULT_TEMPLATE,
    strict: bool = True,
) -> HoldoutReport:
    """Before/after means on the holdout set plus coverage: the fraction of
    instances whose per-instance score increases under compression
    (strictly, unless strict=False)."""
    before, after = score_many(
        [result.full_definition, result.compressed_definition],
        task, holdout, backend, params, cache, template,
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


_WORD = re.compile(r"[a-z0-9]+")


def _tokens_with_offsets(text: str) -> list[tuple[str, int, int]]:
    return [(m.group(0), m.start(), m.end()) for m in _WORD.finditer(text.lower())]


def category_retention(
    task: Task,
    result: CompressionResult,
    ann: AnnotationSet,
) -> dict[str, tuple[int, int, float]]:
    """Per content category: (tokens before, tokens after, kept fraction).

    Tokens inside no annotated span are reported under the "unannotated"
    bucket. Only categories with at least one token are included.
    """
    report = validate_annotation(task, ann)
    if not report.ok:
        raise ValidationError("; ".join(report.problems))
    def_tokens = _tokens_with_offsets(task.definition)
    full_tokens = normalize(result.full_definition)
    if [t for t, _, _ in def_tokens] != full_tokens:
        raise InvariantError(
            f"task {task.id}: full definition does not token-align with the task definition"
        )
    # greedy subsequence alignment of the compressed tokens into the full stream
    compressed_tokens = normalize(result.compressed_definition)
    kept = [False] * len(full_tokens)
    pos = 0
    for tok in compressed_tokens:
        while pos < len(full_tokens) and full_tokens[pos] != tok:
            pos += 1
        if pos >= len(full_tokens):
            raise InvariantError(
                f"task {task.id}: compressed text is not a token subsequence of the full text"
            )
        kept[pos] = True
        pos += 1

    counts: dict[str, list[int]] = {}
    for i, (_, start, end) in enumerate(def_tokens):
        buckets = [
            span.category.value
            for span in ann.spans
            if span.start < end and start < span.end
        ]
        if not buckets:
            buckets = [UNANNOTATED]
        for bucket in set(buckets):
            before_n, after_n = counts.setdefault(bucket, [0, 0])
            counts[bucket][0] = before_n + 1
            counts[bucket][1] = after_n + (1 if kept[i] else 0)
    return {
        bucket: (before_n, after_n, after_n / before_n)
        for bucket, (before_n, after_n) in counts.items()
    }


def unannotated_share(task: Task, ann: AnnotationSet) -> float:
    """Fraction of definition tokens lying in no annotated span."""
    def_tokens = _tokens_with_offsets(task.definition)
    if not def_tokens:
        return 0.0
    uncovered = sum(
        1
        for _, start, end in def_tokens
        if not any(span.start < end and start < span.end for span in ann.spans)
    )
    return uncovered / len(def_tokens)
