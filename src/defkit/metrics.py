"""Rouge-L scoring, the compression ratio, All/Cls./Gen. aggregation, and the
heuristic baseline."""

from __future__ import annotations

import random
import re
from functools import lru_cache
from typing import Iterable, Sequence

from ._record import record
from .corpus import Instance, Task, TaskKind
from .errors import InvariantError

_WORD = re.compile(r"[a-z0-9]+")

# Distinct reference texts whose match masks are kept, so memory stays bounded
# on any corpus (about 3 KB for a 25-token reference, 35 KB for 300 tokens).
_PREPARED_REFERENCES_MAX = 1024

# Distinct (candidate, references) pairs whose Rouge-L is kept. An entry keeps
# its candidate text alive, the references being the task's own strings, plus
# about 250 bytes of bookkeeping: about 3 MB for 500-character generations.
_ROUGE_L_MEMO_MAX = 4096


def normalize(text: str) -> list[str]:
    """The words of text: lowercase it, keep each run of [a-z0-9]."""
    return _WORD.findall(text.lower())


def word_spans(text: str) -> list[tuple[str, int, int]]:
    """Each `normalize` word of text with its [start, end) in text itself.
    A character can lowercase to several (U+0130 to "i" and a combining
    dot), so offsets into text.lower() map back to the character that
    wrote them."""
    origin = [i for i, c in enumerate(text) for _ in c.lower()]
    words = _WORD.finditer(text.lower())
    return [(m.group(), origin[m.start()], origin[m.end() - 1] + 1) for m in words]


def lcs_length(a: Sequence[str], b: Sequence[str]) -> int:
    """Length of the longest common subsequence of two token sequences."""
    if not a or not b:
        return 0
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0]
        for j, y in enumerate(b, 1):
            if x == y:
                cur.append(prev[j - 1] + 1)
            else:
                cur.append(max(prev[j], cur[j - 1]))
        prev = cur
    return prev[-1]


@lru_cache(maxsize=_PREPARED_REFERENCES_MAX)
def _prepared_reference(reference: str) -> tuple[int, dict[str, int]]:
    """Token count of a normalized reference, and per token the bitmask of
    its positions. The dict is shared through the cache: never mutate it."""
    masks: dict[str, int] = {}
    tokens = normalize(reference)
    for i, tok in enumerate(tokens):
        masks[tok] = masks.get(tok, 0) | (1 << i)
    return len(tokens), masks


def _lcs_bits(candidate: Sequence[str], n: int, masks: dict[str, int]) -> int:
    """LCS length of candidate against an n-token reference given as match
    masks: bit-parallel, one word operation per candidate token (Allison &
    Dix 1986; Hyyro 2004). The zero bits of v count the LCS."""
    full = (1 << n) - 1
    v = full
    for tok in candidate:
        u = v & masks.get(tok, 0)
        if u:
            v = ((v + u) | (v - u)) & full
    return n - v.bit_count()


def rouge_l(candidate: str, references: Sequence[str]) -> float:
    """Rouge-L F1 of a candidate against references; max over references.

    Per reference: P = LCS/|cand|, R = LCS/|ref|, F1 = 2PR/(P+R), with 0
    when either side is empty or P+R = 0.
    """
    if not references:
        raise InvariantError("rouge_l: references must be non-empty")
    return _rouge_l(candidate, tuple(references))


@lru_cache(maxsize=_ROUGE_L_MEMO_MAX)
def _rouge_l(candidate: str, references: tuple[str, ...]) -> float:
    """`rouge_l` of a pair, computed once per process while it stays in the
    memo. STDC candidates differ by one phrase, so most generations repeat
    from one candidate to the next; the float kept is the float computed."""
    cand = normalize(candidate)
    best = 0.0
    for reference in references:
        n, masks = _prepared_reference(reference)
        if not cand or not n:
            continue
        lcs = _lcs_bits(cand, n, masks)
        p = lcs / len(cand)
        r = lcs / n
        if p + r > 0:
            best = max(best, 2 * p * r / (p + r))
    return best


def compression_ratio(full_text: str, kept_text: str) -> float:
    """Fraction of whitespace tokens of the full definition that remain."""
    n_full = len(full_text.split())
    n_kept = len(kept_text.split())
    if n_full == 0:
        raise InvariantError("full definition has no tokens")
    if n_kept > n_full:
        raise InvariantError(f"kept tokens ({n_kept}) exceed full tokens ({n_full})")
    return n_kept / n_full


@record
class ScoreReport:
    per_task: dict[str, float]
    n_instances: dict[str, int]
    overall: float
    cls_mean: float
    gen_mean: float
    micro: float

    def to_dict(self) -> dict:
        return {
            "overall": self.overall,
            "cls": self.cls_mean,
            "gen": self.gen_mean,
            "per_task": dict(self.per_task),
            "n_instances": dict(self.n_instances),
        }


def aggregate(rows: Iterable[tuple[str, TaskKind, float]]) -> ScoreReport:
    """Per-task instance means, then unweighted macro means over tasks.

    Classification tasks feed cls_mean only, generation tasks gen_mean only.
    The micro mean (over all instances) is carried along for verbose output.
    """
    scores: dict[str, list[float]] = {}
    kinds: dict[str, TaskKind] = {}
    all_scores: list[float] = []
    for task_id, kind, score in rows:
        scores.setdefault(task_id, []).append(score)
        kinds[task_id] = kind
        all_scores.append(score)
    per_task = {tid: sum(v) / len(v) for tid, v in scores.items()}
    n_instances = {tid: len(v) for tid, v in scores.items()}
    means = list(per_task.values())
    cls = [per_task[t] for t in per_task if kinds[t] is TaskKind.CLASSIFICATION]
    gen = [per_task[t] for t in per_task if kinds[t] is TaskKind.GENERATION]
    return ScoreReport(
        per_task=per_task,
        n_instances=n_instances,
        overall=sum(means) / len(means) if means else 0.0,
        cls_mean=sum(cls) / len(cls) if cls else 0.0,
        gen_mean=sum(gen) / len(gen) if gen else 0.0,
        micro=sum(all_scores) / len(all_scores) if all_scores else 0.0,
    )


def heuristic_predict(task: Task, instance: Instance, seed: int) -> str:
    """Lower-bound baseline: copy the input (generation) or pick a seeded
    uniform label (classification), deterministic per (seed, task, instance)."""
    if task.kind is TaskKind.GENERATION:
        return instance.input
    rng = random.Random(f"{seed}:{task.id}:{instance.id}")
    return rng.choice(list(task.label_list))
