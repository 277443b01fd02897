import random
import re
from contextlib import redirect_stderr
from io import StringIO

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from defkit.annotations import AnnotationSet, ContentCategory, Span
from defkit.corpus import TaskKind, split_examples
from defkit.errors import DefkitError, InvariantError
from defkit.metrics import normalize
from defkit import stdc
from defkit.parse import detokenize, parse_bracketed, remove_subtree, render
from defkit.scorer import Backend, PlantedPhraseBackend
from defkit.stdc import (
    CompressionResult,
    StdcConfig,
    Step,
    category_retention,
    compress,
    evaluate_holdout,
    replay_removals,
    unannotated_share,
)

from conftest import FOX_TREE_TEXT, SeededBackend, make_task, padded, subtree_leaves


class DropOnRemovalBackend(Backend):
    """Scores the full definition 1.0 and anything shorter 0.0."""

    def __init__(self, full_text):
        super().__init__()
        self.full_text = full_text
        self.backend_id = "drop"

    def generate(self, ctx):
        self.count_call()
        full = ctx.definition == self.full_text
        return [inst.references[0] if full else "" for inst in ctx.instances]


def constant_backend():
    """A backend that scores every definition alike: the planted backend
    with no phrase generates every reference, so every score is 1.0."""
    return PlantedPhraseBackend("")


def fit_holdout(task, n_fit=2, n_holdout=2, seed=0):
    return split_examples(task, n_fit, n_holdout, seed)


class TestCompressTrace:
    def test_planted_phrase_trace(self, fox_task, fox_tree):
        fit, _ = fit_holdout(fox_task)
        backend = PlantedPhraseBackend("classifies reviews")
        result = compress(fox_task, fox_tree, fit, backend)
        assert result.compressed_definition == "classifies reviews"
        assert result.ratio == pytest.approx(0.4)
        assert result.fit_score_before == 1.0
        assert result.fit_score_after == 1.0
        trace = [(s.label, s.accepted) for s in result.steps]
        assert trace == [
            ("NP", True),       # "the quick fox" goes
            ("VP", False),      # would empty the definition
            ("VBZ", False),
            ("NP", False),
            ("classifies", False),
            ("NNS", False),
            ("reviews", False),
        ]

    def test_constant_backend_empties(self, fox_task, fox_tree):
        fit, _ = fit_holdout(fox_task)
        with pytest.raises(DefkitError, match="compression emptied the definition"):
            compress(fox_task, fox_tree, fit, constant_backend())

    def test_constant_backend_allow_empty(self, fox_task, fox_tree):
        fit, _ = fit_holdout(fox_task)
        result = compress(
            fox_task, fox_tree, fit, constant_backend(),
            cfg=StdcConfig(allow_empty_result=True),
        )
        assert result.compressed_definition == ""
        assert result.ratio == 0.0
        # ties are accepted: both depth-2 nodes go
        accepted = [s.label for s in result.steps if s.accepted]
        assert accepted == ["NP", "VP"]

    def test_no_acceptance_keeps_full(self, fox_task, fox_tree):
        fit, _ = fit_holdout(fox_task)
        backend = DropOnRemovalBackend(render(fox_tree))
        result = compress(fox_task, fox_tree, fit, backend)
        assert result.compressed_definition == result.full_definition
        assert result.ratio == 1.0
        assert result.fit_score_after == result.fit_score_before
        assert not any(s.accepted for s in result.steps)

    def test_render_mismatch_rejected(self, fox_task):
        other = parse_bracketed("(S (NN hello))")
        fit, _ = fit_holdout(fox_task)
        with pytest.raises(InvariantError, match="token-equal"):
            compress(fox_task, other, fit, constant_backend())

    def test_paper_literal_baseline(self, fox_task, fox_tree):
        fit, _ = fit_holdout(fox_task)
        backend = PlantedPhraseBackend("classifies reviews")
        result = compress(
            fox_task, fox_tree, fit, backend, cfg=StdcConfig(baseline_mode="paper")
        )
        # every accepted candidate scored >= the original full score
        for step in result.steps:
            if step.accepted:
                assert step.candidate_score >= result.fit_score_before


def random_tree_task(rng, idx):
    words = [f"w{rng.randint(0, 30)}" for _ in range(rng.randint(3, 12))]
    leaves = " ".join(f"(NN {w})" for w in words)
    mid = f"(NP {leaves})"
    tree = parse_bracketed(f"(S {mid})" if rng.random() < 0.5 else f"(S {leaves})")
    task = make_task(
        task_id=f"rand{idx}",
        definition=render(tree),
        kind=TaskKind.GENERATION,
        label_list=None,
        n_instances=2,
    )
    return task, tree


class TestMonotonicityAndReplay:
    def test_current_mode_monotone_and_replayable(self):
        rng = random.Random(7)
        for i in range(50):
            task, tree = random_tree_task(rng, i)
            fit, _ = fit_holdout(task, 2, 0, seed=i)
            backend = SeededBackend(salt=i)
            result = compress(
                task, tree, fit, backend, cfg=StdcConfig(allow_empty_result=True)
            )
            assert result.fit_score_after >= result.fit_score_before
            # accepted steps never decrease the running score
            baseline = result.fit_score_before
            for step in result.steps:
                if step.accepted:
                    assert step.candidate_score >= baseline
                    baseline = step.candidate_score
            replayed = replay_removals(tree, result.accepted_node_ids())
            assert replayed == result.compressed_definition

    def test_removed_subtrees_not_revisited(self, fox_task, fox_tree):
        fit, _ = fit_holdout(fox_task)
        backend = PlantedPhraseBackend("classifies reviews")
        result = compress(fox_task, fox_tree, fit, backend)
        accepted = set()
        for step in result.steps:
            subtree = {n.id for n in [fox_tree.node(step.node_id)]} | {
                lf.id for lf in subtree_leaves(fox_tree.node(step.node_id))
            }
            assert step.node_id not in accepted
            if step.accepted:
                def collect(node):
                    yield node.id
                    for c in node.children:
                        yield from collect(c)

                accepted |= set(collect(fox_tree.node(step.node_id)))


class RecordingBackend(SeededBackend):
    """Coarse pseudo-random scores (so ties and acceptances are common);
    records every definition it is asked about."""

    def __init__(self, salt):
        super().__init__(salt, levels=3)
        self.seen = []

    def generate(self, ctx):
        self.seen.append(ctx.definition)
        return super().generate(ctx)


_LABELS = st.sampled_from(["S", "NP", "VP", "PP"])


def _tree_texts(words):
    """Bracketed text of one tree, or of several joined under a synthetic root."""
    constituents = st.recursive(
        st.builds("({} {})".format, _LABELS, words) | st.builds("({})".format, _LABELS),
        lambda kids: st.builds(
            lambda label, parts: f"({label} {' '.join(parts)})",
            _LABELS,
            st.lists(kids | words, min_size=1, max_size=3),
        ),
        max_leaves=14,
    )
    return st.lists(constituents, min_size=1, max_size=3).map(" ".join)


_TREE_TEXTS = _tree_texts(
    st.sampled_from(["cat", "sat", "w1", ",", ".", "n't", "'s", "-LRB-", "-RRB-", "$"])
)


@given(
    text=_TREE_TEXTS,
    salt=st.integers(0, 10**6),
    mode=st.sampled_from(["current", "paper"]),
    epsilon=st.sampled_from([0.0, 0.25]),
)
@settings(max_examples=200, deadline=None)
def test_mask_candidates_equal_tree_removals(text, salt, mode, epsilon):
    tree = parse_bracketed(text)
    assume(render(tree).strip())
    task = make_task(
        task_id="prop", definition=render(tree), kind=TaskKind.GENERATION,
        label_list=None, n_instances=2,
    )
    fit, _ = fit_holdout(task, 2, 0)
    backend = RecordingBackend(salt)
    cfg = StdcConfig(baseline_mode=mode, epsilon=epsilon, allow_empty_result=True)
    result = compress(task, tree, fit, backend, cfg=cfg)

    full, *candidates, final = backend.seen
    assert full == result.full_definition
    assert final == result.compressed_definition
    assert len(candidates) == len(result.steps)
    current = tree  # the original tree with the accepted removals so far
    for step, candidate in zip(result.steps, candidates):
        base = current if mode == "current" else tree
        assert candidate == render(remove_subtree(base, step.node_id))
        if step.accepted:
            current = remove_subtree(current, step.node_id)
    assert result.compressed_definition == render(current)
    assert result.compressed_definition == replay_removals(tree, result.accepted_node_ids())



class TestPaperModeFitLoss:
    """Paper mode scores each removal alone, never their union; `compress`
    warns when the union ends below the full score - epsilon."""

    TWICE = "(S (NP (DT the) (NN fox)) (VP (VBD saw) (NP (DT the) (NN fox))))"

    def run(self, mode):
        tree = parse_bracketed(self.TWICE)
        task = make_task(
            task_id="task_twice", definition=render(tree), kind=TaskKind.GENERATION,
            label_list=None, n_instances=4,
        )
        fit, _ = fit_holdout(task)
        # "fox" occurs twice, so each "the fox" can go alone, but not both
        backend = PlantedPhraseBackend("fox saw")
        return compress(task, tree, fit, backend, cfg=StdcConfig(baseline_mode=mode))

    def test_planted_word_twice_warns_once(self, capsys):
        result = self.run("paper")
        assert [s.label for s in result.steps if s.accepted] == ["NP", "NP"]
        assert result.compressed_definition == "saw"
        assert (result.fit_score_before, result.fit_score_after) == (1.0, 0.0)
        assert capsys.readouterr().err.splitlines() == [
            "WARNING defkit.stdc: task task_twice: paper mode ends at fit score 0.000, "
            "below the full definition's 1.000 - epsilon 0"
        ]

    def test_current_mode_keeps_its_score_silently(self, capsys):
        result = self.run("current")
        assert result.compressed_definition == "saw fox"
        assert result.fit_score_after == 1.0
        assert capsys.readouterr().err == ""


def test_current_mode_slack_adds_up_and_warns(capsys):
    """Current mode accepts each removal against the last accepted score, so
    three accepted removals, each within epsilon of the score before it, end
    below full - epsilon."""
    tree = parse_bracketed(
        "(S (NP (DT the) (NN cat)) (VP (VBD sat) (PP (IN on) (NNS mats))) (ADVP (RB today)))"
    )
    task = make_task(
        task_id="task_slack", definition=render(tree), kind=TaskKind.GENERATION,
        label_list=None, n_instances=4,
    )
    fit, _ = fit_holdout(task)
    cfg = StdcConfig(baseline_mode="current", epsilon=0.25)
    result = compress(task, tree, fit, SeededBackend(200), cfg=cfg)
    assert result.compressed_definition == "cat sat"
    assert sum(s.accepted for s in result.steps) == 3
    assert capsys.readouterr().err.splitlines() == [
        "WARNING defkit.stdc: task task_slack: current mode ends at fit score 0.476, "
        "below the full definition's 0.733 - epsilon 0.25"
    ]


@given(
    text=_TREE_TEXTS,
    salt=st.integers(0, 10**6),
    epsilon=st.sampled_from([0.0, 0.25]),
    mode=st.sampled_from(["paper", "current"]),
)
@settings(max_examples=300, deadline=None)
def test_paper_mode_warns_iff_its_fit_score_falls(text, salt, epsilon, mode):
    """Either mode warns once iff its fit score ends below full - epsilon:
    paper mode's removals are scored alone, and current mode's slack adds
    up over its accepted removals."""
    tree = parse_bracketed(text)
    assume(render(tree).strip())
    task = make_task(
        task_id="prop", definition=render(tree), kind=TaskKind.GENERATION,
        label_list=None, n_instances=2,
    )
    fit, _ = fit_holdout(task, 2, 0)
    cfg = StdcConfig(baseline_mode=mode, epsilon=epsilon, allow_empty_result=True)
    with redirect_stderr(StringIO()) as err:
        result = compress(task, tree, fit, RecordingBackend(salt), cfg=cfg)
    fell = result.fit_score_after < result.fit_score_before - epsilon
    lines = err.getvalue().splitlines()
    assert len(lines) == fell
    assert all(f"task prop: {mode} mode ends at fit score " in line for line in lines)
    if mode == "current" and epsilon == 0:
        assert not fell


# Leaf tokens as `parse_bracketed` yields them, escapes resolved
_PIECES = st.lists(
    st.sampled_from(["cat", "sat", "w1", ",", ".", "n't", "'s", "(", ")", "$"]), max_size=12
)


def _state(tokens, kept):
    """The written-leaf state of the kept tokens: each kept leaf writes what
    `detokenize` adds to the text for it."""
    written, so_far = [], []
    for tok, k in zip(tokens, kept):
        if k:
            before = detokenize(so_far)
            so_far.append(tok)
        written.append(detokenize(so_far)[len(before) :] if k else "")
    return written


@given(tokens=_PIECES, data=st.data())
@settings(max_examples=500, deadline=None)
def test_spliced_candidate_equals_detokenize(tokens, data):
    """A candidate spliced from any state equals `detokenize` of the tokens
    kept in that state outside the removed range."""
    n = len(tokens)
    kept = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    lo = data.draw(st.integers(0, n))
    hi = data.draw(st.integers(lo, n))
    written = _state(tokens, kept)
    assert "".join(written) == detokenize([t for t, k in zip(tokens, kept) if k])
    outside = [t for i, (t, k) in enumerate(zip(tokens, kept)) if k and not lo <= i < hi]
    assert stdc._spliced(tokens, written, lo, hi) == detokenize(outside)
    assert written == _state(tokens, kept)  # splicing leaves the state alone


@given(tokens=_PIECES, ranges=st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12))))
@settings(max_examples=500, deadline=None)
def test_removals_keep_the_state_equal_to_detokenize(tokens, ranges):
    """After any sequence of removals the state writes `detokenize` of the
    tokens still kept, and a leaf writes something iff it is kept."""
    n = len(tokens)
    kept = [True] * n
    written = _state(tokens, kept)
    for a, b in ranges:
        lo, hi = sorted((min(a, n), min(b, n)))
        stdc._remove(tokens, written, lo, hi)
        kept[lo:hi] = [False] * (hi - lo)
        assert "".join(written) == detokenize([t for t, k in zip(tokens, kept) if k])
        assert [bool(w) for w in written] == kept


class TestHoldout:
    def test_coverage_strict(self, fox_task, fox_tree):
        class PairBackend(Backend):
            backend_id = "pair"

            def __init__(self, full):
                super().__init__()
                self.full = full

            def generate(self, ctx):
                self.count_call()
                # the full definition scores each instance below 1.0; the
                # other gains on the first and third and ties on the second
                fillers = [2, 2, 2] if ctx.definition == self.full else [0, 2, 0]
                return [padded(inst.references[0], n) for inst, n in zip(ctx.instances, fillers)]

        from defkit.stdc import CompressionResult

        full = render(fox_tree)
        result = CompressionResult(
            task_id=fox_task.id,
            full_definition=full,
            compressed_definition="classifies reviews",
            ratio=0.4,
            fit_score_before=0.5,
            fit_score_after=0.6,
            steps=(),
        )
        _, holdout = fit_holdout(fox_task, 1, 3)
        backend = PairBackend(full)
        report = evaluate_holdout(fox_task, result, holdout, backend)
        assert report.coverage == pytest.approx(2 / 3)
        non_strict = evaluate_holdout(fox_task, result, holdout, backend, strict=False)
        assert non_strict.coverage == 1.0

    def test_identity_compression_zero_coverage(self, fox_task, fox_tree):
        fit, holdout = fit_holdout(fox_task)
        backend = DropOnRemovalBackend(render(fox_tree))
        result = compress(fox_task, fox_tree, fit, backend)
        report = evaluate_holdout(fox_task, result, holdout, backend)
        assert report.before == report.after
        assert report.coverage == 0.0


class TestCategoryRetention:
    def test_counts(self, fox_task, fox_tree):
        fit, _ = fit_holdout(fox_task)
        backend = PlantedPhraseBackend("classifies reviews")
        result = compress(fox_task, fox_tree, fit, backend)
        text = fox_task.definition  # "the quick fox classifies reviews"
        ann = AnnotationSet(
            fox_task.id,
            (
                Span(0, 13, ContentCategory.INPUT_CONTENT),  # "the quick fox"
                Span(14, 32, ContentCategory.ACTION_CONTENT),  # "classifies reviews"
            ),
            "a1",
        )
        retention = category_retention(fox_task, fox_tree, result, ann)
        assert retention["input_content"] == (3, 0, 0.0)
        assert retention["action_content"] == (2, 2, 1.0)
        assert "unannotated" not in retention

    def test_no_removals_all_kept(self, fox_task, fox_tree):
        full = render(fox_tree)
        result = CompressionResult(
            fox_task.id, full, full, 1.0, 0.5, 0.5, ()
        )
        ann = AnnotationSet(
            fox_task.id, (Span(0, 13, ContentCategory.INPUT_CONTENT),), "a1"
        )
        retention = category_retention(fox_task, fox_tree, result, ann)
        assert all(frac == 1.0 for _, _, frac in retention.values())
        assert retention["unannotated"][0] == 2

    def test_unannotated_share(self, fox_task):
        ann = AnnotationSet(
            fox_task.id, (Span(0, 13, ContentCategory.INPUT_CONTENT),), "a1"
        )
        assert unannotated_share(fox_task, ann) == pytest.approx(2 / 5)

    def test_a_kept_word_repeated_in_a_removed_span_counts_as_kept(self):
        """"the" stands in both sentences; only the second survives."""
        definition = "Read the review. The label is yes."
        task = make_task(task_id="t", definition=definition)
        tree = parse_bracketed(
            "(S (VP (VB Read) (NP (DT the) (NN review))) (. .)) "
            "(S (NP (DT The) (NN label)) (VP (VBZ is) (ADJP (JJ yes))) (. .))"
        )
        fit, _ = fit_holdout(task, 2, 0)
        result = compress(task, tree, fit, PlantedPhraseBackend("the label is yes"))
        assert result.compressed_definition == "The label is yes"
        ann = AnnotationSet(
            task.id,
            (
                Span(0, 16, ContentCategory.INPUT_CONTENT),  # "Read the review."
                Span(17, 34, ContentCategory.LABEL_LIST),  # "The label is yes."
            ),
            "a1",
        )
        assert category_retention(task, tree, result, ann) == {
            "input_content": (3, 0, 0.0),
            "label_list": (4, 4, 1.0),
        }

    def test_words_fall_in_the_span_that_covers_them_after_a_long_lowercase(self):
        """U+0130 lowercases to two characters; the offsets stay on the text."""
        definition = "\u0130\u0130\u0130\u0130 read it. yes"
        task = make_task(task_id="t", definition=definition)
        tree = parse_bracketed(
            "(S (NP (NN \u0130\u0130\u0130\u0130)) (VP (VB read) (NP (PRP it))) (. .) (NP (UH yes)))"
        )
        fit, _ = fit_holdout(task, 2, 0)
        result = compress(task, tree, fit, PlantedPhraseBackend("yes"))
        assert result.compressed_definition == "yes"
        ann = AnnotationSet(
            task.id,
            (
                Span(5, 13, ContentCategory.INPUT_CONTENT),  # "read it."
                Span(14, 17, ContentCategory.LABEL_LIST),  # "yes"
            ),
            "a1",
        )
        assert category_retention(task, tree, result, ann) == {
            "unannotated": (4, 0, 0.0),
            "input_content": (2, 0, 0.0),
            "label_list": (1, 1, 1.0),
        }
        assert unannotated_share(task, ann) == pytest.approx(4 / 7)

    def test_result_of_another_tree_is_rejected(self, fox_task, fox_tree):
        other = "the quick fox"
        result = CompressionResult(fox_task.id, other, other, 1.0, 0.5, 0.5, ())
        ann = AnnotationSet(fox_task.id, (), "a1")
        with pytest.raises(InvariantError, match="not compressed from this tree"):
            category_retention(fox_task, fox_tree, result, ann)


_RETENTION_TREE_TEXTS = _tree_texts(
    st.sampled_from(["the", "yes", "it", "do", "n't", "'s", ",", ".", "-LRB-", "-RRB-", "$", "5"])
)
_CATEGORIES = st.sampled_from(
    [ContentCategory.INPUT_CONTENT, ContentCategory.ACTION_CONTENT, ContentCategory.LABEL_LIST]
)


def reference_retention(task, tree, accepted, ann):
    """category_retention by brute force: the surviving leaves come from
    removing each accepted subtree from the tree, and leaf j is placed in
    the rendered text as the tail of detokenize(tokens[:j + 1])."""
    current = tree
    for node_id in accepted:
        if node_id in current.nodes:  # not pruned with an earlier removal
            current = remove_subtree(current, node_id)
    surviving = {leaf.id for leaf in current.leaves}
    leaves = tree.leaves
    tokens = [leaf.token for leaf in leaves]
    ends = [len(detokenize(tokens[: j + 1])) for j in range(len(tokens))]
    starts = [end - len(tok) for end, tok in zip(ends, tokens)]

    def words(text):
        return [m.span() for m in re.finditer("[a-z0-9]+", text.lower())]

    counts = {}
    for (lo, hi), (start, end) in zip(words(detokenize(tokens)), words(task.definition)):
        writers = [leaf for leaf, s, e in zip(leaves, starts, ends) if s < hi and lo < e]
        kept = all(leaf.id in surviving for leaf in writers)
        buckets = {s.category.value for s in ann.spans if s.start < end and start < s.end}
        for bucket in buckets or {"unannotated"}:
            before, after = counts.get(bucket, (0, 0))
            counts[bucket] = (before + 1, after + kept)
    return {bucket: (before, after, after / before) for bucket, (before, after) in counts.items()}


@given(text=_RETENTION_TREE_TEXTS, data=st.data())
@settings(max_examples=300, deadline=None)
def test_category_retention_equals_a_brute_force_reference(text, data):
    tree = parse_bracketed(text)
    rendered = render(tree)
    assume(rendered.strip())
    gaps = data.draw(st.lists(st.booleans(), min_size=len(rendered), max_size=len(rendered)))
    # the definition differs from the rendering in spaces that split no word
    definition = "".join(
        " " + c if gap and i and not (rendered[i - 1].isalnum() and c.isalnum()) else c
        for i, (c, gap) in enumerate(zip(rendered, gaps))
    )
    task = make_task(task_id="prop", definition=definition)
    cuts = sorted(data.draw(st.sets(st.integers(0, len(definition)), max_size=6)))
    spans = tuple(Span(lo, hi, data.draw(_CATEGORIES)) for lo, hi in zip(cuts[::2], cuts[1::2]))
    ann = AnnotationSet(task.id, spans, "a1")
    candidates = [n.id for n in tree.nodes.values() if n.id != tree.root.id]
    accepted = data.draw(st.lists(st.sampled_from(candidates), unique=True)) if candidates else []
    steps = tuple(Step(n, tree.node(n).label, (), 0.0, True) for n in accepted)
    result = CompressionResult(task.id, rendered, "", 0.0, 0.0, 0.0, steps)
    assert category_retention(task, tree, result, ann) == reference_retention(
        task, tree, accepted, ann
    )
