from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defkit.annotations import AnnotationSet, ContentCategory, Span
from defkit.corpus import TaskKind
from defkit.errors import DefkitError, InvariantError
from defkit.parse import parse_bracketed, remove_subtree
from defkit.triplet import (
    TripletDefinition,
    build_triplet,
    meta_tuning_instances,
    render_triplet,
)

from conftest import make_task
from reference_variants import build_triplet_reference
from test_parse import random_tree_text

TASK6_DEF = "Given a statement, generate a question such that the answer is contained in that statement."
TASK6_TREE = (
    "(S (PP (VBN Given) (NP (DT a) (NN statement))) (, ,) "
    "(VP (VB generate) (NP (NP (DT a) (NN question)) "
    "(SBAR (JJ such) (IN that) (S (NP (DT the) (NN answer)) "
    "(VP (VBZ is) (VP (VBN contained) (PP (IN in) (NP (DT that) (NN statement))))))))) (. .))"
)

TASK1_DEF = (
    'You are given a review about a place. You need to provide a rating from '
    '"1 star" to "5 stars" for this place.'
)
TASK1_TREE = (
    "(S (NP (PRP You)) (VP (VBP are) (VP (VBN given) "
    "(NP (NP (DT a) (NN review)) (PP (IN about) (NP (DT a) (NN place)))))) (. .)) "
    "(S (NP (PRP You)) (VP (VBP need) (S (VP (TO to) (VP (VB provide) "
    "(NP (DT a) (NN rating) (PP (IN from) (NP (`` \") (CD 1) (NN star) ('' \"))) "
    "(PP (TO to) (NP (`` \") (CD 5) (NNS stars) ('' \")))) "
    "(PP (IN for) (NP (DT this) (NN place))))))) (. .))"
)


def task6():
    return make_task(
        task_id="task1580",
        definition=TASK6_DEF,
        kind=TaskKind.GENERATION,
        label_list=None,
    )


def task6_annotation():
    split = TASK6_DEF.index(",") + 1
    return AnnotationSet(
        "task1580",
        (
            Span(0, split, ContentCategory.INPUT_CONTENT),
            Span(split + 1, len(TASK6_DEF), ContentCategory.ACTION_CONTENT),
        ),
        "a1",
    )


class TestBuildTriplet:
    def test_task6_generation(self):
        trip = build_triplet(task6(), task6_annotation(), parse_bracketed(TASK6_TREE))
        assert trip.input_entry == "a statement"
        assert trip.action_entry == (
            "generate a question such that the answer is contained in that statement"
        )
        assert trip.output_entry == ("a question",)
        assert not trip.needs_review

    def test_task1_rating_phrase(self):
        task = make_task(
            task_id="task1292",
            definition=TASK1_DEF,
            kind=TaskKind.GENERATION,
            label_list=None,
        )
        boundary = TASK1_DEF.index(". ") + 1
        ann = AnnotationSet(
            "task1292",
            (
                Span(0, boundary, ContentCategory.INPUT_CONTENT),
                Span(boundary + 1, len(TASK1_DEF), ContentCategory.ACTION_CONTENT),
            ),
            "a1",
        )
        trip = build_triplet(task, ann, parse_bracketed(TASK1_TREE))
        assert trip.input_entry == "a review about a place"
        assert trip.output_entry == ('a rating from "1 star" to "5 stars"',)

    def test_classification_labels_first(self, review_task, review_annotation):
        # add a label-definition span over the final sentence
        tree = parse_bracketed(
            "(S (NP (PRP You)) (VP (VBP are) (VP (VBN given) (NP (DT a) (NN review)))) (. .)) "
            "(S (VP (VB Classify) (NP (PRP it))) (. .)) "
            "(S (NP (DT The) (NNS labels)) (VP (VBP are) (ADJP (JJ positive) (CC and) (JJ negative))) (. .))"
        )
        spans = review_annotation.spans + (
            Span(37, 74, ContentCategory.LABEL_DEFINITION),
        )
        # replace the original label_list span to avoid a cross-category overlap
        ann = AnnotationSet(
            review_task.id,
            (review_annotation.spans[0], review_annotation.spans[1], spans[-1]),
            "a1",
        )
        trip = build_triplet(review_task, ann, tree)
        assert trip.output_entry[0] == "positive, negative"
        assert trip.output_entry[1] == "The labels are positive and negative"

    def test_missing_action_span(self):
        task = task6()
        ann = AnnotationSet(task.id, (Span(0, 18, ContentCategory.INPUT_CONTENT),), "a1")
        with pytest.raises(DefkitError, match="no action_content span annotated"):
            build_triplet(task, ann, parse_bracketed(TASK6_TREE))

    def test_unalignable_tree_falls_back(self):
        task = task6()
        wrong_tree = parse_bracketed("(S (NN zebra) (NN xylophone))")
        trip = build_triplet(task, task6_annotation(), wrong_tree)
        assert trip.needs_review
        assert trip.input_entry == "Given a statement,"

    @pytest.mark.parametrize(
        "verb, tags, action",
        [
            ("don't", "(VBP do) (RB n't)", "don't copy the review"),
            ("cannot", "(MD can) (RB not)", "copy the review"),  # a modal is not a VB*
        ],
        ids=["dont", "cannot"],
    )
    def test_word_split_by_the_parser_aligns(self, verb, tags, action):
        # the parser splits one written word into two leaves with no space
        # between them; the leaves still spell the definition
        definition = f"Given a review, {verb} copy the review and write a summary."
        tree = parse_bracketed(
            "(S (PP (VBN Given) (NP (DT a) (NN review))) (, ,) "
            f"(VP (VP {tags} (VP (VB copy) (NP (DT the) (NN review)))) "
            "(CC and) (VP (VB write) (NP (DT a) (NN summary)))) (. .))"
        )
        task = make_task(
            task_id="task_split", definition=definition, kind=TaskKind.GENERATION, label_list=None
        )
        ann = AnnotationSet(
            task.id,
            (
                Span(0, 15, ContentCategory.INPUT_CONTENT),
                Span(16, len(definition) - 1, ContentCategory.ACTION_CONTENT),
            ),
            "a1",
        )
        trip = build_triplet(task, ann, tree)
        assert trip.input_entry == "a review"
        assert trip.action_entry == action
        assert trip.output_entry == ("the review",)
        assert not trip.needs_review

    def test_no_token_invented(self):
        trip = build_triplet(task6(), task6_annotation(), parse_bracketed(TASK6_TREE))
        for entry in (trip.input_entry, trip.action_entry, *trip.output_entry):
            for token in entry.split():
                assert token in TASK6_DEF


# between two leaves: nothing, ASCII or Unicode whitespace, or a character
# no leaf writes, which the tree does not align with
SEPARATORS = ["", " ", "  ", "\t", "\n ", "\u3000", "\x85", "-"]
# labels with function tags and indices, verbs over leaves and over phrases,
# and a label whose base is empty
TRIPLET_TAGS = ["S", "NP", "NP-SBJ", "NP=2", "VP", "VP-TPC", "VB", "VBZ", "VBD=1", "PP", "-NONE-"]


def _outcome(build, task, ann, tree):
    """What build returns, or the type and message of what it raises."""
    try:
        return build(task, ann, tree)
    except DefkitError as exc:
        return type(exc), str(exc)


@given(
    rng=st.randoms(use_true_random=False),
    trees=st.integers(1, 3),
    removals=st.integers(0, 2),
    separators=st.lists(st.sampled_from(SEPARATORS), min_size=1),
    aligned=st.booleans(),
    kind=st.sampled_from(TaskKind),
    data=st.data(),
)
@settings(max_examples=400, deadline=None)
def test_build_triplet_equals_the_reference(
    rng, trees, removals, separators, aligned, kind, data
):
    """Random trees, alone or several under TOP and after removals, against
    definitions that spell their leaves (with any whitespace, none
    included, between them) or that do not (a leaf too many, or a "-"
    between two), under random annotations."""
    tree = parse_bracketed(
        " ".join(random_tree_text(rng, max_leaves=12, tags=TRIPLET_TAGS) for _ in range(trees))
    )
    for _ in range(removals):
        candidates = [n.id for n in tree.nodes.values() if n.id != tree.root.id]
        if candidates:
            tree = remove_subtree(tree, rng.choice(candidates))
    tokens = tree.source_tokens if aligned else [*tree.source_tokens, "zebra"]
    definition = tokens[0] if tokens else "zebra"
    for k, token in enumerate(tokens[1:]):
        definition += separators[k % len(separators)] + token
    n = len(definition)
    spans = []
    for category in ContentCategory:
        required = category in (ContentCategory.INPUT_CONTENT, ContentCategory.ACTION_CONTENT)
        for _ in range(data.draw(st.integers(1 if required else 0, 2))):
            start = data.draw(st.integers(0, n - 1))
            spans.append(Span(start, data.draw(st.integers(start + 1, n)), category))
    task = make_task(
        task_id="prop",
        definition=definition,
        kind=kind,
        label_list=("yes", "no") if kind is TaskKind.CLASSIFICATION else None,
    )
    ann = AnnotationSet(task.id, tuple(data.draw(st.permutations(spans))), "a1")
    assert _outcome(build_triplet, task, ann, tree) == _outcome(
        build_triplet_reference, task, ann, tree
    )


class TestRenderTriplet:
    def test_task6_frame(self):
        trip = build_triplet(task6(), task6_annotation(), parse_bracketed(TASK6_TREE))
        assert render_triplet(trip) == (
            "Task input: a statement. "
            "Task action: generate a question such that the answer is contained in that statement. "
            "Task output: a question"
        )

    def test_singleton_output_join(self):
        trip = TripletDefinition("t", "x", "do y", ("Yes, No",))
        assert render_triplet(trip).endswith("Task output: Yes, No")

    def test_round_trip_markers(self):
        trip = TripletDefinition("t", "an input", "an action", ("out a", "out b"))
        rendered = render_triplet(trip)
        for marker in ("Task input: ", "Task action: ", "Task output: "):
            assert rendered.count(marker) == 1
        head, rest = rendered.split(". Task action: ")
        action, output = rest.split(". Task output: ")
        assert head == "Task input: an input"
        assert action == "an action"
        assert output == "out a; out b"


class TestMetaTuning:
    def test_three_instances_with_targets(self):
        task = task6()
        trip = build_triplet(task, task6_annotation(), parse_bracketed(TASK6_TREE))
        rows = meta_tuning_instances(task, trip)
        assert [row["tag"] for row in rows] == ["<Task input>", "<Task action>", "<Task output>"]
        assert rows[0]["target"] == "a statement"
        rendered = render_triplet(trip)
        assert all(row["target"] in rendered for row in rows)

    def test_source_frame(self):
        task = task6()
        trip = TripletDefinition(task.id, "a", "b", ("c",))
        row = meta_tuning_instances(task, trip)[0]
        assert list(row) == ["source", "tag", "target"]
        assert row["source"] == (
            "Generate segments of task definitions based on the tag and two examples. "
            "<Task input>. "
            "Input: demo input one Output: demo output one. "
            "Input: demo input two Output: demo output two"
        )

    def test_split_outputs_flag(self):
        task = task6()
        trip = TripletDefinition(task.id, "a", "b", ("c", "d"))
        joined = meta_tuning_instances(task, trip)
        assert joined[-1]["target"] == "c; d"
        split = meta_tuning_instances(task, trip, split_outputs=True)
        assert [row["target"] for row in split if row["tag"] == "<Task output>"] == ["c", "d"]

    def test_tags_balanced_across_tasks(self):
        task = task6()
        trip = TripletDefinition(task.id, "a", "b", ("c",))
        rows = meta_tuning_instances(task, trip) + meta_tuning_instances(task, trip)
        counts = Counter(row["tag"] for row in rows)
        assert counts == {"<Task input>": 2, "<Task action>": 2, "<Task output>": 2}
