import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defkit.annotations import (
    AnnotationSet,
    ContentCategory,
    Span,
    fleiss_kappa,
    load_annotations,
    presplit_definition,
    validate_annotation,
)
from defkit.errors import InvariantError

from conftest import annotation_to_dict, make_task


class TestValidateAnnotation:
    def test_out_of_bounds(self):
        task = make_task(definition="short text here.")
        ann = AnnotationSet(task.id, (Span(0, 999, ContentCategory.INPUT_CONTENT),), "a1")
        report = validate_annotation(task, ann)
        assert any("span 0: out of bounds" in p for p in report.problems)

    def test_input_mention_outside_action(self):
        task = make_task(definition="Generate a summary of the passage now.")
        ann = AnnotationSet(
            task.id,
            (
                Span(0, 18, ContentCategory.ACTION_CONTENT),
                Span(22, 33, ContentCategory.INPUT_MENTION),
            ),
            "a1",
        )
        report = validate_annotation(task, ann)
        assert any("input_mention" in p for p in report.problems)

    def test_input_mention_inside_action_ok(self):
        task = make_task(definition="Generate a summary of the passage now.")
        ann = AnnotationSet(
            task.id,
            (
                Span(0, 34, ContentCategory.ACTION_CONTENT),
                Span(22, 33, ContentCategory.INPUT_MENTION),
            ),
            "a1",
        )
        assert validate_annotation(task, ann).ok

    def test_same_category_overlap(self):
        task = make_task(definition="Classify the text into two groups.")
        ann = AnnotationSet(
            task.id,
            (
                Span(0, 10, ContentCategory.INPUT_CONTENT),
                Span(5, 15, ContentCategory.INPUT_CONTENT),
            ),
            "a1",
        )
        assert any("same-category overlap" in p for p in validate_annotation(task, ann).problems)

    def test_cross_category_overlap(self):
        task = make_task(definition="Classify the text into two groups.")
        ann = AnnotationSet(
            task.id,
            (
                Span(0, 10, ContentCategory.INPUT_CONTENT),
                Span(5, 15, ContentCategory.OUTPUT_CONTENT),
            ),
            "a1",
        )
        assert any("cross-category overlap" in p for p in validate_annotation(task, ann).problems)

    def test_consistent_set_empty_report(self, review_task, review_annotation):
        assert validate_annotation(review_task, review_annotation).ok


class TestPresplit:
    def test_trigger_pattern(self):
        assert presplit_definition("Given a question, generate an answer.") == [
            "Given a question,",
            " generate an answer.",
        ]

    def test_period_split(self):
        assert presplit_definition("Classify the text. Output Yes or No.") == [
            "Classify the text.",
            " Output Yes or No.",
        ]

    def test_you_are_given_variant(self):
        assert presplit_definition("You are given a review, rate it.") == [
            "You are given a review,",
            " rate it.",
        ]

    def test_trigger_without_punctuation_left_alone(self):
        assert presplit_definition("Given nothing else do the task.") == [
            "Given nothing else do the task."
        ]

    def test_trigger_applies_per_sentence(self):
        text = "Classify it. You're given a word, say it back."
        assert presplit_definition(text) == [
            "Classify it.",
            " You're given a word,",
            " say it back.",
        ]

    def test_empty(self):
        assert presplit_definition("") == []

    @given(st.text(max_size=200))
    @settings(max_examples=200)
    def test_lossless_concatenation(self, text):
        assert "".join(presplit_definition(text)) == text


class TestFleissKappa:
    def test_perfect_agreement_two_categories(self):
        # all raters always agree, both categories used
        m = [[3, 0], [0, 3], [3, 0]]
        assert fleiss_kappa(m) == pytest.approx(1.0)

    def test_derived_quarter(self):
        # P-bar = 2/3, P-bar-e = 5/9 -> kappa = 0.25
        assert fleiss_kappa([[3, 0], [1, 2]]) == pytest.approx(0.25)

    def test_degenerate(self):
        with pytest.raises(InvariantError, match="expected agreement is 1"):
            fleiss_kappa([[3, 0], [3, 0]])

    def test_needs_two_raters(self):
        with pytest.raises(InvariantError):
            fleiss_kappa([[1, 0]])

    def test_ragged_rejected(self):
        with pytest.raises(InvariantError, match="rating matrix: ragged rows"):
            fleiss_kappa([[1, 2], [3]])

    def test_row_sum_mismatch_rejected(self):
        with pytest.raises(
            InvariantError, match="rating matrix: rows sum to different rater counts"
        ):
            fleiss_kappa([[2, 1], [1, 1]])

    def test_no_items_rejected(self):
        with pytest.raises(InvariantError, match="rating matrix: need >= 1 item"):
            fleiss_kappa([])

    def test_negative_count_rejected(self):
        with pytest.raises(InvariantError, match="rating matrix: negative count"):
            fleiss_kappa([[3, -1], [1, 1]])

    @given(
        rows=st.lists(
            st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4)),
            min_size=2,
            max_size=6,
        ),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=100)
    def test_permutation_invariance(self, rows, seed):
        n = 4
        # rebalance rows so each sums to n raters
        fixed = []
        for a, b, c in rows:
            total = a + b + c
            if total == 0:
                a = n
            else:
                a, b, c = (x * n // total for x in (a, b, c))
            a += n - (a + b + c)
            fixed.append((a, b, c))
        try:
            base = fleiss_kappa(fixed)
        except InvariantError as exc:
            if "expected agreement is 1" not in str(exc):
                raise
            return
        rng = random.Random(seed)
        shuffled_items = list(fixed)
        rng.shuffle(shuffled_items)
        col_order = [0, 1, 2]
        rng.shuffle(col_order)
        permuted = [tuple(row[j] for j in col_order) for row in shuffled_items]
        assert fleiss_kappa(permuted) == pytest.approx(base)


def test_jsonl_roundtrip(tmp_path):
    ann = AnnotationSet(
        task_id="t1",
        annotator="a1",
        spans=(
            Span(0, 5, ContentCategory.INPUT_CONTENT),
            Span(6, 9, ContentCategory.LABEL_LIST),
        ),
    )
    path = tmp_path / "ann.jsonl"
    path.write_text(json.dumps(annotation_to_dict(ann)) + "\n")
    assert load_annotations(path) == [ann]
