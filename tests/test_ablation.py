import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defkit.ablation import (
    REMOVED_CATEGORIES,
    apply_ablation,
    build_metadata_definition,
    compression_ratio,
    remove_spans,
    shuffle_definition,
)
from defkit.annotations import AnnotationSet, ContentCategory, Span
from defkit.corpus import TaskKind
from defkit.errors import DefkitError, InvariantError

from conftest import make_task
from reference_variants import remove_spans_reference


class TestSpecTable:
    def test_mapping_fixed(self):
        C = ContentCategory
        assert REMOVED_CATEGORIES["input_add"] == {C.ADDITIONAL_INPUT_DETAILS}
        assert REMOVED_CATEGORIES["output_add"] == {C.ADDITIONAL_OUTPUT_DETAILS}
        assert REMOVED_CATEGORIES["all_add"] == {
            C.ADDITIONAL_INPUT_DETAILS,
            C.ADDITIONAL_OUTPUT_DETAILS,
        }
        assert REMOVED_CATEGORIES["all_output"] == {
            C.OUTPUT_CONTENT,
            C.ADDITIONAL_OUTPUT_DETAILS,
            C.LABEL_LIST,
            C.LABEL_DEFINITION,
        }
        assert REMOVED_CATEGORIES["all_input"] == {
            C.INPUT_CONTENT,
            C.ADDITIONAL_INPUT_DETAILS,
        }


class TestApplyAblation:
    def test_label_list_removed(self, review_task, review_annotation):
        text = apply_ablation(review_task, review_annotation, REMOVED_CATEGORIES["label_list"])
        assert text == "You are given a review. Classify it."
        assert (len(text.split()), len(review_task.definition.split())) == (7, 13)
        assert compression_ratio(review_task.definition, text) == pytest.approx(7 / 13)

    def test_all_input_removed(self, review_task, review_annotation):
        text = apply_ablation(review_task, review_annotation, REMOVED_CATEGORIES["all_input"])
        assert text == "Classify it. The labels are positive and negative."

    def test_absent_category_is_noop(self, review_task, review_annotation):
        text = apply_ablation(review_task, review_annotation, REMOVED_CATEGORIES["output_add"])
        assert text == review_task.definition
        assert compression_ratio(review_task.definition, text) == 1.0

    def test_invalid_annotation_raises(self, review_task):
        bad = AnnotationSet(
            review_task.id, (Span(0, 999, ContentCategory.LABEL_LIST),), "a1"
        )
        with pytest.raises(DefkitError, match=r"span 0: out of bounds \[0,999\)"):
            apply_ablation(review_task, bad, REMOVED_CATEGORIES["label_list"])

    def test_all_add_at_most_either_side(self, review_task):
        definition = review_task.definition
        ann = AnnotationSet(
            review_task.id,
            (
                Span(0, 23, ContentCategory.ADDITIONAL_INPUT_DETAILS),
                Span(37, 74, ContentCategory.ADDITIONAL_OUTPUT_DETAILS),
            ),
            "a1",
        )
        ratios = {
            spec: compression_ratio(
                definition, apply_ablation(review_task, ann, REMOVED_CATEGORIES[spec])
            )
            for spec in ("input_add", "output_add", "all_add")
        }
        assert ratios["all_add"] <= min(ratios["input_add"], ratios["output_add"])

    def test_pure_span_deletion(self, review_task, review_annotation):
        # output text never contains characters absent from the original
        for categories in REMOVED_CATEGORIES.values():
            text = apply_ablation(review_task, review_annotation, categories)
            it = iter(review_task.definition)
            assert all(c in it for c in text.replace(" ", ""))


def mask_ablation(task, ann, removed):
    """Reference for apply_ablation: the text left by a per-character
    deletion mask of the categories `removed`."""
    delete = []
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
    deleted_mask = [False] * len(text)
    for start, end in delete:
        for i in range(start, end):
            deleted_mask[i] = True
    kept_raw = "".join(c for i, c in enumerate(text) if not deleted_mask[i])
    return re.sub(r"\s+", " ", kept_raw).strip()


TOP_LEVEL = [c for c in ContentCategory if c is not ContentCategory.INPUT_MENTION]


@st.composite
def annotated_definitions(draw, alphabet="ab.,  \t\n"):
    """A definition over alphabet with valid spans: adjacent or gapped
    top-level spans, and input mentions strictly inside action content."""
    definition = draw(st.text(st.sampled_from(alphabet), min_size=20, max_size=80))
    definition = "x" + definition  # never blank after trimming
    cuts = sorted(draw(st.sets(st.integers(0, len(definition)), min_size=2, max_size=12)))
    spans = []
    for start, end in zip(cuts, cuts[1:]):
        category = draw(st.sampled_from(TOP_LEVEL + [None]))  # None leaves a gap
        if category is None:
            continue
        spans.append(Span(start, end, category))
        if category is ContentCategory.ACTION_CONTENT and end - start >= 3:
            inner = sorted(draw(st.sets(st.integers(start + 1, end - 1), min_size=2, max_size=4)))
            spans += [
                Span(a, b, ContentCategory.INPUT_MENTION) for a, b in zip(inner[::2], inner[1::2])
            ]
    spans = draw(st.permutations(spans))
    task = make_task(definition=definition)
    return task, AnnotationSet(task.id, tuple(spans), "a1")


@given(annotated_definitions(), st.sets(st.sampled_from(ContentCategory)))
@settings(max_examples=300, deadline=None)
def test_span_slices_equal_character_mask(task_ann, categories):
    task, ann = task_ann
    nested = {ContentCategory.ACTION_CONTENT, ContentCategory.INPUT_MENTION}
    # beyond the table's sets, so that nested deletions (an input mention
    # inside deleted action content) are reached too
    removed_sets = [
        *REMOVED_CATEGORIES.values(), frozenset(categories), frozenset(categories | nested)
    ]
    for removed in removed_sets:
        assert apply_ablation(task, ann, removed) == mask_ablation(task, ann, removed)


# ASCII and Unicode whitespace that `str.split` splits at: tab, newline, a
# file separator, NEL, no-break space, line separator and ideographic space
MIXED_SPACES = "ab.,  \t\n\x1c\x85\xa0\u2028\u3000"


@given(annotated_definitions(MIXED_SPACES))
@settings(max_examples=300, deadline=None)
def test_remove_spans_equals_the_reference(task_ann):
    task, ann = task_ann
    for removed in REMOVED_CATEGORIES.values():
        assert remove_spans(task, ann, removed) == remove_spans_reference(task, ann, removed)


class TestShuffle:
    def test_deterministic(self):
        assert shuffle_definition("a b c d e", 3) == shuffle_definition("a b c d e", 3)

    @given(text=st.text(max_size=80), seed=st.integers(0, 1000))
    @settings(max_examples=100)
    def test_multiset_preserved(self, text, seed):
        assert sorted(shuffle_definition(text, seed).split()) == sorted(text.split())

    def test_single_token(self):
        assert shuffle_definition("x", 0) == "x"


class TestMetadataDefinition:
    def test_classification_template(self):
        task = make_task(
            category="Textual Entailment",
            reasoning_types=("Deductive",),
            domains=("News",),
            label_list=("Yes", "No"),
        )
        assert build_metadata_definition(task) == (
            "Category: Textual Entailment. Reasoning type: Deductive. "
            "Domain: News. Label list: Yes, No"
        )

    def test_generation_free_text(self):
        task = make_task(kind=TaskKind.GENERATION, label_list=None)
        assert build_metadata_definition(task).endswith("Label list: generate free text")

    def test_empty_domains_warns(self, capsys):
        task = make_task(domains=())
        text = build_metadata_definition(task)
        assert "Domain: ." in text
        assert capsys.readouterr().err.splitlines() == [
            f"WARNING defkit.ablation: task {task.id}: empty domain slot in metadata definition"
        ]

    def test_parse_back_into_fields(self):
        task = make_task(domains=("News", "Web"), reasoning_types=("A", "B"))
        text = build_metadata_definition(task)
        rest = text
        assert rest.startswith("Category: ")
        category, rest = rest[len("Category: ") :].split(". Reasoning type: ", 1)
        reasoning, rest = rest.split(". Domain: ", 1)
        domain, labels = rest.split(". Label list: ", 1)
        assert (category, reasoning, domain, labels) == (
            "Text Categorization",
            "A, B",
            "News, Web",
            "Yes, No",
        )


class TestCompressionRatio:
    def test_fraction(self):
        full = " ".join(["tok"] * 100)
        kept = " ".join(["tok"] * 56)
        assert compression_ratio(full, kept) == pytest.approx(0.56)

    def test_identity(self):
        assert compression_ratio("a b c", "a b c") == 1.0

    def test_empty_kept(self):
        assert compression_ratio("a b c", "") == 0.0

    def test_empty_full(self):
        with pytest.raises(InvariantError, match="full definition has no tokens"):
            compression_ratio("   ", "a")

    def test_kept_exceeds_full(self):
        with pytest.raises(InvariantError):
            compression_ratio("a", "a b")
