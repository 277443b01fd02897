import itertools
import random
import re
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defkit.corpus import TaskKind
from defkit.errors import InvariantError
from defkit.metrics import (
    _lcs_bits,
    _prepared_reference,
    _rouge_l,
    aggregate,
    heuristic_predict,
    lcs_length,
    normalize,
    rouge_l,
    word_spans,
)

from conftest import make_task


def brute_force_lcs(a, b):
    """Exponential oracle: longest subsequence of a that is a subsequence of b."""
    best = 0
    for r in range(len(a), 0, -1):
        for combo in itertools.combinations(a, r):
            it = iter(b)
            if all(tok in it for tok in combo):
                best = r
                break
        if best:
            break
    return best


class TestLcs:
    def test_interleaved(self):
        a, b = ("a", "b", "c", "d", "e"), ("a", "c", "e")
        assert brute_force_lcs(a, b) == 3
        assert lcs_length(a, b) == 3

    def test_empty(self):
        assert lcs_length((), ("a",)) == 0
        assert lcs_length(("a",), ()) == 0

    def test_identical(self):
        seq = tuple("abcabc")
        assert lcs_length(seq, seq) == len(seq)

    @given(
        a=st.lists(st.sampled_from("xyz"), max_size=8),
        b=st.lists(st.sampled_from("xyz"), max_size=8),
    )
    @settings(max_examples=300)
    def test_matches_oracle(self, a, b):
        assert lcs_length(a, b) == brute_force_lcs(a, b)
        assert lcs_length(a, b) == lcs_length(b, a)


def dp_rouge_l(candidate, references):
    """Rouge-L restated from its docstring over the DP lcs_length."""
    cand = normalize(candidate)
    best = 0.0
    for reference in references:
        ref = normalize(reference)
        if cand and ref:
            lcs = lcs_length(cand, ref)
            p, r = lcs / len(cand), lcs / len(ref)
            if p + r > 0:
                best = max(best, 2 * p * r / (p + r))
    return best


# few distinct words, so tokens repeat heavily; lengths cross 64-bit words
token_lists = st.integers(1, 4).flatmap(
    lambda k: st.lists(st.sampled_from("abcd"[:k]), max_size=200)
)
texts = st.lists(st.sampled_from(["a", "b", "C", "d!", "a-b", "!!!", " "]), max_size=60).map(
    " ".join
)


class TestBitParallelLcs:
    @given(a=token_lists, b=token_lists)
    @settings(max_examples=300, deadline=None)
    def test_equals_dp(self, a, b):
        n, masks = _prepared_reference(" ".join(b))
        assert n == len(b)
        assert _lcs_bits(a, n, masks) == lcs_length(a, b)

    @given(candidate=texts, references=st.lists(texts, min_size=1, max_size=4))
    @settings(max_examples=200, deadline=None)
    def test_rouge_l_equals_dp_formula(self, candidate, references):
        assert rouge_l(candidate, references) == dp_rouge_l(candidate, references)

    @given(
        candidate=texts,
        references=st.lists(texts, min_size=1, max_size=4),
        as_tuple=st.booleans(),
        cold=st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_memo_returns_the_computed_float(self, candidate, references, as_tuple, cold):
        refs = tuple(references) if as_tuple else references
        expected = dp_rouge_l(candidate, references)
        if cold:
            _rouge_l.cache_clear()
        first = rouge_l(candidate, refs)
        misses = _rouge_l.cache_info().misses
        again = rouge_l(candidate, list(references) if as_tuple else tuple(references))
        assert _rouge_l.cache_info().misses == misses  # the repeat, in either type, is a hit
        _rouge_l.cache_clear()
        assert first == again == rouge_l(candidate, refs) == expected
        with pytest.raises(InvariantError, match="references must be non-empty"):
            rouge_l(candidate, [])
        with pytest.raises(InvariantError, match="references must be non-empty"):
            rouge_l(candidate, ())

    def test_references_that_normalize_to_nothing(self):
        assert rouge_l("a b", ["!!!", "", "a"]) == dp_rouge_l("a b", ["!!!", "", "a"])
        assert rouge_l("a b", ["!!!"]) == 0.0
        assert rouge_l("!!!", ["!!!"]) == 0.0

    def test_threads_score_as_serial(self):
        rng = random.Random(7)
        words = ["w%d" % i for i in range(12)]
        refs = [" ".join(rng.choices(words, k=rng.randint(0, 80))) for _ in range(40)]
        jobs = [
            (" ".join(rng.choices(words, k=rng.randint(0, 80))), rng.sample(refs, 3))
            for _ in range(200)
        ]
        _prepared_reference.cache_clear()
        _rouge_l.cache_clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # threads preempt each other mid-preparation
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                threaded = list(pool.map(lambda job: rouge_l(*job), jobs, timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert threaded == [dp_rouge_l(*job) for job in jobs]
        assert threaded == [rouge_l(*job) for job in jobs]


class TestNormalize:
    def test_lowercase_and_punct(self):
        assert normalize("The CAT, sat!") == ["the", "cat", "sat"]

    def test_no_whitespace_tokens(self):
        assert all(" " not in t for t in normalize("a\tb\nc - d"))

    @given(st.text(st.characters() | st.sampled_from("\u0130\u212aAz9 .'")))
    @settings(max_examples=500)
    def test_equals_mapping_non_alphanumerics_to_spaces(self, text):
        assert normalize(text) == re.sub("[^a-z0-9]+", " ", text.lower()).split()

    @given(st.text(st.characters() | st.sampled_from("\u0130\u212aAz9 .'")))
    @settings(max_examples=500)
    def test_word_spans_are_the_words_at_their_place_in_the_text(self, text):
        spans = word_spans(text)
        assert [word for word, _, _ in spans] == normalize(text)
        for word, start, end in spans:
            assert normalize(text[start:end]) == [word]
        assert all(a[2] <= b[1] for a, b in zip(spans, spans[1:]))

    def test_word_spans_after_a_character_that_lowercases_to_two(self):
        text = "\u0130\u0130\u0130\u0130 read it. yes"  # each U+0130 lowercases to "i\u0307"
        assert [text[start:end] for _, start, end in word_spans(text)] == [
            "\u0130", "\u0130", "\u0130", "\u0130", "read", "it", "yes"
        ]


class TestRougeL:
    def test_identity(self):
        assert rouge_l("the cat sat", ["the cat sat"]) == 1.0

    def test_half(self):
        # LCS=2, P=1, R=1/3 -> F1=0.5
        assert rouge_l("the cat", ["the cat sat on the mat"]) == pytest.approx(0.5)

    def test_disjoint(self):
        assert rouge_l("dog", ["cat"]) == 0.0

    def test_max_over_references(self):
        assert rouge_l("a b", ["x y", "a b"]) == 1.0

    def test_empty_reference_list(self):
        with pytest.raises(InvariantError, match="references must be non-empty"):
            rouge_l("a", [])

    def test_empty_candidate(self):
        assert rouge_l("", ["a b"]) == 0.0

    @given(a=st.text(max_size=30), b=st.text(max_size=30))
    @settings(max_examples=200)
    def test_f1_symmetry(self, a, b):
        assert rouge_l(a, [b]) == pytest.approx(rouge_l(b, [a]))

    @given(a=st.text(min_size=1, max_size=30))
    @settings(max_examples=100)
    def test_self_score_one(self, a):
        if normalize(a):
            assert rouge_l(a, [a]) == 1.0


class TestAggregate:
    def test_single_task_mean(self):
        r = aggregate([("t1", TaskKind.GENERATION, 0.2), ("t1", TaskKind.GENERATION, 0.4)])
        assert r.per_task["t1"] == pytest.approx(0.3)
        assert r.overall == pytest.approx(0.3)

    def test_macro_not_micro(self):
        rows = [("t1", TaskKind.GENERATION, 0.2)] + [("t2", TaskKind.GENERATION, 0.6)] * 9
        r = aggregate(rows)
        assert r.overall == pytest.approx(0.4)
        assert r.micro == pytest.approx((0.2 + 0.6 * 9) / 10)

    def test_kind_split(self):
        r = aggregate(
            [("c", TaskKind.CLASSIFICATION, 1.0), ("g", TaskKind.GENERATION, 0.0)]
        )
        assert r.cls_mean == 1.0
        assert r.gen_mean == 0.0
        assert r.overall == pytest.approx(0.5)

    def test_report_dict_shape(self):
        r = aggregate([("t1", TaskKind.GENERATION, 0.5)])
        d = r.to_dict()
        assert set(d) == {"overall", "cls", "gen", "per_task", "n_instances"}
        assert d["n_instances"] == {"t1": 1}


class TestHeuristicPredict:
    def test_generation_copies_input(self):
        task = make_task(kind=TaskKind.GENERATION, label_list=None, inputs=["hello", "b", "c"])
        assert heuristic_predict(task, task.instances[0], seed=0) == "hello"

    def test_classification_deterministic(self):
        task = make_task()
        inst = task.instances[0]
        assert heuristic_predict(task, inst, seed=5) == heuristic_predict(task, inst, seed=5)

    def test_singleton_label_space(self):
        task = make_task(label_list=("Yes",))
        assert heuristic_predict(task, task.instances[0], seed=99) == "Yes"

    def test_roughly_uniform(self):
        task = make_task()
        inst = task.instances[0]
        hits = sum(
            heuristic_predict(task, inst, seed=s) == "Yes" for s in range(2000)
        )
        assert 0.45 <= hits / 2000 <= 0.55
