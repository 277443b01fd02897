"""End-to-end acceptance gate.

Each test checks one numbered release criterion and always prints a
single pass/fail line, even under pytest's output capture.
"""

import itertools
import json
import random
import sys
import time
from collections import Counter
from pathlib import Path

from defkit.ablation import REMOVED_CATEGORIES, apply_ablation, build_metadata_definition
from defkit.annotations import AnnotationSet, ContentCategory, Span, fleiss_kappa
from defkit.cli import main
from defkit.corpus import TaskKind, split_examples
from defkit.errors import BackendError
from defkit.metrics import compression_ratio, rouge_l
from defkit.parse import parse_bracketed, remove_subtree
from defkit.scorer import (
    GenerationParams,
    KeywordLabelBackend,
    PlantedPhraseBackend,
    RemoteBackend,
    score,
)
from defkit.stdc import StdcConfig, category_retention, compress, replay_removals
from defkit.stubserver import StubServer
from defkit.triplet import build_triplet, meta_tuning_instances, render_triplet

from conftest import FOX_TREE_TEXT, SeededBackend, make_task, subtree_leaves, to_bracketed
from test_triplet import TASK6_TREE, task6, task6_annotation

DATA_DIR = Path(__file__).parent / "data"


def check(num: int, desc: str, ok: bool):
    verdict = "PASS" if ok else "FAIL"
    print(f"criterion {num:02d}: {verdict} - {desc}", file=sys.__stdout__, flush=True)
    assert ok, f"criterion {num} failed: {desc}"


def brute_force_lcs(a, b):
    best = 0
    for r in range(len(a), 0, -1):
        for combo in itertools.combinations(range(len(a)), r):
            sub = [a[i] for i in combo]
            it = iter(b)
            if all(tok in it for tok in sub):
                return r
    return best


def oracle_f1(cand, ref):
    if not cand or not ref:
        return 0.0
    lcs = brute_force_lcs(cand, ref)
    if lcs == 0:
        return 0.0
    p, r = lcs / len(cand), lcs / len(ref)
    return 2 * p * r / (p + r)


def test_criterion_01_rouge_oracle():
    rng = random.Random(11)
    start = time.monotonic()
    ok = True
    for _ in range(1000):
        cand = [rng.choice("abc") for _ in range(rng.randint(0, 8))]
        ref = [rng.choice("abc") for _ in range(rng.randint(0, 8))]
        got = rouge_l(" ".join(cand), [" ".join(ref)])
        if abs(got - oracle_f1(cand, ref)) > 1e-9:
            ok = False
            break
    elapsed = time.monotonic() - start
    check(1, "Rouge-L matches brute-force oracle on 1000 random pairs", ok and elapsed < 10)


def test_criterion_02_rouge_spot_values():
    ok = (
        rouge_l("the cat", ["the cat sat on the mat"]) == 0.5
        and rouge_l("same text", ["same text"]) == 1.0
        and rouge_l("alpha beta", ["gamma delta"]) == 0.0
    )
    check(2, "Rouge-L spot values 0.5 / 1.0 / 0.0", ok)


def random_tree_text(rng):
    phrases = ["S", "NP", "VP", "PP", "ADJP"]
    pre = ["NN", "VB", "JJ", "DT"]
    words = ["cat", "dog", "sat", "runs", "blue", "fast", "tree", "it"]
    budget = rng.randint(1, 40)

    def gen(depth):
        nonlocal budget
        if depth >= 5 or budget <= 1 or (depth > 1 and rng.random() < 0.3):
            budget -= 1
            return f"({rng.choice(pre)} {rng.choice(words)})"
        kids = " ".join(gen(depth + 1) for _ in range(rng.randint(1, 3)))
        return f"({rng.choice(phrases)} {kids})"

    return gen(1)


def test_criterion_03_parse_round_trip():
    rng = random.Random(23)
    ok = True
    for _ in range(500):
        tree = parse_bracketed(random_tree_text(rng))
        again = parse_bracketed(to_bracketed(tree))
        if tree.source_tokens != again.source_tokens:
            ok = False
            break
        total = len(tree.leaves)

        def all_nodes(node):
            yield node
            for child in node.children:
                yield from all_nodes(child)

        for node in all_nodes(tree.root):
            if node.id == tree.root.id:
                continue
            pruned = remove_subtree(tree, node.id)
            if len(pruned.leaves) != total - len(subtree_leaves(node)):
                ok = False
                break
        if not ok:
            break
    check(3, "500 random trees round-trip; subtree removal token accounting exact", ok)


def fox_setup():
    task = make_task(
        task_id="task_fox",
        definition="the quick fox classifies reviews",
        kind=TaskKind.GENERATION,
        label_list=None,
        n_instances=4,
        references=[["one"], ["two"], ["three"], ["four"]],
    )
    fit, _ = split_examples(task, 2, 2, 0)
    return task, parse_bracketed(FOX_TREE_TEXT), fit


def test_criterion_04_stdc_trace():
    start = time.monotonic()
    task, tree, fit = fox_setup()
    result = compress(task, tree, fit, PlantedPhraseBackend("classifies reviews"))
    trace = [(s.label, s.accepted) for s in result.steps]
    ok = (
        result.compressed_definition == "classifies reviews"
        and abs(result.ratio - 0.4) == 0
        and trace
        == [
            ("NP", True),
            ("VP", False),
            ("VBZ", False),
            ("NP", False),
            ("classifies", False),
            ("NNS", False),
            ("reviews", False),
        ]
        and time.monotonic() - start < 1
    )
    check(4, "planted-phrase compression trace matches the hand trace", ok)


def test_criterion_05_stdc_monotonicity():
    rng = random.Random(31)
    ok = True
    for i in range(200):
        words = [f"w{rng.randint(0, 40)}" for _ in range(rng.randint(3, 10))]
        leaves = " ".join(f"(NN {w})" for w in words)
        text = f"(S (NP {leaves}))" if rng.random() < 0.5 else f"(S {leaves})"
        tree = parse_bracketed(text)
        task = make_task(
            task_id=f"mono{i}",
            definition=" ".join(words),
            kind=TaskKind.GENERATION,
            label_list=None,
            n_instances=2,
        )
        fit, _ = split_examples(task, 2, 0, i)
        result = compress(
            task, tree, fit, SeededBackend(i), cfg=StdcConfig(allow_empty_result=True)
        )
        if result.fit_score_after < result.fit_score_before:
            ok = False
            break
        if replay_removals(tree, result.accepted_node_ids()) != result.compressed_definition:
            ok = False
            break
    check(5, "200/200 seeded runs monotone and replayable byte-identically", ok)


def label_corpus_member(i):
    definition = f"You are given a sentence about topic{i}. Answer alpha{i} or beta{i}."
    tree_text = (
        "(S (NP (PRP You)) (VP (VBP are) (VP (VBN given) "
        f"(NP (NP (DT a) (NN sentence)) (PP (IN about) (NP (NN topic{i})))))) (. .)) "
        f"(S (VP (VB Answer) (NP (NN alpha{i}) (CC or) (NN beta{i}))) (. .))"
    )
    labels = (f"alpha{i}", f"beta{i}")
    task = make_task(
        task_id=f"label{i:02d}",
        definition=definition,
        label_list=labels,
        n_instances=4,
        references=[[labels[0]], [labels[1]], [labels[0]], [labels[1]]],
    )
    first_end = definition.index(".") + 1
    label_start = definition.index(f"alpha{i}")
    ann = AnnotationSet(
        task.id,
        (
            Span(0, first_end, ContentCategory.INPUT_CONTENT),
            Span(label_start, len(definition) - 1, ContentCategory.LABEL_LIST),
        ),
        "a1",
    )
    return task, parse_bracketed(tree_text), ann


def test_criterion_06_label_retention_direction():
    label_fracs, input_fracs = [], []
    for i in range(20):
        task, tree, ann = label_corpus_member(i)
        fit, _ = split_examples(task, 4, 0, 0)
        result = compress(task, tree, fit, KeywordLabelBackend())
        retention = category_retention(task, tree, result, ann)
        label_fracs.append(retention["label_list"][2])
        input_fracs.append(retention["input_content"][2])
    gap = sum(label_fracs) / 20 - sum(input_fracs) / 20
    check(6, f"label spans survive compression, input spans do not (gap {gap:.2f})", gap >= 0.3)


def test_criterion_07_template_golden_files(review_task, review_annotation):
    cls_task = make_task(
        category="Textual Entailment",
        reasoning_types=("Deductive",),
        domains=("News",),
        label_list=("Yes", "No"),
    )
    gen_task = make_task(kind=TaskKind.GENERATION, label_list=None)
    metadata_lines = [build_metadata_definition(cls_task), build_metadata_definition(gen_task)]
    golden_meta = (DATA_DIR / "metadata_definitions.golden").read_text().splitlines()

    review_tree = parse_bracketed(
        "(S (NP (PRP You)) (VP (VBP are) (VP (VBN given) (NP (DT a) (NN review)))) (. .)) "
        "(S (VP (VB Classify) (NP (PRP it))) (. .)) "
        "(S (NP (DT The) (NNS labels)) (VP (VBP are) "
        "(ADJP (JJ positive) (CC and) (JJ negative))) (. .))"
    )
    triplet_lines = [
        render_triplet(build_triplet(task6(), task6_annotation(), parse_bracketed(TASK6_TREE))),
        render_triplet(build_triplet(review_task, review_annotation, review_tree)),
    ]
    golden_trip = (DATA_DIR / "triplet_renderings.golden").read_text().splitlines()
    check(
        7,
        "metadata and triplet templates byte-equal their golden files",
        metadata_lines == golden_meta and triplet_lines == golden_trip,
    )


def test_criterion_08_meta_tuning_counts():
    instances = []
    target_ok = False
    for i in range(5):
        task = make_task(task_id=f"meta{i}", definition=task6().definition,
                         kind=TaskKind.GENERATION, label_list=None)
        ann = AnnotationSet(task.id, task6_annotation().spans, "a1")
        trip = build_triplet(task, ann, parse_bracketed(TASK6_TREE))
        batch = meta_tuning_instances(task, trip)
        instances.extend(batch)
        if batch[0]["target"] == "a statement":
            target_ok = True
    counts = Counter(row["tag"] for row in instances)
    ok = (
        len(instances) == 15
        and counts == {"<Task input>": 5, "<Task action>": 5, "<Task output>": 5}
        and target_ok
    )
    check(8, "5 tasks yield 15 balanced meta-tuning instances; input target exact", ok)


def chars_are_subsequence(sub, full):
    it = iter(full)
    return all(c in it for c in sub)


def test_criterion_09_ablation_soundness():
    rng = random.Random(47)
    categories = list(ContentCategory)
    specs = list(REMOVED_CATEGORIES)
    ok = True
    for case in range(1000):
        n = rng.randint(4, 20)
        words = [f"w{rng.randint(0, 50)}" for _ in range(n)]
        definition = " ".join(words)
        # non-overlapping spans on token boundaries
        spans = []
        pos = 0
        starts = []
        for w in words:
            starts.append(pos)
            pos += len(w) + 1
        i = 0
        while i < n:
            width = rng.randint(1, 3)
            j = min(n, i + width)
            if rng.random() < 0.7:
                start = starts[i]
                end = starts[j - 1] + len(words[j - 1])
                cat = rng.choice(categories)
                if cat is not ContentCategory.INPUT_MENTION:
                    spans.append(Span(start, end, cat))
            i = j
        task = make_task(task_id=f"fuzz{case}", definition=definition)
        ann = AnnotationSet(task.id, tuple(spans), "a1")
        removed_categories = REMOVED_CATEGORIES[rng.choice(specs)]
        text = apply_ablation(task, ann, removed_categories)
        if not chars_are_subsequence(text.replace(" ", ""), definition.replace(" ", "")):
            ok = False
            break
        removed = {
            idx
            for span in spans
            if span.category in removed_categories
            for idx, start in enumerate(starts)
            if span.start <= start < span.end
        }
        expected_kept = n - len(removed)
        if len(definition.split()) != n or len(text.split()) != expected_kept:
            ok = False
            break
        if abs(compression_ratio(definition, text) - expected_kept / n) > 1e-12:
            ok = False
            break
    check(9, "1000 fuzzed ablations are pure span deletions with exact ratios", ok)


def test_criterion_10_fleiss_kappa():
    derived = fleiss_kappa([[3, 0], [1, 2]])
    perfect = fleiss_kappa([[4, 0], [0, 4], [4, 0]])
    check(
        10,
        "Fleiss kappa 0.25 on the split case, 1.0 on perfect agreement",
        abs(derived - 0.25) < 1e-12 and perfect == 1.0,
    )


def test_criterion_11_compress_determinism(tmp_path):
    from test_cli import fox_corpus

    tasks_dir, parses = fox_corpus(tmp_path)
    out_dir = tmp_path / "out"
    cache = tmp_path / "cache.jsonl"
    args = [
        "compress",
        "--tasks", str(tasks_dir),
        "--parses", str(parses),
        "--backend", "planted",
        "--phrase", "classifies reviews",
        "--fit-n", "2",
        "--holdout-n", "2",
        "--out", str(out_dir),
        "--cache", str(cache),
        "--jobs", "1",
    ]
    rc1 = main(args)
    first = (out_dir / "task_fox.json").read_bytes()
    rc2 = main(args + ["--force"])
    second = (out_dir / "task_fox.json").read_bytes()
    manifest = json.loads((out_dir / "manifest.json").read_text())
    ok = (
        rc1 == 0
        and rc2 == 0
        and first == second
        and manifest["extra"]["backend_calls"] == 0
    )
    check(11, "second cached compress run is byte-identical with zero backend calls", ok)


def test_criterion_12_remote_wire_conformance():
    inputs = [f"probe sentence {i}" for i in range(50)]
    task = make_task(
        task_id="task_wire",
        kind=TaskKind.GENERATION,
        label_list=None,
        n_instances=50,
        inputs=inputs,
        references=[[inp] for inp in inputs],
    )
    fit, _ = split_examples(task, 50, 0, 0)
    with StubServer() as server:
        backend = RemoteBackend(server.url, GenerationParams())
        record = score(task.definition, task, fit, backend)
    aligned = record.per_instance == (1.0,) * 50

    misaligned_raised = False
    with StubServer(mode="misaligned") as server:
        backend = RemoteBackend(server.url, GenerationParams())
        try:
            score(task.definition, task, fit, backend)
        except BackendError:
            misaligned_raised = True
    check(
        12,
        "50-instance stub run positionally aligned; misaligned response raises",
        aligned and misaligned_raised,
    )
