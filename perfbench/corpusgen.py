"""Seeded synthetic corpora for the defkit benchmark.

Every input a workload hands to the CLI is built here from one seed: task
files, one bracketed parse per task (lines align with the sorted task
files), annotation records and score rows. The same seed gives
byte-identical files, and nothing is downloaded.

Words are pseudo-words built from syllables, so a token occurs in a
definition only where the generator put it. Trees are small constituency
trees; a definition is the detokenized text of its tree's leaves.

Two random streams feed each corpus. The shape stream decides structure:
tree shapes, lengths, and which definition positions a reference uses. It
is the same for every seed. The word stream picks every word and is seeded
with the seed. Different seeds therefore give different texts of the same
size and shape, and the work a workload does hardly moves with the seed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

SYLLABLES = (
    "ba be bi bo bu da de di do du fa fe fi fo fu ga ge gi go gu ka ke ki ko ku "
    "la le li lo lu ma me mi mo mu na ne ni no nu pa pe pi po pu ra re ri ro ru "
    "sa se si so su ta te ti to tu va ve vi vo vu za ze zi zo zu"
).split()
DETS = ("the", "a", "each", "every", "this")
PREPS = ("of", "in", "for", "with", "from", "about", "on")


@dataclass
class Vocab:
    nouns: list[str]
    verbs: list[str]
    adjs: list[str]
    advs: list[str]
    labels: list[str]
    noise: list[str]


def make_vocab(rng: random.Random) -> Vocab:
    pools = (1200, 400, 400, 100, 200, 400)
    words: list[str] = []
    seen: set[str] = set()
    while len(words) < sum(pools):
        word = "".join(rng.choice(SYLLABLES) for _ in range(rng.choice((2, 3, 3))))
        if word not in seen:
            seen.add(word)
            words.append(word)
    out, at = [], 0
    for n in pools:
        out.append(words[at : at + n])
        at += n
    return Vocab(*out)


class Draw:
    """The shape stream (`shape`, `chance`, `among`) and the word stream
    (`word`, `words`) of one corpus."""

    def __init__(self, corpus: str, seed: int):
        self.shape = random.Random(f"{corpus}:shape")
        self.lexicon = random.Random(f"{corpus}:{seed}")
        self.v = make_vocab(self.lexicon)

    def chance(self, p: float) -> bool:
        return self.shape.random() < p

    def among(self, options):
        return self.shape.choice(options)

    def word(self, pool: str) -> str:
        return self.lexicon.choice(getattr(self.v, pool))

    def words(self, pool: str, n: int) -> list[str]:
        return self.lexicon.sample(getattr(self.v, pool), n)


# A node is (label, token) for a preterminal or (label, [children]).


def leaves(node) -> list[str]:
    label, rest = node
    if isinstance(rest, str):
        return [rest]
    return [tok for child in rest for tok in leaves(child)]


def bracketed(node) -> str:
    label, rest = node
    if isinstance(rest, str):
        return f"({label} {rest})"
    return f"({label} " + " ".join(bracketed(child) for child in rest) + ")"


def render_text(tokens: list[str]) -> str:
    """Space-joined tokens with '.' and ',' glued to the word before them."""
    out: list[str] = []
    for tok in tokens:
        if tok in (".", ",") and out:
            out[-1] += tok
        else:
            out.append(tok)
    return " ".join(out)


def noun_phrase(d: Draw, depth: int):
    kids = [("DT", d.among(DETS))]
    kids += [("JJ", d.word("adjs")) for _ in range(d.among((0, 1, 1, 2)))]
    kids.append(("NN", d.word("nouns")))
    np = ("NP", kids)
    if depth < 3 and d.chance(0.4):
        return ("NP", [np, prep_phrase(d, depth + 1)])
    return np


def prep_phrase(d: Draw, depth: int):
    return ("PP", [("IN", d.among(PREPS)), noun_phrase(d, depth)])


def verb_phrase(d: Draw, depth: int):
    kids = []
    if d.chance(0.3):
        kids.append(("ADVP", [("RB", d.word("advs"))]))
    kids += [("VBZ", d.word("verbs")), noun_phrase(d, depth + 1)]
    if depth < 3 and d.chance(0.5):
        kids.append(prep_phrase(d, depth + 1))
    if depth < 2 and d.chance(0.3):
        kids.append(("SBAR", [("IN", "that"), clause(d, depth + 1)]))
    return ("VP", kids)


def clause(d: Draw, depth: int):
    return ("S", [noun_phrase(d, depth + 1), verb_phrase(d, depth + 1)])


def sentences(d: Draw, n_tokens: int) -> list:
    """Sentences of at least `n_tokens` tokens in all."""
    out, count = [], 0
    while count < n_tokens:
        label, kids = clause(d, 0)
        out.append((label, kids + [(".", ".")]))
        count += len(leaves(out[-1]))
    return out


def label_sentence(labels: list[str]):
    items = [("NN", labels[0])]
    for label in labels[1:-1]:
        items += [(",", ","), ("NN", label)]
    items += [("CC", "and"), ("NN", labels[-1])]
    return (
        "S",
        [
            ("NP", [("DT", "the"), ("NNS", "labels")]),
            ("VP", [("VBP", "are"), ("NP", items)]),
            (".", "."),
        ],
    )


def words_of(nodes) -> list[str]:
    return [tok for node in nodes for tok in leaves(node) if tok.isalnum()]


def noise(d: Draw, n: int) -> str:
    return " ".join(d.word("noise") for _ in range(n))


def task_record(d: Draw, task_id, tree, kind, instances, labels=None) -> dict:
    record = {
        "id": task_id,
        "name": task_id,
        "definition": render_text(leaves(tree)),
        "category": "Synthetic",
        "domains": ["Synthetic"],
        "reasoning_types": ["Deductive"],
        "kind": kind,
        "demonstrations": [{"input": noise(d, 6), "output": noise(d, 3)} for _ in range(2)],
        "instances": instances,
    }
    if labels is not None:
        record["label_list"] = labels
    return record


@dataclass
class Corpus:
    """Files written for one workload plus what the checks need to know."""

    tasks_dir: Path
    parses: Path
    task_ids: list[str]
    annotations: Path | None = None
    score_files: tuple[Path, ...] = ()
    expected: dict | None = None


def _write_tasks(out: Path, records: list[dict], trees: list) -> Corpus:
    tasks_dir = out / "tasks"
    tasks_dir.mkdir(parents=True)
    for record in records:
        (tasks_dir / f"{record['id']}.json").write_text(
            json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8"
        )
    parses = out / "parses.txt"
    parses.write_text("".join(bracketed(t) + "\n" for t in trees), encoding="utf-8")
    return Corpus(tasks_dir, parses, [r["id"] for r in records])


def compress_corpus(
    out: Path, seed: int, *, n_tasks: int, n_tokens: int, n_instances: int, ref_tokens: int = 25
) -> Corpus:
    """Tasks for `defkit compress --backend keyword`.

    Every third task is a classification task whose gold label is one of
    three label words listed in the definition. The others are generation
    tasks whose references are ordered samples of `ref_tokens` words from
    the first half of the definition, so removing the second half keeps
    the score and removing most of the first half does not.
    """
    d = Draw(f"compress-{n_tokens}", seed)
    records, trees = [], []
    for t in range(n_tasks):
        task_id = f"task{t:03d}"
        if t % 3 == 0:
            labels = d.words("labels", 3)
            body = sentences(d, n_tokens - 9)
            body.insert(len(body) // 2, label_sentence(labels))
            instances = [
                {"id": f"i{i}", "input": noise(d, 8), "references": [labels[d.among((0, 1, 2))]]}
                for i in range(n_instances)
            ]
            kind = "classification"
        else:
            labels = None
            body = sentences(d, n_tokens)
            core = words_of(body[: (len(body) + 1) // 2])
            instances = []
            for i in range(n_instances):
                picks = sorted(d.shape.sample(range(len(core)), min(len(core), ref_tokens)))
                ref = " ".join(core[j] for j in picks)
                instances.append({"id": f"i{i}", "input": noise(d, 8), "references": [ref]})
            kind = "generation"
        tree = ("S", body)
        records.append(task_record(d, task_id, tree, kind, instances, labels))
        trees.append(tree)
    return _write_tasks(out, records, trees)


def remote_corpus(out: Path, seed: int, *, n_tasks: int, n_tokens: int, n_instances: int) -> Corpus:
    """Generation tasks for the remote backend and the model stand-in.

    Each instance input mixes three definition words with four noise words;
    its reference is the definition words of the input, in order. The
    stand-in keeps the input words that still occur in the definition, so
    the full definition scores 1.0 and removing a word some input uses
    lowers the score.
    """
    d = Draw(f"remote-{n_tokens}", seed)
    records, trees = [], []
    skip = set(DETS) | set(PREPS) | {"that"}
    for t in range(n_tasks):
        task_id = f"task{t:03d}"
        body = sentences(d, n_tokens)
        content = [w for w in words_of(body) if w not in skip]
        instances = []
        for i in range(n_instances):
            picked = [content[j] for j in d.shape.sample(range(len(content)), 3)]
            slots = sorted(d.shape.sample(range(7), 3))
            words = [d.word("noise") for _ in range(4)]
            for slot, word in zip(slots, picked):
                words.insert(slot, word)
            ref = " ".join(w for w in words if w in picked)
            instances.append({"id": f"i{i}", "input": " ".join(words), "references": [ref]})
        tree = ("S", body)
        records.append(task_record(d, task_id, tree, "generation", instances))
        trees.append(tree)
    return _write_tasks(out, records, trees)


# Sentence builders for the annotated classification corpus. Each returns a
# tree; its category is the annotation span over the whole sentence.


def _np(*pairs):
    return ("NP", list(pairs))


def _input_sentence(d: Draw):
    given = ("VP", [
        ("VBN", "given"),
        _np(("DT", "a"), ("JJ", d.word("adjs")), ("NN", d.word("nouns"))),
        ("PP", [("IN", "about"), _np(("NN", d.word("nouns")))]),
    ])
    return ("S", [_np(("PRP", "You")), ("VP", [("VBP", "are"), given]), (".", ".")])


def _action_sentence(d: Draw):
    """'Classify the X into one of the labels.'; 'the X' is the input mention."""
    labels = ("PP", [("IN", "of"), _np(("DT", "the"), ("NNS", "labels"))])
    into = ("PP", [("IN", "into"), ("NP", [("CD", "one"), labels])])
    verb = ("VP", [("VB", "Classify"), _np(("DT", "the"), ("NN", d.word("nouns"))), into])
    return ("S", [verb, (".", ".")])


def _label_def_sentence(d: Draw, label: str):
    means = ("VP", [("VBZ", "means"), _np(("DT", "a"), ("JJ", d.word("adjs")), ("NN", d.word("nouns")))])
    return ("S", [_np(("NN", label)), means, (".", ".")])


def _detail_sentence(d: Draw, verb: str):
    may = ("VP", [("MD", "may"), ("VP", [("VB", verb), _np(("JJ", d.word("adjs")), ("NNS", d.word("nouns")))])])
    return ("S", [_np(("DT", "the"), ("NN", d.word("nouns"))), may, (".", ".")])


def _output_sentence(d: Draw):
    label = _np(("DT", "the"), ("JJ", d.word("adjs")), ("NN", "label"))
    return ("S", [("VP", [("VB", "Answer"), ("PP", [("IN", "with"), label])]), (".", ".")])


# Categories each ablation spec removes, restated from defkit.ablation so that
# the expected texts do not come from the code under test.
ABLATION_REMOVES = {
    "input_add": {"additional_input_details"},
    "output_add": {"additional_output_details"},
    "all_add": {"additional_input_details", "additional_output_details"},
    "label_list": {"label_list"},
    "label_desc": {"label_definition"},
    "all_label": {"label_list", "label_definition"},
    "all_output": {"output_content", "additional_output_details", "label_list", "label_definition"},
    "all_input": {"input_content", "additional_input_details"},
}


def variants_corpus(out: Path, seed: int, *, n_tasks: int, n_instances: int = 4) -> Corpus:
    """Annotated classification tasks for ablate, triplet and report.

    Every definition has one sentence per content category (one label
    definition per label), annotated as a whole sentence, plus an input
    mention inside the action sentence. The expected text of every
    ablation, each definition's whitespace token count and the per-task
    mean of every score-row file are recorded for the checks.
    """
    d = Draw("variants", seed)
    records, trees, anns = [], [], []
    expected_ablations: dict[str, dict[str, str]] = {spec: {} for spec in ABLATION_REMOVES}
    tokens: dict[str, int] = {}
    for t in range(n_tasks):
        task_id = f"task{t:04d}"
        labels = d.words("labels", d.among((2, 3)))
        parts = [
            ("input_content", _input_sentence(d)),
            ("additional_input_details", _detail_sentence(d, "contain")),
            ("action_content", _action_sentence(d)),
            ("label_list", label_sentence(labels)),
            *[("label_definition", _label_def_sentence(d, label)) for label in labels],
            ("additional_output_details", _detail_sentence(d, "include")),
            ("output_content", _output_sentence(d)),
        ]
        texts = [render_text(leaves(tree)) for _, tree in parts]
        tokens[task_id] = len(" ".join(texts).split())
        spans, at = [], 0
        for (category, _), text in zip(parts, texts):
            spans.append({"start": at, "end": at + len(text), "category": category})
            if category == "action_content":
                mention = text[len("Classify ") : text.index(" into ")]
                start = at + len("Classify ")
                spans.append({"start": start, "end": start + len(mention), "category": "input_mention"})
            at += len(text) + 1
        for spec, removed in ABLATION_REMOVES.items():
            expected_ablations[spec][task_id] = " ".join(
                text for (category, _), text in zip(parts, texts) if category not in removed
            )
        instances = [
            {"id": f"i{i}", "input": noise(d, 6), "references": [labels[d.among(range(len(labels)))]]}
            for i in range(n_instances)
        ]
        tree = ("S", [tree for _, tree in parts])
        records.append(task_record(d, task_id, tree, "classification", instances, labels))
        trees.append(tree)
        anns.append({"task_id": task_id, "annotator": "gen", "spans": spans})
    corpus = _write_tasks(out, records, trees)
    corpus.annotations = out / "annotations.jsonl"
    corpus.annotations.write_text(
        "".join(json.dumps(a, sort_keys=True) + "\n" for a in anns), encoding="utf-8"
    )
    score_files, means = [], {}
    for condition in ("full", "ablated"):
        path = out / f"{condition}.jsonl"
        rows, per_task = [], {}
        for record in records:
            values = [round(d.lexicon.random(), 6) for _ in range(n_instances)]
            per_task[record["id"]] = sum(values) / len(values)
            rows += [
                json.dumps({"task_id": record["id"], "kind": "classification", "score": v})
                for v in values
            ]
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        score_files.append(path)
        means[path.name] = per_task
    corpus.score_files = tuple(score_files)
    corpus.expected = {"ablations": expected_ablations, "tokens": tokens, "report_means": means}
    return corpus
