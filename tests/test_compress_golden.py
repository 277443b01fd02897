"""`compress` outputs and score caches, byte for byte, against a golden file.

Each run compresses one task with one backend, mode and epsilon through the
CLI, into a fresh output directory and a fresh cache. The golden file holds
every result JSON exactly as `compress` writes it and every line the run
appends to its cache, so a change to the search, the candidate texts or the
cache keys shows here. Regenerate it, only when outputs are meant to change:

    PYTHONPATH=src python tests/test_compress_golden.py > tests/data/compress_traces.golden
"""

import itertools
import sys
import tempfile
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

from defkit.cli import main
from defkit.corpus import TaskKind

from conftest import FOX_TREE_TEXT, REVIEW_DEFINITION, make_task, write_task_file

GOLDEN = Path(__file__).parent / "data" / "compress_traces.golden"

# (task id, definition, its parse, the references of six instances, planted phrase)
TASKS = [
    (
        "task_fox",
        "the quick fox classifies reviews",
        FOX_TREE_TEXT,
        ["fox", "reviews", "quick fox", "classifies", "the cat", "quick"],
        "classifies reviews",
    ),
    (
        "task_review",
        REVIEW_DEFINITION,
        "(S (NP (PRP You)) (VP (VBP are) (VP (VBN given) (NP (DT a) (NN review)))) (. .)) "
        "(S (VP (VB Classify) (NP (PRP it))) (. .)) "
        "(S (NP (DT The) (NNS labels)) (VP (VBP are) "
        "(ADJP (JJ positive) (CC and) (JJ negative))) (. .))",
        ["positive", "negative", "negative", "positive", "review", "neutral"],
        "positive negative",
    ),
    (
        "task_contraction",
        "it doesn't stop, so don't wait.",
        "(S (NP (PRP it)) (VP (VBZ does) (RB n't)) (VP (VB stop)) (, ,) "
        "(SBAR (IN so) (S (VP (VBP do) (RB n't) (VP (VB wait))))) (. .))",
        ["stop", "it does", "wait", "so", "n t", "go"],
        "stop wait",
    ),
    (
        "task_brackets",
        "the price ($5) is the writer's, however; pay it!",
        "(S (NP (DT the) (NN price)) (PRN (-LRB- -LRB-) (NP ($ $) (CD 5)) (-RRB- -RRB-)) "
        "(VP (VBZ is) (NP (NP (DT the) (NN writer) (POS 's)))) (, ,) (ADVP (RB however)) "
        "(: ;) (S (VP (VB pay) (NP (PRP it)))) (. !))",
        ["5", "price", "writer s", "pay it", "however", "free"],
        "price 5",
    ),
    (
        "task_quotes",
        'rate it from "1 star" to "5 stars" [inclusive].',
        "(S (VP (VB rate) (NP (PRP it)) (PP (IN from) (NP (`` \") (CD 1) (NN star) ('' \"))) "
        "(PP (TO to) (NP (`` \") (CD 5) (NNS stars) ('' \"))) "
        "(PRN (-LSB- -LSB-) (JJ inclusive) (-RSB- -RSB-))) (. .))",
        ["1 star", "5 stars", "inclusive", "stars", "rate", "0 stars"],
        "star stars",
    ),
]

# Half of the 2 x 2 x 2 settings, in which every two of backend, mode and
# epsilon still take all four pairs of values
RUNS = [
    (backend, mode, epsilon)
    for (b, backend), (m, mode), (e, epsilon) in itertools.product(
        enumerate(("keyword", "planted")), enumerate(("current", "paper")), enumerate(("0", "0.25"))
    )
    if b ^ m == e
]


def traces() -> str:
    """The golden file's text: per run, its result JSON and its cache lines."""
    out = []
    with tempfile.TemporaryDirectory() as tmp:
        for task_id, definition, tree, references, phrase in TASKS:
            tasks_dir = Path(tmp) / task_id / "tasks"
            tasks_dir.mkdir(parents=True)
            task = make_task(
                task_id=task_id, definition=definition, kind=TaskKind.GENERATION,
                label_list=None, n_instances=6, references=[[r] for r in references],
            )
            write_task_file(tasks_dir / f"{task_id}.json", task)
            parses = Path(tmp) / task_id / "parses.txt"
            parses.write_text(tree + "\n", encoding="utf-8")
            for backend, mode, epsilon in RUNS:
                run = f"{task_id} {backend} {mode} {epsilon}"
                run_dir = Path(tmp) / run.replace(" ", "_")
                cache = run_dir / "cache.jsonl"
                argv = [
                    "compress", "--tasks", str(tasks_dir), "--parses", str(parses),
                    "--backend", backend, "--phrase", phrase, "--mode", mode,
                    "--epsilon", epsilon, "--fit-n", "4", "--holdout-n", "2", "--seed", "3",
                    "--jobs", "1", "--allow-empty", "--cache", str(cache),
                    "--out", str(run_dir / "out"),
                ]
                with redirect_stdout(StringIO()):
                    rc = main(argv)
                out.append(f"=== {run}: exit {rc}\n")
                out.append(f"--- {task_id}.json\n")
                out.append((run_dir / "out" / f"{task_id}.json").read_text(encoding="utf-8"))
                out.append("--- cache\n")
                out.append(cache.read_text(encoding="utf-8"))
    return "".join(out)


def test_compress_outputs_and_caches_equal_the_golden_file():
    assert traces() == GOLDEN.read_text(encoding="utf-8")


if __name__ == "__main__":
    sys.stdout.write(traces())
