"""The row files that `ablate --spec all`, `triplet` and `triplet
--split-outputs` write, byte for byte, against a golden file.

Each command runs on the fixtures of `test_manifest_golden`, from inside the
run's directory with relative paths, so a change to the ablated texts, the
ratios, the triplet entries or the meta-tuning instances shows here.
Regenerate the file, only when these rows are meant to change:

    PYTHONPATH=src python tests/test_variants_golden.py > tests/data/variants.golden
"""

import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

from defkit.cli import main

from test_cli import fox_annotations, fox_corpus, review_corpus

GOLDEN = Path(__file__).parent / "data" / "variants.golden"

RUNS = [
    [
        "ablate", "--tasks", "tasks", "--annotations", "annotations.jsonl", "--spec", "all",
        "--lenient", "--out", "ablated",
    ],
    [
        "triplet", "--tasks", "fox_tasks", "--annotations", "fox_ann.jsonl",
        "--parses", "parses.txt", "--out", "triplets",
    ],
    [
        "triplet", "--tasks", "fox_tasks", "--annotations", "fox_ann.jsonl",
        "--parses", "parses.txt", "--split-outputs", "--out", "split_triplets",
    ],
]


def rows() -> str:
    """The golden file's text: per run, its exit code and each row file it
    wrote, by name."""
    out = []
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        try:
            os.chdir(tmp)
            here = Path(".")
            review_corpus(here)
            fox_corpus(here)
            fox_annotations(here)
            for run in RUNS:
                with redirect_stdout(StringIO()), redirect_stderr(StringIO()):
                    rc = main(run)
                out.append(f"=== {' '.join(run)}: exit {rc}\n")
                for path in sorted(Path(run[-1]).glob("*.jsonl")):
                    out.append(f"--- {path.name}\n")
                    out.append(path.read_text(encoding="utf-8"))
        finally:
            os.chdir(cwd)
    return "".join(out)


def test_rows_equal_the_golden_file():
    assert rows() == GOLDEN.read_text(encoding="utf-8")


if __name__ == "__main__":
    sys.stdout.write(rows())
