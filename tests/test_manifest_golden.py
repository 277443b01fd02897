"""The `manifest.json` that `ablate`, `triplet` and `compress` write, byte
for byte bar the timestamp, against a golden file.

Each command runs on the fox/review fixtures of `test_cli`, from inside the
run's directory with relative paths and a fixed `sys.argv`, so that the
command line and the input digests are the same on every machine.
Regenerate the file, only when manifests are meant to change:

    PYTHONPATH=src python tests/test_manifest_golden.py > tests/data/manifests.golden
"""

import json
import os
import re
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from datetime import datetime, timezone
from io import StringIO
from pathlib import Path

from defkit.cli import main
from defkit.manifest import write_manifest

from test_cli import fox_annotations, fox_corpus, review_corpus

GOLDEN = Path(__file__).parent / "data" / "manifests.golden"

RUNS = [
    [
        "ablate", "--tasks", "tasks", "--annotations", "annotations.jsonl", "--spec", "all",
        "--lenient", "--csv", "--out", "ablated",
    ],
    [
        "triplet", "--tasks", "fox_tasks", "--annotations", "fox_ann.jsonl",
        "--parses", "parses.txt", "--split-outputs", "--out", "triplets",
    ],
    [
        "compress", "--tasks", "fox_tasks", "--parses", "parses.txt", "--backend", "planted",
        "--phrase", "classifies reviews", "--mode", "paper", "--epsilon", "0.25",
        "--fit-n", "2", "--holdout-n", "2", "--seed", "3", "--temperature", "0.5",
        "--max-new-tokens", "7", "--jobs", "1", "--csv", "--out", "compressed",
    ],
]


def manifests() -> str:
    """The golden file's text: per run, its exit code and its manifest
    without the timestamp line."""
    out = []
    cwd, argv = os.getcwd(), sys.argv
    with tempfile.TemporaryDirectory() as tmp:
        try:
            os.chdir(tmp)
            here = Path(".")
            review_corpus(here)
            fox_corpus(here)
            fox_annotations(here)
            for run in RUNS:
                sys.argv = ["defkit", *run]
                with redirect_stdout(StringIO()), redirect_stderr(StringIO()):
                    rc = main(run)
                out.append(f"=== {run[0]}: exit {rc}\n")
                text = (Path(run[-1]) / "manifest.json").read_text(encoding="utf-8")
                out.extend(
                    line for line in text.splitlines(keepends=True)
                    if not line.startswith('  "timestamp": ')
                )
        finally:
            os.chdir(cwd)
            sys.argv = argv
    return "".join(out)


def test_manifests_equal_the_golden_file():
    assert manifests() == GOLDEN.read_text(encoding="utf-8")


def test_timestamp_is_the_utc_second_of_writing(tmp_path):
    """`YYYY-MM-DDTHH:MM:SS+00:00`: the UTC time of writing to the second,
    as `datetime.isoformat(timespec="seconds")` writes it."""
    before = datetime.now(timezone.utc).replace(microsecond=0)
    write_manifest(tmp_path, {}, {}, [])
    after = datetime.now(timezone.utc)
    stamp = json.loads((tmp_path / "manifest.json").read_text(encoding="utf-8"))["timestamp"]
    assert re.fullmatch(r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\d\+00:00", stamp)
    written = datetime.fromisoformat(stamp)
    assert before <= written <= after
    assert written.isoformat(timespec="seconds") == stamp


if __name__ == "__main__":
    sys.stdout.write(manifests())
