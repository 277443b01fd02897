"""Tests of the benchmark's own parts: corpus generator, stand-in, tracer
accounting and the metric lists in BENCHMARK.json.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
from pathlib import Path

import pytest

from defkit.annotations import load_annotations, validate_annotation
from defkit.corpus import load_task_dir
from defkit.metrics import normalize
from defkit.parse import parse_bracketed, render

import corpusgen
import layers
import run
from standin import generation
from tracer import _covered
from workloads import WORKLOADS

SMALL = {
    "compress": lambda out, seed: corpusgen.compress_corpus(
        out, seed, n_tasks=3, n_tokens=60, n_instances=6
    ),
    "remote": lambda out, seed: corpusgen.remote_corpus(
        out, seed, n_tasks=2, n_tokens=40, n_instances=6
    ),
    "variants": lambda out, seed: corpusgen.variants_corpus(out, seed, n_tasks=20),
}


def files_of(directory: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(directory)): p.read_bytes()
        for p in sorted(directory.rglob("*"))
        if p.is_file()
    }


@pytest.mark.parametrize("kind", sorted(SMALL))
def test_same_seed_gives_identical_files(tmp_path, kind):
    SMALL[kind](tmp_path / "a", 7)
    SMALL[kind](tmp_path / "b", 7)
    SMALL[kind](tmp_path / "c", 8)
    a, b, c = (files_of(tmp_path / x) for x in "abc")
    assert a == b
    assert a.keys() == c.keys() and a != c


@pytest.mark.parametrize("kind", sorted(SMALL))
def test_trees_render_token_equal_to_definitions(tmp_path, kind):
    corpus = SMALL[kind](tmp_path, 3)
    tasks = load_task_dir(corpus.tasks_dir)
    lines = corpus.parses.read_text().splitlines()
    assert len(lines) == len(tasks)
    for task, line in zip(tasks, lines):
        assert normalize(render(parse_bracketed(line))) == normalize(task.definition)


def test_annotations_validate(tmp_path):
    corpus = SMALL["variants"](tmp_path, 5)
    tasks = {t.id: t for t in load_task_dir(corpus.tasks_dir)}
    anns = load_annotations(corpus.annotations)
    assert [a.task_id for a in anns] == sorted(tasks)
    for ann in anns:
        report = validate_annotation(tasks[ann.task_id], ann)
        assert report.ok, report.problems


def test_remote_references_are_what_the_stand_in_generates_for_the_full_definition(tmp_path):
    corpus = SMALL["remote"](tmp_path, 2)
    from defkit.corpus import assemble_prompt

    for task in load_task_dir(corpus.tasks_dir):
        for inst in task.instances:
            prompt = assemble_prompt(task, task.definition, inst)
            assert generation(prompt) == inst.references[0]
            shorter = assemble_prompt(task, "nothing here", inst)
            assert generation(shorter) == ""


def test_covered_length_of_overlapping_children():
    assert _covered([], 0.0, 10.0) == 0.0
    assert _covered([(1.0, 3.0), (2.0, 5.0), (7.0, 8.0)], 0.0, 10.0) == 5.0
    assert _covered([(-1.0, 2.0), (9.0, 12.0)], 0.0, 10.0) == 3.0


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.UNITS


def test_layer_metrics_cover_every_per_layer_name():
    empty = layers.merge([])
    names = set(layers.layer_metrics(empty, None, 0)) | {"trace.overhead_s"}
    assert names == set(layers.UNITS)
