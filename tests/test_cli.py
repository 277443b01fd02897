import inspect
import io
import json
import os
import shutil
import subprocess
import sys
import threading
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import defkit
from defkit import annotations, cli
from defkit.annotations import (
    AnnotationSet,
    ContentCategory,
    Span,
    validate_annotation,
)
from defkit.cli import build_parser, main
from defkit import metrics, parse, scorer, stdc
from defkit.corpus import TaskKind, load_task_file, split_examples
from defkit.parse import parse_bracketed
from defkit.scorer import GenerationParams, PlantedPhraseBackend
from defkit.stdc import compress
from defkit.stubserver import StubServer

from conftest import (
    FOX_TREE_TEXT,
    REVIEW_DEFINITION,
    annotation_to_dict,
    fields,
    make_task,
    replace,
    task_to_dict,
    write_task_file,
)


def write_annotations(path, anns):
    path.write_text(
        "".join(json.dumps(annotation_to_dict(a)) + "\n" for a in anns), encoding="utf-8"
    )
    return path


def review_corpus(tmp_path):
    tasks_dir = tmp_path / "tasks"
    tasks_dir.mkdir()
    review = make_task(
        task_id="task_review",
        definition=REVIEW_DEFINITION,
        label_list=("positive", "negative"),
    )
    fox = make_task(
        task_id="task_fox",
        definition="the quick fox classifies reviews",
        kind=TaskKind.GENERATION,
        label_list=None,
        n_instances=4,
        references=[["review summary one"], ["two"], ["three"], ["four"]],
    )
    write_task_file(tasks_dir / "task_fox.json", fox)
    write_task_file(tasks_dir / "task_review.json", review)
    anns = [
        AnnotationSet(
            "task_review",
            (
                Span(0, 23, ContentCategory.INPUT_CONTENT),
                Span(24, 36, ContentCategory.ACTION_CONTENT),
                Span(37, 74, ContentCategory.LABEL_LIST),
            ),
            "a1",
        ),
        AnnotationSet(
            "task_fox",
            (
                Span(0, 13, ContentCategory.INPUT_CONTENT),
                Span(14, 32, ContentCategory.ACTION_CONTENT),
            ),
            "a1",
        ),
    ]
    ann_file = write_annotations(tmp_path / "annotations.jsonl", anns)
    return tasks_dir, ann_file


def fox_corpus(tmp_path):
    tasks_dir = tmp_path / "fox_tasks"
    tasks_dir.mkdir()
    fox = make_task(
        task_id="task_fox",
        definition="the quick fox classifies reviews",
        kind=TaskKind.GENERATION,
        label_list=None,
        n_instances=4,
        references=[["summary one"], ["summary two"], ["three"], ["four"]],
    )
    write_task_file(tasks_dir / "task_fox.json", fox)
    parses = tmp_path / "parses.txt"
    parses.write_text(FOX_TREE_TEXT + "\n", encoding="utf-8")
    return tasks_dir, parses


def fox_annotations(tmp_path):
    ann = AnnotationSet(
        "task_fox",
        (
            Span(0, 13, ContentCategory.INPUT_CONTENT),
            Span(14, 32, ContentCategory.ACTION_CONTENT),
        ),
        "a1",
    )
    return write_annotations(tmp_path / "fox_ann.jsonl", [ann])


# The specs of `--spec all` that find no span to remove in a fixture task:
# task_fox has only input and action spans.
_ADDS = ["input_add", "output_add", "all_add"]
NO_SPANS = {
    "task_fox": [*_ADDS, "label_list", "label_desc", "all_label", "all_output"],
    "task_review": [*_ADDS, "label_desc"],
}


def no_spans_warnings(task_id):
    """The stderr lines `ablate --spec all` prints for a fixture task."""
    return [
        f"WARNING defkit.cli: task {task_id}: no {spec} spans to remove; ratio 1.0"
        for spec in NO_SPANS[task_id]
    ]


class TestAblateCommand:
    def test_all_specs(self, tmp_path, capsys):
        tasks_dir, ann_file = review_corpus(tmp_path)
        out_dir = tmp_path / "out"
        rc = main(
            [
                "ablate",
                "--tasks", str(tasks_dir),
                "--annotations", str(ann_file),
                "--spec", "all",
                "--out", str(out_dir),
            ]
        )
        assert rc == 0
        jsonl = sorted(p.name for p in out_dir.glob("*.jsonl"))
        assert len(jsonl) == 8 and "label_list.jsonl" in jsonl
        assert (out_dir / "manifest.json").exists()
        rows = [
            json.loads(line)
            for line in (out_dir / "label_list.jsonl").read_text().splitlines()
        ]
        by_task = {r["task_id"]: r for r in rows}
        assert by_task["task_review"]["text"] == "You are given a review. Classify it."
        assert by_task["task_review"]["ratio"] == pytest.approx(7 / 13)
        out = capsys.readouterr().out
        assert "label_list" in out and "%C" in out

    def test_usage_error_is_64(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["ablate", "--tasks", str(tmp_path)])
        assert exc.value.code == 64
        with pytest.raises(SystemExit) as exc:
            main(
                [
                    "ablate",
                    "--tasks", str(tmp_path),
                    "--annotations", "x",
                    "--spec", "bogus",
                    "--out", str(tmp_path / "o"),
                ]
            )
        assert exc.value.code == 64

    def test_spec_choices_are_all_and_every_ablation(self):
        from defkit.ablation import REMOVED_CATEGORIES

        assert list(cli.ABLATE_SPECS) == ["all", *REMOVED_CATEGORIES]

    def test_missing_annotation_exit2(self, tmp_path, capsys):
        tasks_dir, _ = review_corpus(tmp_path)
        partial = write_annotations(
            tmp_path / "partial.jsonl",
            [
                AnnotationSet(
                    "task_review", (Span(0, 23, ContentCategory.INPUT_CONTENT),), "a1"
                )
            ],
        )
        rc = main(
            [
                "ablate",
                "--tasks", str(tasks_dir),
                "--annotations", str(partial),
                "--spec", "all_input",
                "--out", str(tmp_path / "out"),
            ]
        )
        assert rc == 2
        assert "task_fox" in capsys.readouterr().err

    def test_refuses_overwrite_without_force(self, tmp_path, capsys):
        tasks_dir, ann_file = review_corpus(tmp_path)
        args = [
            "ablate",
            "--tasks", str(tasks_dir),
            "--annotations", str(ann_file),
            "--spec", "label_list",
            "--out", str(tmp_path / "out"),
        ]
        assert main(args) == 0
        assert main(args) == 1
        assert "--force" in capsys.readouterr().err
        assert main(args + ["--force"]) == 0

    def test_validates_each_annotation_once(self, tmp_path, monkeypatch):
        """Not once per spec: the eight specs share one check per task."""
        tasks_dir, ann_file = review_corpus(tmp_path)
        checked = []

        def validate(task, ann):
            checked.append(task.id)
            return validate_annotation(task, ann)

        monkeypatch.setattr(annotations, "validate_annotation", validate)  # imported per call
        rc = main(
            [
                "ablate",
                "--tasks", str(tasks_dir),
                "--annotations", str(ann_file),
                "--spec", "all",
                "--out", str(tmp_path / "out"),
            ]
        )
        assert rc == 0
        assert checked == ["task_fox", "task_review"]

    def test_missing_tasks_dir_exit1(self, tmp_path):
        rc = main(
            [
                "ablate",
                "--tasks", str(tmp_path / "nope"),
                "--annotations", str(tmp_path / "nope.jsonl"),
                "--spec", "all",
                "--out", str(tmp_path / "out"),
            ]
        )
        assert rc == 1

    def test_no_spans_warnings_come_task_by_task(self, tmp_path, capsys):
        """Every spec file is written in one pass over the tasks, so a task's
        warnings for all its specs come before the next task's."""
        tasks_dir, ann_file = review_corpus(tmp_path)
        assert main([
            "ablate", "--tasks", str(tasks_dir), "--annotations", str(ann_file),
            "--spec", "all", "--out", str(tmp_path / "out"),
        ]) == 0
        assert capsys.readouterr().err.splitlines() == [
            *no_spans_warnings("task_fox"), *no_spans_warnings("task_review")
        ]


@pytest.mark.parametrize("command", ["ablate", "triplet"])
def test_failure_lines_follow_task_file_order(tmp_path, capsys, command):
    """Not the order of the task ids: `b.json` holds task_a and `a.json`
    task_z, and task_z's line comes first, as in compress."""
    tasks_dir, parses = fox_corpus(tmp_path)
    fox = load_task_file(tasks_dir / "task_fox.json")
    for name, task_id in [("a", "task_z"), ("b", "task_a")]:
        write_task_file(tasks_dir / f"{name}.json", replace(fox, id=task_id))
    parses.write_text((FOX_TREE_TEXT + "\n") * 3, encoding="utf-8")
    args = {"ablate": ["--spec", "all"], "triplet": ["--parses", str(parses)]}[command]
    assert main([
        command, "--tasks", str(tasks_dir), "--annotations", str(fox_annotations(tmp_path)),
        "--out", str(tmp_path / "out"), *args,
    ]) == 2
    assert capsys.readouterr().err.splitlines() == [
        *(no_spans_warnings("task_fox") if command == "ablate" else []),
        "validation failure: task_z: no annotation record",
        "validation failure: task_a: no annotation record",
    ]


@pytest.mark.parametrize("command", ["ablate", "compress"])
def test_csv_refuses_to_replace_a_summary_without_force(tmp_path, capsys, command):
    """An `OUT/summary.csv` from an earlier run is an output like the
    others: `--csv` replaces it only with `--force`."""
    _, commands = pipeline(tmp_path)
    summary = tmp_path / "out" / "summary.csv"
    summary.parent.mkdir()
    summary.write_text("earlier\n")
    assert main([*commands[command], "--csv"]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        f"error: refusing to overwrite {summary} (and possibly others); pass --force"
    ]
    assert captured.out == ""
    assert summary.read_text() == "earlier\n"
    assert main([*commands[command], "--csv", "--force"]) == 0
    assert summary.read_text() != "earlier\n"


class TestCompressCommand:
    def run_compress(self, tasks_dir, parses, out_dir, extra=()):
        return main(
            [
                "compress",
                "--tasks", str(tasks_dir),
                "--parses", str(parses),
                "--backend", "planted",
                "--phrase", "classifies reviews",
                "--fit-n", "2",
                "--holdout-n", "2",
                "--out", str(out_dir),
                "--jobs", "1",
                *extra,
            ]
        )

    def test_end_to_end(self, tmp_path, capsys):
        tasks_dir, parses = fox_corpus(tmp_path)
        out_dir = tmp_path / "out"
        assert self.run_compress(tasks_dir, parses, out_dir) == 0
        payload = json.loads((out_dir / "task_fox.json").read_text())
        assert payload["compression"]["compressed_definition"] == "classifies reviews"
        assert payload["compression"]["ratio"] == pytest.approx(0.4)
        assert "holdout" in payload
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["extra"]["backend_id"].startswith("planted:")
        out = capsys.readouterr().out
        assert "MEAN" in out and "task_fox" in out

    @staticmethod
    def two_tasks(tmp_path):
        tasks_dir, parses = fox_corpus(tmp_path)
        fox = load_task_file(tasks_dir / "task_fox.json")
        write_task_file(tasks_dir / "task_fox2.json", replace(fox, id="task_fox2"))
        parses.write_text((FOX_TREE_TEXT + "\n") * 2, encoding="utf-8")
        return tasks_dir, parses

    def test_results_are_the_same_at_any_jobs(self, tmp_path):
        """Two tasks at `--jobs 1` and `--jobs 2`, each with a fresh cache:
        the same result files, summary, manifest bar its timestamp and
        command line, and cache file. An in-process backend's tasks run one
        after another at any `--jobs`, so even the order of the cache's
        lines is fixed."""
        tasks_dir, parses = self.two_tasks(tmp_path)

        def run(jobs):
            out, cache = tmp_path / f"jobs{jobs}", tmp_path / f"jobs{jobs}.jsonl"
            assert main([
                "compress", "--tasks", str(tasks_dir), "--parses", str(parses),
                "--backend", "keyword", "--fit-n", "2", "--holdout-n", "2", "--allow-empty",
                "--csv", "--cache", str(cache), "--jobs", str(jobs), "--out", str(out),
            ]) == 0
            files = {p.name: p.read_bytes() for p in out.iterdir() if p.name != "manifest.json"}
            manifest = json.loads((out / "manifest.json").read_text())
            del manifest["timestamp"], manifest["command_line"]
            return files, manifest, cache.read_bytes()

        files, manifest, cache_bytes = run(1)
        assert sorted(files) == ["summary.csv", "task_fox.json", "task_fox2.json"]
        assert cache_bytes.count(b"\n") > 2
        assert run(2) == (files, manifest, cache_bytes)

    def test_in_process_backend_runs_every_task_in_the_calling_thread(self, tmp_path, monkeypatch):
        tasks_dir, parses = self.two_tasks(tmp_path)
        threads = []
        generate = scorer.KeywordLabelBackend.generate

        def recording(backend, ctx):
            threads.append(threading.current_thread())
            return generate(backend, ctx)

        monkeypatch.setattr(scorer.KeywordLabelBackend, "generate", recording)
        assert main([
            "compress", "--tasks", str(tasks_dir), "--parses", str(parses), "--backend", "keyword",
            "--fit-n", "2", "--holdout-n", "2", "--allow-empty", "--jobs", "2",
            "--out", str(tmp_path / "out"),
        ]) == 0
        assert threads and set(threads) == {threading.main_thread()}

    def test_remote_tasks_run_at_once_under_jobs(self, tmp_path, monkeypatch):
        """Under `--jobs 2` both remote tasks are in their search at the same
        time: each waits for the other at its start, which a run of one task
        after another would never get past."""
        tasks_dir, parses = self.two_tasks(tmp_path)
        both_started = threading.Barrier(2, timeout=30)
        threads = set()
        compress_task = stdc.compress

        def meeting(*args, **kwargs):
            threads.add(threading.current_thread())
            both_started.wait()
            return compress_task(*args, **kwargs)

        monkeypatch.setattr(stdc, "compress", meeting)
        with StubServer() as server:
            assert main([
                "compress", "--tasks", str(tasks_dir), "--parses", str(parses),
                "--backend", "remote", "--endpoint-url", server.url,
                "--fit-n", "2", "--holdout-n", "2", "--allow-empty", "--jobs", "2",
                "--out", str(tmp_path / "out"),
            ]) == 0
        assert len(threads) == 2 and threading.main_thread() not in threads

    def test_cached_rerun_skips_backend(self, tmp_path):
        tasks_dir, parses = fox_corpus(tmp_path)
        out_dir = tmp_path / "out"
        cache = tmp_path / "cache.jsonl"
        assert self.run_compress(tasks_dir, parses, out_dir, ["--cache", str(cache)]) == 0
        first = (out_dir / "task_fox.json").read_bytes()
        assert (
            self.run_compress(
                tasks_dir, parses, out_dir, ["--cache", str(cache), "--force"]
            )
            == 0
        )
        assert (out_dir / "task_fox.json").read_bytes() == first
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["extra"]["backend_calls"] == 0
        assert manifest["extra"]["cache_hits"] > 0

    def test_holdout_n_0_measures_no_holdout(self, tmp_path, capsys):
        tasks_dir, parses = fox_corpus(tmp_path)
        out_dir = tmp_path / "out"
        assert self.run_compress(tasks_dir, parses, out_dir, ["--holdout-n", "0"]) == 0
        payload = json.loads((out_dir / "task_fox.json").read_text())
        assert payload["holdout"] is None
        assert payload["compression"]["compressed_definition"] == "classifies reviews"
        rows = {line.split()[0]: line.split()[1:] for line in capsys.readouterr().out.splitlines()}
        assert rows["task_fox"] == ["0.40", "-", "-", "-"]
        assert rows["MEAN"] == ["0.40", "-", "-", "-"]
        # the backend calls are those of the search over the fit set alone
        task = load_task_file(tasks_dir / "task_fox.json")
        fit, _ = split_examples(task, 2, 0, 0)
        backend = PlantedPhraseBackend("classifies reviews")
        compress(task, parse_bracketed(FOX_TREE_TEXT), fit, backend)
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["extra"]["backend_calls"] == backend.calls

    def test_holdout_n_0_posts_no_empty_request(self, tmp_path):
        tasks_dir, parses = fox_corpus(tmp_path)
        with StubServer() as server:
            rc = self.run_compress(
                tasks_dir, parses, tmp_path / "out",
                ["--backend", "remote", "--endpoint-url", server.url, "--holdout-n", "0",
                 "--allow-empty"],
            )
            served = list(server.requests)
        assert rc == 0
        assert served and all(len(request["body"]["prompts"]) == 2 for request in served)

    def test_rouge_l_memo_never_changes_outputs(self, tmp_path):
        tasks_dir, parses = fox_corpus(tmp_path)

        def run(name):
            out_dir, cache = tmp_path / name, tmp_path / f"{name}.jsonl"
            assert self.run_compress(tasks_dir, parses, out_dir, ["--cache", str(cache)]) == 0
            return (out_dir / "task_fox.json").read_bytes(), cache.read_bytes()

        metrics._rouge_l.cache_clear()
        cold = run("cold")
        misses = metrics._rouge_l.cache_info().misses
        warm = run("warm")
        assert metrics._rouge_l.cache_info().misses == misses  # every pair was a hit
        assert warm == cold

    def test_backend_error_exit3_after_the_manifest(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(time, "sleep", lambda s: None)
        tasks_dir, parses = fox_corpus(tmp_path)
        out_dir = tmp_path / "out"
        with StubServer(mode="error") as server:
            rc = self.run_compress(
                tasks_dir, parses, out_dir,
                ["--backend", "remote", "--endpoint-url", server.url],
            )
        assert rc == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("backend error: ")
        assert (out_dir / "manifest.json").exists()
        assert not (out_dir / "task_fox.json").exists()

    def test_failure_lines_name_the_task_once(self, tmp_path, capsys):
        """Each failed task prints `validation failure: TASK: ...`, as ablate
        and triplet do, although its error names the task too."""
        tasks_dir, parses = fox_corpus(tmp_path)
        other = make_task(
            task_id="task_other", definition="sort the words", kind=TaskKind.GENERATION,
            label_list=None, n_instances=4,
        )
        write_task_file(tasks_dir / "task_other.json", other)
        parses.write_text(
            FOX_TREE_TEXT + "\n(S (VP (VB sort) (NP (DT the) (NNS words))))\n", encoding="utf-8"
        )
        rc = self.run_compress(
            tasks_dir, parses, tmp_path / "big", ["--fit-n", "100", "--holdout-n", "1"]
        )
        assert rc == 2
        assert capsys.readouterr().err.splitlines() == [
            "validation failure: task_fox: need 100+1 instances, have 4",
            "validation failure: task_other: need 100+1 instances, have 4",
        ]
        # the planted phrase is not in task_other's definition: every removal
        # keeps its score of 0, so the search empties it
        assert self.run_compress(tasks_dir, parses, tmp_path / "emptied") == 2
        assert capsys.readouterr().err.splitlines() == [
            "validation failure: task_other: compression emptied the definition"
        ]
        assert (tmp_path / "emptied" / "task_fox.json").exists()
        assert not (tmp_path / "emptied" / "task_other.json").exists()

    def test_parse_line_mismatch_exit2(self, tmp_path, capsys):
        tasks_dir, parses = fox_corpus(tmp_path)
        parses.write_text(FOX_TREE_TEXT + "\n(S (NN extra))\n", encoding="utf-8")
        rc = self.run_compress(tasks_dir, parses, tmp_path / "out")
        assert rc == 2
        assert "align by index" in capsys.readouterr().err

    @pytest.mark.parametrize("task_id", ["../escape", "a/b", "a\\b", "", ".", "..", "manifest"])
    def test_task_id_that_is_no_file_name_exit2(self, tmp_path, capsys, task_id):
        tasks_dir, parses = fox_corpus(tmp_path)
        path = tasks_dir / "task_fox.json"
        write_task_file(path, replace(load_task_file(path), id=task_id))
        out_dir = tmp_path / "sub" / "out"
        assert self.run_compress(tasks_dir, parses, out_dir) == 2
        if task_id == "manifest":  # a plain file name, but compress writes manifest.json
            expected = f"error: {path}: task id 'manifest' would overwrite the run's manifest.json"
        else:
            expected = f"error: {path}: task id {task_id!r} is not a plain file name"
        assert capsys.readouterr().err.splitlines() == [expected]
        assert not out_dir.exists()
        assert list(tmp_path.rglob("escape*")) == []

    def test_repeated_task_id_exit2_naming_both_files(self, tmp_path, capsys):
        tasks_dir, parses = fox_corpus(tmp_path)
        first = tasks_dir / "task_fox.json"
        second = write_task_file(tasks_dir / "task_fox_copy.json", load_task_file(first))
        parses.write_text((FOX_TREE_TEXT + "\n") * 2, encoding="utf-8")
        out_dir = tmp_path / "out"
        assert self.run_compress(tasks_dir, parses, out_dir) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            f"error: {second}: task id 'task_fox' is also the id in {first}"
        ]
        assert captured.out == ""
        assert not out_dir.exists()


class TestReportCommand:
    def write_scores(self, path, per_task):
        with path.open("w") as fh:
            for task_id, kind, values in per_task:
                for value in values:
                    fh.write(
                        json.dumps({"task_id": task_id, "kind": kind, "score": value}) + "\n"
                    )
        return path

    def test_two_conditions_with_delta(self, tmp_path, capsys):
        a = self.write_scores(
            tmp_path / "full.jsonl",
            [("t1", "classification", [1.0, 0.0]), ("t2", "generation", [0.5])],
        )
        b = self.write_scores(
            tmp_path / "ablated.jsonl",
            [("t1", "classification", [0.5, 0.5]), ("t2", "generation", [0.25])],
        )
        rc = main(["report", str(a), str(b), "--verbose"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "full.jsonl" in out and "ablated.jsonl" in out
        assert "delta" in out
        assert "-0.2500" in out  # t2 drop
        assert "micro mean" in out

    def test_report_refuses_overwrite_without_force(self, tmp_path, capsys):
        """An existing --out file, or the --csv summary, stays as it was
        unless --force is given."""
        a = self.write_scores(tmp_path / "a.jsonl", [("t1", "generation", [0.5, 1.0])])
        report_path = tmp_path / "report.json"
        summary = tmp_path / "a.summary.csv"
        for existing, flags in ((report_path, ["--out", str(report_path)]), (summary, ["--csv"])):
            existing.write_text("keep me")
            assert main(["report", str(a), *flags]) == 1
            assert "--force" in capsys.readouterr().err
            assert existing.read_text() == "keep me"
            assert main(["report", str(a), *flags, "--force"]) == 0
            assert existing.read_text() != "keep me"
        assert json.loads(report_path.read_text())["overall"] == pytest.approx(0.75)

    def test_report_out_file(self, tmp_path):
        a = self.write_scores(tmp_path / "a.jsonl", [("t1", "generation", [0.5, 1.0])])
        report_path = tmp_path / "report.json"
        assert main(["report", str(a), "--out", str(report_path)]) == 0
        data = json.loads(report_path.read_text())
        assert data["overall"] == pytest.approx(0.75)
        assert data["per_task"]["t1"] == pytest.approx(0.75)

    def test_seen_unseen_grouping(self, tmp_path, capsys):
        train_dir = tmp_path / "train"
        test_dir = tmp_path / "test"
        train_dir.mkdir()
        test_dir.mkdir()
        write_task_file(
            train_dir / "tr.json",
            make_task(task_id="tr", label_list=("positive", "negative")),
        )
        write_task_file(
            test_dir / "t_seen.json",
            make_task(task_id="t_seen", label_list=("Positive", "NEGATIVE")),
        )
        write_task_file(
            test_dir / "t_unseen.json",
            make_task(task_id="t_unseen", label_list=("yes", "no")),
        )
        scores = self.write_scores(
            tmp_path / "s.jsonl",
            [
                ("t_seen", "classification", [0.8]),
                ("t_unseen", "classification", [0.2]),
            ],
        )
        rc = main(
            [
                "report", str(scores),
                "--train-tasks", str(train_dir),
                "--test-tasks", str(test_dir),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        seen_line = next(ln for ln in out.splitlines() if ln.startswith("seen"))
        unseen_line = next(ln for ln in out.splitlines() if ln.startswith("unseen"))
        assert "0.8000" in seen_line
        assert "0.2000" in unseen_line

    def test_empty_scores_exit2(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["report", str(empty)]) == 2
        assert "no score rows" in capsys.readouterr().err

    @pytest.mark.parametrize("directory", [".", "/"])
    @pytest.mark.parametrize("flags", [[], ["--csv"]])
    def test_a_directory_for_scores_exit1_with_or_without_csv(
        self, tmp_path, capsys, monkeypatch, directory, flags
    ):
        """A directory has no name to put `.summary.csv` on; it fails as
        the unreadable file it is, not with a traceback."""
        monkeypatch.chdir(tmp_path)
        assert main(["report", directory, *flags]) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [f"error: [Errno 21] Is a directory: '{directory}'"]
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["ablate", "triplet"])
def test_second_annotation_record_of_a_task_is_dropped_with_a_warning(
    tmp_path, capsys, command
):
    tasks_dir, parses = fox_corpus(tmp_path)
    first = AnnotationSet(
        "task_fox",
        (Span(0, 13, ContentCategory.INPUT_CONTENT), Span(14, 32, ContentCategory.ACTION_CONTENT)),
        "a1",
    )
    second = AnnotationSet("task_fox", (Span(14, 32, ContentCategory.ACTION_CONTENT),), "a2")

    def outputs(anns, name):
        """The files the command writes, bar the manifest, which names its
        inputs; and the lines it prints to stderr."""
        ann_file = write_annotations(tmp_path / f"{name}.jsonl", anns)
        out = tmp_path / name
        args = {"ablate": ["--spec", "all"], "triplet": ["--parses", str(parses)]}[command]
        assert main([
            command, "--tasks", str(tasks_dir), "--annotations", str(ann_file),
            "--out", str(out), *args,
        ]) == 0
        files = {p.name: p.read_bytes() for p in out.iterdir() if p.name != "manifest.json"}
        return files, capsys.readouterr().err.splitlines()

    expected, one_record = outputs([first], "one")
    assert one_record == (no_spans_warnings("task_fox") if command == "ablate" else [])
    assert outputs([first, second], "two") == (
        expected,
        ["WARNING defkit.cli: task task_fox: 2 annotation records; using annotator a1's", *one_record],
    )


def run_cli(args, as_module=False, stdout=subprocess.PIPE, env=None):
    """The CLI in a fresh interpreter, as the `defkit` console script runs it
    (`cli` is imported as `defkit.cli`), or else as `python -m defkit.cli`;
    `env` is added to the environment."""
    src = Path(defkit.__file__).resolve().parents[1]
    if as_module:
        launch = ["-m", "defkit.cli"]
    else:
        launch = ["-c", "import sys; from defkit.cli import main; sys.exit(main())"]
    return subprocess.run(
        [sys.executable, *launch, *args],
        stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": str(src), **(env or {})},
    )


def _exit_runs(tmp_path):
    """argv of ablate, compress --cache, triplet, report --out and score
    --cache on the pipeline files, and every path each one writes."""
    _, commands = pipeline(tmp_path)
    out, cache, report = tmp_path / "out", tmp_path / "cache.jsonl", tmp_path / "report.json"
    return {
        "ablate": (commands["ablate"], [out]),
        "compress": ([*commands["compress"], "--cache", str(cache)], [out, cache]),
        "triplet": (commands["triplet"], [out]),
        "report": ([*commands["report"], "--out", str(report)], [report]),
        "score": ([*commands["score"], "--cache", str(cache)], [cache]),
    }


def _written(paths):
    """Each file under `paths` by its path, a manifest without its timestamp
    and command line; the files are removed."""
    files = {}
    for path in paths:
        for file in sorted(path.rglob("*")) if path.is_dir() else [path]:
            data = file.read_bytes()
            if file.name == "manifest.json":
                data = json.loads(data)
                del data["timestamp"], data["command_line"]
            files[str(file)] = data
        if path.is_dir():
            shutil.rmtree(path)
        else:
            path.unlink()
    return files


@pytest.mark.parametrize("command", ["ablate", "compress", "triplet", "report", "score"])
def test_the_console_script_loses_nothing_at_exit(tmp_path, capsys, command):
    """The console-script path ends its process without the interpreter's
    teardown; with stdout buffered, as Python buffers a pipe by default, it
    gives the exit code, stdout, stderr and files of `main(argv)`."""
    argv, paths = _exit_runs(tmp_path)[command]
    proc = run_cli(argv, env={"PYTHONUNBUFFERED": ""})
    script = proc.returncode, proc.stdout, proc.stderr, _written(paths)
    code = main(argv)
    captured = capsys.readouterr()
    assert script == (code, captured.out, captured.err, _written(paths))
    assert code == 0 and captured.out


@pytest.mark.parametrize("buffered", [True, False])
@pytest.mark.parametrize("command", ["ablate", "compress", "triplet", "report"])
def test_a_closed_stdout_ends_with_exit_1_and_one_line(tmp_path, capsys, command, buffered):
    """stdout a pipe whose read end is closed: the command writes every file,
    the manifest included, as a run with an open stdout does; then it exits
    1 with one `error:` line after that run's stderr, whether Python
    buffers stdout or not."""
    argv, paths = _exit_runs(tmp_path)[command]
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = run_cli(argv, stdout=write_end, env={"PYTHONUNBUFFERED": "" if buffered else "1"})
    finally:
        os.close(write_end)
    written = _written(paths)
    assert main(argv) == 0
    assert (proc.returncode, proc.stderr, written) == (
        1, capsys.readouterr().err + "error: [Errno 32] Broken pipe\n", _written(paths)
    )


def _warning_run(tmp_path, case):
    """The argv of a CLI run that warns, and every line of the stderr it prints."""
    fox_tasks, parses = fox_corpus(tmp_path)
    out = str(tmp_path / "out")
    if case in ("two-records-ablate", "two-records-triplet"):
        command = case.removeprefix("two-records-")
        second = AnnotationSet("task_fox", (Span(14, 32, ContentCategory.ACTION_CONTENT),), "a2")
        anns = [*annotations.load_annotations(fox_annotations(tmp_path)), second]
        ann_file = write_annotations(tmp_path / "two.jsonl", anns)
        args = {"ablate": ["--spec", "all_input"], "triplet": ["--parses", str(parses)]}
        argv = [
            command, "--tasks", str(fox_tasks), "--annotations", str(ann_file), "--out", out,
            *args[command],
        ]
        return argv, ["WARNING defkit.cli: task task_fox: 2 annotation records; using annotator a1's"]
    if case == "no-spans-ablate":
        tasks_dir, ann_file = review_corpus(tmp_path)
        argv = [
            "ablate", "--tasks", str(tasks_dir), "--annotations", str(ann_file), "--spec", "all",
            "--out", out,
        ]
        return argv, [*no_spans_warnings("task_fox"), *no_spans_warnings("task_review")]
    if case in ("lenient-score", "lenient-report"):
        task_file = fox_tasks / "task_fox.json"
        task_file.write_text(_with_task_fields(note="x", source="y")(task_file.read_text()))
        if case == "lenient-score":
            argv = ["score", "--task", str(task_file), "--lenient", "--backend", "keyword"]
        else:
            review_tasks, _ = review_corpus(tmp_path)
            scores = tmp_path / "scores.jsonl"
            scores.write_text(
                json.dumps({"task_id": "task_review", "kind": "classification", "score": 1.0})
                + "\n"
            )
            argv = [
                "report", str(scores), "--train-tasks", str(fox_tasks),
                "--test-tasks", str(review_tasks),
            ]
        return argv, [f"WARNING defkit.corpus: {task_file}: ignoring unknown keys ['note', 'source']"]
    assert case == "corrupt-cache-compress"
    cache = tmp_path / "cache.jsonl"
    cache.write_text("not json\n")
    argv = [
        "compress", "--tasks", str(fox_tasks), "--parses", str(parses), "--backend", "keyword",
        "--fit-n", "2", "--holdout-n", "2", "--allow-empty", "--jobs", "1", "--cache", str(cache),
        "--out", out,
    ]
    return argv, [f"WARNING defkit.scorer: {cache}:1: skipping corrupted cache line"]


@pytest.mark.parametrize(
    "case",
    [
        "two-records-ablate", "two-records-triplet", "no-spans-ablate", "lenient-score",
        "lenient-report", "corrupt-cache-compress", "two-records-ablate-as-module",
    ],
)
def test_warnings_through_the_cli(tmp_path, case):
    """The whole stderr of a warning run in a fresh interpreter: each warning
    is one line `WARNING defkit.MODULE: message`, also when the CLI runs as
    `python -m defkit.cli`."""
    argv, expected = _warning_run(tmp_path, case.removesuffix("-as-module"))
    proc = run_cli(argv, as_module=case.endswith("-as-module"))
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines() == expected


class TestTripletCommand:
    def test_writes_triplets_and_meta(self, tmp_path):
        tasks_dir = tmp_path / "tasks"
        tasks_dir.mkdir()
        definition = "Given a statement, generate a question such that the answer is contained in that statement."
        task = make_task(
            task_id="task_qgen",
            definition=definition,
            kind=TaskKind.GENERATION,
            label_list=None,
        )
        write_task_file(tasks_dir / "task_qgen.json", task)
        split = definition.index(",") + 1
        write_annotations(
            tmp_path / "ann.jsonl",
            [
                AnnotationSet(
                    "task_qgen",
                    (
                        Span(0, split, ContentCategory.INPUT_CONTENT),
                        Span(split + 1, len(definition), ContentCategory.ACTION_CONTENT),
                    ),
                    "a1",
                )
            ],
        )
        (tmp_path / "parses.txt").write_text(
            "(S (PP (VBN Given) (NP (DT a) (NN statement))) (, ,) "
            "(VP (VB generate) (NP (NP (DT a) (NN question)) "
            "(SBAR (JJ such) (IN that) (S (NP (DT the) (NN answer)) "
            "(VP (VBZ is) (VP (VBN contained) (PP (IN in) (NP (DT that) (NN statement))))))))) (. .))\n"
        )
        out_dir = tmp_path / "out"
        rc = main(
            [
                "triplet",
                "--tasks", str(tasks_dir),
                "--annotations", str(tmp_path / "ann.jsonl"),
                "--parses", str(tmp_path / "parses.txt"),
                "--out", str(out_dir),
            ]
        )
        assert rc == 0
        triplets = [
            json.loads(line)
            for line in (out_dir / "triplets.jsonl").read_text().splitlines()
        ]
        assert triplets == [
            {
                "task_id": "task_qgen",
                "input": ["a statement"],
                "action": [
                    "generate a question such that the answer is contained in that statement"
                ],
                "output": ["a question"],
                "needs_review": False,
            }
        ]
        meta = [
            json.loads(line)
            for line in (out_dir / "meta_tuning.jsonl").read_text().splitlines()
        ]
        assert [m["tag"] for m in meta] == ["<Task input>", "<Task action>", "<Task output>"]
        assert all(m["source"].startswith("Generate segments") for m in meta)
        assert (out_dir / "manifest.json").exists()

    def test_invalid_annotation_fails_as_in_ablate(self, tmp_path, capsys):
        """An annotation span past the end of the definition is a validation
        failure in triplet, with ablate's line, and yields no triplet."""
        files, commands = pipeline(tmp_path)
        record = json.loads(files["annotations"].read_text(encoding="utf-8"))
        record["spans"][1]["end"] = 40  # the definition has 32 characters
        files["annotations"].write_text(json.dumps(record) + "\n", encoding="utf-8")
        line = "validation failure: task_fox: span 1: out of bounds [14,40) over length 32"
        assert main(commands["ablate"]) == 2
        assert capsys.readouterr().err.splitlines() == [line]
        assert main([*commands["triplet"], "--force"]) == 2
        assert capsys.readouterr().err.splitlines() == [line]
        assert (tmp_path / "out" / "triplets.jsonl").read_text() == ""

    def test_missing_span_names_the_task_once(self, tmp_path, capsys):
        files, commands = pipeline(tmp_path)
        record = json.loads(files["annotations"].read_text(encoding="utf-8"))
        del record["spans"][0]  # the input_content span
        files["annotations"].write_text(json.dumps(record) + "\n", encoding="utf-8")
        assert main(commands["triplet"]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "validation failure: task_fox: no input_content span annotated"
        ]


class TestDeepTrees:
    """A 10,000-level tree goes through the CLI like any other."""

    tree = "(X " * 10_000 + FOX_TREE_TEXT + ")" * 10_000

    def test_compress(self, tmp_path):
        tasks_dir, parses = fox_corpus(tmp_path)
        parses.write_text(self.tree + "\n", encoding="utf-8")
        out_dir = tmp_path / "out"
        proc = run_cli(
            [
                "compress",
                "--tasks", str(tasks_dir),
                "--parses", str(parses),
                "--backend", "planted",
                "--phrase", "classifies reviews",
                "--fit-n", "2",
                "--holdout-n", "2",
                "--out", str(out_dir),
                "--jobs", "1",
            ]
        )
        assert "Traceback" not in proc.stderr
        assert proc.returncode == 0, proc.stderr
        payload = json.loads((out_dir / "task_fox.json").read_text())
        assert payload["compression"]["compressed_definition"] == "classifies reviews"

    def test_triplet(self, tmp_path):
        tasks_dir, parses = fox_corpus(tmp_path)
        parses.write_text(self.tree + "\n", encoding="utf-8")
        ann_file = fox_annotations(tmp_path)
        out_dir = tmp_path / "out"
        proc = run_cli(
            [
                "triplet",
                "--tasks", str(tasks_dir),
                "--annotations", str(ann_file),
                "--parses", str(parses),
                "--out", str(out_dir),
            ]
        )
        assert "Traceback" not in proc.stderr
        assert proc.returncode == 0, proc.stderr
        triplet = json.loads((out_dir / "triplets.jsonl").read_text())
        assert triplet["input"] == ["the quick fox"]
        assert triplet["action"] == ["classifies reviews"]
        assert triplet["output"] == ["reviews"]


class TestScoreCommand:
    def test_score_prints_the_record(self, tmp_path, capsys):
        task = make_task(task_id="task_one")
        path = write_task_file(tmp_path / "task_one.json", task)
        rc = main(["score", "--task", str(path), "--backend", "planted", "--phrase", "classify"])
        assert rc == 0
        record = json.loads(capsys.readouterr().out)
        assert record["definition"] == "Classify the text."
        assert record["mean_score"] == 1.0
        assert record["per_instance"] == [1.0] * 3

    def test_definition_override(self, tmp_path, capsys):
        task = make_task(
            task_id="task_gen",
            kind=TaskKind.GENERATION,
            label_list=None,
            references=[["alpha"], ["beta"], ["gamma"]],
        )
        path = write_task_file(tmp_path / "task_gen.json", task)
        rc = main(
            [
                "score",
                "--task", str(path),
                "--definition", "only alpha here",
                "--backend", "planted",
                "--phrase", "alpha",
            ]
        )
        assert rc == 0
        record = json.loads(capsys.readouterr().out)
        assert record["definition"] == "only alpha here"
        assert record["mean_score"] == 1.0

    def test_remote_server_error_exit3(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(time, "sleep", lambda s: None)
        task = make_task(task_id="task_one")
        path = write_task_file(tmp_path / "task_one.json", task)
        with StubServer(mode="error") as server:
            rc = main(
                [
                    "score",
                    "--task", str(path),
                    "--backend", "remote",
                    "--endpoint-url", server.url,
                ]
            )
        assert rc == 3
        assert "backend error" in capsys.readouterr().err


class TestConfigErrors:
    """A bad backend or search setting ends with exit 64 and one line on
    stderr, before any output is written."""

    def assert_usage_error(self, proc, message):
        assert "Traceback" not in proc.stderr
        assert proc.returncode == 64, proc.stderr
        assert proc.stderr.splitlines() == [f"error: {message}"]
        assert proc.stdout == ""

    def test_compress_remote_without_endpoint(self, tmp_path):
        tasks_dir, parses = fox_corpus(tmp_path)
        out_dir = tmp_path / "out"
        proc = run_cli(
            [
                "compress",
                "--tasks", str(tasks_dir),
                "--parses", str(parses),
                "--backend", "remote",
                "--fit-n", "2",
                "--holdout-n", "2",
                "--out", str(out_dir),
            ]
        )
        self.assert_usage_error(proc, "remote backend requires endpoint_url")
        assert not out_dir.exists()

    def test_compress_negative_epsilon(self, tmp_path):
        tasks_dir, parses = fox_corpus(tmp_path)
        out_dir = tmp_path / "out"
        for epsilon in ("-1", "nan", "inf", "1e400"):
            proc = run_cli(
                [
                    "compress",
                    "--tasks", str(tasks_dir),
                    "--parses", str(parses),
                    "--backend", "planted",
                    "--phrase", "classifies reviews",
                    "--fit-n", "2",
                    "--holdout-n", "2",
                    "--out", str(out_dir),
                    "--epsilon", epsilon,
                ]
            )
            self.assert_usage_error(proc, "epsilon must be finite and >= 0")
            assert not out_dir.exists()

    @pytest.mark.parametrize("phrase", [None, "", "!!"])
    def test_compress_planted_without_a_word(self, tmp_path, phrase):
        tasks_dir, parses = fox_corpus(tmp_path)
        out_dir = tmp_path / "out"
        proc = run_cli(
            [
                "compress",
                "--tasks", str(tasks_dir),
                "--parses", str(parses),
                "--backend", "planted",
                *(["--phrase", phrase] if phrase is not None else []),
                "--fit-n", "2",
                "--holdout-n", "2",
                "--out", str(out_dir),
            ]
        )
        self.assert_usage_error(proc, "planted backend requires a phrase with a word")
        assert not out_dir.exists()

    @pytest.mark.parametrize("phrase", [None, "!!"])
    def test_score_planted_without_a_word(self, tmp_path, phrase):
        path = write_task_file(tmp_path / "task_one.json", make_task(task_id="task_one"))
        cache = tmp_path / "cache.jsonl"
        proc = run_cli(
            [
                "score", "--task", str(path), "--backend", "planted", "--cache", str(cache),
                *(["--phrase", phrase] if phrase is not None else []),
            ]
        )
        self.assert_usage_error(proc, "planted backend requires a phrase with a word")
        assert not cache.exists()

    def test_score_remote_without_endpoint(self, tmp_path):
        path = write_task_file(tmp_path / "task_one.json", make_task(task_id="task_one"))
        cache = tmp_path / "cache.jsonl"
        proc = run_cli(
            ["score", "--task", str(path), "--backend", "remote", "--cache", str(cache)]
        )
        self.assert_usage_error(proc, "remote backend requires endpoint_url")
        assert not cache.exists()

    @pytest.mark.parametrize("command", ["compress", "score"])
    @pytest.mark.parametrize(
        "flags, message",
        [
            (
                ["--endpoint-url", url],
                f"endpoint_url must be an http or https URL with a host, got {url!r}",
            )
            for url in [
                "localhost:8000/generate",
                "ftp://x/y",
                "http://",
                "not a url",
                "http://127.0.0.1:1/gen erate",
                "http://127.0.0.1:1/gén",
            ]
        ]
        + [
            (
                ["--endpoint-url", "http://127.0.0.1:1/generate", flag, value],
                f"{name} must be finite, got {value}",
            )
            for flag, name, value in [
                ("--temperature", "temperature", "nan"),
            ]
        ],
    )
    def test_bad_endpoint_or_temperature(self, tmp_path, command, flags, message):
        tasks_dir, parses = fox_corpus(tmp_path)
        out_dir = tmp_path / "out"
        cache = tmp_path / "cache.jsonl"
        args = {
            "compress": [
                "--tasks", str(tasks_dir), "--parses", str(parses),
                "--fit-n", "2", "--holdout-n", "2", "--out", str(out_dir),
            ],
            "score": ["--task", str(tasks_dir / "task_fox.json")],
        }[command]
        proc = run_cli(
            [command, *args, "--backend", "remote", "--cache", str(cache), *flags]
        )
        self.assert_usage_error(proc, message)
        assert not out_dir.exists()
        assert not cache.exists()


class TestBadInputs:
    """Bad input ends with a documented exit code and one line on stderr."""

    def test_score_more_instances_than_the_task_has(self, tmp_path):
        path = write_task_file(tmp_path / "t.json", make_task(task_id="t", n_instances=4))
        proc = run_cli(
            ["score", "--task", str(path), "--backend", "keyword", "--n", "1000"]
        )
        assert "Traceback" not in proc.stderr
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.splitlines() == ["error: task t: need 1000+0 instances, have 4"]
        assert proc.stdout == ""

    @pytest.mark.parametrize("command", ["ablate", "compress", "triplet", "report"])
    def test_missing_task_directory_exit1(self, tmp_path, capsys, command):
        _, ann_file = review_corpus(tmp_path)
        _, parses = fox_corpus(tmp_path)
        scores = tmp_path / "scores.jsonl"
        scores.write_text(json.dumps({"task_id": "t", "kind": "generation", "score": 1.0}) + "\n")
        missing = str(tmp_path / "nonexistent")
        out = str(tmp_path / "out")
        args = {
            "ablate": ["--tasks", missing, "--annotations", str(ann_file), "--spec", "all"],
            "compress": [
                "--tasks", missing, "--parses", str(parses), "--backend", "keyword",
                "--fit-n", "1", "--holdout-n", "1",
            ],
            "triplet": [
                "--tasks", missing, "--annotations", str(ann_file), "--parses", str(parses),
            ],
            "report": [str(scores), "--train-tasks", missing, "--test-tasks", missing],
        }[command]
        if command != "report":
            args += ["--out", out]
        assert main([command, *args]) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [f"error: no task directory at {missing}"]
        assert captured.out == ""

    @pytest.mark.parametrize("jobs", ["0", "-3", "two"])
    def test_jobs_below_one_is_usage_error(self, tmp_path, capsys, jobs):
        tasks_dir, ann_file = review_corpus(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(
                [
                    "ablate",
                    "--tasks", str(tasks_dir),
                    "--annotations", str(ann_file),
                    "--spec", "all",
                    "--out", str(tmp_path / "out"),
                    "--jobs", jobs,
                ]
            )
        assert exc.value.code == 64
        assert f"--jobs: expected an integer >= 1, got '{jobs}'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command, flag, value, least",
        [
            ("compress", "--fit-n", "0", 1),
            ("compress", "--holdout-n", "-1", 0),
            ("compress", "--max-new-tokens", "-5", 1),
            ("score", "--n", "0", 1),
            ("score", "--max-new-tokens", "-5", 1),
        ],
    )
    def test_impossible_size_is_usage_error(self, tmp_path, capsys, command, flag, value, least):
        tasks_dir, parses = fox_corpus(tmp_path)
        cache = tmp_path / "cache.jsonl"
        args = {
            "compress": [
                "--tasks", str(tasks_dir), "--parses", str(parses),
                "--fit-n", "1", "--holdout-n", "1", "--out", str(tmp_path / "out"),
            ],
            "score": ["--task", str(tasks_dir / "task_fox.json")],
        }[command]
        with pytest.raises(SystemExit) as exc:
            main(
                [command, *args, "--backend", "keyword", "--cache", str(cache), flag, value]
            )
        assert exc.value.code == 64
        assert f"{flag}: expected an integer >= {least}, got '{value}'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
        assert not cache.exists()


def pipeline(tmp_path):
    """Valid input files for every subcommand, and the arguments that run each on them."""
    tasks_dir, parses = fox_corpus(tmp_path)
    ann_file = fox_annotations(tmp_path)
    scores = tmp_path / "scores.jsonl"
    scores.write_text(
        json.dumps({"task_id": "task_fox", "kind": "generation", "score": 1.0}) + "\n"
    )
    definition = tmp_path / "definition.txt"
    definition.write_text("the quick fox", encoding="utf-8")
    files = {
        "task": tasks_dir / "task_fox.json",
        "annotations": ann_file,
        "parses": parses,
        "scores": scores,
        "definition": definition,
    }
    tasks, out = str(tasks_dir), str(tmp_path / "out")
    commands = {
        "ablate": [
            "ablate", "--tasks", tasks, "--annotations", str(ann_file), "--spec", "all",
            "--out", out,
        ],
        "compress": [
            "compress", "--tasks", tasks, "--parses", str(parses), "--backend", "planted",
            "--phrase", "classifies reviews", "--fit-n", "2", "--holdout-n", "2", "--jobs", "1",
            "--out", out,
        ],
        "triplet": [
            "triplet", "--tasks", tasks, "--annotations", str(ann_file),
            "--parses", str(parses), "--out", out,
        ],
        "report": ["report", str(scores), "--train-tasks", tasks, "--test-tasks", tasks],
        "score": [
            "score", "--task", str(files["task"]), "--definition-file", str(definition),
            "--backend", "keyword",
        ],
    }
    return files, commands


def _with_task_fields(**fields):
    return lambda text: json.dumps({**json.loads(text), **fields})


def _with_instance_ids(*ids):
    def change(text):
        task = json.loads(text)
        for instance, instance_id in zip(task["instances"], ids):
            instance["id"] = instance_id
        return json.dumps(task)

    return change


def _with_first_demonstration_fields(**fields):
    def change(text):
        task = json.loads(text)
        task["demonstrations"][0].update(fields)
        return json.dumps(task)

    return change


ALL_COMMANDS = ("ablate", "compress", "triplet", "report", "score")

# (case, file, its new content from the old text (None deletes it), exit code,
#  the commands that read the file, what the one stderr line must name)
BAD_INPUTS = [
    ("task-bad-json", "task", lambda _: '{"id": ', 2, ALL_COMMANDS,
     "{task}: not valid UTF-8 JSON"),
    ("task-bad-utf8", "task", lambda text: b"\xff" + text.encode(), 2, ALL_COMMANDS,
     "{task}: not valid UTF-8 JSON"),
    ("task-empty-definition", "task", _with_task_fields(definition="   "), 2, ALL_COMMANDS,
     "{task}: definition: empty after trimming"),
    # report reads its task directories leniently: an unknown key is a warning there
    ("task-unknown-key", "task", _with_task_fields(extra=1), 2,
     ("ablate", "compress", "triplet", "score"), "{task}: unknown keys ['extra']"),
    ("task-top-level-list", "task", lambda _: "[]", 2, ALL_COMMANDS,
     "{task}: top level must be a JSON object"),
    # a string list holds strings only: no number or null turned into a label
    ("task-label-not-a-string", "task",
     _with_task_fields(kind="classification", label_list=["yes", None]), 2, ALL_COMMANDS,
     "{task}: field 'label_list' must hold strings only"),
    ("task-domain-a-number", "task", _with_task_fields(domains=[1]), 2, ALL_COMMANDS,
     "{task}: field 'domains' must hold strings only"),
    ("task-reasoning-type-null", "task", _with_task_fields(reasoning_types=[None]), 2,
     ALL_COMMANDS, "{task}: field 'reasoning_types' must hold strings only"),
    ("task-explanation-a-number", "task", _with_first_demonstration_fields(explanation=5), 2,
     ALL_COMMANDS, "{task}: demonstrations[0]: field 'explanation' must be a string"),
    # a repeated instance id would score one instance in place of the other
    ("task-instance-id-repeated", "task", _with_instance_ids("b", "a", "b"), 2, ALL_COMMANDS,
     "{task}: instances: id 'b' repeated at indices 0 and 2"),
    ("annotation-not-an-object", "annotations", lambda _: '\n"task_id spans annotator"\n', 2,
     ("ablate", "triplet"), "{annotations}:2: record must be a JSON object"),
    ("annotation-spans-a-number", "annotations",
     lambda _: '\n{"task_id": "task_fox", "annotator": "a1", "spans": 5}\n', 2,
     ("ablate", "triplet"), "{annotations}:2: field 'spans' has wrong type, expected list"),
    ("annotation-span-a-string", "annotations",
     lambda _: '\n{"task_id": "task_fox", "annotator": "a1", "spans": ["x"]}\n', 2,
     ("ablate", "triplet"), "{annotations}:2: spans[0] must be an object"),
    # true is an int to Python, but no offset
    ("annotation-span-start-true", "annotations",
     lambda _: '\n{"task_id": "task_fox", "annotator": "a1", "spans": '
               '[{"start": true, "end": 3, "category": "input_content"}]}\n', 2,
     ("ablate", "triplet"), "{annotations}:2: spans[0]: start/end must be integers"),
    # a category missing, unknown or unhashable (a list) is no category
    ("annotation-category-missing", "annotations",
     lambda _: '\n{"task_id": "task_fox", "annotator": "a1", "spans": '
               '[{"start": 0, "end": 3}]}\n', 2,
     ("ablate", "triplet"), "{annotations}:2: spans[0]: bad category"),
    ("annotation-category-unknown", "annotations",
     lambda _: '\n{"task_id": "task_fox", "annotator": "a1", "spans": '
               '[{"start": 0, "end": 3, "category": "input"}]}\n', 2,
     ("ablate", "triplet"), "{annotations}:2: spans[0]: bad category"),
    ("annotation-category-a-list", "annotations",
     lambda _: '\n{"task_id": "task_fox", "annotator": "a1", "spans": '
               '[{"start": 0, "end": 3, "category": ["input_content"]}]}\n', 2,
     ("ablate", "triplet"), "{annotations}:2: spans[0]: bad category"),
    ("parse-unclosed", "parses", lambda _: "\n(S (NN fox)\n", 2, ("compress", "triplet"),
     "{parses}:2: unclosed '(' opened at offset 0"),
    ("parse-file-missing", "parses", lambda _: None, 1, ("compress", "triplet"), "{parses}"),
    # lines align by index to the tasks, so one line too many is no line to skip
    ("parse-line-count", "parses", lambda text: text + text, 2, ("compress", "triplet"),
     "{parses}: 2 parse lines for 1 tasks"),
    ("annotation-file-missing", "annotations", lambda _: None, 1, ("ablate", "triplet"),
     "{annotations}"),
    ("score-row-bad-kind", "scores", lambda _: '{"task_id": "t", "kind": "x", "score": 1}\n', 2,
     ("report",), "{scores}:1: malformed score row"),
    ("score-row-list-task-id", "scores",
     lambda _: '{"task_id": ["t"], "kind": "generation", "score": 1}\n', 2,
     ("report",), "{scores}:1: malformed score row"),
    ("score-row-nan", "scores", lambda _: '{"task_id": "t", "kind": "generation", "score": NaN}\n',
     2, ("report",), "{scores}:1: malformed score row"),
    ("score-row-bool", "scores",
     lambda _: '{"task_id": "t", "kind": "generation", "score": true}\n', 2,
     ("report",), "{scores}:1: malformed score row"),
    ("score-row-string", "scores",
     lambda _: '{"task_id": "t", "kind": "generation", "score": "0.5"}\n', 2,
     ("report",), "{scores}:1: malformed score row"),
    ("score-row-huge-int", "scores",
     lambda _: '{"task_id": "t", "kind": "generation", "score": 1%s}\n' % ("0" * 400), 2,
     ("report",), "{scores}:1: malformed score row"),
    # a task is filed under one kind: a second kind is no later row's to choose
    ("score-row-two-kinds", "scores",
     lambda _: '{"task_id": "t1", "kind": "classification", "score": 1.0}\n'
               '{"task_id": "t1", "kind": "generation", "score": 0.0}\n', 2,
     ("report",), "{scores}:2: task t1 is generation here but classification on line 1"),
    # a byte that is not UTF-8 names the file and the line it is on
    ("annotation-bad-utf8", "annotations", lambda text: ("\n" + text).encode() + b"\xff\n", 2,
     ("ablate", "triplet"), "{annotations}:3: not valid UTF-8"),
    ("parse-bad-utf8", "parses", lambda text: ("\n" + text).encode() + b"\xff\n", 2,
     ("compress", "triplet"), "{parses}:3: not valid UTF-8"),
    ("score-row-bad-utf8", "scores", lambda text: ("\n" + text).encode() + b"\xff\n", 2,
     ("report",), "{scores}:3: not valid UTF-8"),
    ("definition-bad-utf8", "definition", lambda text: b"\xff" + text.encode(), 2, ("score",),
     "{definition}: not valid UTF-8"),
]


class TestErrorTable:
    """Every subcommand ends a bad input with the README's exit code and one
    `error:` line on stderr, before it writes any output."""

    @pytest.mark.parametrize("command", ALL_COMMANDS)
    def test_valid_pipeline(self, tmp_path, command):
        _, commands = pipeline(tmp_path)
        assert main(commands[command]) == 0

    @pytest.mark.parametrize(
        "command, file, content, code, names",
        [
            pytest.param(command, file, content, code, names, id=f"{command}-{case}")
            for case, file, content, code, commands, names in BAD_INPUTS
            for command in commands
        ],
    )
    def test_bad_input(self, tmp_path, capsys, command, file, content, code, names):
        files, commands = pipeline(tmp_path)
        path = files[file]
        new = content(path.read_text(encoding="utf-8"))
        if new is None:
            path.unlink()
        elif isinstance(new, bytes):
            path.write_bytes(new)
        else:
            path.write_text(new, encoding="utf-8")
        assert main(commands[command]) == code
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1, captured.err
        assert lines[0].startswith("error: ")
        assert names.format(**files) in lines[0]
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command, flag",
        [
            ("ablate", "--tasks"), ("ablate", "--annotations"), ("ablate", "--out"),
            ("compress", "--tasks"), ("compress", "--parses"), ("compress", "--out"),
            ("compress", "--cache"),
            ("triplet", "--tasks"), ("triplet", "--annotations"), ("triplet", "--parses"),
            ("triplet", "--out"),
            ("report", "scores"), ("report", "--train-tasks"), ("report", "--test-tasks"),
            ("report", "--out"),
            # not a request for the task's own definition
            ("score", "--task"), ("score", "--definition-file"), ("score", "--cache"),
        ],
    )
    def test_an_empty_path_exit1(self, tmp_path, capsys, monkeypatch, command, flag):
        """An empty path names no file: not the current directory, and not
        "no cache". The run reads and writes nothing."""
        _, commands = pipeline(tmp_path)
        argv = commands[command]
        if flag == "scores":
            argv[1] = ""
        elif flag in argv:
            argv[argv.index(flag) + 1] = ""
        else:
            argv += [flag, ""]
        cwd = tmp_path / "cwd"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [f"error: {flag}: the path is empty"]
        assert captured.out == ""
        assert not (tmp_path / "out").exists()
        assert list(cwd.iterdir()) == []

    @pytest.mark.parametrize("seed", range(4))
    def test_repeated_instance_id_fails_at_every_seed(self, tmp_path, capsys, seed):
        """At load, not only at the seeds whose split draws the id twice."""
        files, commands = pipeline(tmp_path)
        task = files["task"]
        task.write_text(_with_instance_ids("b", "a", "b")(task.read_text(encoding="utf-8")))
        assert main([*commands["compress"], "--seed", str(seed)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: {task}: instances: id 'b' repeated at indices 0 and 2"
        ]

    @pytest.mark.parametrize(
        "command, flags",
        [
            ("report", ["--lenient"]),
            ("report", ["--split-outputs"]),
            ("triplet", ["--csv"]),
            ("score", ["--jobs", "2"]),
            ("score", ["--csv"]),
            ("score", ["--force"]),
        ],
    )
    def test_flags_a_command_does_not_read_are_usage_errors(
        self, tmp_path, capsys, command, flags
    ):
        _, commands = pipeline(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main([*commands[command], *flags])
        assert exc.value.code == 64
        assert f"unrecognized arguments: {' '.join(flags)}" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--train-tasks", "--test-tasks"])
    def test_report_train_and_test_tasks_go_together(self, tmp_path, capsys, flag):
        files, _ = pipeline(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["report", str(files["scores"]), flag, str(files["task"].parent)])
        assert exc.value.code == 64
        assert "--train-tasks and --test-tasks go together" in capsys.readouterr().err

    def test_score_takes_one_definition_source(self, tmp_path, capsys):
        """`--definition` and `--definition-file` exclude each other: score
        refuses the pair rather than read one and drop the other."""
        _, commands = pipeline(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main([*commands["score"], "--definition", "the fox"])
        assert exc.value.code == 64
        assert capsys.readouterr().err.splitlines()[-1] == (
            "defkit score: error: argument --definition: not allowed with argument "
            "--definition-file"
        )

    @pytest.mark.parametrize("command", ["compress", "triplet"])
    def test_bad_second_parse_line_fails_before_the_first_task_runs(
        self, tmp_path, capsys, command
    ):
        """Each task parses its tree when it runs, but every line is checked
        before any task does."""
        files, commands = pipeline(tmp_path)
        review = make_task(task_id="task_review", definition=REVIEW_DEFINITION)
        write_task_file(files["task"].parent / "task_review.json", review)
        files["parses"].write_text(FOX_TREE_TEXT + "\n(S (NN review)\n", encoding="utf-8")
        assert main(commands[command]) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            f"error: {files['parses']}:2: unclosed '(' opened at offset 0"
        ]
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["compress", "triplet"])
    def test_each_parse_line_is_checked_once(self, tmp_path, monkeypatch, command):
        """The up-front check of every line is the only one: a task reads
        its line without checking it again."""
        files, commands = pipeline(tmp_path)
        record = files["annotations"].read_text(encoding="utf-8")
        for task_id in ("task_fox2", "task_fox3"):
            fox = load_task_file(files["task"])
            write_task_file(
                files["task"].parent / f"{task_id}.json", replace(fox, id=task_id)
            )
            record += record.splitlines()[0].replace("task_fox", task_id) + "\n"
        files["annotations"].write_text(record, encoding="utf-8")
        files["parses"].write_text((FOX_TREE_TEXT + "\n") * 3, encoding="utf-8")
        checks = []
        check = parse._check
        monkeypatch.setattr(parse, "_check", lambda text: checks.append(text) or check(text))
        with redirect_stdout(io.StringIO()):
            assert main(commands[command]) == 0
        assert checks == [FOX_TREE_TEXT] * 3
        out = tmp_path / "out"
        if command == "compress":
            written = list(out.glob("task_fox*.json"))
        else:
            written = (out / "triplets.jsonl").read_text(encoding="utf-8").splitlines()
        assert len(written) == 3  # every task read its line

    def test_line_separators_inside_a_json_string_split_no_record(self, tmp_path, capsys):
        """U+0085, U+2028 and U+2029 may stand unescaped in a JSON string; a
        line-based file still ends its lines at "\\n" only."""
        files, commands = pipeline(tmp_path)
        record = json.loads(files["annotations"].read_text(encoding="utf-8"))
        record["annotator"] = "a\u2028b\u0085c\u2029d"
        text = json.dumps(record, ensure_ascii=False) + "\n"
        files["annotations"].write_text(text, encoding="utf-8")
        assert main(commands["ablate"]) == 0
        capsys.readouterr()
        files["annotations"].write_text(text + "5\n", encoding="utf-8")
        assert main([*commands["ablate"], "--force"]) == 2
        assert f"{files['annotations']}:2: record must be a JSON object" in capsys.readouterr().err

    JSON_VALUES = st.recursive(
        st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
        lambda children: st.lists(children, max_size=3)
        | st.dictionaries(st.text(), children, max_size=3),
        max_leaves=6,
    )

    @settings(
        max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(data=st.data())
    def test_score_any_value_in_one_task_field(self, tmp_path, data):
        """One field of a valid task, of its first instance or of its first
        demonstration set to any JSON value: `score` exits 0 or 2 and prints
        at most one stderr line."""
        task = task_to_dict(make_task(task_id="t"))
        holder = data.draw(
            st.sampled_from([task, task["instances"][0], task["demonstrations"][0]])
        )
        holder[data.draw(st.sampled_from(sorted(holder)))] = data.draw(self.JSON_VALUES)
        path = tmp_path / "task.json"
        path.write_text(json.dumps(task), encoding="utf-8")
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            rc = main(["score", "--task", str(path), "--backend", "keyword"])
        assert rc in (0, 2)
        assert len(err.getvalue().splitlines()) <= 1, err.getvalue()


# Each parameter of `scorer.build_backend` but `params`, and each field of
# `GenerationParams` -> (the flag that sets it, a value for the flag, the
# value it gives the setting, which is not the setting's default)
SCORER_FLAGS = {
    "name": ("--backend", "remote", "remote"),
    "endpoint_url": ("--endpoint-url", "http://127.0.0.1:9/x", "http://127.0.0.1:9/x"),
    "phrase": ("--phrase", "quick fox", "quick fox"),
    "max_new_tokens": ("--max-new-tokens", "7", 7),
    "temperature": ("--temperature", "0.5", 0.5),
    "seed": ("--seed", "3", 3),
}


class _Built(Exception):
    """What `build_backend` was called with, raised in its place."""


def _capture_build_backend(name, params, **settings):
    raise _Built({"name": name, **settings, **{f: getattr(params, f) for f in fields(params)}})


@pytest.mark.parametrize("command", ["compress", "score"])
def test_every_scorer_setting_has_a_flag(tmp_path, monkeypatch, command):
    """No backend setting is out of the CLI's reach: each setting that
    `build_backend` takes, generation params included, has a flag on both
    scoring commands that moves it off its default."""
    _, commands = pipeline(tmp_path)
    parameters = inspect.signature(scorer.build_backend).parameters
    defaults = {name: p.default for name, p in parameters.items() if name != "params"}
    defaults.update((name, getattr(GenerationParams, name)) for name in fields(GenerationParams))
    assert set(defaults) == set(SCORER_FLAGS)
    monkeypatch.setattr(scorer, "build_backend", _capture_build_backend)
    for name, (flag, text, value) in SCORER_FLAGS.items():
        assert value != defaults[name], name
        with pytest.raises(_Built) as built:
            main([*commands[command], flag, text])
        assert built.value.args[0][name] == value, name


def test_score_keys_the_cache_with_the_generation_flags(tmp_path):
    """An in-process backend, too, keys the cache with the generation params
    its flags give, in the bytes earlier versions wrote."""
    files, commands = pipeline(tmp_path)
    cache = tmp_path / "cache.jsonl"
    flags = ["--max-new-tokens", "7", "--temperature", "0.5", "--seed", "3", "--cache", str(cache)]
    with redirect_stdout(io.StringIO()):
        assert main([*commands["score"], *flags]) == 0
    task = load_task_file(files["task"])
    fit, _ = split_examples(task, len(task.instances), 0, 3)
    key = scorer.cache_key_for(
        "keyword_label", "the quick fox", scorer.example_fingerprint(fit), GenerationParams(7, 0.5, 3)
    )
    assert [json.loads(line)["cache_key"] for line in cache.read_text().splitlines()] == [key]
    assert key == "12e962adc307ababfa2d2e6fdb3569aba1a1b6ccbd33a2fc26602181abb43db2"


# Flags of the commands that write a manifest that the manifest does not
# record, each with the reason. `--seed` of ablate and triplet is accepted
# for the benchmark's variants workload and read by nothing.
UNRECORDED = {
    "--out": "the directory the manifest is in",
    "--force": "whether an earlier run's outputs may be replaced; no output changes",
    "--csv": "the printed table, written once more as summary.csv",
    "--jobs": "results are the same at any --jobs",
    "--cache": "a cached score is the score the backend gave for the same key",
    "ablate --seed": "read by nothing",
    "triplet --seed": "read by nothing",
}
# Recording these changes the manifest bytes that the benchmark's seed-0
# digests hash, so they wait for the benchmark to re-record its digests
# (ROADMAP item 10)
PENDING = {
    "ablate": {"--tasks"},
    "compress": {"--tasks", "--allow-empty", "--non-strict-coverage", "--lenient"},
    "triplet": {"--tasks", "--lenient"},
}
# The backend flags that `extra.backend_id` carries
BACKEND_ID_FLAGS = {"--endpoint-url", "--phrase"}


@pytest.mark.parametrize("command", sorted(PENDING))
def test_every_flag_is_recorded_in_the_manifest_or_listed(tmp_path, command):
    """A flag of a command that writes a manifest is in its config, names a
    digested input, gives its seeds, or is carried by its backend id; or it
    is listed above with the reason it is not. A listed flag is not recorded."""
    _, commands = pipeline(tmp_path)
    parser = build_parser()
    subparser = parser._subparsers._group_actions[0].choices[command]
    args = parser.parse_args(commands[command])
    assert main(commands[command]) == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text(encoding="utf-8"))
    for action in subparser._actions:
        if not action.option_strings or action.dest == "help":
            continue
        flag, value = action.option_strings[0], getattr(args, action.dest)
        recorded = (
            action.dest in manifest["config"]
            or (isinstance(value, str) and value in manifest["input_digests"])
            or (flag == "--seed" and manifest["seeds"] == [value])
            or (flag in BACKEND_ID_FLAGS and "backend_id" in manifest["extra"])
        )
        listed = flag in UNRECORDED or f"{command} {flag}" in UNRECORDED
        listed = listed or flag in PENDING[command]
        assert recorded != listed, (flag, "recorded" if recorded else "neither recorded nor listed")


def _modules_loaded_by(commands, modules, *python_flags):
    """Exit codes of `commands` run one after another in a fresh interpreter,
    and which of `modules` that run loaded."""
    script = (
        "import json, sys\n"
        "from defkit.cli import main\n"
        "commands, modules = json.loads(sys.argv[1])\n"
        "codes = [main(argv) for argv in commands]\n"
        "print(json.dumps([codes, [m for m in modules if m in sys.modules]]))\n"
    )
    src = Path(defkit.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, *python_flags, "-c", script, json.dumps([commands, modules])],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)}, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_ablate_triplet_report_leave_the_scoring_stack_unloaded(tmp_path):
    """Only compress and score import the scorer, STDC and (with the remote
    backend) a thread pool, and these commands import no `logging`: defkit
    writes its own warnings."""
    review_tasks, review_ann = review_corpus(tmp_path)
    fox_tasks, parses = fox_corpus(tmp_path)
    fox_ann = fox_annotations(tmp_path)
    scores = tmp_path / "scores.jsonl"
    scores.write_text(
        json.dumps({"task_id": "task_review", "kind": "classification", "score": 1.0}) + "\n"
    )
    commands = [
        [
            "ablate", "--tasks", str(review_tasks), "--annotations", str(review_ann),
            "--spec", "all", "--out", str(tmp_path / "ablated"),
        ],
        [
            "triplet", "--tasks", str(fox_tasks), "--annotations", str(fox_ann),
            "--parses", str(parses), "--out", str(tmp_path / "triplets"),
        ],
        [
            "report", str(scores), str(scores),
            "--train-tasks", str(fox_tasks), "--test-tasks", str(review_tasks),
        ],
    ]
    heavy = ["defkit.scorer", "defkit.stdc", "requests", "concurrent.futures", "logging"]
    codes, loaded = _modules_loaded_by(commands, heavy)
    assert codes == [0, 0, 0]
    assert loaded == []


HTTP_CLIENTS = ["requests", "urllib.request", "http.client"]

# The defkit modules each command, run alone, loads: these and no others.
# README "Install" lists them.
_EVERY_COMMAND = [
    "defkit", "defkit._jsontext", "defkit._record", "defkit.cli", "defkit.corpus", "defkit.errors",
]
LOADED = {
    "ablate": [
        *_EVERY_COMMAND, "defkit.ablation", "defkit.annotations", "defkit.metrics",
        "defkit.manifest",
    ],
    "triplet": [
        *_EVERY_COMMAND, "defkit.annotations", "defkit.parse", "defkit.triplet", "defkit.manifest",
    ],
    "report": [*_EVERY_COMMAND, "defkit.metrics"],
    "compress": [
        *_EVERY_COMMAND, "defkit.metrics", "defkit.parse", "defkit.manifest", "defkit.scorer",
        "defkit.stdc",
    ],
    "score": [*_EVERY_COMMAND, "defkit.metrics", "defkit.scorer"],
}

# Standard modules no command loads with an in-process backend: defkit writes
# its own warnings, and only the remote backend takes threads from
# concurrent.futures (which imports the rest of this list)
NEVER_LOADED = ["concurrent.futures", "logging", "traceback", "linecache", "tokenize"]

# Other modules a command, run alone, must not load besides NEVER_LOADED,
# stdlib dataclasses and datetime (which only the remote backend's HTTP
# client loads)
UNLOADED = {"compress": ["urllib.request", "http.client"]}


@pytest.mark.parametrize("command", ALL_COMMANDS)
def test_each_command_loads_only_what_it_runs(tmp_path, command):
    """Each command in a fresh interpreter without site-packages (`-S`):
    records are built without `dataclasses`, the manifest's time without
    `datetime`, and a command imports exactly the defkit modules it runs."""
    _, commands = pipeline(tmp_path)
    argv = commands[command]
    if command == "compress":
        phrase = argv.index("--phrase")
        argv = [*argv[:phrase], *argv[phrase + 2 :], "--allow-empty"]
        argv[argv.index("planted")] = "keyword"
    package = Path(defkit.__file__).parent
    defkit_modules = [f"defkit.{p.stem}".removesuffix(".__init__") for p in package.glob("*.py")]
    modules = [
        "dataclasses", "datetime", *NEVER_LOADED, *UNLOADED.get(command, []), *defkit_modules
    ]
    codes, loaded = _modules_loaded_by([argv], modules, "-S")
    assert codes == [0]
    assert sorted(loaded) == sorted(LOADED[command])


def test_in_process_backends_load_no_http_client(tmp_path):
    tasks_dir, parses = fox_corpus(tmp_path)
    commands = [
        [
            "compress", "--tasks", str(tasks_dir), "--parses", str(parses),
            "--backend", "keyword", "--fit-n", "2", "--holdout-n", "2",
            "--allow-empty", "--out", str(tmp_path / "out"),
        ],
        ["score", "--task", str(tasks_dir / "task_fox.json"), "--backend", "keyword"],
    ]
    codes, loaded = _modules_loaded_by(commands, HTTP_CLIENTS)
    assert codes == [0, 0]
    assert loaded == []


@pytest.mark.parametrize("backend", ["keyword", "remote"])
def test_compress_and_score_load_neither_logging_nor_a_stdlib_pool(tmp_path, backend):
    """With either kind of backend, and two tasks at once under `--jobs 2`:
    an in-process backend loads none of NEVER_LOADED. The remote backend
    takes its threads from concurrent.futures, which imports logging."""
    tasks_dir, parses = fox_corpus(tmp_path)
    fox = load_task_file(tasks_dir / "task_fox.json")
    write_task_file(tasks_dir / "task_fox2.json", replace(fox, id="task_fox2"))
    parses.write_text((FOX_TREE_TEXT + "\n") * 2, encoding="utf-8")
    with StubServer() as server:
        flags = ["--backend", backend]
        if backend == "remote":
            flags += ["--endpoint-url", server.url]
        commands = [
            [
                "compress", "--tasks", str(tasks_dir), "--parses", str(parses), *flags,
                "--fit-n", "2", "--holdout-n", "2", "--jobs", "2", "--allow-empty",
                "--out", str(tmp_path / "out"),
            ],
            ["score", "--task", str(tasks_dir / "task_fox.json"), *flags],
        ]
        codes, loaded = _modules_loaded_by(commands, NEVER_LOADED)
    assert codes == [0, 0]
    if backend == "remote":
        assert "concurrent.futures" in loaded
    else:
        assert loaded == []
    assert (len(server.requests) > 0) == (backend == "remote")


def test_remote_backend_posts_with_the_standard_library(tmp_path):
    tasks_dir, _ = fox_corpus(tmp_path)
    with StubServer() as server:
        command = [
            "score", "--task", str(tasks_dir / "task_fox.json"),
            "--backend", "remote", "--endpoint-url", server.url,
        ]
        codes, loaded = _modules_loaded_by([command], HTTP_CLIENTS)
        assert len(server.requests) == 1
    assert codes == [0]
    assert loaded == ["urllib.request", "http.client"]
