import io
import json
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import defkit
from defkit.annotations import AnnotationSet, ContentCategory, Span, annotation_to_dict
from defkit.cli import main
from defkit.corpus import TaskKind
from defkit.stubserver import StubServer

from conftest import FOX_TREE_TEXT, REVIEW_DEFINITION, make_task, write_task_file


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

    def test_parse_line_mismatch_exit2(self, tmp_path, capsys):
        tasks_dir, parses = fox_corpus(tmp_path)
        parses.write_text(FOX_TREE_TEXT + "\n(S (NN extra))\n", encoding="utf-8")
        rc = self.run_compress(tasks_dir, parses, tmp_path / "out")
        assert rc == 2
        assert "align by index" in capsys.readouterr().err


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


class TestDeepTrees:
    """A 10,000-level tree goes through the CLI like any other."""

    tree = "(X " * 10_000 + FOX_TREE_TEXT + ")" * 10_000

    @staticmethod
    def run_cli(args):
        """The defkit CLI in a fresh interpreter, as a shell user runs it."""
        src = Path(defkit.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(src)}
        return subprocess.run(
            [sys.executable, "-m", "defkit.cli", *args],
            capture_output=True, text=True, env=env, timeout=300,
        )

    def test_compress(self, tmp_path):
        tasks_dir, parses = fox_corpus(tmp_path)
        parses.write_text(self.tree + "\n", encoding="utf-8")
        out_dir = tmp_path / "out"
        proc = self.run_cli(
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
        proc = self.run_cli(
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
    def test_constant_backend_stdout(self, tmp_path, capsys):
        task = make_task(task_id="task_one")
        path = write_task_file(tmp_path / "task_one.json", task)
        rc = main(
            [
                "score",
                "--task", str(path),
                "--backend", "constant",
                "--constant-value", "0.25",
            ]
        )
        assert rc == 0
        record = json.loads(capsys.readouterr().out)
        assert record["mean_score"] == pytest.approx(0.25)
        assert len(record["per_instance"]) == 3

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
        proc = TestDeepTrees.run_cli(
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
        for epsilon in ("-1", "nan"):
            proc = TestDeepTrees.run_cli(
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
            self.assert_usage_error(proc, "epsilon must be >= 0")
            assert not out_dir.exists()

    def test_score_remote_without_endpoint(self, tmp_path):
        path = write_task_file(tmp_path / "task_one.json", make_task(task_id="task_one"))
        cache = tmp_path / "cache.jsonl"
        proc = TestDeepTrees.run_cli(
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
                ["--endpoint-url", "http://127.0.0.1:1/generate", "--temperature", "nan"],
                "temperature must be finite, got nan",
            )
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
        proc = TestDeepTrees.run_cli(
            [command, *args, "--backend", "remote", "--cache", str(cache), *flags]
        )
        self.assert_usage_error(proc, message)
        assert not out_dir.exists()
        assert not cache.exists()


class TestBadInputs:
    """Bad input ends with a documented exit code and one line on stderr."""

    def test_score_more_instances_than_the_task_has(self, tmp_path):
        path = write_task_file(tmp_path / "t.json", make_task(task_id="t", n_instances=4))
        proc = TestDeepTrees.run_cli(
            ["score", "--task", str(path), "--backend", "constant", "--n", "1000"]
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
                "--tasks", missing, "--parses", str(parses), "--backend", "constant",
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


def pipeline(tmp_path):
    """Valid input files for every subcommand, and the arguments that run each on them."""
    tasks_dir, parses = fox_corpus(tmp_path)
    ann_file = fox_annotations(tmp_path)
    scores = tmp_path / "scores.jsonl"
    scores.write_text(
        json.dumps({"task_id": "task_fox", "kind": "generation", "score": 1.0}) + "\n"
    )
    files = {
        "task": tasks_dir / "task_fox.json",
        "annotations": ann_file,
        "parses": parses,
        "scores": scores,
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
        "score": ["score", "--task", str(files["task"]), "--backend", "keyword"],
    }
    return files, commands


def _with_task_fields(**fields):
    return lambda text: json.dumps({**json.loads(text), **fields})


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
    ("annotation-not-an-object", "annotations", lambda _: '\n"task_id spans annotator"\n', 2,
     ("ablate", "triplet"), "{annotations}:2: record must be a JSON object"),
    ("annotation-spans-a-number", "annotations",
     lambda _: '\n{"task_id": "task_fox", "annotator": "a1", "spans": 5}\n', 2,
     ("ablate", "triplet"), "{annotations}:2: field 'spans' has wrong type, expected list"),
    ("annotation-span-a-string", "annotations",
     lambda _: '\n{"task_id": "task_fox", "annotator": "a1", "spans": ["x"]}\n', 2,
     ("ablate", "triplet"), "{annotations}:2: spans[0] must be an object"),
    ("parse-unclosed", "parses", lambda _: "\n(S (NN fox)\n", 2, ("compress", "triplet"),
     "{parses}:2: unclosed '(' opened at offset 0"),
    ("parse-file-missing", "parses", lambda _: None, 1, ("compress", "triplet"), "{parses}"),
    ("annotation-file-missing", "annotations", lambda _: None, 1, ("ablate", "triplet"),
     "{annotations}"),
    ("score-row-bad-kind", "scores", lambda _: '{"task_id": "t", "kind": "x", "score": 1}\n', 2,
     ("report",), "{scores}:1: malformed score row"),
    ("score-row-list-task-id", "scores",
     lambda _: '{"task_id": ["t"], "kind": "generation", "score": 1}\n', 2,
     ("report",), "{scores}:1: malformed score row"),
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
        "command, flags",
        [
            ("report", ["--lenient"]),
            ("report", ["--force"]),
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
        task = make_task(task_id="t").to_dict()
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


def _modules_loaded_by(commands, modules):
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
        [sys.executable, "-c", script, json.dumps([commands, modules])],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)}, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_ablate_triplet_report_leave_the_scoring_stack_unloaded(tmp_path):
    """Only compress and score import the scorer, STDC and a thread pool."""
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
    heavy = ["defkit.scorer", "defkit.stdc", "requests", "concurrent.futures"]
    codes, loaded = _modules_loaded_by(commands, heavy)
    assert codes == [0, 0, 0]
    assert loaded == []


HTTP_CLIENTS = ["requests", "urllib.request", "http.client"]


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
