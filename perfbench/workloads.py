"""The four benchmark workloads: their inputs, commands and output checks.

A workload's `setup` writes its corpus (and starts or fills what the timed
phase needs) in a directory that becomes the working directory of every
CLI call, so the command lines, and with them the manifests, are the same
on every run. `commands` gives the defkit argument lists of one timed
invocation. `check` reads that invocation's outputs and returns one
(unit, problem-or-None) pair per task and command it attempted.
"""

from __future__ import annotations

import hashlib
import json
import shutil
from pathlib import Path

from defkit.corpus import load_task_dir
from defkit.metrics import normalize
from defkit.parse import parse_bracketed
from defkit.stdc import replay_removals

import corpusgen
from standin import ModelStandIn

FIT_N = 32
HOLDOUT_N = 32


def is_token_subsequence(short: list[str], full: list[str]) -> bool:
    it = iter(full)
    return all(tok in it for tok in short)


def output_digest(out_dirs: list[Path], cwd: Path, endpoint: str | None = None) -> str:
    """sha256 over every output file, the manifest timestamp excluded.

    The stand-in's URL (its port changes per run) is replaced by a fixed
    placeholder.
    """
    h = hashlib.sha256()
    for out in out_dirs:
        files = sorted(p for p in out.rglob("*") if p.is_file()) if out.is_dir() else [out]
        for path in files:
            data = path.read_bytes()
            if path.name == "manifest.json":
                manifest = json.loads(data)
                manifest.pop("timestamp", None)
                data = json.dumps(manifest, sort_keys=True).encode("utf-8")
            if endpoint:
                data = data.replace(endpoint.encode("utf-8"), b"<endpoint>")
            h.update(str(path.relative_to(cwd)).encode("utf-8") + b"\0" + data + b"\0")
    return h.hexdigest()


class Workload:
    name = ""
    out_dirs: tuple[str, ...] = ()

    def __init__(self, seed: int):
        self.seed = seed
        self.standin: ModelStandIn | None = None

    def setup(self, cwd: Path, run) -> None:
        """Write the inputs into `cwd`; `run(cwd, commands)` runs the CLI."""
        raise NotImplementedError

    def commands(self) -> list[list[str]]:
        raise NotImplementedError

    def prepare(self, cwd: Path) -> None:
        """Clear the previous invocation's outputs."""
        for name in self.out_dirs:
            path = cwd / name
            if path.is_dir():
                shutil.rmtree(path)
            elif path.exists():
                path.unlink()

    def check(self, cwd: Path) -> list[tuple[str, str | None]]:
        raise NotImplementedError

    def digest(self, cwd: Path) -> str:
        endpoint = self.standin.url if self.standin else None
        return output_digest([cwd / name for name in self.out_dirs], cwd, endpoint)

    def backend_requests(self, cwd: Path) -> int:
        return 0

    def close(self) -> None:
        if self.standin is not None:
            self.standin.stop()
            self.standin = None


class CompressWorkload(Workload):
    out_dirs = ("out",)
    make_corpus = staticmethod(corpusgen.compress_corpus)
    corpus_args: dict = {}
    fit_n, holdout_n = FIT_N, HOLDOUT_N
    backend_args = ["--backend", "keyword", "--mode", "current", "--jobs", "2", "--cache", "cache.jsonl"]

    def setup(self, cwd: Path, run) -> None:
        self.make_corpus(cwd, self.seed, **self.corpus_args)

    def commands(self) -> list[list[str]]:
        return [
            [
                "compress", "--tasks", "tasks", "--parses", "parses.txt",
                *self.backend_args,
                "--fit-n", str(self.fit_n), "--holdout-n", str(self.holdout_n),
                "--out", "out", "--seed", "0",
            ]
        ]

    def prepare(self, cwd: Path) -> None:
        super().prepare(cwd)
        (cwd / "cache.jsonl").unlink(missing_ok=True)

    def manifest(self, cwd: Path) -> dict:
        path = cwd / "out" / "manifest.json"
        return json.loads(path.read_text()) if path.exists() else {"extra": {}}

    def backend_requests(self, cwd: Path) -> int | None:
        return self.manifest(cwd)["extra"].get("backend_calls")

    def check(self, cwd: Path) -> list[tuple[str, str | None]]:
        tasks = load_task_dir(cwd / "tasks")
        trees = (cwd / "parses.txt").read_text().splitlines()
        units = []
        for task, line in zip(tasks, trees):
            units.append((f"compress:{task.id}", self._check_task(cwd, task, line)))
        return units

    def _check_task(self, cwd: Path, task, tree_line: str) -> str | None:
        path = cwd / "out" / f"{task.id}.json"
        if not path.exists():
            return "missing output"
        result = json.loads(path.read_text())["compression"]
        accepted = [s["node_id"] for s in result["steps"] if s["accepted"]]
        compressed = result["compressed_definition"]
        if replay_removals(parse_bracketed(tree_line), accepted) != compressed:
            return "compressed definition differs from replaying its accepted removals"
        if not is_token_subsequence(normalize(compressed), normalize(task.definition)):
            return "compressed definition is not a token subsequence of the definition"
        return None


class CompressCpu(CompressWorkload):
    name = "compress-cpu"
    corpus_args = {"n_tasks": 2, "n_tokens": 160, "n_instances": FIT_N + HOLDOUT_N}


class CompressWarm(CompressWorkload):
    name = "compress-warm"
    corpus_args = {"n_tasks": 4, "n_tokens": 400, "n_instances": 8}
    fit_n, holdout_n = 4, 4

    def setup(self, cwd: Path, run) -> None:
        super().setup(cwd, run)
        self.cold_problem: str | None = None
        code = run(cwd, self.commands())
        if code != 0:
            self.cold_problem = f"cold set-up run exited with {code}"
        (cwd / "cache.jsonl").touch()
        (cwd / "cache.jsonl").rename(cwd / "prefill.jsonl")
        (cwd / "out").mkdir(exist_ok=True)
        (cwd / "out").rename(cwd / "cold")

    def prepare(self, cwd: Path) -> None:
        super().prepare(cwd)
        shutil.copyfile(cwd / "prefill.jsonl", cwd / "cache.jsonl")

    def check(self, cwd: Path) -> list[tuple[str, str | None]]:
        units = super().check(cwd)
        problem = self.cold_problem
        calls = self.backend_requests(cwd)
        if problem is None and calls != 0:
            problem = f"warm run made {calls} backend calls"
        if problem is None:
            for cold in sorted((cwd / "cold").glob("task*.json")):
                warm = cwd / "out" / cold.name
                if not warm.exists() or warm.read_bytes() != cold.read_bytes():
                    problem = f"{cold.name} differs from the cold set-up run"
                    break
        if problem is None:
            cold_m = json.loads((cwd / "cold" / "manifest.json").read_text())
            warm_m = self.manifest(cwd)
            for m in (cold_m, warm_m):
                m.pop("timestamp", None)
                m["extra"].pop("backend_calls", None)
                m["extra"].pop("cache_hits", None)
            if cold_m != warm_m:
                problem = "manifest differs from the cold set-up run"
        units.append(("warm-vs-cold", problem))
        return units


class CompressRemote(CompressWorkload):
    name = "compress-remote"
    make_corpus = staticmethod(corpusgen.remote_corpus)
    corpus_args = {"n_tasks": 2, "n_tokens": 60, "n_instances": FIT_N + HOLDOUT_N}
    BASE_MS = 10.0
    PER_PROMPT_MS = 0.5

    def setup(self, cwd: Path, run) -> None:
        super().setup(cwd, run)
        self.standin = ModelStandIn(self.BASE_MS, self.PER_PROMPT_MS).start()

    @property
    def backend_args(self) -> list[str]:
        return [
            "--backend", "remote", "--endpoint-url", self.standin.url,
            "--mode", "paper", "--jobs", "2",
        ]

    def prepare(self, cwd: Path) -> None:
        super().prepare(cwd)
        self.standin.reset()

    def check(self, cwd: Path) -> list[tuple[str, str | None]]:
        units = super().check(cwd)
        served = self.standin.counters()["requests"]
        calls = self.backend_requests(cwd)
        problem = None if served == calls else (
            f"stand-in served {served} requests but the manifest counts {calls} backend calls"
        )
        units.append(("requests-vs-manifest", problem))
        return units


class Variants(Workload):
    name = "variants"
    out_dirs = ("ablate", "triplet", "report.json")
    N_TASKS = 400

    def setup(self, cwd: Path, run) -> None:
        self.corpus = corpusgen.variants_corpus(cwd, self.seed, n_tasks=self.N_TASKS)

    def commands(self) -> list[list[str]]:
        pinned = ["--jobs", "1", "--seed", "0"]
        return [
            ["ablate", "--tasks", "tasks", "--annotations", "annotations.jsonl",
             "--spec", "all", "--out", "ablate", *pinned],
            ["triplet", "--tasks", "tasks", "--annotations", "annotations.jsonl",
             "--parses", "parses.txt", "--out", "triplet", *pinned],
            ["report", *[p.name for p in self.corpus.score_files], "--out", "report.json", *pinned],
        ]

    def check(self, cwd: Path) -> list[tuple[str, str | None]]:
        ids = self.corpus.task_ids
        expected = self.corpus.expected
        problems: dict[str, str] = {}

        def flag(unit: str, problem: str) -> None:
            problems.setdefault(unit, problem)

        for spec, texts in expected["ablations"].items():
            path = cwd / "ablate" / f"{spec}.jsonl"
            rows = [json.loads(ln) for ln in path.read_text().splitlines()] if path.exists() else []
            got = {row["task_id"]: row for row in rows}
            for task_id in ids:
                row = got.get(task_id)
                want = texts[task_id]
                if row is None:
                    flag(f"ablate:{task_id}", f"no {spec} row")
                elif row["text"] != want:
                    flag(f"ablate:{task_id}", f"{spec} text differs")
                elif row["ratio"] != len(want.split()) / expected["tokens"][task_id]:
                    flag(f"ablate:{task_id}", f"{spec} ratio differs")

        path = cwd / "triplet" / "triplets.jsonl"
        rows = [json.loads(ln) for ln in path.read_text().splitlines()] if path.exists() else []
        got = {row["task_id"]: row for row in rows}
        for task_id in ids:
            row = got.get(task_id)
            if row is None:
                flag(f"triplet:{task_id}", "no triplet")
            elif not (row["input"][0] and row["action"][0] and all(row["output"])):
                flag(f"triplet:{task_id}", "empty triplet entry")
        if len(rows) != len(ids):
            flag("triplet:count", f"{len(rows)} triplets for {len(ids)} tasks")

        report_path = cwd / "report.json"
        per_task = json.loads(report_path.read_text())["per_task"] if report_path.exists() else {}
        want_means = expected["report_means"][self.corpus.score_files[0].name]
        for task_id in ids:
            if task_id not in per_task:
                flag(f"report:{task_id}", "missing from report")
            elif abs(per_task[task_id] - want_means[task_id]) > 1e-9:
                flag(f"report:{task_id}", "per-task mean differs")

        units = [f"{cmd}:{task_id}" for cmd in ("ablate", "triplet", "report") for task_id in ids]
        units.append("triplet:count")
        return [(unit, problems.get(unit)) for unit in units]


WORKLOADS = {w.name: w for w in (CompressCpu, CompressWarm, CompressRemote, Variants)}
