"""Subcommand front-end: ablate, compress, report, triplet, score."""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterator

from . import __version__
from .corpus import (
    Task, TaskKind, finite_number, load_task_dir, load_task_file, numbered_lines, split_examples
)
from .errors import BackendError, ConfigError, DefkitError, UnbalancedError, warn

# Each command imports the modules it runs when it runs, so that a process
# loads no more than its command needs: report never loads the parser, the
# manifest or the scoring stack, and ablate, triplet and report never load
# scorer, stdc or the thread pool.
if TYPE_CHECKING:
    from .annotations import AnnotationSet

EXIT_OK = 0
EXIT_IO = 1
EXIT_VALIDATION = 2
EXIT_BACKEND = 3
EXIT_USAGE = 64

# What `main` does with an exception a command raises: the first class that
# matches gives the exit code. A command that goes on past a failed task
# (`_Run.results`) prints that failure as a "validation failure" instead.
_EXIT_CODES = (
    (ConfigError, EXIT_USAGE),
    (BackendError, EXIT_BACKEND),
    (OSError, EXIT_IO),
    (DefkitError, EXIT_VALIDATION),
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _format_table(headers: list[str], rows: list[list[str]]) -> str:
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip()]
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return "\n".join(lines)


def _write_csv(path: Path, headers: list[str], rows: list[list[str]]):
    import csv

    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(headers)
        writer.writerows(rows)


def _check_overwrite(paths: list[Path], force: bool) -> None:
    existing = [p for p in paths if p.exists()]
    if existing and not force:
        raise FileExistsError(
            f"refusing to overwrite {existing[0]} (and possibly others); pass --force"
        )


def _annotations_by_task(path: str) -> dict[str, AnnotationSet]:
    """Each task's first annotation record. A task with more than one gets a
    warning that names the annotator whose record is used."""
    from .annotations import load_annotations

    anns = load_annotations(path)
    by_task = {ann.task_id: ann for ann in reversed(anns)}  # the first record wins
    for task_id, n in Counter(ann.task_id for ann in anns).items():
        if n > 1:
            annotator = by_task[task_id].annotator
            warn(__name__, f"task {task_id}: {n} annotation records; using annotator {annotator}'s")
    return by_task


def _annotation(task: Task, anns: dict[str, AnnotationSet]) -> AnnotationSet:
    """The task's annotation record; a DefkitError if it has none or the
    record does not fit the task's definition."""
    from .annotations import check_annotation

    ann = anns.get(task.id)
    if ann is None:
        raise DefkitError("no annotation record")
    check_annotation(task, ann)
    return ann


def _load_parse_lines(path: str, tasks: list[Task]) -> list[tuple[str, int]]:
    """The parse file's lines, one per task, each checked to hold bracketed
    trees, with the number of top-level trees it holds. Each task parses its
    own line when it runs, with `parse_bracketed(line, trees)`, which skips a
    second check; so at most one tree per running task is alive."""
    from .parse import count_trees

    lines = list(numbered_lines(path))
    if len(lines) != len(tasks):
        raise DefkitError(
            f"{path}: {len(lines)} parse lines for {len(tasks)} tasks "
            "(lines align by index to the sorted task files)"
        )
    checked = []
    for lineno, line in lines:
        try:
            checked.append((line, count_trees(line)))
        except UnbalancedError as exc:
            raise UnbalancedError(f"{path}:{lineno}: {exc}", exc.position) from exc
    return checked


class _Run:
    """One run of a command over each task of `--tasks`: ablate, compress or
    triplet. Making it loads the tasks, and the annotations and parse lines
    if the command has flags for them; makes `--out`; and refuses to replace
    an output (`summary.csv` too, with `--csv`) without `--force`.
    `results` runs the tasks and `finish` writes the manifest once."""

    def __init__(self, args, outputs: Callable[[list[Task]], list[str]]):
        self.args = args
        self.tasks = load_task_dir(args.tasks, lenient=args.lenient)
        self.anns = _annotations_by_task(args.annotations) if "annotations" in args else None
        self.parses = _load_parse_lines(args.parses, self.tasks) if "parses" in args else None
        self.out = Path(args.out)
        self.out.mkdir(parents=True, exist_ok=True)
        self.outputs = [self.out / name for name in outputs(self.tasks)]
        csv = [self.out / "summary.csv"] if getattr(args, "csv", False) else []
        _check_overwrite([*self.outputs, *csv], args.force)
        self.failures: list[str] = []
        self.backend_errors: list[BackendError] = []

    def results(self, run_task: Callable, mapper: Callable = map) -> Iterator[tuple[Task, Any]]:
        """(task, run_task(task, *inputs)) of each task that raised no
        DefkitError, in task-file order, as `mapper` yields them. The inputs
        are the task's checked annotation and its parse tree, those the
        command has. A failed task is kept for `finish`."""
        if self.parses is not None:
            from .parse import parse_bracketed

        def attempt(i: int):
            task = self.tasks[i]
            try:
                inputs = [] if self.anns is None else [_annotation(task, self.anns)]
                if self.parses is not None:
                    # parsed here, so only running tasks hold a tree
                    inputs.append(parse_bracketed(*self.parses[i]))
                return run_task(task, *inputs)
            except DefkitError as exc:
                return exc

        for task, result in zip(self.tasks, mapper(attempt, range(len(self.tasks)))):
            if isinstance(result, BackendError):
                self.backend_errors.append(result)
            elif isinstance(result, DefkitError):
                # the error may name the task too; the line names it once
                self.failures.append(f"{task.id}: {str(result).removeprefix(f'task {task.id}: ')}")
            else:
                yield task, result

    def table(self, headers: list[str], rows: list[list[str]], csv_headers=None) -> str:
        """The table as `finish` prints it; with `--csv`, written to
        `summary.csv` first."""
        if self.args.csv:
            _write_csv(self.out / "summary.csv", csv_headers or headers, rows)
        return _format_table(headers, rows)

    def finish(self, summary: str, config: dict, seeds: list[int], extra: dict | None = None) -> int:
        """Write the manifest, digesting `--annotations` and `--parses` if
        the command has them; then print `summary` and a line per failed
        task, and raise the first backend error or return the exit code.
        Every file is written before the first line, so a closed stdout
        loses no output."""
        from .manifest import file_digest, write_manifest

        inputs = [getattr(self.args, flag) for flag in ("annotations", "parses") if flag in self.args]
        write_manifest(self.out, config, {path: file_digest(path) for path in inputs}, seeds, extra)
        print(summary)
        for failure in self.failures:
            print(f"validation failure: {failure}", file=sys.stderr)
        if self.backend_errors:
            raise self.backend_errors[0]
        return EXIT_VALIDATION if self.failures else EXIT_OK


def _backend(args):
    """The backend that the backend flags of compress or score name."""
    from .scorer import GenerationParams, build_backend

    return build_backend(
        args.backend,
        GenerationParams(args.max_new_tokens, args.temperature, args.seed),
        endpoint_url=args.endpoint_url,
        phrase=args.phrase,
    )


# ---------------------------------------------------------------- ablate


def cmd_ablate(args) -> int:
    from contextlib import ExitStack

    from .ablation import REMOVED_CATEGORIES, compression_ratio, remove_spans

    specs = list(REMOVED_CATEGORIES) if args.spec == "all" else [args.spec]
    removed = [REMOVED_CATEGORIES[spec] for spec in specs]
    run = _Run(args, lambda tasks: [f"{spec}.jsonl" for spec in specs])

    def ablate(task, ann):
        variants = []
        for spec, categories in zip(specs, removed):
            text = remove_spans(task, ann, categories)
            ratio = compression_ratio(task.definition, text)
            if ratio == 1.0 and not any(s.category in categories for s in ann.spans):
                warn(__name__, f"task {task.id}: no {spec} spans to remove; ratio 1.0")
            variants.append((text, ratio))
        return variants

    ratios: list[list[float]] = [[] for _ in specs]
    with ExitStack() as stack:
        files = [stack.enter_context(path.open("w", encoding="utf-8")) for path in run.outputs]
        for task, variants in run.results(ablate):
            for spec, fh, (text, ratio), spec_ratios in zip(specs, files, variants, ratios):
                # keys in sorted order: json.dumps without sort_keys reuses
                # its shared encoder
                row = {"ratio": ratio, "spec": spec, "task_id": task.id, "text": text}
                fh.write(json.dumps(row) + "\n")
                spec_ratios.append(ratio)

    rows = [
        [spec, f"{100 * (sum(r) / len(r) if r else 0.0):.0f}%", str(len(r))]
        for spec, r in zip(specs, ratios)
    ]
    table = run.table(["spec", "%C", "tasks"], rows, ["spec", "pct_c", "tasks"])
    return run.finish(table, {"spec": args.spec, "lenient": args.lenient}, [])


# ---------------------------------------------------------------- compress


def cmd_compress(args) -> int:
    from ._jsontext import indented
    from .scorer import ScoreCache
    from .stdc import StdcConfig, compress, evaluate_holdout

    backend = _backend(args)
    if not 0 <= args.epsilon < float("inf"):  # NaN too
        raise ConfigError("epsilon must be finite and >= 0")
    stdc_cfg = StdcConfig(
        baseline_mode=args.mode,
        epsilon=args.epsilon,
        allow_empty_result=args.allow_empty,
    )
    run = _Run(args, lambda tasks: [f"{t.id}.json" for t in tasks])
    cache = ScoreCache(args.cache) if args.cache else None

    def compress_task(task, tree):
        fit, holdout = split_examples(task, args.fit_n, args.holdout_n, args.seed)
        result = compress(task, tree, fit, backend, stdc_cfg, cache)
        report = None  # --holdout-n 0: no holdout to measure
        if holdout.instances:
            report = evaluate_holdout(
                task, result, holdout, backend, cache, strict=not args.non_strict_coverage
            )
        return result, report

    # A backend that generates in the caller's thread gains nothing from task
    # threads, which only contend for the interpreter lock: its tasks run one
    # after another here. Remote tasks wait on the network, so up to --jobs
    # of them run at once.
    pool = None
    if backend.max_in_flight:
        from concurrent.futures import ThreadPoolExecutor

        pool = ThreadPoolExecutor(args.jobs)
    rows: list[list[str]] = []
    aggregates: list[tuple[float, ...]] = []
    try:
        for task, (result, report) in run.results(compress_task, pool.map if pool else map):
            payload = {"compression": result, "holdout": report}
            (run.out / f"{task.id}.json").write_text(indented(payload) + "\n")
            if report is None:
                aggregates.append((result.ratio,))
            else:
                aggregates.append((result.ratio, report.before, report.after, report.coverage))
            rows.append([task.id, *_compress_columns(aggregates[-1])])
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
        if cache is not None:
            cache.close()

    if aggregates:
        n = len(aggregates)
        rows.append(["MEAN", *_compress_columns([sum(col) / n for col in zip(*aggregates)])])
    config = ("backend", "mode", "epsilon", "fit_n", "holdout_n", "temperature", "max_new_tokens")
    return run.finish(
        run.table(["task", "ratio", "before", "after", "coverage"], rows),
        {name: getattr(args, name) for name in config},
        [args.seed],
        {
            "backend_id": backend.backend_id,
            "backend_calls": backend.calls,
            "cache_hits": cache.hits if cache else 0,
        },
    )


def _compress_columns(values) -> list[str]:
    """Ratio, holdout before, after and coverage as the table prints them;
    "-" for the holdout columns when there are no holdout instances."""
    ratio, *holdout = values
    if not holdout:
        return [f"{ratio:.2f}", "-", "-", "-"]
    before, after, coverage = holdout
    return [f"{ratio:.2f}", f"{before:.3f}", f"{after:.3f}", f"{coverage:.2f}"]


# ---------------------------------------------------------------- report


def _read_score_rows(path: str) -> list[tuple[str, TaskKind, float]]:
    rows = []
    kind_of: dict[str, tuple[TaskKind, int]] = {}  # task id -> its kind, the line it is on
    for lineno, line in numbered_lines(path):
        try:
            data = json.loads(line)
            if not isinstance(data["task_id"], str):
                raise TypeError("task_id must be a string")
            rows.append((data["task_id"], TaskKind(data["kind"]), finite_number(data["score"])))
        except (ValueError, KeyError, TypeError, OverflowError, RecursionError) as exc:
            raise DefkitError(f"{path}:{lineno}: malformed score row: {exc}")
        task_id, kind, _ = rows[-1]
        first, first_line = kind_of.setdefault(task_id, (kind, lineno))
        if first is not kind:
            raise DefkitError(
                f"{path}:{lineno}: task {task_id} is {kind.value} here "
                f"but {first.value} on line {first_line}"
            )
    if not rows:
        raise DefkitError(f"{path}: no score rows")
    return rows


def _label_set(task: Task) -> frozenset[str] | None:
    if task.label_list is None:
        return None
    return frozenset(label.strip().casefold() for label in task.label_list)


def _verbalizer_groups(train_dir: str, test_dir: str) -> dict[str, str]:
    """Classification test task id -> "seen" if a training task has its label set."""
    train = load_task_dir(train_dir, lenient=True)
    test = load_task_dir(test_dir, lenient=True)
    seen_sets = {s for t in train if (s := _label_set(t)) is not None}
    return {
        t.id: ("seen" if _label_set(t) in seen_sets else "unseen")
        for t in test
        if t.kind is TaskKind.CLASSIFICATION
    }


def cmd_report(args) -> int:
    from ._jsontext import indented
    from .metrics import aggregate

    # inputs are read before outputs are checked, as in the other commands
    conditions = [(path, _read_score_rows(path)) for path in args.scores]
    out_file = Path(args.out) if args.out else None
    csv_file = Path(args.scores[0]).with_suffix(".summary.csv") if args.csv else None
    _check_overwrite([p for p in (out_file, csv_file) if p is not None], args.force)
    group_of = (
        _verbalizer_groups(args.train_tasks, args.test_tasks) if args.train_tasks else None
    )
    reports = [(path, aggregate(rows)) for path, rows in conditions]

    headers = ["condition", "All", "Cls.", "Gen."]
    rows = [
        [Path(path).name, f"{r.overall:.4f}", f"{r.cls_mean:.4f}", f"{r.gen_mean:.4f}"]
        for path, r in reports
    ]
    # every file is written before the first line, so a closed stdout loses none
    if out_file is not None:
        out_file.write_text(indented(reports[0][1].to_dict()) + "\n")
    if csv_file is not None:
        _write_csv(csv_file, headers, rows)
    print(_format_table(headers, rows))
    if args.verbose:
        for path, r in reports:
            print(f"{Path(path).name}: micro mean over instances = {r.micro:.4f}")

    if len(reports) >= 2:
        first, last = reports[0][1], reports[-1][1]
        delta_rows = []
        for task_id in sorted(first.per_task):
            if task_id in last.per_task:
                delta_rows.append(
                    [
                        task_id,
                        f"{first.per_task[task_id]:.4f}",
                        f"{last.per_task[task_id]:.4f}",
                        f"{last.per_task[task_id] - first.per_task[task_id]:+.4f}",
                    ]
                )
        print()
        print(_format_table(["task", "A", "B", "delta"], delta_rows))

    if group_of is not None:
        print()
        group_rows = []
        for group in ("seen", "unseen"):
            cells = [group]
            for _, r in reports:
                vals = [v for tid, v in r.per_task.items() if group_of.get(tid) == group]
                cells.append(f"{sum(vals) / len(vals):.4f}" if vals else "-")
            group_rows.append(cells)
        print(
            _format_table(
                ["verbalizers"] + [Path(p).name for p, _ in reports], group_rows
            )
        )
    return EXIT_OK


# ---------------------------------------------------------------- triplet


def cmd_triplet(args) -> int:
    from .triplet import build_triplet, meta_tuning_instances

    run = _Run(args, lambda tasks: ["triplets.jsonl", "meta_tuning.jsonl"])
    triplet_file, meta_file = run.outputs
    n_triplets = n_meta = 0
    with triplet_file.open("w", encoding="utf-8") as tf, meta_file.open("w", encoding="utf-8") as mf:
        for task, trip in run.results(build_triplet):
            tf.write(json.dumps(trip.to_dict()) + "\n")
            n_triplets += 1
            for row in meta_tuning_instances(task, trip, split_outputs=args.split_outputs):
                mf.write(json.dumps(row) + "\n")
                n_meta += 1
    return run.finish(
        f"wrote {n_triplets} triplets and {n_meta} meta-tuning instances to {run.out}",
        {"split_outputs": args.split_outputs},
        [],
    )


# ---------------------------------------------------------------- score


def cmd_score(args) -> int:
    from ._jsontext import indented
    from .scorer import ScoreCache, score

    backend = _backend(args)
    task = load_task_file(args.task, lenient=args.lenient)
    if args.definition_file is not None:
        try:
            definition = Path(args.definition_file).read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise DefkitError(f"{args.definition_file}: not valid UTF-8: {exc}") from exc
    elif args.definition is not None:
        definition = args.definition
    else:
        definition = task.definition
    n = args.n if args.n is not None else len(task.instances)
    fit, _ = split_examples(task, n, 0, args.seed)
    cache = ScoreCache(args.cache) if args.cache else None
    try:
        record = score(definition, task, fit, backend, cache)
    finally:
        if cache is not None:
            cache.close()
    print(indented(record))
    return EXIT_OK


# ---------------------------------------------------------------- wiring


def _add_backend_args(p: _Parser):
    p.add_argument("--backend", choices=["remote", "planted", "keyword"], required=True)
    p.add_argument("--endpoint-url", default=None)
    p.add_argument("--phrase", default="", help="planted phrase for the planted backend")
    p.add_argument("--max-new-tokens", type=_int_at_least(1), default=128)
    p.add_argument("--temperature", type=float, default=0.0)
    p.add_argument("--cache", default=None, help="append-only JSONL score cache path")


def _int_at_least(least: int):
    """An argparse type: an integer no smaller than `least`."""

    def parse(value: str) -> int:
        try:
            n = int(value)
        except ValueError:
            n = least - 1
        if n < least:
            raise argparse.ArgumentTypeError(f"expected an integer >= {least}, got {value!r}")
        return n

    return parse


# The `ablate --spec` choices: "all", then the keys of
# `ablation.REMOVED_CATEGORIES` in order. Spelled out here, so that building
# the parser loads neither ablation nor annotations; a test keeps the two equal.
ABLATE_SPECS = (
    "all", "input_add", "output_add", "all_add", "label_list", "label_desc",
    "all_label", "all_output", "all_input",
)


def build_parser() -> _Parser:
    parser = _Parser(prog="defkit", description=__doc__)
    parser.add_argument("--version", action="version", version=f"defkit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    shared = {
        "--jobs": dict(type=_int_at_least(1), default=os.cpu_count() or 1),
        "--seed": dict(type=int, default=0),
        "--lenient": dict(action="store_true"),
        "--csv": dict(action="store_true"),
        "--force": dict(action="store_true"),
    }

    def common(p: _Parser, *names: str):
        for name in names:
            p.add_argument(name, **shared[name])

    # ablate, report and triplet accept --jobs and --seed but read neither: the
    # benchmark's variants workload passes both to all three.
    p = sub.add_parser("ablate", help="build ablated definition variants")
    p.add_argument("--tasks", required=True)
    p.add_argument("--annotations", required=True)
    p.add_argument(
        "--spec",
        required=True,
        choices=ABLATE_SPECS,
    )
    p.add_argument("--out", required=True)
    common(p, "--jobs", "--seed", "--lenient", "--csv", "--force")
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("compress", help="syntax-guided definition compression")
    p.add_argument("--tasks", required=True)
    p.add_argument("--parses", required=True)
    _add_backend_args(p)
    p.add_argument("--fit-n", type=_int_at_least(1), required=True)
    p.add_argument("--holdout-n", type=_int_at_least(0), required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--epsilon", type=float, default=0.0)
    p.add_argument("--mode", choices=["current", "paper"], default="current")
    p.add_argument("--allow-empty", action="store_true")
    p.add_argument("--non-strict-coverage", action="store_true")
    common(p, "--jobs", "--seed", "--lenient", "--csv", "--force")
    p.set_defaults(func=cmd_compress)

    p = sub.add_parser("report", help="aggregate score rows into All/Cls./Gen. tables")
    p.add_argument("scores", nargs="+", help="score JSONL files (conditions, in order)")
    p.add_argument("--train-tasks", default=None)
    p.add_argument("--test-tasks", default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--verbose", action="store_true")
    common(p, "--jobs", "--seed", "--csv", "--force")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("triplet", help="emit triplet definitions and meta-tuning instances")
    p.add_argument("--tasks", required=True)
    p.add_argument("--annotations", required=True)
    p.add_argument("--parses", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--split-outputs", action="store_true")
    common(p, "--jobs", "--seed", "--lenient", "--force")
    p.set_defaults(func=cmd_triplet)

    p = sub.add_parser("score", help="score one definition against a backend")
    p.add_argument("--task", required=True)
    definition = p.add_mutually_exclusive_group()
    definition.add_argument("--definition", default=None)
    definition.add_argument("--definition-file", default=None)
    p.add_argument("--n", type=_int_at_least(1), default=None)
    _add_backend_args(p)
    common(p, "--seed", "--lenient")
    p.set_defaults(func=cmd_score)

    return parser


# The arguments that name a file or a directory: the inputs a command reads
# and the outputs it writes. `main` refuses an empty one, which would read or
# write the current directory, or no file at all, and an output that is an
# input.
_PATH_ARGS = {
    "input": (
        "scores", "task", "tasks", "annotations", "parses", "definition_file", "train_tasks",
        "test_tasks",
    ),
    "output": ("cache", "out"),
}
# The files ablate, compress and triplet may write into `--out`, besides
# compress's `TASK_ID.json` for each task.
_OUT_FILES = (
    "manifest.json", "summary.csv", "triplets.jsonl", "meta_tuning.jsonl",
    *(f"{spec}.jsonl" for spec in ABLATE_SPECS[1:]),
)


def _paths(args, role: str) -> Iterator[tuple[str, str]]:
    """(flag, path) of each path the command was given for an argument of
    `role`; `report`'s score files are all under the flag `scores`."""
    for dest in _PATH_ARGS[role]:
        value = getattr(args, dest, None)
        flag = dest if dest == "scores" else "--" + dest.replace("_", "-")
        for path in value if isinstance(value, list) else [] if value is None else [value]:
            yield flag, path


def _check_paths(args) -> None:
    for flag, path in (*_paths(args, "input"), *_paths(args, "output")):
        if path == "":
            raise FileNotFoundError(f"{flag}: the path is empty")


def _check_outputs(args) -> None:
    """Refuse a run that would write over what it reads, with or without
    `--force`: an output that is an input file or directory, an input file
    in `--out` that the run would write there, or a `*.json` output in a
    task directory, which the next run would load as a task. The outputs
    are `--cache`, `--out` and, with `report --csv`, `SCORES.summary.csv`."""
    inputs = {os.path.realpath(path): flag for flag, path in _paths(args, "input")}
    outputs = list(_paths(args, "output"))
    if args.command == "report" and args.csv and Path(args.scores[0]).name:
        outputs.append(("--csv", str(Path(args.scores[0]).with_suffix(".summary.csv"))))
    elif args.command in ("ablate", "compress", "triplet"):
        out = os.path.realpath(args.out)
        names = [os.path.basename(path) for path in inputs if os.path.dirname(path) == out]
        outputs += [
            ("--out", os.path.join(args.out, name)) for name in names
            if name in _OUT_FILES or (args.command == "compress" and name.endswith(".json"))
        ]
    for flag, path in outputs:
        real = os.path.realpath(path)
        reader = inputs.get(real)
        if reader is None and real.endswith(".json"):
            reader = inputs.get(os.path.dirname(real))
            reader = reader if reader in ("--tasks", "--train-tasks", "--test-tasks") else None
        if reader is not None:
            raise OSError(f"{flag} would write {path}, which {reader} reads")


def main(argv=None) -> int:
    """Run the command `argv` names and return its exit code. Without
    `argv`, as the console script and `python -m defkit.cli` call it, the
    command line is `sys.argv` and the process ends with the exit code
    once stdout and stderr are flushed, skipping the interpreter's
    teardown: every file a command opens is closed when it returns, and
    defkit registers no `atexit` hook. An exception that escapes (usage
    errors, `--help`, an interrupt) exits the normal way."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "report" and (args.train_tasks is None) != (args.test_tasks is None):
        parser.error("report: --train-tasks and --test-tasks go together")
    try:
        _check_paths(args)
        _check_outputs(args)
        code = args.func(args)
        # a closed stdout fails here, as one `error:` line, not at exit
        sys.stdout.flush()
    except (DefkitError, OSError) as exc:
        code = next(code for cls, code in _EXIT_CODES if isinstance(exc, cls))
        if code == EXIT_BACKEND:
            print(f"backend error: {exc}", file=sys.stderr)
        else:
            print(f"error: {exc}", file=sys.stderr)
    if argv is not None:
        return code
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except OSError:
            pass  # stdout failed above and was reported; stderr cannot be told
    os._exit(code)


if __name__ == "__main__":
    # `python -m defkit.cli` runs this file as `__main__`; run the imported
    # `defkit.cli`, as the console script does, so warnings name it
    from defkit.cli import main as _main

    raise SystemExit(_main())
