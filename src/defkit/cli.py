"""Subcommand front-end: ablate, compress, report, triplet, score."""

from __future__ import annotations

import argparse
import csv as csv_mod
import json
import logging
import os
import shlex
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from . import __version__
from .ablation import (
    AblationName,
    AblationSpec,
    apply_ablation,
)
from .annotations import AnnotationSet, load_annotations
from .corpus import Task, TaskKind, load_task_dir, load_task_file, split_examples
from .errors import BackendError, ConfigError, DefkitError, UnbalancedError, ValidationError
from .manifest import RunManifest, file_digest
from .metrics import aggregate
from .parse import parse_bracketed
from .triplet import build_triplet, meta_tuning_instances

# The scoring stack (scorer, stdc, concurrent.futures) is imported
# by the commands that score, so ablate, triplet and report never load it.
if TYPE_CHECKING:
    from .scorer import ScorerConfig

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_IO = 1
EXIT_VALIDATION = 2
EXIT_BACKEND = 3
EXIT_USAGE = 64

# What `main` does with an exception a command raises: the first class that
# matches gives the exit code. A command that goes on past a failed task
# collects that failure itself and prints it as a "validation failure".
_EXIT_CODES = (
    (ConfigError, EXIT_USAGE),
    (BackendError, EXIT_BACKEND),
    (OSError, EXIT_IO),
    ((DefkitError, UnicodeDecodeError), EXIT_VALIDATION),
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
    with path.open("w", newline="") as fh:
        writer = csv_mod.writer(fh)
        writer.writerow(headers)
        writer.writerows(rows)


def _check_overwrite(paths: list[Path], force: bool) -> None:
    existing = [p for p in paths if p.exists()]
    if existing and not force:
        raise FileExistsError(
            f"refusing to overwrite {existing[0]} (and possibly others); pass --force"
        )


def _annotations_by_task(path: str) -> dict[str, AnnotationSet]:
    by_task: dict[str, AnnotationSet] = {}
    for ann in load_annotations(path):
        by_task.setdefault(ann.task_id, ann)
    return by_task


def _load_parse_lines(path: str, tasks: list[Task]):
    lines = [
        (lineno, line)
        for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1)
        if line.strip()
    ]
    if len(lines) != len(tasks):
        raise ValidationError(
            f"{path}: {len(lines)} parse lines for {len(tasks)} tasks "
            "(lines align by index to the sorted task files)"
        )
    trees = []
    for lineno, line in lines:
        try:
            trees.append(parse_bracketed(line))
        except UnbalancedError as exc:
            raise UnbalancedError(f"{path}:{lineno}: {exc}", exc.position) from exc
    return trees


def _scorer_config(args) -> ScorerConfig:
    from .scorer import ScorerConfig

    return ScorerConfig(
        backend=args.backend,
        endpoint_url=args.endpoint_url,
        constant_value=args.constant_value,
        planted_phrase=args.phrase or "",
        max_new_tokens=args.max_new_tokens,
        temperature=args.temperature,
        seed=args.seed,
    )


# ---------------------------------------------------------------- ablate


def cmd_ablate(args) -> int:
    tasks = load_task_dir(args.tasks, lenient=args.lenient)
    anns = _annotations_by_task(args.annotations)
    if args.spec == "all":
        specs = [AblationSpec(name) for name in AblationName]
    else:
        specs = [AblationSpec(AblationName(args.spec))]

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    out_files = [out_dir / f"{spec.name.value}.jsonl" for spec in specs]
    _check_overwrite(out_files, args.force)

    failures: list[str] = []
    summary_rows: list[list[str]] = []
    for spec, out_file in zip(specs, out_files):
        ratios = []
        with out_file.open("w", encoding="utf-8") as fh:
            for task in tasks:
                ann = anns.get(task.id)
                if ann is None:
                    failures.append(f"{task.id}: no annotation record")
                    continue
                try:
                    ablated = apply_ablation(task, ann, spec)
                except ValidationError as exc:
                    failures.append(f"{task.id}: {exc}")
                    continue
                if ablated.ratio == 1.0 and not any(
                    s.category in spec.removed_categories for s in ann.spans
                ):
                    logger.warning(
                        "task %s: no %s spans to remove; ratio 1.0",
                        task.id,
                        spec.name.value,
                    )
                fh.write(
                    json.dumps(
                        {
                            "task_id": task.id,
                            "spec": spec.name.value,
                            "text": ablated.text,
                            "ratio": ablated.ratio,
                        },
                        sort_keys=True,
                    )
                    + "\n"
                )
                ratios.append(ablated.ratio)
        mean = sum(ratios) / len(ratios) if ratios else 0.0
        summary_rows.append([spec.name.value, f"{100 * mean:.0f}%", str(len(ratios))])

    print(_format_table(["spec", "%C", "tasks"], summary_rows))
    if args.csv:
        _write_csv(out_dir / "summary.csv", ["spec", "pct_c", "tasks"], summary_rows)
    RunManifest(
        command_line=_command_line(),
        config={"spec": args.spec, "lenient": args.lenient},
        input_digests={args.annotations: file_digest(args.annotations)},
        seeds=[],
    ).write(out_dir)
    if failures:
        for failure in sorted(set(failures)):
            print(f"validation failure: {failure}", file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_OK


# ---------------------------------------------------------------- compress


def cmd_compress(args) -> int:
    from concurrent.futures import ThreadPoolExecutor

    from .scorer import ScoreCache, build_backend
    from .stdc import StdcConfig, compress, evaluate_holdout

    cfg = _scorer_config(args)
    stdc_cfg = StdcConfig(
        baseline_mode=args.mode,
        epsilon=args.epsilon,
        allow_empty_result=args.allow_empty,
    )
    tasks = load_task_dir(args.tasks, lenient=args.lenient)
    trees = _load_parse_lines(args.parses, tasks)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    _check_overwrite([out_dir / f"{t.id}.json" for t in tasks], args.force)

    backend = build_backend(cfg)
    cache = ScoreCache(args.cache) if args.cache else None

    failures: list[str] = []
    backend_errors: list[BackendError] = []
    table_rows: list[list[str]] = []
    aggregates: list[tuple[float, float, float, float]] = []

    def safe_run(task_tree):
        """(task, result, report), or (task, the error, None) if the task failed."""
        task, tree = task_tree
        try:
            fit, holdout = split_examples(task, args.fit_n, args.holdout_n, args.seed)
            result = compress(task, tree, fit, backend, cfg.params, stdc_cfg, cache)
            report = evaluate_holdout(
                task, result, holdout, backend, cfg.params, cache,
                strict=not args.non_strict_coverage,
            )
        except DefkitError as exc:
            return task, exc, None
        return task, result, report

    pairs = list(zip(tasks, trees))
    try:
        if args.jobs > 1:
            with ThreadPoolExecutor(max_workers=args.jobs) as pool:
                outcomes = list(pool.map(safe_run, pairs))
        else:
            outcomes = [safe_run(p) for p in pairs]
    finally:
        if cache is not None:
            cache.close()

    for task, result, report in outcomes:
        if isinstance(result, BackendError):
            backend_errors.append(result)
            continue
        if isinstance(result, DefkitError):
            failures.append(f"{task.id}: {result}")
            continue
        payload = {"compression": result.to_dict(), "holdout": report.to_dict()}
        (out_dir / f"{task.id}.json").write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n"
        )
        aggregates.append((result.ratio, report.before, report.after, report.coverage))
        table_rows.append(
            [
                task.id,
                f"{result.ratio:.2f}",
                f"{report.before:.3f}",
                f"{report.after:.3f}",
                f"{report.coverage:.2f}",
            ]
        )

    if aggregates:
        n = len(aggregates)
        means = [sum(col) / n for col in zip(*aggregates)]
        table_rows.append(
            ["MEAN", f"{means[0]:.2f}", f"{means[1]:.3f}", f"{means[2]:.3f}", f"{means[3]:.2f}"]
        )
    headers = ["task", "ratio", "before", "after", "coverage"]
    print(_format_table(headers, table_rows))
    if args.csv:
        _write_csv(out_dir / "summary.csv", headers, table_rows)

    RunManifest(
        command_line=_command_line(),
        config={
            "backend": args.backend,
            "mode": args.mode,
            "epsilon": args.epsilon,
            "fit_n": args.fit_n,
            "holdout_n": args.holdout_n,
            "temperature": args.temperature,
            "max_new_tokens": args.max_new_tokens,
        },
        input_digests={args.parses: file_digest(args.parses)},
        seeds=[args.seed],
        extra={
            "backend_id": backend.backend_id,
            "backend_calls": backend.calls,
            "cache_hits": cache.hits if cache else 0,
        },
    ).write(out_dir)

    for failure in failures:
        print(f"validation failure: {failure}", file=sys.stderr)
    if backend_errors:
        raise backend_errors[0]
    return EXIT_VALIDATION if failures else EXIT_OK


# ---------------------------------------------------------------- report


def _read_score_rows(path: str) -> list[tuple[str, TaskKind, float]]:
    rows = []
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        if not line.strip():
            continue
        try:
            data = json.loads(line)
            if not isinstance(data["task_id"], str):
                raise TypeError("task_id must be a string")
            rows.append((data["task_id"], TaskKind(data["kind"]), float(data["score"])))
        except (ValueError, KeyError, TypeError) as exc:
            raise ValidationError(f"{path}:{lineno}: malformed score row: {exc}")
    if not rows:
        raise ValidationError(f"{path}: no score rows")
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
    conditions = [(path, _read_score_rows(path)) for path in args.scores]
    group_of = (
        _verbalizer_groups(args.train_tasks, args.test_tasks) if args.train_tasks else None
    )
    reports = [(path, aggregate(rows)) for path, rows in conditions]

    headers = ["condition", "All", "Cls.", "Gen."]
    rows = [
        [Path(path).name, f"{r.overall:.4f}", f"{r.cls_mean:.4f}", f"{r.gen_mean:.4f}"]
        for path, r in reports
    ]
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

    if args.out:
        Path(args.out).write_text(
            json.dumps(reports[0][1].to_dict(), indent=2, sort_keys=True) + "\n"
        )
    if args.csv:
        _write_csv(Path(args.scores[0]).with_suffix(".summary.csv"), headers, rows)
    return EXIT_OK


# ---------------------------------------------------------------- triplet


def cmd_triplet(args) -> int:
    tasks = load_task_dir(args.tasks, lenient=args.lenient)
    anns = _annotations_by_task(args.annotations)
    trees = _load_parse_lines(args.parses, tasks)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    triplet_file = out_dir / "triplets.jsonl"
    meta_file = out_dir / "meta_tuning.jsonl"
    _check_overwrite([triplet_file, meta_file], args.force)

    failures = []
    n_triplets = n_meta = 0
    with triplet_file.open("w", encoding="utf-8") as tf, meta_file.open("w", encoding="utf-8") as mf:
        trees.reverse()
        for task in tasks:
            tree = trees.pop()  # the list lets go of each tree, and its cached layout, once used
            ann = anns.get(task.id)
            if ann is None:
                failures.append(f"{task.id}: no annotation record")
                continue
            try:
                trip = build_triplet(task, ann, tree)
            except DefkitError as exc:
                failures.append(f"{task.id}: {exc}")
                continue
            tf.write(json.dumps(trip.to_dict(), sort_keys=True) + "\n")
            n_triplets += 1
            for inst in meta_tuning_instances(task, trip, split_outputs=args.split_outputs):
                mf.write(json.dumps(inst.to_dict(), sort_keys=True) + "\n")
                n_meta += 1
    print(f"wrote {n_triplets} triplets and {n_meta} meta-tuning instances to {out_dir}")
    RunManifest(
        command_line=_command_line(),
        config={"split_outputs": args.split_outputs},
        input_digests={
            args.annotations: file_digest(args.annotations),
            args.parses: file_digest(args.parses),
        },
        seeds=[],
    ).write(out_dir)
    if failures:
        for failure in failures:
            print(f"validation failure: {failure}", file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_OK


# ---------------------------------------------------------------- score


def cmd_score(args) -> int:
    from .scorer import ScoreCache, build_backend, score

    cfg = _scorer_config(args)
    task = load_task_file(args.task, lenient=args.lenient)
    if args.definition_file:
        definition = Path(args.definition_file).read_text(encoding="utf-8")
    elif args.definition is not None:
        definition = args.definition
    else:
        definition = task.definition
    n = args.n if args.n is not None else len(task.instances)
    fit, _ = split_examples(task, n, 0, args.seed)
    backend = build_backend(cfg)
    cache = ScoreCache(args.cache) if args.cache else None
    try:
        record = score(definition, task, fit, backend, cfg.params, cache)
    finally:
        if cache is not None:
            cache.close()
    print(json.dumps(record.to_dict(), indent=2, sort_keys=True))
    return EXIT_OK


# ---------------------------------------------------------------- wiring


def _command_line() -> str:
    return shlex.join(sys.argv)


def _add_backend_args(p: _Parser):
    p.add_argument("--backend", choices=["remote", "constant", "planted", "keyword"], required=True)
    p.add_argument("--endpoint-url", default=None)
    p.add_argument("--constant-value", type=float, default=0.5)
    p.add_argument("--phrase", default=None, help="planted phrase for the planted backend")
    p.add_argument("--max-new-tokens", type=int, default=128)
    p.add_argument("--temperature", type=float, default=0.0)
    p.add_argument("--cache", default=None, help="append-only JSONL score cache path")


def _positive_int(value: str) -> int:
    try:
        n = int(value)
    except ValueError:
        n = 0
    if n < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {value!r}")
    return n


def build_parser() -> _Parser:
    parser = _Parser(prog="defkit", description=__doc__)
    parser.add_argument("--version", action="version", version=f"defkit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    shared = {
        "--jobs": dict(type=_positive_int, default=os.cpu_count() or 1),
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
        choices=["all"] + [n.value for n in AblationName],
    )
    p.add_argument("--out", required=True)
    common(p, "--jobs", "--seed", "--lenient", "--csv", "--force")
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("compress", help="syntax-guided definition compression")
    p.add_argument("--tasks", required=True)
    p.add_argument("--parses", required=True)
    _add_backend_args(p)
    p.add_argument("--fit-n", type=int, required=True)
    p.add_argument("--holdout-n", type=int, required=True)
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
    common(p, "--jobs", "--seed", "--csv")
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
    p.add_argument("--definition", default=None)
    p.add_argument("--definition-file", default=None)
    p.add_argument("--n", type=int, default=None)
    _add_backend_args(p)
    common(p, "--seed", "--lenient")
    p.set_defaults(func=cmd_score)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "report" and (args.train_tasks is None) != (args.test_tasks is None):
        parser.error("report: --train-tasks and --test-tasks go together")
    try:
        return args.func(args)
    except (DefkitError, OSError, UnicodeDecodeError) as exc:
        code = next(code for cls, code in _EXIT_CODES if isinstance(exc, cls))
        if code == EXIT_BACKEND:
            print(f"backend error: {exc}", file=sys.stderr)
        else:
            print(f"error: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    raise SystemExit(main())
