"""Run one `defkit` command in-process with spans around every layer call.

Usage: python3 perfbench/tracer.py SPANS SUMMARY -- <defkit arguments>

The program under test is not changed: public functions and methods of
the defkit modules are wrapped from here. A module that imported a name
directly (`from .parse import remove_subtree`) holds its own binding, so
every binding of a wrapped function is replaced in every defkit module,
and methods are replaced on their classes.

A span records its id, its parent's id, the task it works for, its name
and its start and end. Parents are tracked per thread; a span opened on a
worker thread with no open span of its own takes the main thread's open
span as its parent. Spans stay in memory until the command ends, then
SPANS gets one JSON array per span and SUMMARY the per-name totals, self
times, layer self times and counters the benchmark reports.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

from layers import LAYERS

# (module, function, index of the Task argument or None)
FUNCTIONS = (
    ("corpus", "load_task_dir", None),
    ("corpus", "load_task_file", None),
    ("corpus", "assemble_prompt", 0),
    ("corpus", "split_examples", 0),
    ("annotations", "load_annotations", None),
    ("annotations", "validate_annotation", 0),
    ("metrics", "normalize", None),
    ("metrics", "lcs_length", None),
    ("metrics", "rouge_l", None),
    ("metrics", "aggregate", None),
    ("parse", "parse_bracketed", None),
    ("parse", "nodes_at_depth", None),
    ("parse", "remove_subtree", None),
    ("parse", "render", None),
    ("ablation", "apply_ablation", 0),
    ("ablation", "compression_ratio", None),
    ("scorer", "score", 1),
    ("scorer", "build_backend", None),
    ("stdc", "compress", 0),
    ("stdc", "evaluate_holdout", 0),
    ("triplet", "build_triplet", 0),
    ("triplet", "meta_tuning_instances", 0),
    ("manifest", "file_digest", None),
    ("cli", "main", None),
    ("cli", "cmd_ablate", None),
    ("cli", "cmd_compress", None),
    ("cli", "cmd_report", None),
    ("cli", "cmd_triplet", None),
)

# The backends the workloads use.
BACKEND_METHODS = (
    ("KeywordLabelBackend", "generate"),
    ("RemoteBackend", "generate"),
)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.ids = itertools.count(1)
        self.local = threading.local()
        self.main_stack: list[tuple[int, str | None]] = self._stack()
        self.lock = threading.Lock()
        self.counters: dict[str, float] = defaultdict(float)
        self.request_ms: list[float] = []
        self.caches: list[tuple[Path, int]] = []

    def _stack(self) -> list:
        stack = getattr(self.local, "stack", None)
        if stack is None:
            stack = self.local.stack = []
        return stack

    def count(self, name: str, n: float = 1) -> None:
        with self.lock:
            self.counters[name] += n

    def wrap(self, name: str, fn, task_arg: int | None = None, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else (
                tracer.main_stack[-1] if tracer.main_stack else (0, None)
            )
            task = parent[1]
            if task_arg is not None and len(args) > task_arg:
                task = getattr(args[task_arg], "id", task)
            span_id = next(tracer.ids)
            stack.append((span_id, task))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append((span_id, parent[0], task, name, start, end))
            if after is not None:
                after(args, result, end - start)
            return result

        return traced

    # ----------------------------------------------------------- install

    def install(self) -> None:
        modules = {name: importlib.import_module(f"defkit.{name}") for name in LAYERS}
        hooks = {
            ("metrics", "lcs_length"): lambda a, r, d: self.count("lcs_cells", len(a[0]) * len(a[1])),
            ("stdc", "compress"): self._after_compress,
            ("triplet", "build_triplet"): lambda a, r, d: self.count("needs_review", int(r.needs_review)),
        }
        replaced = {}
        for module, func, task_arg in FUNCTIONS:
            original = getattr(modules[module], func)
            replaced[id(original)] = self.wrap(
                f"{module}.{func}", original, task_arg, hooks.get((module, func))
            )
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if id(value) in replaced:
                    setattr(mod, attr, replaced[id(value)])

        scorer = modules["scorer"]
        cache_cls = scorer.ScoreCache
        cache_cls.__init__ = self.wrap("scorer.cache.load", cache_cls.__init__, after=self._after_load)
        cache_cls.get = self.wrap("scorer.cache.get", cache_cls.get, after=self._after_get)
        cache_cls.put = self.wrap("scorer.cache.put", cache_cls.put)
        for cls_name, method in BACKEND_METHODS:
            cls = getattr(scorer, cls_name)
            setattr(cls, method, self.wrap("scorer.backend", getattr(cls, method), after=self._after_backend))
        remote = scorer.RemoteBackend
        remote._post = self.wrap("scorer.backend.post", remote._post)
        requests = scorer.requests
        requests.post = self.wrap("scorer.backend.http", requests.post, after=self._after_http)

    def _after_compress(self, args, result, _):
        self.count("candidates", len(result.steps))
        self.count("accepted", sum(1 for s in result.steps if s.accepted))

    def _after_load(self, args, result, _):
        cache = args[0]
        self.count("records_loaded", len(cache))
        self.caches.append((cache.path, cache.path.stat().st_size if cache.path.exists() else 0))

    def _after_get(self, args, result, _):
        if result is not None:
            self.count("cache_hits")

    def _after_backend(self, args, result, seconds):
        self.count("prompts", len(args[-1].instances))
        self.count("backend_invocations")
        if args[0].__class__.__name__ != "RemoteBackend":
            with self.lock:
                self.request_ms.append(seconds * 1000)

    def _after_http(self, args, result, seconds):
        with self.lock:
            self.request_ms.append(seconds * 1000)

    # ----------------------------------------------------------- summary

    def summary(self) -> dict:
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for _, parent, _, _, start, end in self.spans:
            children[parent].append((start, end))
        names: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        layers: dict[str, float] = defaultdict(float)
        for span_id, _, _, name, start, end in self.spans:
            own = (end - start) - _covered(children.get(span_id, ()), start, end)
            totals = names[name]
            totals[0] += 1
            totals[1] += end - start
            totals[2] += own
            layers[name.split(".")[0]] += own
        counters = dict(self.counters)
        counters["bytes_written"] = sum(
            (path.stat().st_size if path.exists() else 0) - size for path, size in self.caches
        )
        return {
            "names": names,
            "layers": layers,
            "counters": counters,
            "request_ms": self.request_ms,
        }

    def write(self, spans_path: Path, summary_path: Path) -> None:
        with spans_path.open("w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
        summary_path.write_text(json.dumps(self.summary()), encoding="utf-8")


def _covered(intervals, start: float, end: float) -> float:
    """Length of [start, end] covered by the union of the intervals."""
    total, reach = 0.0, start
    for s, e in sorted(intervals):
        s, e = max(s, reach), min(e, end)
        if e > s:
            total += e - s
            reach = e
    return total


def main() -> int:
    spans_path, summary_path, sep, *argv = sys.argv[1:]
    if sep != "--":
        print("usage: tracer.py SPANS SUMMARY -- <defkit arguments>", file=sys.stderr)
        return 64
    tracer = Tracer()
    tracer.install()
    from defkit import cli

    sys.argv = ["defkit", *argv]
    try:
        code = cli.main(argv)
    finally:
        tracer.write(Path(spans_path), Path(summary_path))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
