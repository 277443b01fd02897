"""Per-layer metrics of one traced invocation, from the tracer's summaries.

Each metric is listed with its unit, in the order BENCHMARK.json lists the
`per_layer` metrics. Times are in seconds unless the name says `_ms`.
`<layer>.self_s` is the time spent in a layer's own code: its spans'
durations minus the time their child spans cover.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

LAYERS = (
    "corpus", "annotations", "metrics", "parse", "ablation", "scorer",
    "stdc", "triplet", "cli", "manifest",
)

# metric name -> (unit, span name, field) for plain span totals; field is
# 0 for calls, 1 for inclusive seconds, 2 for self seconds.
SPAN_METRICS = {
    "metrics.rouge_l.calls": ("count", "metrics.rouge_l", 0),
    "metrics.rouge_l.s": ("s", "metrics.rouge_l", 1),
    "metrics.lcs_length.calls": ("count", "metrics.lcs_length", 0),
    "metrics.lcs_length.s": ("s", "metrics.lcs_length", 1),
    "metrics.normalize.calls": ("count", "metrics.normalize", 0),
    "metrics.aggregate.s": ("s", "metrics.aggregate", 1),
    "parse.remove_subtree.calls": ("count", "parse.remove_subtree", 0),
    "parse.remove_subtree.s": ("s", "parse.remove_subtree", 1),
    "parse.render.calls": ("count", "parse.render", 0),
    "parse.render.s": ("s", "parse.render", 1),
    "parse.nodes_at_depth.s": ("s", "parse.nodes_at_depth", 1),
    "parse.parse_bracketed.s": ("s", "parse.parse_bracketed", 1),
    "stdc.compress.calls": ("count", "stdc.compress", 0),
    "stdc.compress.self_s": ("s", "stdc.compress", 2),
    "stdc.evaluate_holdout.s": ("s", "stdc.evaluate_holdout", 1),
    "scorer.score.calls": ("count", "scorer.score", 0),
    "scorer.score.self_s": ("s", "scorer.score", 2),
    "scorer.cache.load_s": ("s", "scorer.cache.load", 1),
    "scorer.cache.put.calls": ("count", "scorer.cache.put", 0),
    "scorer.cache.put.s": ("s", "scorer.cache.put", 1),
    "scorer.backend.calls": ("count", "scorer.backend", 0),
    "scorer.backend.s": ("s", "scorer.backend", 1),
    "corpus.assemble_prompt.calls": ("count", "corpus.assemble_prompt", 0),
    "corpus.assemble_prompt.s": ("s", "corpus.assemble_prompt", 1),
    "corpus.load_task_dir.s": ("s", "corpus.load_task_dir", 1),
    "corpus.split_examples.calls": ("count", "corpus.split_examples", 0),
    "annotations.load_annotations.s": ("s", "annotations.load_annotations", 1),
    "annotations.validate_annotation.calls": ("count", "annotations.validate_annotation", 0),
    "annotations.validate_annotation.s": ("s", "annotations.validate_annotation", 1),
    "ablation.apply_ablation.calls": ("count", "ablation.apply_ablation", 0),
    "ablation.apply_ablation.s": ("s", "ablation.apply_ablation", 1),
    "triplet.build_triplet.calls": ("count", "triplet.build_triplet", 0),
    "triplet.build_triplet.s": ("s", "triplet.build_triplet", 1),
    "manifest.file_digest.s": ("s", "manifest.file_digest", 1),
}

OTHER_METRICS = {
    "metrics.lcs_cells": "count",
    "stdc.candidates": "count",
    "stdc.accepted_share": "ratio",
    "scorer.cache.hit_share": "ratio",
    "scorer.cache.records_loaded": "count",
    "scorer.cache.bytes_written": "B",
    "scorer.backend.request_p50_ms": "ms",
    "scorer.backend.request_p95_ms": "ms",
    "scorer.backend.retries": "count",
    "scorer.backend.prompts_per_request": "count",
    "triplet.needs_review_share": "ratio",
    "stubserver.requests": "count",
    "stubserver.prompts": "count",
    "stubserver.busy_s": "s",
    "stubserver.in_flight_max": "count",
    "backend_requests": "count",
    "backend_prompts": "count",
    "trace.spans": "count",
    "trace.overhead_s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
}

UNITS = {name: unit for name, (unit, _, _) in SPAN_METRICS.items()} | OTHER_METRICS


def merge(summaries: list[dict]) -> dict:
    """Add up the summaries of the CLI commands of one invocation."""
    names: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
    layers: dict[str, float] = defaultdict(float)
    counters: dict[str, float] = defaultdict(float)
    request_ms: list[float] = []
    for s in summaries:
        for name, totals in s["names"].items():
            for i, v in enumerate(totals):
                names[name][i] += v
        for layer, v in s["layers"].items():
            layers[layer] += v
        for name, v in s["counters"].items():
            counters[name] += v
        request_ms += s["request_ms"]
    return {"names": names, "layers": layers, "counters": counters, "request_ms": request_ms}


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _percentile(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(summary: dict, stand_in: dict | None, backend_requests: int) -> dict[str, float]:
    """Every per-layer metric except `trace.overhead_s`, which needs the
    untraced runs too. `stand_in` holds the model stand-in's counters on the
    remote workload and is None elsewhere."""
    names, counters = summary["names"], summary["counters"]
    out: dict[str, float] = {}
    for metric, (_, span, field) in SPAN_METRICS.items():
        out[metric] = names.get(span, [0, 0.0, 0.0])[field]
    for layer in LAYERS:
        out[f"{layer}.self_s"] = summary["layers"].get(layer, 0.0)
    out["metrics.lcs_cells"] = counters.get("lcs_cells", 0)
    out["stdc.candidates"] = counters.get("candidates", 0)
    out["stdc.accepted_share"] = _share(counters.get("accepted", 0), counters.get("candidates", 0))
    out["scorer.cache.hit_share"] = _share(
        counters.get("cache_hits", 0), out["scorer.score.calls"]
    )
    out["scorer.cache.records_loaded"] = counters.get("records_loaded", 0)
    out["scorer.cache.bytes_written"] = counters.get("bytes_written", 0)
    out["scorer.backend.request_p50_ms"] = _percentile(summary["request_ms"], 50)
    out["scorer.backend.request_p95_ms"] = _percentile(summary["request_ms"], 95)
    out["scorer.backend.retries"] = (
        names.get("scorer.backend.http", [0])[0] - names.get("scorer.backend.post", [0])[0]
    )
    out["triplet.needs_review_share"] = _share(
        counters.get("needs_review", 0), out["triplet.build_triplet.calls"]
    )
    stand_in = stand_in or {}
    for key in ("requests", "prompts", "busy_s", "in_flight_max"):
        out[f"stubserver.{key}"] = stand_in.get(key, 0)
    prompts = stand_in["prompts"] if stand_in else counters.get("prompts", 0)
    out["backend_requests"] = backend_requests
    out["backend_prompts"] = prompts
    out["scorer.backend.prompts_per_request"] = _share(prompts, backend_requests)
    out["trace.spans"] = sum(totals[0] for totals in names.values())
    return out
