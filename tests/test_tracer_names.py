"""Every defkit name the benchmark tracer (`perfbench/tracer.py`) wraps,
and every attribute its hooks read, exists, so a deleted or renamed one
fails here rather than in a `--trace 1` run."""

import importlib
from pathlib import Path

import pytest

from defkit import scorer
from defkit.corpus import TaskKind, split_examples
from defkit.scorer import GenerationContext, GenerationParams, ScoreCache, score
from defkit.stubserver import StubServer

from conftest import make_task

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("tracer")  # imported only: install() is not called


def test_wrapped_functions_resolve(tracer):
    layers = importlib.import_module("layers")
    for module in layers.LAYERS:
        importlib.import_module(f"defkit.{module}")
    for module, func, _ in tracer.FUNCTIONS:
        assert callable(getattr(importlib.import_module(f"defkit.{module}"), func, None)), (
            f"defkit.{module}.{func}"
        )


def test_wrapped_methods_resolve(tracer):
    scorer = importlib.import_module("defkit.scorer")
    for cls, method in tracer.BACKEND_METHODS:
        assert callable(getattr(getattr(scorer, cls, None), method, None)), f"{cls}.{method}"
    assert callable(scorer.RemoteBackend._post)
    assert callable(scorer.ScoreCache.get)
    assert callable(scorer.ScoreCache.put)


def test_requests_bridge_resolves(tracer):
    pytest.importorskip("requests")
    scorer = importlib.import_module("defkit.scorer")
    assert callable(scorer.requests.post)


def test_what_the_tracer_hooks_read_resolves(tracer, tmp_path, monkeypatch):
    """The hooks read `len(cache)` and `cache.path` of a cache that loaded,
    and `.instances` of the context that a wrapped backend `generate`
    receives; run them on real calls, wrapped as `install` wraps them."""
    t = tracer.Tracer()
    monkeypatch.setattr(
        ScoreCache, "__init__", t.wrap("scorer.cache.load", ScoreCache.__init__, after=t._after_load)
    )
    for cls_name, method in tracer.BACKEND_METHODS:
        cls = getattr(scorer, cls_name)
        wrapped = t.wrap("scorer.backend", getattr(cls, method), after=t._after_backend)
        monkeypatch.setattr(cls, method, wrapped)

    task = make_task(kind=TaskKind.GENERATION, label_list=None, n_instances=3)
    fit, _ = split_examples(task, 3, 0, 0)
    path = tmp_path / "cache.jsonl"
    cache = ScoreCache(path)
    score(task.definition, task, fit, scorer.KeywordLabelBackend(), cache=cache)
    cache.close()
    assert t.caches == [(path, 0)]
    assert (t.counters["records_loaded"], t.counters["prompts"]) == (0, 3)

    with StubServer() as server:
        scorer.RemoteBackend(server.url, GenerationParams()).generate(
            GenerationContext(task.definition, task, task.instances)
        )
    assert (t.counters["backend_invocations"], t.counters["prompts"]) == (2, 6)
