"""Every defkit name the benchmark tracer (`perfbench/tracer.py`) wraps
exists, so a deleted or renamed function fails here rather than in a
`--trace 1` run."""

import importlib
from pathlib import Path

import pytest

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
