import json
import random
import sys
import tempfile
import threading
import time
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from defkit.corpus import TaskKind, split_examples
from defkit.cli import main
from defkit.errors import BackendError, BackendTimeoutError
from defkit.parse import nodes_at_depth, parse_bracketed, render
from defkit.scorer import (
    GenerationContext,
    GenerationParams,
    RemoteBackend,
    ScoreCache,
    score,
    score_many,
)
from defkit.stdc import StdcConfig, compress, evaluate_holdout
from defkit.stubserver import StubServer, echo_generation

from conftest import make_task, write_task_file
from test_stdc import _TREE_TEXTS


def echo_task(n=4):
    inputs = [f"sentence number {i}" for i in range(n)]
    return make_task(
        task_id="task_echo",
        kind=TaskKind.GENERATION,
        label_list=None,
        n_instances=n,
        inputs=inputs,
        references=[[inp] for inp in inputs],
    )


def fit_set(task):
    fit, _ = split_examples(task, len(task.instances), 0, 0)
    return fit


class TestEchoGeneration:
    def test_extracts_last_input_block(self):
        prompt = (
            "Definition: d\n"
            "Positive Example 1- Input: a Output: b\n"
            "Now complete the following example- Input: the payload Output:"
        )
        assert echo_generation(prompt) == "the payload"

    def test_no_marker_passthrough(self):
        assert echo_generation("plain text") == "plain text"


class TestRemoteBackend:
    def test_echo_alignment_scores_one(self):
        task = echo_task()
        with StubServer() as server:
            backend = RemoteBackend(server.url, GenerationParams())
            record = score(task.definition, task, fit_set(task), backend)
        assert record.per_instance == (1.0,) * 4
        assert backend.calls == 1

    def test_request_payload_and_params(self):
        task = echo_task(2)
        params = GenerationParams(max_new_tokens=32, temperature=0.5, seed=7)
        with StubServer() as server:
            backend = RemoteBackend(server.url, params)
            score(task.definition, task, fit_set(task), backend)
            body = server.requests[0]["body"]
        assert len(body["prompts"]) == 2
        assert body["max_new_tokens"] == 32
        assert body["temperature"] == 0.5
        assert body["seed"] == 7

    def test_bearer_token_from_environment(self, monkeypatch):
        monkeypatch.setenv("DEFKIT_API_KEY", "sekrit")
        task = echo_task(2)
        with StubServer() as server:
            backend = RemoteBackend(server.url, GenerationParams())
            score(task.definition, task, fit_set(task), backend)
            auth = server.requests[0]["authorization"]
        assert auth == "Bearer sekrit"

    def test_no_token_no_header(self, monkeypatch):
        monkeypatch.delenv("DEFKIT_API_KEY", raising=False)
        task = echo_task(2)
        with StubServer() as server:
            backend = RemoteBackend(server.url, GenerationParams())
            score(task.definition, task, fit_set(task), backend)
            assert server.requests[0]["authorization"] is None

    def test_misaligned_response_fails_fast(self):
        task = echo_task(3)
        with StubServer(mode="misaligned") as server:
            backend = RemoteBackend(server.url, GenerationParams())
            with pytest.raises(BackendError, match="misaligned"):
                score(task.definition, task, fit_set(task), backend)
        # a contract violation is not retried
        assert backend.calls == 1

    def test_server_errors_exhaust_retries(self):
        task = echo_task(2)
        with StubServer(mode="error") as server:
            backend = RemoteBackend(server.url, GenerationParams(), backoffs=(0, 0))
            with pytest.raises(BackendError, match="after retries") as exc:
                score(task.definition, task, fit_set(task), backend)
            assert len(server.requests) == 3  # initial attempt + 2 retries
        assert backend.calls == 3
        assert not isinstance(exc.value, BackendTimeoutError)

    def test_unreachable_endpoint(self):
        task = echo_task(2)
        backend = RemoteBackend("http://127.0.0.1:1/generate", GenerationParams(), backoffs=())
        with pytest.raises(BackendError, match="unreachable"):
            score(task.definition, task, fit_set(task), backend)

    def test_batched_requests_preserve_order(self):
        task = echo_task(5)
        with StubServer() as server:
            backend = RemoteBackend(
                server.url, GenerationParams(), batch_size=2, max_in_flight=2
            )
            record = score(task.definition, task, fit_set(task), backend)
            sizes = sorted(len(r["body"]["prompts"]) for r in server.requests)
        assert record.per_instance == (1.0,) * 5
        assert sizes == [1, 2, 2]


@contextmanager
def serving(status, body=b"", delay=0.0, content_type="application/json", headers=()):
    """A local endpoint that answers every request with `status`, `headers`
    and `body` after `delay` seconds; yields its URL and the headers of each
    request served."""
    served = []

    class Handler(BaseHTTPRequestHandler):
        def do_POST(self):
            self.rfile.read(int(self.headers.get("Content-Length", "0")))
            served.append(self.headers)
            time.sleep(delay)
            try:
                self.send_response(status)
                self.send_header("Content-Type", content_type)
                self.send_header("Content-Length", str(len(body)))
                for name, value in headers:
                    self.send_header(name, value)
                self.end_headers()
                self.wfile.write(body)
            except OSError:  # the client gave up waiting
                pass

        do_GET = do_POST

        def log_message(self, fmt, *args):
            pass

    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    )
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}/generate", served
    finally:
        server.shutdown()
        thread.join(timeout=5)
        server.server_close()


class TestTransportFailures:
    """How each kind of endpoint failure surfaces: which are retried, and
    the message each ends with."""

    def generate(self, url, **kwargs):
        task = echo_task(2)
        backend = RemoteBackend(url, GenerationParams(), backoffs=(0, 0), **kwargs)
        try:
            backend.generate(GenerationContext(task.definition, task, task.instances))
        finally:
            self.calls = backend.calls

    def test_slow_response_times_out_after_retries(self):
        with serving(200, b'{"generations": ["a", "b"]}', delay=0.5) as (url, _):
            with pytest.raises(BackendTimeoutError, match="timed out after retries"):
                self.generate(url, request_timeout=0.05)
        assert self.calls == 3  # initial attempt + 2 retries

    def test_404_reports_the_first_200_characters_of_the_body(self):
        body = "".join(str(i % 10) for i in range(300))
        with serving(404, body.encode(), content_type="text/plain") as (url, _):
            with pytest.raises(BackendError) as exc:
                self.generate(url)
        assert str(exc.value) == f"endpoint returned 404: {body[:200]}"
        assert self.calls == 1

    @pytest.mark.parametrize("status", [301, 302, 303, 307, 308])
    def test_redirect_is_not_followed(self, status, monkeypatch):
        monkeypatch.setenv("DEFKIT_API_KEY", "sekrit")
        with serving(200, b'{"generations": ["a", "b"]}') as (target, reached):
            with serving(status, headers=[("Location", target)]) as (url, served):
                with pytest.raises(BackendError, match=f"endpoint returned {status}: "):
                    self.generate(url)
            assert served[0]["Authorization"] == "Bearer sekrit"
            assert reached == []  # the token never reaches the second server
        assert self.calls == 1

    def test_html_body_is_malformed(self):
        with serving(200, b"<html><body>hi</body></html>", content_type="text/html") as (url, _):
            with pytest.raises(BackendError, match="malformed response body"):
                self.generate(url)
        assert self.calls == 1

    def test_json_array_body_is_malformed(self):
        with serving(200, b'["a"]') as (url, _):
            with pytest.raises(BackendError, match="malformed response body"):
                self.generate(url)
        assert self.calls == 1

    def test_generations_not_a_list_is_misaligned(self):
        with serving(200, b'{"generations": "a"}') as (url, _):
            with pytest.raises(BackendError, match="misaligned response"):
                self.generate(url)
        assert self.calls == 1

    def test_json_array_body_exits_3_from_the_cli(self, tmp_path, capsys):
        path = write_task_file(tmp_path / "task_one.json", make_task(task_id="task_one"))
        with serving(200, b'["a"]') as (url, served):
            rc = main(["score", "--task", str(path), "--backend", "remote", "--endpoint-url", url])
            assert len(served) == 1
        assert rc == 3
        err = capsys.readouterr().err
        assert err.splitlines() == [err.strip()]
        assert "malformed response body" in err


_VOCAB = ["ref", "0", "1", "2", "cat", "sat"]


class InProcessRemote(RemoteBackend):
    """A RemoteBackend whose POSTs are answered in-process. Each generation
    is a seeded function of its prompt, so of the definition in it; a POST
    for a definition in `fail` raises. A POST first waits until every POST
    of its `generate_many` call that may run at once has started, then
    sleeps `delay(definition)` seconds, so `in_flight_max` is exactly the
    concurrency the backend allows and completion order follows the delays.
    """

    def __init__(self, max_in_flight=4, delay=lambda definition: 0.0, fail=()):
        super().__init__("in-process", GenerationParams(), max_in_flight=max_in_flight)
        self.delay = delay
        self.fail = set(fail)
        self.cond = threading.Condition()
        self.in_flight = self.in_flight_max = 0
        self.started = self.expected = 0

    def generate_many(self, ctxs):
        with self.cond:
            self.started, self.expected = 0, min(len(ctxs), self.max_in_flight)
        return super().generate_many(ctxs)

    def _post(self, prompts):
        self.count_call()
        definition = prompts[0].split("\n\n", 1)[0].removeprefix("Definition: ")
        with self.cond:
            self.in_flight += 1
            self.in_flight_max = max(self.in_flight_max, self.in_flight)
            self.started += 1
            self.cond.notify_all()
            all_started = self.cond.wait_for(lambda: self.started >= self.expected, timeout=5)
            assert all_started, "POSTs that may run at once were sent one after another"
        try:
            time.sleep(self.delay(definition))
            if definition in self.fail:
                raise BackendError(f"refused {definition!r}")
            out = []
            for prompt in prompts:
                rng = random.Random(prompt)
                out.append(" ".join(rng.choice(_VOCAB) for _ in range(rng.randint(0, 3))))
            return out
        finally:
            with self.cond:
                self.in_flight -= 1


def tree_task(tree):
    return make_task(
        task_id="task_tree", definition=render(tree), kind=TaskKind.GENERATION,
        label_list=None, n_instances=3,
    )


class TestConcurrentRequests:
    def test_calls_counted_under_threads(self):
        task = echo_task(2)
        fit = fit_set(task)
        with StubServer() as server:
            backend = RemoteBackend(server.url, GenerationParams())

            def score_fifty(worker):
                for i in range(50):
                    score(f"definition {worker} {i}", task, fit, backend)

            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                threads = [threading.Thread(target=score_fifty, args=(w,)) for w in range(4)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join()
            finally:
                sys.setswitchinterval(interval)
            served = len(server.requests)
        assert served == 200
        assert backend.calls == served

    def test_results_in_input_order(self):
        task = echo_task(3)
        instances = task.instances
        ctxs = [GenerationContext(d, task, instances) for d in ("slow", "fast", "mid")]
        delays = {"slow": 0.03, "fast": 0.0, "mid": 0.01}
        backend = InProcessRemote(delay=delays.get)
        out = backend.generate_many(ctxs)
        assert backend.in_flight_max == 3
        assert out == [backend.generate(ctx) for ctx in ctxs]

    def test_first_failing_context_in_input_order_is_raised(self):
        task = echo_task(2)
        definitions = ["fine", "late failure", "early failure", "also fine"]
        # the later context fails first in time; the earlier one's error wins
        delays = {"late failure": 0.05}
        backend = InProcessRemote(
            delay=lambda d: delays.get(d, 0.0), fail={"late failure", "early failure"}
        )
        with pytest.raises(BackendError) as exc:
            score_many(definitions, task, fit_set(task), backend)
        assert str(exc.value) == "task task_echo: refused 'late failure'"


@given(
    text=_TREE_TEXTS,
    mode=st.sampled_from(["current", "paper"]),
    cached=st.booleans(),
)
@settings(max_examples=50, deadline=None)
def test_concurrency_never_changes_results(text, mode, cached):
    tree = parse_bracketed(text)
    assume(render(tree).strip())
    task = tree_task(tree)
    fit, holdout = split_examples(task, 2, 1, 0)
    cfg = StdcConfig(baseline_mode=mode, allow_empty_result=True)
    jitter = random.Random()

    def run(max_in_flight):
        backend = InProcessRemote(max_in_flight, delay=lambda d: jitter.uniform(0, 0.002))
        with tempfile.TemporaryDirectory() as tmp:
            cache = ScoreCache(Path(tmp) / "cache.jsonl") if cached else None
            result = compress(task, tree, fit, backend, cfg=cfg, cache=cache)
            in_flight = backend.in_flight_max  # of the search alone
            report = evaluate_holdout(task, result, holdout, backend, cache=cache)
            hits, data = (cache.hits, cache.path.read_bytes()) if cache else (0, b"")
            if cache:
                cache.close()
        outputs = json.dumps([result.to_dict(), report.to_dict()])
        return (outputs, backend.calls, hits, data), in_flight

    concurrent, in_flight = run(4)
    sequential, in_flight_one = run(1)
    assert concurrent == sequential
    assert in_flight_one == 1
    if mode == "current":
        assert in_flight == 1
    else:
        # paper mode sends each layer's candidates at once, up to 4 of them
        steps = json.loads(concurrent[0])[0]["steps"]
        widest = max(
            (sum(s["node_id"] in layer for s in steps)
             for layer in (set(nodes_at_depth(tree, d)) for d in range(2, tree.depth + 1))),
            default=0,
        )
        expected = max(1, min(widest, 4))
        # with a cache, a candidate text repeated in a layer is sent once
        assert in_flight <= expected if cached else in_flight == expected
