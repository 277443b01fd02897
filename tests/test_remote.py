import json
import random
import socket
import sys
import tempfile
import threading
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager, nullcontext
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from defkit._jsontext import indented
from defkit.corpus import TaskKind, split_examples
from defkit.cli import main
from defkit.errors import BackendError
from defkit.parse import parse_bracketed, render
from defkit.scorer import (
    GenerationContext,
    GenerationParams,
    KeywordLabelBackend,
    PlantedPhraseBackend,
    RemoteBackend,
    ScoreCache,
    ScoreStream,
    cache_key_for,
    example_fingerprint,
    score,
    score_many,
)
from defkit.stdc import StdcConfig, compress, evaluate_holdout
from defkit.stubserver import StubServer, echo_generation

from conftest import layered_compress, make_task, write_task_file
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


def test_stub_server_takes_a_burst_of_connections():
    """`compress --jobs 2` opens up to 8 connections at once. A listen
    backlog of socketserver's 5 drops some of them unaccepted, and each
    dropped attempt costs the client a 1 s retransmit."""
    server = StubServer()  # bound and listening, not serving
    connections = []
    try:
        for _ in range(16):
            connections.append(socket.create_connection(server.server_address[:2], timeout=0.5))
    finally:
        for connection in connections:
            connection.close()
        server.server_close()
    assert len(connections) == 16


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

    def test_cache_keys_name_the_params_a_score_was_made_with(self, tmp_path):
        """A score generated at temperature 0.7 is not served to a backend
        that generates at 0.0: each backend keys the cache with its own
        params, so the second backend POSTs and writes a line of its own."""
        task = echo_task(2)
        fit = fit_set(task)
        cache = ScoreCache(tmp_path / "cache.jsonl")
        with StubServer() as server:
            backends = [
                RemoteBackend(server.url, GenerationParams(temperature=0.7)),
                RemoteBackend(server.url, GenerationParams()),
            ]
            for backend in backends:
                score(task.definition, task, fit, backend, cache=cache)
            temperatures = [r["body"]["temperature"] for r in server.requests]
        cache.close()
        assert temperatures == [0.7, 0.0]
        assert cache.hits == 0
        lines = cache.path.read_text(encoding="utf-8").splitlines()
        assert [json.loads(line)["cache_key"] for line in lines] == [
            cache_key_for(b.backend_id, task.definition, example_fingerprint(fit), b.params)
            for b in backends
        ]

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
            backend = RemoteBackend(server.url, GenerationParams())
            backend.backoffs = (0, 0)
            with pytest.raises(BackendError, match="unreachable after retries"):
                score(task.definition, task, fit_set(task), backend)
            assert len(server.requests) == 3  # initial attempt + 2 retries
        assert backend.calls == 3

    def test_unreachable_endpoint(self):
        task = echo_task(2)
        backend = RemoteBackend("http://127.0.0.1:1/generate", GenerationParams())
        backend.backoffs = ()
        with pytest.raises(BackendError, match="unreachable"):
            score(task.definition, task, fit_set(task), backend)


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

    def generate(self, url, request_timeout=RemoteBackend.request_timeout):
        task = echo_task(2)
        backend = RemoteBackend(url, GenerationParams())
        backend.backoffs = (0, 0)
        backend.request_timeout = request_timeout
        try:
            backend.generate(GenerationContext(task.definition, task, task.instances))
        finally:
            self.calls = backend.calls

    def test_slow_response_times_out_after_retries(self):
        with serving(200, b'{"generations": ["a", "b"]}', delay=0.5) as (url, _):
            with pytest.raises(BackendError, match="timed out after retries"):
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
    """A RemoteBackend whose POSTs are answered in-process, by `answer` per
    prompt: by default a seeded function of the prompt, so of the
    definition in it. A POST for a definition in `fail` raises.

    A POST first waits until `max_in_flight` POSTs of its task are in
    flight, or `gather` seconds pass: a stream knows no batch, so this is
    how long the double waits for the POSTs sent with this one. POSTs sent
    together so overlap, and then each sleeps `delay(definition)` seconds,
    so completion order follows the delays. `peak[task_id]` is the most
    POSTs of one task that were in flight at once.
    """

    def __init__(self, max_in_flight=4, delay=lambda definition: 0.0, fail=(), gather=0.002):
        super().__init__("in-process", GenerationParams())
        self.max_in_flight = max_in_flight
        self.delay = delay
        self.fail = set(fail)
        self.gather = gather
        self.cond = threading.Condition()
        self.in_flight = Counter()
        self.peak = Counter()

    def generate(self, ctx):
        self.count_call()
        task_id = ctx.task.id
        with self.cond:
            self.in_flight[task_id] += 1
            self.peak[task_id] = max(self.peak[task_id], self.in_flight[task_id])
            self.cond.notify_all()
            self.cond.wait_for(
                lambda: self.in_flight[task_id] >= self.max_in_flight, timeout=self.gather
            )
        try:
            time.sleep(self.delay(ctx.definition))
            if ctx.definition in self.fail:
                raise BackendError(f"refused {ctx.definition!r}")
            return super().generate(ctx)
        finally:
            with self.cond:
                self.in_flight[task_id] -= 1

    def _post(self, prompts):
        return [self.answer(prompt) for prompt in prompts]

    @staticmethod
    def answer(prompt):
        rng = random.Random(prompt)
        return " ".join(rng.choice(_VOCAB) for _ in range(rng.randint(0, 3)))


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
        definitions = ["slow", "fast", "mid"]
        delays = {"slow": 0.03, "fast": 0.0, "mid": 0.01}
        backend = InProcessRemote(max_in_flight=3, delay=delays.get, gather=5)
        records = score_many(definitions, task, fit_set(task), backend)
        assert backend.peak[task.id] == 3
        assert records == [score(d, task, fit_set(task), InProcessRemote()) for d in definitions]

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

    def test_failed_batch_caches_the_contexts_before_the_failure(self, tmp_path):
        task = echo_task(2)
        fit = fit_set(task)
        definitions = ["one", "two", "three", "four", "five"]
        # the contexts after the failing one answer first; they are not cached
        delays = {"one": 0.05, "two": 0.05, "three": 0.01}
        backend = InProcessRemote(delay=lambda d: delays.get(d, 0.0), fail={"three"})
        batch = ScoreCache(tmp_path / "batch.jsonl")
        with pytest.raises(BackendError, match="refused 'three'"):
            score_many(definitions, task, fit, backend, cache=batch)
        batch.close()
        assert backend.calls == 5  # every POST was sent, at most 4 at once
        one = ScoreCache(tmp_path / "one.jsonl")
        for definition in definitions[:2]:
            score(definition, task, fit, InProcessRemote(), cache=one)
        one.close()
        assert batch.path.exists(), "no record of the batch was cached"
        assert batch.path.read_bytes() == one.path.read_bytes()

    @pytest.mark.parametrize("ending", ["closed", "failed"])
    def test_a_stream_ended_early_never_sends_its_queued_misses(self, ending):
        """Six misses on one thread: a stream closed before any is taken, or
        left on the first's BackendError, drops those not yet started and
        waits for the running one."""
        task = echo_task(2)
        definitions = [f"definition {i}" for i in range(6)]
        backend = InProcessRemote(max_in_flight=1, delay=lambda d: 0.02, fail={definitions[0]})
        with pytest.raises(BackendError) if ending == "failed" else nullcontext():
            with ScoreStream(task, fit_set(task), backend) as stream:
                for definition in definitions:
                    stream.submit(definition)
                if ending == "failed":
                    stream.take()
        assert backend.calls < len(definitions)
        assert backend.in_flight[task.id] == 0


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
            in_flight = backend.peak[task.id]  # of the search alone
            report = evaluate_holdout(task, result, holdout, backend, cache=cache)
            hits, data = (cache.hits, cache.path.read_bytes()) if cache else (0, b"")
            if cache:
                cache.close()
        outputs = indented([result, report])  # as compress writes them
        return (outputs, backend.calls, hits, data), in_flight

    concurrent, in_flight = run(4)
    sequential, in_flight_one = run(1)
    assert concurrent == sequential
    assert in_flight_one == 1
    # current mode has one candidate in flight; paper mode up to the limit
    assert in_flight == 1 if mode == "current" else 1 <= in_flight <= 4


def _echo_definition(prompt):
    return prompt.split("\n\n", 1)[0].removeprefix("Definition: ")


SCHEDULE_TREE = (
    "(S (NP (DT the) (NN cat)) (VP (VBD sat) (PP (IN on) (NNS mats))) (ADVP (RB today)))"
)


def test_paper_mode_sends_a_child_before_its_layer_is_answered():
    """The children of a rejected node go out while a node of its layer is
    still unanswered: the last depth-2 POST is held until a depth-3 POST
    has started, which a layer-by-layer search never sends."""
    tree = parse_bracketed(SCHEDULE_TREE)
    full = render(tree)
    task = make_task(
        task_id="task_schedule", definition=full, kind=TaskKind.GENERATION,
        label_list=None, n_instances=2, references=[[full], [full]],
    )
    fit, _ = split_examples(task, 2, 0, 0)
    held = "the cat sat on mats"  # without ADVP, the last node at depth 2
    children = {"cat sat on mats today", "the sat on mats today"}  # without DT, without NN
    child_started = threading.Event()
    child_first = []  # per POST of `held`: whether a depth-3 POST started before it answered

    class Holding(InProcessRemote):
        answer = staticmethod(_echo_definition)  # every removal scores below the full text

        def generate(self, ctx):
            if ctx.definition == held:
                child_first.append(child_started.wait(timeout=5))
            elif ctx.definition in children:
                child_started.set()
            return super().generate(ctx)

    backend = Holding(gather=0)
    result = compress(task, tree, fit, backend, cfg=StdcConfig(baseline_mode="paper"))
    assert [s.label for s in result.steps[:3]] == ["NP", "VP", "ADVP"]
    assert not any(s.accepted for s in result.steps)
    # RB, below ADVP, removes the same words, so `held` is sent again later
    assert child_first[0], "the depth-3 POSTs waited for the whole of depth 2"
    assert backend.peak[task.id] <= backend.max_in_flight


@pytest.mark.parametrize("mode", ["current", "paper"])
def test_in_flight_limit_holds_per_task_under_jobs(mode):
    """Two tasks searched at once on one backend, as `--jobs 2` runs them:
    each keeps at most `max_in_flight` POSTs in flight, current mode 1."""
    tree = parse_bracketed(SCHEDULE_TREE)
    tasks = [
        make_task(
            task_id=f"task{i}", definition=render(tree), kind=TaskKind.GENERATION,
            label_list=None, n_instances=2,
        )
        for i in range(2)
    ]
    backend = InProcessRemote(delay=lambda d: 0.001)
    cfg = StdcConfig(baseline_mode=mode, allow_empty_result=True)

    def run(task):
        """The most POSTs of the task in flight in its search, then in all."""
        fit, holdout = split_examples(task, 1, 1, 0)
        result = compress(task, tree, fit, backend, cfg=cfg)
        search = backend.peak[task.id]
        evaluate_holdout(task, result, holdout, backend)  # sends its 2 definitions at once
        return search, backend.peak[task.id]

    with ThreadPoolExecutor(max_workers=2) as pool:
        peaks = list(pool.map(run, tasks))
    for search, overall in peaks:
        assert search == 1 if mode == "current" else 1 <= search <= backend.max_in_flight
        assert overall <= backend.max_in_flight


def test_a_remote_task_starts_a_bounded_number_of_threads(monkeypatch):
    """A current-mode search and its holdout each score on one stream, whose
    pool starts at most `max_in_flight` threads however many candidates
    there are."""
    tree = parse_bracketed(SCHEDULE_TREE)
    task = tree_task(tree)
    fit, holdout = split_examples(task, 2, 1, 0)
    backend = InProcessRemote()
    started = []
    start = threading.Thread.start

    def counted_start(thread):
        started.append(thread.name)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", counted_start)
    result = compress(task, tree, fit, backend, cfg=StdcConfig(allow_empty_result=True))
    evaluate_holdout(task, result, holdout, backend)
    monkeypatch.undo()
    assert len(result.steps) > 2 * backend.max_in_flight
    assert len(started) <= 2 * backend.max_in_flight


_BACKENDS = {
    "keyword": KeywordLabelBackend,
    "planted": lambda: PlantedPhraseBackend("cat sat"),
    "remote": lambda: InProcessRemote(delay=lambda d: random.uniform(0, 0.002)),
}


@given(
    text=_TREE_TEXTS,
    mode=st.sampled_from(["current", "paper"]),
    epsilon=st.sampled_from([0.0, 0.25]),
    backend=st.sampled_from(sorted(_BACKENDS)),
    cached=st.booleans(),
)
@settings(max_examples=100, deadline=None)
def test_compress_equals_the_layered_reference(text, mode, epsilon, backend, cached):
    """The queue-ordered search, whose paper mode sends a node's children
    once the node is rejected, gives the results, backend calls, cache hits
    and cache bytes of scoring one depth layer at a time."""
    tree = parse_bracketed(text)
    assume(render(tree).strip())
    task = make_task(
        task_id="task_tree", definition=render(tree), kind=TaskKind.GENERATION,
        label_list=None, n_instances=3, references=[["cat"], ["sat"], ["w1 cat"]],
    )
    fit, _ = split_examples(task, 3, 0, 0)
    cfg = StdcConfig(baseline_mode=mode, epsilon=epsilon, allow_empty_result=True)

    def run(search):
        scorer = _BACKENDS[backend]()
        with tempfile.TemporaryDirectory() as tmp:
            cache = ScoreCache(Path(tmp) / "cache.jsonl") if cached else None
            result = search(task, tree, fit, scorer, cfg=cfg, cache=cache)
            hits, data = (cache.hits, cache.path.read_bytes()) if cache else (0, b"")
            if cache:
                cache.close()
        return result, scorer.calls, hits, data

    assert run(compress) == run(layered_compress)
