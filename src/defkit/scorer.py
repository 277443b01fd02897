"""Black-box performance oracle: mean Rouge-L of a definition over an
example set, obtained by querying a generation backend, with caching and
deterministic test backends."""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import threading
import time
from collections import deque
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from ._record import record
from .corpus import ExampleSet, Instance, Task, assemble_prompt, finite_number, numbered_lines
from .errors import BackendError, ConfigError, InvariantError, warn
from .metrics import normalize, rouge_l

if TYPE_CHECKING:  # only a remote stream imports concurrent.futures, when it starts
    from concurrent.futures import Future

API_KEY_ENV = "DEFKIT_API_KEY"


@record
class GenerationParams:
    max_new_tokens: int = 128
    temperature: float = 0.0
    seed: int | None = None

    def to_dict(self) -> dict:
        d = {"max_new_tokens": self.max_new_tokens, "temperature": self.temperature}
        if self.seed is not None:
            d["seed"] = self.seed
        return d


@record
class GenerationContext:
    """One definition to generate for, over a task's instances; a backend
    that needs prompts assembles them with `assemble_prompt`."""

    definition: str
    task: Task
    instances: tuple[Instance, ...]


class Backend:
    """A generation backend. `params` are the generation settings its
    scores are made with, and so part of every cache key they go under.
    `calls` counts actual backend invocations; cache hits never touch the
    backend. `count_call` is safe under threads.
    A `ScoreStream` has up to `max_in_flight` contexts generated at once,
    each on a thread of its own pool; with 0, as in the in-process
    backends, it generates a context in the caller's thread when the
    context's record is taken, and `compress` runs such a backend's tasks
    one after another in the calling thread, whatever `--jobs` is."""

    backend_id: str = "backend"
    max_in_flight: int = 0

    def __init__(self, params: GenerationParams = GenerationParams()):
        self.params = params
        self.calls = 0
        self._calls_lock = threading.Lock()

    def count_call(self) -> None:
        with self._calls_lock:
            self.calls += 1

    def generate(self, ctx: GenerationContext) -> list[str]:
        raise NotImplementedError


class PlantedPhraseBackend(Backend):
    """Emits the gold reference iff every token of the planted phrase
    survives in the definition, else an empty string."""

    def __init__(self, phrase: str, params: GenerationParams = GenerationParams()):
        super().__init__(params)
        self.phrase_tokens = set(normalize(phrase))
        self.backend_id = f"planted:{' '.join(sorted(self.phrase_tokens))}"

    def generate(self, ctx: GenerationContext) -> list[str]:
        self.count_call()
        present = self.phrase_tokens <= set(normalize(ctx.definition))
        return [inst.references[0] if present else "" for inst in ctx.instances]


class KeywordLabelBackend(Backend):
    """Echoes the gold label iff its verbalizer tokens appear in the
    definition, else emits "unknown". Makes label-retention behavior of the
    compression search observable without a model."""

    backend_id = "keyword_label"

    def generate(self, ctx: GenerationContext) -> list[str]:
        self.count_call()
        def_tokens = set(normalize(ctx.definition))
        out = []
        for inst in ctx.instances:
            gold = inst.references[0]
            out.append(gold if _label_tokens(gold) <= def_tokens else "unknown")
        return out


# Distinct gold references whose token sets are kept, so memory stays bounded
# on any corpus (about 4 KB for a 25-word reference, 4 MB in all).
@functools.lru_cache(maxsize=1024)
def _label_tokens(gold: str) -> frozenset[str]:
    """The words of a gold reference, normalized once per process."""
    return frozenset(normalize(gold))


class RemoteBackend(Backend):
    """POSTs prompts to a generation endpoint per the documented wire contract.

    Request: {"prompts": [...], "max_new_tokens": n, "temperature": t, "seed": s?}
    Response: {"generations": [...]} positionally aligned with the prompts.
    Transport failures, timeouts and 5xx answers are retried (3 retries,
    backoff 0.5s/2s/8s); other statuses and contract violations (a body
    that is not a JSON object with "generations", length mismatch) raise
    BackendError at once. Each context's prompts go in one POST. A
    `ScoreStream` keeps up to `max_in_flight` POSTs in flight, so each task
    has at most that many whatever `--jobs` is; each of its threads calls
    `generate`.
    The POST goes through `urllib.request`, imported on first use so that
    the in-process backends load no HTTP client; it honours
    HTTP_PROXY/HTTPS_PROXY/NO_PROXY and follows no redirect.
    """

    request_timeout = 60.0  # seconds a POST waits for its answer
    max_in_flight = 4
    backoffs = (0.5, 2.0, 8.0)  # seconds before each retry

    def __init__(self, endpoint_url: str, params: GenerationParams):
        super().__init__(params)
        self.endpoint_url = endpoint_url
        self.backend_id = f"remote:{endpoint_url}"

    def _headers(self) -> dict:
        headers = {"Content-Type": "application/json"}
        api_key = os.environ.get(API_KEY_ENV)
        if api_key:
            headers["Authorization"] = f"Bearer {api_key}"
        return headers

    def _send(self, data: bytes) -> tuple[int, bytes]:
        """One POST of `data`: the status and body of the answer. Transport
        failures raise OSError (timeouts TimeoutError, possibly wrapped in
        URLError) or http.client.HTTPException."""
        from urllib.error import HTTPError
        from urllib.request import Request

        request = Request(self.endpoint_url, data=data, headers=self._headers(), method="POST")
        try:
            with _opener().open(request, timeout=self.request_timeout) as resp:
                return resp.status, resp.read()
        except HTTPError as exc:  # any status outside 2xx
            with exc:
                return exc.code, exc.read()

    def _post(self, prompts: Sequence[str]) -> list[str]:
        from http.client import HTTPException

        payload = {"prompts": list(prompts), **self.params.to_dict()}
        data = json.dumps(payload, allow_nan=False).encode("utf-8")
        last_error: Exception | None = None
        for attempt in range(len(self.backoffs) + 1):
            if attempt:
                time.sleep(self.backoffs[attempt - 1])
            self.count_call()
            try:
                status, body = self._send(data)
            except (OSError, HTTPException) as exc:
                last_error = exc
                continue
            if status >= 500:
                last_error = BackendError(f"endpoint returned {status}")
                continue
            if status != 200:
                text = body.decode("utf-8", "replace")
                raise BackendError(f"endpoint returned {status}: {text[:200]}")
            try:
                generations = json.loads(body)["generations"]
            except (ValueError, KeyError, TypeError) as exc:
                raise BackendError(f"malformed response body: {exc}") from exc
            if not isinstance(generations, list) or len(generations) != len(prompts):
                raise BackendError(
                    f"misaligned response: {len(prompts)} prompts but "
                    f"{len(generations) if isinstance(generations, list) else '?'} generations"
                )
            return [str(g) for g in generations]
        if isinstance(last_error, TimeoutError) or isinstance(
            getattr(last_error, "reason", None), TimeoutError
        ):
            raise BackendError(f"endpoint timed out after retries: {last_error}")
        raise BackendError(f"endpoint unreachable after retries: {last_error}")

    def generate(self, ctx: GenerationContext) -> list[str]:
        return self._post(
            [assemble_prompt(ctx.task, ctx.definition, inst) for inst in ctx.instances]
        )


@functools.cache
def _opener():
    """The opener every POST goes through: urllib's default handlers, proxy
    variables included, except that no redirect is followed. urllib would
    copy the Authorization header to whatever host a 3xx names, so every
    3xx is answered as the status it is ("endpoint returned 302: ...")."""
    from urllib.request import HTTPRedirectHandler, build_opener

    class NoRedirect(HTTPRedirectHandler):
        def redirect_request(self, req, fp, code, msg, headers, newurl):
            return None

    return build_opener(NoRedirect)


def _is_http_url(url: str) -> bool:
    from urllib.parse import urlsplit

    if not all("!" <= c <= "~" for c in url):
        return False  # http.client sends no space, control or non-ASCII character
    try:
        parts = urlsplit(url)
        parts.port  # raises ValueError on a port that is not a number in range
    except ValueError:
        return False
    return parts.scheme in ("http", "https") and bool(parts.hostname)


def build_backend(
    name: str,
    params: GenerationParams,
    *,
    endpoint_url: str | None = None,
    phrase: str = "",
) -> Backend:
    """The backend `name` (remote, planted or keyword), generating
    with `params`: the one place where the command line's backend settings
    are checked and become a backend. A missing or unusable setting raises
    ConfigError."""
    if name == "remote" and not endpoint_url:
        raise ConfigError("remote backend requires endpoint_url")
    if name == "planted" and not normalize(phrase):
        raise ConfigError("planted backend requires a phrase with a word")
    if endpoint_url is not None and not _is_http_url(endpoint_url):
        raise ConfigError(
            f"endpoint_url must be an http or https URL with a host, got {endpoint_url!r}"
        )
    if not math.isfinite(params.temperature):
        raise ConfigError(f"temperature must be finite, got {params.temperature}")
    if name == "remote":
        return RemoteBackend(endpoint_url, params)
    if name == "planted":
        return PlantedPhraseBackend(phrase, params)
    if name == "keyword":
        return KeywordLabelBackend(params)
    raise InvariantError(f"unknown backend {name!r}")


@record
class ScoreRecord:
    cache_key: str
    definition: str
    example_fingerprint: str
    mean_score: float
    per_instance: tuple[float, ...]
    backend_id: str

    def __post_init__(self):
        # the mean over no instance is 0.0, as `score` writes it
        mean = sum(self.per_instance) / len(self.per_instance) if self.per_instance else 0.0
        if abs(mean - self.mean_score) > 1e-12:
            raise InvariantError("mean_score inconsistent with per_instance")

    @classmethod
    def from_dict(cls, data: dict) -> "ScoreRecord":
        """The record a cache line holds, as `ScoreCache.put` writes it. A
        field of the wrong type raises TypeError, ValueError or OverflowError."""
        per_instance = data["per_instance"]
        if not isinstance(per_instance, list):
            raise TypeError(f"per_instance must be a list, got {per_instance!r}")
        # a list of finite floats, as `put` writes it, is checked in C;
        # any other goes through finite_number, to convert or to raise
        if not ({*map(type, per_instance)} <= {float} and all(map(math.isfinite, per_instance))):
            per_instance = list(map(finite_number, per_instance))
        return cls(
            cache_key=_string(data["cache_key"]),
            definition=_string(data["definition"]),
            example_fingerprint=_string(data["example_fingerprint"]),
            mean_score=finite_number(data["mean_score"]),
            per_instance=tuple(per_instance),
            backend_id=_string(data["backend_id"]),
        )


def _string(value) -> str:
    if not isinstance(value, str):
        raise TypeError(f"expected a string, got {value!r}")
    return value


def example_fingerprint(examples: ExampleSet) -> str:
    payload = json.dumps(
        [examples.task_id, examples.role.value, [inst.id for inst in examples.instances]],
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def cache_key_for(
    backend_id: str, definition: str, fingerprint: str, params: GenerationParams
) -> str:
    """SHA-256 of the JSON text `[backend_id, definition, fingerprint,
    params]` (compact separators, params' keys sorted). Only the definition
    is encoded per call: the hash of the text before it and the text after
    it are kept per (backend, fingerprint, params)."""
    head, tail = _key_parts(backend_id, fingerprint, params)
    key = head.copy()
    key.update(json.dumps(definition).encode("ascii"))
    key.update(tail)
    return key.hexdigest()


# One entry per backend, example set and params that a process scores with.
@functools.lru_cache(maxsize=1024)
def _key_parts(backend_id: str, fingerprint: str, params: GenerationParams):
    """A SHA-256 fed the key text before the definition, and the text after
    it. The hash object is shared by every caller: copy it, never update it."""
    params_json = json.dumps(params.to_dict(), separators=(",", ":"), sort_keys=True)
    head = f"[{json.dumps(backend_id)},"
    tail = f",{json.dumps(fingerprint)},{params_json}]"
    return hashlib.sha256(head.encode("ascii")), tail.encode("ascii")


class ScoreCache:
    """Append-only JSONL store of ScoreRecords, keyed by cache_key.

    Corrupted lines are skipped with a warning; last write wins for
    duplicate keys. `get` counts hits; `get` and `put` are safe under
    threads. The file is opened for appending on the first `put` and each
    record is flushed as it is written; `close` releases the handle.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._records: dict[str, ScoreRecord] = {}
        self._lock = threading.Lock()
        self._fh = None
        self.hits = 0
        if self.path.exists():
            for lineno, line in numbered_lines(self.path, self._skip_line):
                try:
                    record = ScoreRecord.from_dict(json.loads(line))
                except (ValueError, KeyError, TypeError, OverflowError, InvariantError):
                    self._skip_line(lineno)
                    continue
                self._records[record.cache_key] = record

    def _skip_line(self, lineno: int) -> None:
        warn(__name__, f"{self.path}:{lineno}: skipping corrupted cache line")

    def __contains__(self, key: str) -> bool:
        return key in self._records

    def get(self, key: str) -> ScoreRecord | None:
        record = self._records.get(key)
        if record is not None:
            with self._lock:
                self.hits += 1
        return record

    def put(self, record: ScoreRecord) -> None:
        line = json.dumps(vars(record), sort_keys=True) + "\n"
        with self._lock:
            self._records[record.cache_key] = record
            if self._fh is None:
                self._fh = fh = self.path.open("a+b")
                # a run killed mid-write leaves a torn last line: end it, or
                # the next record joins it and is skipped along with it
                if fh.tell():
                    fh.seek(-1, os.SEEK_END)
                    if fh.read(1) != b"\n":
                        fh.write(b"\n")
            self._fh.write(line.encode("utf-8"))
            self._fh.flush()

    def close(self) -> None:
        with self._lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None

    def __len__(self) -> int:
        return len(self._records)


def score(
    definition: str,
    task: Task,
    examples: ExampleSet,
    backend: Backend,
    cache: ScoreCache | None = None,
) -> ScoreRecord:
    """Mean Rouge-L of one definition; see `score_many`."""
    return score_many([definition], task, examples, backend, cache)[0]


def score_many(
    definitions: Sequence[str],
    task: Task,
    examples: ExampleSet,
    backend: Backend,
    cache: ScoreCache | None = None,
) -> list[ScoreRecord]:
    """Mean Rouge-L of each definition over the example set's instances, in
    input order, generated with the backend's params: every definition is
    submitted to one `ScoreStream`, then every record is taken. On the
    remote path up to `max_in_flight` are generated at once."""
    with ScoreStream(task, examples, backend, cache) as stream:
        for definition in definitions:
            stream.submit(definition)
        return [stream.take() for _ in definitions]


class ScoreStream:
    """Scores definitions over one example set of a task, in the order they
    are submitted: `submit` starts a definition's work, and `take` returns
    the next record.

    One prompt per instance; one generation per prompt; each generation is
    scored against the instance references. Results are cached by
    (backend id, definition, example fingerprint, the backend's params). A
    definition is a hit when the cache holds its key, or when there is a
    cache and it repeats a miss submitted before; a hit is read from the
    cache when it is taken. Every other definition is a miss and takes its
    own generations, even if another caller caches its key meanwhile.
    Rouge-L and cache writes run in `take`, in submission order, so
    backend calls, cache hits and the cache file are those of scoring the
    definitions one after another, up to the first that fails.

    With a backend whose `max_in_flight` is above 0, each miss starts on
    submission, on one of that many threads, which the stream starts on
    demand and keeps until it is closed. Otherwise a miss is generated in
    `take`. Closing the stream cancels the work not yet started and waits
    for the rest.
    """

    def __init__(
        self,
        task: Task,
        examples: ExampleSet,
        backend: Backend,
        cache: ScoreCache | None = None,
    ):
        if examples.task_id != task.id:
            raise InvariantError(f"example set for {examples.task_id!r} used with task {task.id!r}")
        self.task = task
        self.backend = backend
        self.cache = cache
        self.fingerprint = example_fingerprint(examples)
        self.instances = examples.instances
        # (definition, key, context or None for a hit, future or None) per
        # submitted definition not yet taken
        self._queue: deque[tuple[str, str, GenerationContext | None, Future | None]] = deque()
        self._misses: set[str] = set()
        self._pool = None
        if backend.max_in_flight:
            from concurrent.futures import ThreadPoolExecutor

            self._pool = ThreadPoolExecutor(backend.max_in_flight)

    def __enter__(self) -> "ScoreStream":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(cancel_futures=True)

    def submit(self, definition: str) -> None:
        backend = self.backend
        key = cache_key_for(backend.backend_id, definition, self.fingerprint, backend.params)
        ctx = future = None
        if self.cache is None or not (key in self.cache or key in self._misses):
            self._misses.add(key)
            ctx = GenerationContext(definition, self.task, self.instances)
            if self._pool is not None:
                future = self._pool.submit(backend.generate, ctx)
        self._queue.append((definition, key, ctx, future))

    def take(self) -> ScoreRecord:
        """The record of the earliest submitted definition not yet taken."""
        definition, key, ctx, future = self._queue.popleft()
        if ctx is None:
            return self.cache.get(key)
        try:
            generations = future.result() if future else self.backend.generate(ctx)
        except BackendError as exc:
            raise BackendError(f"task {self.task.id}: {exc}") from exc
        if len(generations) != len(self.instances):
            raise BackendError(
                f"task {self.task.id}: backend returned {len(generations)} generations "
                f"for {len(self.instances)} instances"
            )
        per = [rouge_l(g, inst.references) for g, inst in zip(generations, self.instances)]
        record = ScoreRecord(
            cache_key=key,
            definition=definition,
            example_fingerprint=self.fingerprint,
            mean_score=sum(per) / len(per) if per else 0.0,
            per_instance=tuple(per),
            backend_id=self.backend.backend_id,
        )
        if self.cache is not None:
            self.cache.put(record)
        return record


def __getattr__(name: str):
    # The benchmark tracer still wraps `scorer.requests.post`, so this bridge
    # imports `requests` when, and only when, code asks for that name; nothing
    # in defkit does. `pip install -e '.[benchmark]'` provides it. The paired
    # `[benchmark]` change deletes the bridge and that extra when the tracer
    # wraps the urllib transport instead (ROADMAP items 1 and 5).
    if name == "requests":
        import requests

        return requests
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
