"""Black-box performance oracle: mean Rouge-L of a definition over an
example set, obtained by querying a generation backend, with caching and
deterministic test backends."""

from __future__ import annotations

import hashlib
import json
import logging
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Sequence

import requests

from .corpus import DEFAULT_TEMPLATE, ExampleSet, Instance, Task, assemble_prompt
from .errors import BackendError, BackendTimeoutError, InvariantError, ScorerError
from .metrics import normalize, rouge_l

logger = logging.getLogger(__name__)

API_KEY_ENV = "DEFKIT_API_KEY"

RETRY_BACKOFFS = (0.5, 2.0, 8.0)


@dataclass(frozen=True)
class GenerationParams:
    max_new_tokens: int = 128
    temperature: float = 0.0
    seed: int | None = None

    def to_dict(self) -> dict:
        d = {"max_new_tokens": self.max_new_tokens, "temperature": self.temperature}
        if self.seed is not None:
            d["seed"] = self.seed
        return d


@dataclass(frozen=True)
class GenerationContext:
    """One definition to generate for, over a task's instances; a backend
    that needs prompts assembles them with `template`."""

    definition: str
    task: Task
    instances: tuple[Instance, ...]
    template: str = DEFAULT_TEMPLATE


class Backend:
    """A generation backend. `calls` counts actual backend invocations;
    cache hits never touch the backend. `count_call` is safe under threads."""

    backend_id: str = "backend"

    def __init__(self):
        self.calls = 0
        self._calls_lock = threading.Lock()

    def count_call(self) -> None:
        with self._calls_lock:
            self.calls += 1

    def generate(self, ctx: GenerationContext) -> list[str]:
        raise NotImplementedError

    def generate_many(self, ctxs: Sequence[GenerationContext]) -> list[list[str]]:
        """Generations for each context, in input order. In-process backends
        generate one context after another."""
        return [self.generate(ctx) for ctx in ctxs]

    def score_batch(self, ctx: GenerationContext) -> list[float] | None:
        """Direct per-instance scores, bypassing generation; None for
        generation-based backends."""
        return None


class ConstantBackend(Backend):
    """Scores every definition with a fixed value. Useful for tie-behavior tests."""

    def __init__(self, value: float):
        super().__init__()
        self.value = value
        self.backend_id = f"constant:{value}"

    def score_batch(self, ctx: GenerationContext) -> list[float]:
        self.count_call()
        return [self.value] * len(ctx.instances)


class PlantedPhraseBackend(Backend):
    """Emits the gold reference iff every token of the planted phrase
    survives in the definition, else an empty string."""

    def __init__(self, phrase: str):
        super().__init__()
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
            out.append(gold if set(normalize(gold)) <= def_tokens else "unknown")
        return out


class RemoteBackend(Backend):
    """POSTs prompts to a generation endpoint per the documented wire contract.

    Request: {"prompts": [...], "max_new_tokens": n, "temperature": t, "seed": s?}
    Response: {"generations": [...]} positionally aligned with the prompts.
    Transport and 5xx failures are retried (3 attempts, backoff 0.5s/2s/8s);
    contract violations (non-200 after retries, length mismatch) raise
    BackendError. Each context's prompts go in one POST, or in chunks of
    `batch_size`; up to `max_in_flight` POSTs of one `generate_many` call
    are in flight at once.
    """

    def __init__(
        self,
        endpoint_url: str,
        params: GenerationParams,
        request_timeout: float = 60.0,
        max_in_flight: int = 1,
        batch_size: int | None = None,
        backoffs: Sequence[float] = RETRY_BACKOFFS,
    ):
        super().__init__()
        if max_in_flight < 1:
            raise InvariantError("max_in_flight must be >= 1")
        self.endpoint_url = endpoint_url
        self.params = params
        self.request_timeout = request_timeout
        self.max_in_flight = max_in_flight
        self.batch_size = batch_size
        self.backoffs = tuple(backoffs)
        self.backend_id = f"remote:{endpoint_url}"

    def _headers(self) -> dict:
        headers = {"Content-Type": "application/json"}
        api_key = os.environ.get(API_KEY_ENV)
        if api_key:
            headers["Authorization"] = f"Bearer {api_key}"
        return headers

    def _post(self, prompts: Sequence[str]) -> list[str]:
        payload = {"prompts": list(prompts), **self.params.to_dict()}
        last_error: Exception | None = None
        for attempt in range(len(self.backoffs) + 1):
            if attempt:
                time.sleep(self.backoffs[attempt - 1])
            try:
                self.count_call()
                resp = requests.post(
                    self.endpoint_url,
                    json=payload,
                    headers=self._headers(),
                    timeout=self.request_timeout,
                )
            except requests.Timeout as exc:
                last_error = exc
                continue
            except requests.RequestException as exc:
                last_error = exc
                continue
            if resp.status_code >= 500:
                last_error = BackendError(f"endpoint returned {resp.status_code}")
                continue
            if resp.status_code != 200:
                raise BackendError(f"endpoint returned {resp.status_code}: {resp.text[:200]}")
            try:
                generations = resp.json()["generations"]
            except (ValueError, KeyError) as exc:
                raise BackendError(f"malformed response body: {exc}") from exc
            if not isinstance(generations, list) or len(generations) != len(prompts):
                raise BackendError(
                    f"misaligned response: {len(prompts)} prompts but "
                    f"{len(generations) if isinstance(generations, list) else '?'} generations"
                )
            return [str(g) for g in generations]
        if isinstance(last_error, requests.Timeout):
            raise BackendTimeoutError(f"endpoint timed out after retries: {last_error}")
        raise BackendError(f"endpoint unreachable after retries: {last_error}")

    def _chunks(self, ctx: GenerationContext) -> list[list[str]]:
        prompts = [
            assemble_prompt(ctx.task, ctx.definition, inst, ctx.template)
            for inst in ctx.instances
        ]
        if self.batch_size is None or len(prompts) <= self.batch_size:
            return [prompts]
        return [prompts[i : i + self.batch_size] for i in range(0, len(prompts), self.batch_size)]

    def generate(self, ctx: GenerationContext) -> list[str]:
        return self.generate_many([ctx])[0]

    def generate_many(self, ctxs: Sequence[GenerationContext]) -> list[list[str]]:
        """One pool of `max_in_flight` threads sends every chunk of every
        context. Results come back in input order; if requests fail, the
        error of the first failing chunk in input order is raised."""
        jobs = [(i, chunk) for i, ctx in enumerate(ctxs) for chunk in self._chunks(ctx)]
        with ThreadPoolExecutor(max_workers=self.max_in_flight) as pool:
            futures = [pool.submit(self._post, chunk) for _, chunk in jobs]
            try:
                results = [f.result() for f in futures]
            except BaseException:
                for f in futures:
                    f.cancel()
                raise
        out: list[list[str]] = [[] for _ in ctxs]
        for (i, _), generations in zip(jobs, results):
            out[i] += generations
        return out


@dataclass(frozen=True)
class ScorerConfig:
    backend: str = "constant"  # remote | constant | planted | keyword
    endpoint_url: str | None = None
    max_new_tokens: int = 128
    temperature: float = 0.0
    seed: int | None = None
    request_timeout: float = 60.0
    max_in_flight: int = 4
    constant_value: float = 0.5
    planted_phrase: str = ""

    def __post_init__(self):
        if self.backend == "remote" and not self.endpoint_url:
            raise InvariantError("remote backend requires endpoint_url")
        if self.max_in_flight < 1:
            raise InvariantError("max_in_flight must be >= 1")

    @property
    def params(self) -> GenerationParams:
        return GenerationParams(self.max_new_tokens, self.temperature, self.seed)


def build_backend(cfg: ScorerConfig) -> Backend:
    if cfg.backend == "remote":
        return RemoteBackend(
            cfg.endpoint_url,
            cfg.params,
            request_timeout=cfg.request_timeout,
            max_in_flight=cfg.max_in_flight,
        )
    if cfg.backend == "constant":
        return ConstantBackend(cfg.constant_value)
    if cfg.backend == "planted":
        return PlantedPhraseBackend(cfg.planted_phrase)
    if cfg.backend == "keyword":
        return KeywordLabelBackend()
    raise InvariantError(f"unknown backend {cfg.backend!r}")


@dataclass(frozen=True)
class ScoreRecord:
    cache_key: str
    definition: str
    example_fingerprint: str
    mean_score: float
    per_instance: tuple[float, ...]
    backend_id: str

    def __post_init__(self):
        if self.per_instance:
            mean = sum(self.per_instance) / len(self.per_instance)
            if abs(mean - self.mean_score) > 1e-12:
                raise InvariantError("mean_score inconsistent with per_instance")

    def to_dict(self) -> dict:
        return {
            "cache_key": self.cache_key,
            "definition": self.definition,
            "example_fingerprint": self.example_fingerprint,
            "mean_score": self.mean_score,
            "per_instance": list(self.per_instance),
            "backend_id": self.backend_id,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ScoreRecord":
        return cls(
            cache_key=data["cache_key"],
            definition=data["definition"],
            example_fingerprint=data["example_fingerprint"],
            mean_score=data["mean_score"],
            per_instance=tuple(data["per_instance"]),
            backend_id=data["backend_id"],
        )


def example_fingerprint(examples: ExampleSet) -> str:
    payload = json.dumps(
        [examples.task_id, examples.role.value, list(examples.instance_ids)],
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def cache_key_for(
    backend_id: str, definition: str, fingerprint: str, params: GenerationParams
) -> str:
    payload = json.dumps(
        [backend_id, definition, fingerprint, params.to_dict()],
        separators=(",", ":"),
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class ScoreCache:
    """Append-only JSONL store of ScoreRecords, keyed by cache_key.

    Corrupted lines are skipped with a log message; last write wins for
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
            for lineno, line in enumerate(self.path.read_text(encoding="utf-8").splitlines(), 1):
                if not line.strip():
                    continue
                try:
                    record = ScoreRecord.from_dict(json.loads(line))
                except (ValueError, KeyError, TypeError, InvariantError):
                    logger.warning("%s:%d: skipping corrupted cache line", self.path, lineno)
                    continue
                self._records[record.cache_key] = record

    def __contains__(self, key: str) -> bool:
        return key in self._records

    def get(self, key: str) -> ScoreRecord | None:
        record = self._records.get(key)
        if record is not None:
            with self._lock:
                self.hits += 1
        return record

    def put(self, record: ScoreRecord) -> None:
        line = json.dumps(record.to_dict(), sort_keys=True) + "\n"
        with self._lock:
            self._records[record.cache_key] = record
            if self._fh is None:
                self._fh = self.path.open("a", encoding="utf-8")
            self._fh.write(line)
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
    params: GenerationParams = GenerationParams(),
    cache: ScoreCache | None = None,
    template: str = DEFAULT_TEMPLATE,
) -> ScoreRecord:
    """Mean Rouge-L of one definition; see `score_many`."""
    return score_many([definition], task, examples, backend, params, cache, template)[0]


def score_many(
    definitions: Sequence[str],
    task: Task,
    examples: ExampleSet,
    backend: Backend,
    params: GenerationParams = GenerationParams(),
    cache: ScoreCache | None = None,
    template: str = DEFAULT_TEMPLATE,
) -> list[ScoreRecord]:
    """Mean Rouge-L of each definition over the example set's instances, in
    input order.

    One prompt per instance; one generation per prompt; each generation is
    scored against the instance references. Results are cached by
    (backend id, definition, example fingerprint, generation params). The
    definitions not in the cache go to the backend together; a definition
    repeated in the list is sent once when there is a cache. Rouge-L and
    cache writes then run in input order, so backend calls, cache hits and
    the cache file are those of scoring the definitions one after another.
    """
    if examples.task_id != task.id:
        raise ScorerError(f"example set for {examples.task_id!r} used with task {task.id!r}")
    fingerprint = example_fingerprint(examples)
    keys = [cache_key_for(backend.backend_id, d, fingerprint, params) for d in definitions]
    instances = tuple(task.instance_by_id(i) for i in examples.instance_ids)
    misses: dict[int, GenerationContext] = {}  # index of a definition's first miss -> its context
    pending: set[str] = set()
    for i, (definition, key) in enumerate(zip(definitions, keys)):
        if cache is not None and (key in cache or key in pending):
            continue
        pending.add(key)
        misses[i] = GenerationContext(definition, task, instances, template)
    per_miss = {i: backend.score_batch(ctx) for i, ctx in misses.items()}
    to_generate = [i for i, per in per_miss.items() if per is None]
    try:
        generated = backend.generate_many([misses[i] for i in to_generate])
    except BackendError as exc:
        raise BackendError(f"task {task.id}: {exc}") from exc
    for i, generations in zip(to_generate, generated):
        if len(generations) != len(instances):
            raise BackendError(
                f"task {task.id}: backend returned {len(generations)} generations "
                f"for {len(instances)} instances"
            )
        per_miss[i] = [rouge_l(g, inst.references) for g, inst in zip(generations, instances)]

    records = []
    for i, (definition, key) in enumerate(zip(definitions, keys)):
        hit = cache.get(key) if cache is not None else None
        if hit is not None:
            records.append(hit)
            continue
        per = per_miss[i]
        record = ScoreRecord(
            cache_key=key,
            definition=definition,
            example_fingerprint=fingerprint,
            mean_score=sum(per) / len(per) if per else 0.0,
            per_instance=tuple(per),
            backend_id=backend.backend_id,
        )
        if cache is not None:
            cache.put(record)
        records.append(record)
    return records
