"""Model stand-in for the remote workload, built on `defkit.stubserver`.

It serves the remote wire contract on localhost. A generation keeps the
words of the instance input that still occur in the definition of the same
prompt, so scores follow what compression removes. Each request sleeps a
fixed base time plus a cost per prompt, as a model would, and the server
counts requests, prompts, busy time and the most requests in flight.
"""

from __future__ import annotations

import json
import re
import threading
import time
from http.server import BaseHTTPRequestHandler

from defkit.stubserver import StubServer, echo_generation

_WORD = re.compile(r"[a-z0-9]+")


def generation(prompt: str) -> str:
    head = prompt.split("\n\nPositive Example 1-", 1)[0]
    definition = set(_WORD.findall(head.lower()))
    return " ".join(w for w in echo_generation(prompt).split() if w.lower() in definition)


class _Handler(BaseHTTPRequestHandler):
    def do_POST(self):
        server: ModelStandIn = self.server  # type: ignore[assignment]
        start = time.perf_counter()
        length = int(self.headers.get("Content-Length", "0"))
        prompts = json.loads(self.rfile.read(length) or b"{}").get("prompts", [])
        server.enter(len(prompts))
        try:
            generations = [generation(p) for p in prompts]
            delay = server.base_s + server.per_prompt_s * len(prompts)
            time.sleep(max(0.0, delay - (time.perf_counter() - start)))
            payload = json.dumps({"generations": generations}).encode("utf-8")
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload)
        finally:
            server.leave(time.perf_counter() - start)

    def log_message(self, fmt, *args):
        pass


class ModelStandIn(StubServer):
    """A `StubServer` whose handler generates from the definition in the prompt."""

    def __init__(self, base_ms: float, per_prompt_ms: float):
        super().__init__()
        self.RequestHandlerClass = _Handler
        self.base_s = base_ms / 1000
        self.per_prompt_s = per_prompt_ms / 1000
        self._idle = threading.Condition()
        self.reset()

    def reset(self) -> None:
        with self._idle:
            self.n_requests = 0
            self.n_prompts = 0
            self.busy_s = 0.0
            self.in_flight = 0
            self.in_flight_max = 0

    def enter(self, n_prompts: int) -> None:
        with self._idle:
            self.n_requests += 1
            self.n_prompts += n_prompts
            self.in_flight += 1
            self.in_flight_max = max(self.in_flight_max, self.in_flight)

    def leave(self, busy_s: float) -> None:
        with self._idle:
            self.in_flight -= 1
            self.busy_s += busy_s
            self._idle.notify_all()

    def counters(self) -> dict:
        """Counters since the last reset, once no request is in flight."""
        with self._idle:
            self._idle.wait_for(lambda: self.in_flight == 0, timeout=5)
            return {
                "requests": self.n_requests,
                "prompts": self.n_prompts,
                "busy_s": self.busy_s,
                "in_flight_max": self.in_flight_max,
            }

    def start(self) -> "ModelStandIn":
        self._thread = threading.Thread(
            target=self.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
        )
        self._thread.start()
        return self
