"""Stub generation server implementing the remote wire contract.

Intended for integration tests and local dry runs: the echo mode returns
the text of the final "Input:" block of each prompt, so instances whose
references equal their inputs score 1.0. The misaligned mode deliberately
drops the last generation to exercise client-side contract checking.
"""

from __future__ import annotations

import argparse
import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

MODE_ECHO = "echo"
MODE_MISALIGNED = "misaligned"
MODE_ERROR = "error"


def echo_generation(prompt: str) -> str:
    """Text after the last 'Input:' marker, with a trailing 'Output:' block removed."""
    idx = prompt.rfind("Input:")
    tail = prompt[idx + len("Input:") :] if idx >= 0 else prompt
    out_idx = tail.rfind("Output:")
    if out_idx >= 0:
        tail = tail[:out_idx]
    return tail.strip()


class _Handler(BaseHTTPRequestHandler):
    def do_POST(self):
        server: StubServer = self.server  # type: ignore[assignment]
        length = int(self.headers.get("Content-Length", "0"))
        body = json.loads(self.rfile.read(length) or b"{}")
        server.requests.append(
            {"body": body, "authorization": self.headers.get("Authorization")}
        )
        if server.mode == MODE_ERROR:
            self.send_response(500)
            self.end_headers()
            return
        generations = [echo_generation(p) for p in body.get("prompts", [])]
        if server.mode == MODE_MISALIGNED and generations:
            generations = generations[:-1]
        payload = json.dumps({"generations": generations}).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, fmt, *args):  # keep test output quiet
        pass


class StubServer(ThreadingHTTPServer):
    # a client may open a connection per request in flight (4 per task under
    # `compress --jobs N`); past the listen backlog, socketserver's 5, a
    # connection attempt is dropped and retried after a second
    request_queue_size = 64

    def __init__(self, host: str = "127.0.0.1", port: int = 0, mode: str = MODE_ECHO):
        super().__init__((host, port), _Handler)
        self.mode = mode
        self.requests: list[dict] = []
        self._thread: threading.Thread | None = None

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}/generate"

    def start(self) -> "StubServer":
        self._thread = threading.Thread(
            target=self.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
        )
        self._thread.start()
        return self

    def stop(self):
        self.shutdown()
        if self._thread is not None:
            self._thread.join(timeout=5)
        self.server_close()

    def __enter__(self) -> "StubServer":
        return self.start()

    def __exit__(self, *exc):
        self.stop()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run the stub generation server")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8099)
    parser.add_argument("--mode", choices=[MODE_ECHO, MODE_MISALIGNED, MODE_ERROR], default=MODE_ECHO)
    args = parser.parse_args(argv)
    server = StubServer(args.host, args.port, args.mode)
    print(f"stub server listening on {server.url} (mode={args.mode})")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
