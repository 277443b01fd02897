"""A small thread pool: calls start first in, first out, on at most `size`
threads, which start on demand and last until the pool is closed."""

from __future__ import annotations

import threading
from collections import deque
from typing import Callable, Iterable, Iterator


class Call:
    """One submitted call. `result()` waits for it, then returns its value
    or raises its exception."""

    def __init__(self, fn: Callable, args: tuple):
        self._fn, self._args = fn, args
        self._value = self._error = None
        self._done = threading.Event()

    def _run(self) -> None:
        try:
            self._value = self._fn(*self._args)
        except BaseException as exc:  # raised again by `result()`, in the caller
            self._error = exc
        self._done.set()

    def result(self):
        self._done.wait()
        if self._error is not None:
            raise self._error
        return self._value


class Pool:
    """A submitted call starts a thread when the queued calls outnumber the
    idle threads, up to `size` threads. `close`, and leaving a `with` block,
    drops the calls not yet started, whose `result()` then raises, and
    waits for the running ones."""

    def __init__(self, size: int):
        self._size = size
        self._threads: list[threading.Thread] = []
        self._queue: deque[Call] = deque()
        self._idle = 0
        self._closed = False
        self._cond = threading.Condition(threading.Lock())

    def __enter__(self) -> "Pool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def submit(self, fn: Callable, *args) -> Call:
        call = Call(fn, args)
        with self._cond:
            if self._closed:
                raise RuntimeError("submit to a closed pool")
            self._queue.append(call)
            if len(self._queue) > self._idle and len(self._threads) < self._size:
                self._threads.append(threading.Thread(target=self._work, daemon=True))
                self._threads[-1].start()
            else:
                self._cond.notify()
        return call

    def map(self, fn: Callable, items: Iterable) -> Iterator:
        """`fn(item)` of each item, in order. The first `next` submits every
        call; a consumer that stops early drops those not yet started."""
        calls = [self.submit(fn, item) for item in items]
        try:
            for call in calls:
                yield call.result()
        finally:
            self._drop(set(calls))

    def close(self) -> None:
        self._drop(None)
        for thread in self._threads:
            thread.join()

    def _drop(self, calls: set[Call] | None) -> None:
        """Take `calls` off the queue of calls not yet started; None takes
        them all and closes the pool."""
        with self._cond:
            if calls is None:
                self._closed = True
                self._cond.notify_all()
                calls = set(self._queue)
            dropped = [call for call in self._queue if call in calls]
            self._queue = deque(call for call in self._queue if call not in calls)
        for call in dropped:
            call._error = RuntimeError("the call was dropped before it started")
            call._done.set()

    def _work(self) -> None:
        while True:
            with self._cond:
                while not self._queue and not self._closed:
                    self._idle += 1
                    self._cond.wait()
                    self._idle -= 1
                if not self._queue:
                    return
                call = self._queue.popleft()
            call._run()
