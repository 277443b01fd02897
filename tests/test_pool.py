"""defkit's thread pool: first in, first out, at most `size` threads started
on demand, results in submission order, and a close that drops what has
not started and waits for what has."""

import sys
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defkit._pool import Pool

WAIT_S = 5


def counted_threads(monkeypatch) -> list:
    """The threads started from now on, appended as they start."""
    started = []
    start = threading.Thread.start

    def counted_start(thread):
        started.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", counted_start)
    return started


def test_one_thread_runs_calls_in_submission_order():
    ran = []
    with Pool(1) as pool:
        calls = [pool.submit(ran.append, i) for i in range(50)]
        assert [call.result() for call in calls] == [None] * 50
    assert ran == list(range(50))


def test_the_calls_started_are_the_earliest_submitted():
    """With three threads and calls that each wait for their own release,
    the calls started at any time are a prefix of those submitted."""
    n = 9
    releases = [threading.Event() for _ in range(n)]
    started = []
    lock = threading.Condition()

    def call(i):
        with lock:
            started.append(i)
            lock.notify_all()
        assert releases[i].wait(WAIT_S)
        return i

    def wait_for(count):
        with lock:
            assert lock.wait_for(lambda: len(started) >= count, WAIT_S)
        time.sleep(0.01)  # no further call starts
        assert sorted(started) == list(range(count))

    with Pool(3) as pool:
        calls = [pool.submit(call, i) for i in range(n)]
        wait_for(3)
        for done, i in enumerate([1, 0, 4, 2, 3, 6, 5, 7, 8]):
            releases[i].set()
            assert calls[i].result() == i
            wait_for(min(n, 4 + done))
    assert [call.result() for call in calls] == list(range(n))


def test_threads_start_on_demand_up_to_the_size(monkeypatch):
    started = counted_threads(monkeypatch)
    release = threading.Event()
    with Pool(3) as pool:
        assert started == []
        calls = []
        for expected in (1, 2, 3, 3, 3, 3):
            calls.append(pool.submit(release.wait, WAIT_S))
            assert len(started) == expected
        release.set()
        assert all(call.result() for call in calls)
    assert not any(thread.is_alive() for thread in started)


def test_a_pool_reuses_its_idle_threads(monkeypatch):
    """Calls made one after another mostly find the last call's thread idle.
    (Not always: a thread is idle once it is back waiting for a call, just
    after its call's result is out.)"""
    started = counted_threads(monkeypatch)
    with Pool(8) as pool:
        for i in range(40):
            assert pool.submit(abs, -i).result() == i
    assert 1 <= len(started) <= 4


def test_result_reraises_the_calls_exception():
    def fail(message):
        raise ValueError(message)

    with Pool(2) as pool:
        failed = pool.submit(fail, "bad input")
        fine = pool.submit(len, "four")
        with pytest.raises(ValueError, match="bad input"):
            failed.result()
        with pytest.raises(ValueError, match="bad input"):
            failed.result()
        assert fine.result() == 4


def test_close_drops_queued_calls_and_waits_for_running_ones():
    started, release = threading.Event(), threading.Event()
    ran = []

    def running():
        started.set()
        assert release.wait(WAIT_S)
        time.sleep(0.01)
        ran.append("running")
        return "done"

    pool = Pool(1)
    first = pool.submit(running)
    queued = pool.submit(ran.append, "queued")
    assert started.wait(WAIT_S)
    closer = threading.Thread(target=pool.close)
    closer.start()
    with pytest.raises(RuntimeError, match="dropped"):
        queued.result()  # dropped by close while `running` holds the thread
    assert closer.is_alive()  # close waits for the running call
    release.set()
    closer.join(WAIT_S)
    assert not closer.is_alive()
    assert ran == ["running"]
    assert first.result() == "done"
    with pytest.raises(RuntimeError):
        pool.submit(ran.append, "late")
    assert ran == ["running"]


def test_leaving_the_block_on_an_exception_closes_the_pool():
    started = threading.Event()
    ran = []

    def running():
        started.set()
        time.sleep(0.02)
        ran.append("running")

    with pytest.raises(KeyError):
        with Pool(1) as pool:
            pool.submit(running)
            pool.submit(ran.append, "queued")
            assert started.wait(WAIT_S)
            raise KeyError("stop")
    assert ran == ["running"]


def test_map_yields_in_submission_order():
    def slow_square(i):
        time.sleep((5 - i % 5) / 1000)  # later calls finish first
        return i * i

    with Pool(4) as pool:
        assert list(pool.map(slow_square, range(20))) == [i * i for i in range(20)]


def test_map_drops_the_rest_when_its_consumer_stops_early():
    started = [threading.Event() for _ in range(10)]
    release = threading.Event()
    ran = []

    def call(i):
        started[i].set()
        if i:
            assert release.wait(WAIT_S)
        ran.append(i)
        return i

    with Pool(1) as pool:
        results = pool.map(call, range(10))
        assert next(results) == 0
        assert started[1].wait(WAIT_S)
        results.close()  # the consumer stops: calls 2 to 9 are dropped
        release.set()
        assert not started[2].wait(0.1)  # the thread is free, and call 2 never starts
    assert ran == [0, 1]
    assert not any(event.is_set() for event in started[2:])


def test_map_raises_the_first_failure_and_drops_the_rest():
    release = threading.Event()
    ran = []

    def call(i):
        if i == 0:
            raise ValueError("first")
        if i == 1:  # holds the thread until the consumer has seen the failure
            assert release.wait(WAIT_S)
        ran.append(i)
        return i

    with Pool(1) as pool:
        with pytest.raises(ValueError, match="first"):
            list(pool.map(call, range(10)))
        release.set()
    assert ran in ([], [1])  # call 1 may have started before the failure was seen


def test_many_threads_lose_no_call_under_fast_thread_switching():
    """More threads than cores, switching every microsecond: every call runs
    once and `map` yields every result in order."""
    counts = [0] * 2000
    lock = threading.Lock()

    def call(i):
        with lock:
            counts[i] += 1
        return -i

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with Pool(8) as pool:
            assert list(pool.map(call, range(len(counts)))) == [-i for i in range(len(counts))]
    finally:
        sys.setswitchinterval(interval)
    assert counts == [1] * len(counts)


def _outcomes(results):
    """The values an iterator yields, up to and including the ValueError it
    raises, if any."""
    out = []
    try:
        for value in results:
            out.append(("value", value))
    except ValueError as exc:
        out.append(("error", exc.args))
    return out


@given(
    size=st.integers(1, 4),
    calls=st.lists(st.tuples(st.integers(0, 3), st.booleans()), max_size=12),
)
@settings(max_examples=60, deadline=None)
def test_the_pool_gives_what_running_the_calls_one_after_another_gives(size, calls):
    """Calls of random durations (in ms), some failing: each call's result,
    and what `map` yields up to its first failure, equal those of running
    the calls in order on one thread, with at most `size` running at once."""
    lock = threading.Lock()
    running = [0, 0]  # now, most

    def call(i):
        ms, fails = calls[i]
        with lock:
            running[0] += 1
            running[1] = max(running)
        time.sleep(ms / 1000)
        with lock:
            running[0] -= 1
        if fails:
            raise ValueError(i)
        return i * i

    each = [_outcomes(map(call, [i])) for i in range(len(calls))]
    in_order = _outcomes(map(call, range(len(calls))))
    with Pool(size) as pool:
        submitted = [pool.submit(call, i) for i in range(len(calls))]
        assert [_outcomes(_result_of(c)) for c in submitted] == each
        assert _outcomes(pool.map(call, range(len(calls)))) == in_order
    assert running[1] <= size


def _result_of(call):
    yield call.result()
