import threading
import time

import pytest

from bsplda import workers


def test_a_failing_task_is_raised_only_after_every_other_task_finished(monkeypatch):
    # the first task fails while the second still runs: `run` raises the
    # failure once the second has finished, so no task outlives the call
    monkeypatch.setattr(workers, "count", lambda: 2)
    first_failing, finished = threading.Event(), []

    def first():
        first_failing.set()
        raise KeyError("first")

    def second():
        assert first_failing.wait(10)
        time.sleep(0.05)
        finished.append(threading.current_thread().name)
        return 2

    with pytest.raises(KeyError, match="first"):
        workers.run([first, second])
    assert len(finished) == 1 and finished[0].startswith("bsplda-worker")


def test_results_come_back_in_task_order(monkeypatch):
    # the later tasks finish first
    monkeypatch.setattr(workers, "count", lambda: 2)

    def task(i):
        def call():
            time.sleep(0.01 * (4 - i))
            return i, threading.current_thread().name

        return call

    results = workers.run([task(i) for i in range(4)])
    assert [i for i, _ in results] == [0, 1, 2, 3]
    assert all(name.startswith("bsplda-worker") for _, name in results)


def test_with_one_cpu_the_tasks_run_on_the_calling_thread_in_order(monkeypatch):
    monkeypatch.setattr(workers, "count", lambda: 1)
    calls = []

    def task(i):
        def call():
            calls.append((i, threading.current_thread()))
            return i

        return call

    assert workers.run([task(i) for i in range(3)]) == [0, 1, 2]
    assert calls == [(i, threading.current_thread()) for i in range(3)]
