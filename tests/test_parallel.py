import os
import threading
import time

import numpy as np
import pytest

from regsamp import parallel
from regsamp.model import MAX_DENSE_CELLS


@pytest.fixture
def two_cpus(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    for var in parallel.BLAS_THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    return monkeypatch


@pytest.mark.parametrize("env,want", [
    ({"OPENBLAS_NUM_THREADS": "2"}, 1),
    ({}, 1),  # OpenBLAS takes a thread per CPU
    ({"OMP_NUM_THREADS": "1"}, 2),
    ({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "2"}, 2),
    ({"GOTO_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 1),
    ({"OPENBLAS_NUM_THREADS": "0", "GOTO_NUM_THREADS": "1"}, 2),  # 0 is skipped
    ({"OPENBLAS_NUM_THREADS": "1x", "OMP_NUM_THREADS": "2"}, 2),  # read as atoi reads
    ({"OPENBLAS_NUM_THREADS": "x", "OMP_NUM_THREADS": "2"}, 1),
    ({"OPENBLAS_NUM_THREADS": "8"}, 1),
], ids=["openblas-2", "unset", "omp-1", "openblas-first", "goto-before-omp", "zero-skipped",
        "leading-digits", "no-digits", "more-than-cpus"])
def test_blas_threads_take_their_cpus(two_cpus, env, want):
    for var, value in env.items():
        two_cpus.setenv(var, value)
    assert parallel.workers(10, 1, blas=True) == want
    assert parallel.workers(10, 1) == 2  # the failure-rate rule reads no BLAS variable


def test_one_cpu_is_one_worker(two_cpus):
    two_cpus.setattr(os, "sched_getaffinity", lambda pid: {3})
    two_cpus.setenv("OMP_NUM_THREADS", "1")
    assert parallel.workers(10, 1, blas=True) == 1
    assert parallel.workers(10, 1) == 1


def test_workers_keep_to_jobs_and_cells(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)))
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "4")
    assert parallel.workers(100, 1, blas=True) == 16
    assert parallel.workers(3, 1, blas=True) == 3
    assert parallel.workers(100, MAX_DENSE_CELLS // 5, blas=True) == 5
    assert parallel.workers(0, 1) == 1
    assert parallel.workers(100, 2 * MAX_DENSE_CELLS) == 1


def test_run_returns_results_in_item_order():
    # the first items take longest, so the threads finish them last
    def job(i):
        time.sleep(0.01 * (6 - i))
        return i * i

    assert parallel.run(job, range(6), 3) == [i * i for i in range(6)]


def test_run_raises_the_first_failing_items_error():
    # item 1 fails first in time, item 0 later: the loop's error is item 0's
    def job(i):
        if i == 0:
            time.sleep(0.1)
            raise ValueError("item 0")
        if i == 1:
            raise KeyError("item 1")
        return i

    with pytest.raises(ValueError, match="item 0"):
        parallel.run(job, range(4), 2)


def test_items_not_started_when_one_fails_never_run():
    # item 0 fails once item 1 has started; item 1 and the one item its thread
    # may have taken meanwhile finish, and the 37 after them never start
    started, item_1_started = [], threading.Event()

    def job(i):
        started.append(i)
        if i == 0:
            item_1_started.wait(5)
            raise ValueError("item 0")
        if i == 1:
            item_1_started.set()
        time.sleep(0.1)
        return i

    with pytest.raises(ValueError, match="item 0"):
        parallel.run(job, range(40), 2)
    assert {0, 1} <= set(started) <= {0, 1, 2}


def test_one_worker_starts_no_thread(monkeypatch):
    def no_thread(self):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(threading.Thread, "start", no_thread)
    caller = threading.get_ident()
    results = parallel.run(lambda i: (i, threading.get_ident()), range(3), 1)
    assert results == [(i, caller) for i in range(3)]


@pytest.mark.parametrize("workers", [1, 2])
def test_run_keeps_the_callers_error_state(workers):
    # a new thread starts at numpy's defaults, which only warn on overflow
    def job(x):
        return np.float64(x) * 1e308

    with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="overflow"):
        parallel.run(job, [1.0, 10.0], workers)
    calls = []
    with np.errstate(over="call", call=lambda kind, flag: calls.append(kind)):
        assert parallel.run(job, [1.0, 10.0], workers) == [1e308, np.inf]
    assert calls == ["overflow"]
