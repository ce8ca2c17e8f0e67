import os

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
