"""How many threads a computation that regsamp runs side by side may take.

`bench.failure_rates` runs a failure-rate config's m values on threads, and
`objective.evaluate` its query blocks.  Both take one thread per CPU in the
process's affinity, at most one per job, and at most as many as keep every
thread's arrays within `model.MAX_DENSE_CELLS` cells together.  `evaluate`'s
blocks are BLAS products, so it also leaves the CPUs to the threads numpy's
OpenBLAS runs: with OpenBLAS on two threads of two CPUs, query blocks on two
threads were slower than on one.
"""

from __future__ import annotations

import os
import re

from .model import MAX_DENSE_CELLS

# where OpenBLAS reads its thread count from when it loads, the first positive value
# winning; with none it takes a thread per CPU
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def workers(jobs: int, cells: int, blas: bool = False) -> int:
    """Threads for jobs that each hold at most cells array cells at once.

    One per CPU the process may use (its affinity, else every CPU), or with
    blas one per as many CPUs as numpy's OpenBLAS runs threads; at most jobs,
    and at most MAX_DENSE_CELLS // cells; at least one."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity on this platform
        cpus = os.cpu_count() or 1
    if blas:
        cpus //= _blas_threads(cpus)
    return max(1, min(jobs, cpus, MAX_DENSE_CELLS // cells))


def _blas_threads(cpus: int) -> int:
    """The threads numpy's OpenBLAS runs on cpus CPUs, from the environment.

    A value is read as C's atoi reads it, so one that is not a positive
    integer passes to the next variable; the count is at most cpus."""
    for var in BLAS_THREAD_VARS:
        digits = re.match(r"\s*[+-]?\d+", os.environ.get(var, ""))
        if digits and int(digits.group()) > 0:
            return min(int(digits.group()), cpus)
    return cpus
