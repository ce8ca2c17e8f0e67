import contextlib
import os
import sys

import pytest

from regsamp import parallel


@contextlib.contextmanager
def on_cpus(count: int):
    """Run with count CPUs in the process's affinity, one BLAS thread, and the
    interpreter switching threads every microsecond, so that threads interleave
    often even where the machine has fewer CPUs than count."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))
        for var in parallel.BLAS_THREAD_VARS:
            mp.delenv(var, raising=False)
        mp.setenv("OPENBLAS_NUM_THREADS", "1")
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            yield
        finally:
            sys.setswitchinterval(interval)
