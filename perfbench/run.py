#!/usr/bin/env python3
"""regsamp benchmark: run one workload through `regsamp.cli.main` in this process.

    python3 perfbench/run.py --workload mc-scaling --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from its
`src/`.  The workload's inputs are generated from --seed, then rounds of the
workload's CLI calls run one at a time (closed loop, single worker) until
--seconds have passed.  Every output is checked against `reference` and
repeated outputs must be byte-identical.

--trace 0 installs no wrappers and reports the end-to-end metrics, with task
time in units of a reference computation timed between calls; --trace 1
alternates untraced and traced executions of each task and reports per-layer
metrics and the tracing overhead.  The last stdout line is the result JSON;
the line before it gives the provenance.  Results and spans are also written
under .perfbench-out/ at the checkout root.  --smoke shrinks every workload
to a size that runs in seconds.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread, set before numpy loads, so that timings do not
# depend on how the scheduler places helper threads.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_ENV:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench-out"
SETUP_REPEATS = 3


def _git_commit() -> str:
    """The checked-out commit, read from .git without running git; 'unknown' elsewhere."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref_name = head[5:]
        ref_file = git / ref_name
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref_name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _child_import_s(src: Path) -> float:
    """Time `import regsamp.cli` in a fresh interpreter, measured inside it."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import regsamp.cli; print(time.perf_counter() - t)")
    proc = subprocess.run([sys.executable, "-c", code, str(src)], capture_output=True,
                          text=True, check=True, timeout=120)
    return float(proc.stdout)


def _provenance(args, version: str) -> dict:
    import numpy
    import scipy

    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "smoke": args.smoke,
            "nproc": os.cpu_count(), "cpus_allowed": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "regsamp": version, "git_commit": _git_commit(),
            "blas_threads": {var: os.environ[var] for var in BLAS_ENV}}


class Reference:
    """A fixed computation that does not touch regsamp, timed between CLI calls.

    Small numpy calls in a Python loop, the shape of most regsamp work: vector
    arithmetic with pure-Python sums, and small matrix-vector products with a
    loss evaluation, as in the optimizer.  On a shared machine the speed one
    process gets can drift by a third within a minute; a call's time divided by
    the mean of the reference times just before and after it cancels the
    drift, which both share.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(1)
        self._np = np
        self._x = rng.standard_normal(2000)
        self._a = rng.standard_normal((40, 6))
        self()  # the first run pays one-time costs

    def __call__(self) -> float:
        np = self._np
        start = time.perf_counter()
        acc = 0.0
        v = np.ones(6)
        for i in range(1500):
            acc += float(abs(self._x * (i + 1)).sum()) + sum(range(300))
            acc += float(np.logaddexp(0.0, self._a @ (v / (i + 1))).sum())
        return time.perf_counter() - start


class Runner:
    """Runs tasks through the CLI, counting attempted and failed calls."""

    def __init__(self, cli_module, work: Path, reference: Reference | None):
        self.cli = cli_module
        self.work = work
        self.reference = reference
        self.last_reference_s = reference() if reference else None
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.first_outputs: dict = {}
        self.changed_outputs: set = set()

    def run_task(self, task) -> tuple[float, float]:
        """Run the task's calls in order; return (seconds, time in reference units)."""
        seconds = relative = 0.0
        for argv in task.calls:
            sink = io.StringIO()
            start = time.perf_counter()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                try:
                    rc = self.cli.main(list(argv))  # module attribute: tracing can wrap it
                except Exception:  # noqa: BLE001 - a crash is one failed operation
                    rc = -1
                    traceback.print_exc(file=sink)
            elapsed = time.perf_counter() - start
            seconds += elapsed
            if self.reference is not None:
                after = self.reference()
                relative += elapsed / ((self.last_reference_s + after) / 2.0)
                self.last_reference_s = after
            self.attempted += 1
            if rc != 0:
                self.failed += 1
                if len(self.errors) < 5:
                    self.errors.append(f"{argv[0]} exited {rc}: {sink.getvalue()[-500:]}")
        self._snapshot(task)
        return seconds, relative

    def _snapshot(self, task) -> None:
        """Record the task's outputs; later rounds must reproduce them byte for byte."""
        for rel in task.outputs:
            path = self.work / rel
            data = path.read_bytes() if path.exists() else None
            first = self.first_outputs.setdefault(rel, data)
            if data != first:
                self.changed_outputs.add(rel)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "regsamp" / "__init__.py").is_file():
        print(f"error: no regsamp sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(Path(__file__).resolve().parent))

    t0 = time.perf_counter()
    import regsamp
    import regsamp.cli
    import_s = [time.perf_counter() - t0] + [_child_import_s(src)
                                             for _ in range(SETUP_REPEATS - 1)]
    if Path(regsamp.__file__).resolve().parent != (src / "regsamp").resolve():
        print(f"error: imported regsamp from {regsamp.__file__}, not {src}", file=sys.stderr)
        return 2

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT_DIR))
    try:
        return _run(args, regsamp, work, import_s, WORKLOADS[args.workload])
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(args, regsamp, work: Path, import_s: list, workload_cls) -> int:
    workload = workload_cls(args.seed, args.smoke, work)
    build_s = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        workload.build_inputs()
        build_s.append(time.perf_counter() - start)
    setup_s = statistics.median(import_s) + statistics.median(build_s)

    tasks = workload.tasks()
    tracer = None
    if args.trace:
        from tracer import Tracer, layer_metrics

        tracer = Tracer()
    runner = Runner(regsamp.cli, work, None if tracer else Reference())
    task_s, task_rel, traced_s, rounds = [], [], [], []
    deadline = time.perf_counter() + args.seconds
    while True:
        for task in tasks:
            seconds, relative = runner.run_task(task)
            task_s.append(seconds)
            task_rel.append(relative)
            if tracer is not None:
                tracer.install()
                try:
                    traced_s.append(runner.run_task(task)[0])
                finally:
                    tracer.uninstall()
        if tracer is not None:
            rounds.append(layer_metrics(tracer))
            tracer.reset_aggregates()
        if time.perf_counter() >= deadline:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems = [f"output changed between rounds: {rel}"
                for rel in sorted(runner.changed_outputs)]
    try:
        problems += workload.check()
    except (OSError, KeyError, ValueError, IndexError) as exc:
        problems.append(f"outputs could not be read back: {exc!r}")
    if tracer is not None:
        metrics = _per_layer(rounds, task_s, traced_s, problems)
    else:
        metrics = {"setup_s": {"value": setup_s, "unit": "s"},
                   "task_rel": {"value": statistics.median(task_rel), "unit": "ratio"},
                   "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"}}
    result = {"correct": not problems, "attempted": runner.attempted,
              "failed": runner.failed, "metrics": metrics}
    provenance = _provenance(args, regsamp.__version__)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    record = {"provenance": provenance, "result": result, "problems": problems,
              "errors": runner.errors, "setup": {"import_s": import_s, "build_s": build_s},
              "task_s": task_s, "task_rel": task_rel, "traced_task_s": traced_s}
    if tracer is not None:
        record["rounds"] = rounds
        record["dropped_spans"] = tracer.dropped_spans
        tracer.write_spans(OUT_DIR / f"{stem}.spans.jsonl")
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    for line in problems + runner.errors:
        print(f"check: {line}", file=sys.stderr)
    print(json.dumps({"provenance": provenance}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def _per_layer(rounds: list, task_s: list, traced_s: list, problems: list) -> dict:
    """Per-round layer metrics: counts from the first round, times as medians."""
    from tracer import UNITS

    first = rounds[0]
    for i, other in enumerate(rounds[1:], start=2):
        diff = [name for name, unit in UNITS.items()
                if unit != "s" and other[name] != first[name]]
        if diff:
            problems.append(f"traced round {i} counts differ from round 1: {diff}")
    metrics = {}
    for name, unit in UNITS.items():
        value = statistics.median(r[name] for r in rounds) if unit == "s" else first[name]
        metrics[name] = {"value": value, "unit": unit}
    untraced, traced = statistics.median(task_s), statistics.median(traced_s)
    metrics["trace.untraced_task_s"] = {"value": untraced, "unit": "s"}
    metrics["trace.traced_task_s"] = {"value": traced, "unit": "s"}
    metrics["trace.overhead_pct"] = {"value": 100.0 * (traced / untraced - 1.0), "unit": "%"}
    return metrics


if __name__ == "__main__":
    sys.exit(main())
