"""Layer tracing from outside the program: wrap regsamp's public functions.

A `Tracer` replaces selected functions with timing wrappers in every
`regsamp.*` module namespace that holds them (callers look them up as module
attributes at call time), and wraps methods on their class.  Each call records
a span (name, start, end, parent) and adds to per-name call counts, total
time and self time (total minus the time of nested traced calls).  Nothing in
`src/regsamp` is changed; `uninstall` restores every replaced attribute.

The tracer is single-threaded: the benchmark drives the CLI one call at a
time with the default single worker.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

# (module, attribute, span name); a dotted attribute names a method on a class.
TARGETS = (
    ("regsamp.cli", "main", None),  # span named cli.<subcommand>
    ("regsamp.model", "load_instance", "model.io"),
    ("regsamp.model", "save_instance", "model.io"),
    ("regsamp.sampler", "load_samples", "model.io"),
    ("regsamp.sampler", "save_samples", "model.io"),
    ("regsamp.objective", "load_queries", "model.io"),
    ("regsamp.objective", "save_queries", "model.io"),
    ("regsamp.sampler", "derive_rng", "sampler.rng"),
    ("regsamp.sampler", "CategoricalSampler.__init__", "sampler.alias_build"),
    ("regsamp.sampler", "CategoricalSampler.draw", "sampler.draw"),
    ("regsamp.sampler", "atom_probabilities", "sampler.probs"),
    ("regsamp.sampler", "atom_weights", "sampler.probs"),
    ("regsamp.bench", "failure_rate", "bench.probe"),
    ("regsamp.bench", "min_sample_size", "bench.search"),
    ("regsamp.hardness", "generate", "hardness.gen"),
    ("regsamp.hardness", "batch_failed", "hardness.predicate"),
    ("regsamp.objective", "relative_error", "objective.rel_err"),
    ("regsamp.objective", "max_relative_error", "objective.max_rel_err"),
    ("regsamp.objective", "estimate_opt", "objective.estimate_opt"),
    ("regsamp.losses", "eval_loss", "losses.eval_loss"),
    ("regsamp.losses", "eval_loss_derivative", "losses.eval_deriv"),
)

# Spans beyond this many are counted but not kept, so a long traced run keeps
# bounded memory; aggregates always cover every call.
MAX_SPANS = 200_000


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _cli_name(args, kwargs):
    argv = _arg(args, kwargs, 0, "argv")
    return f"cli.{argv[0]}" if argv else "cli.none"


def _count_draws(tracer, args, kwargs, result):
    tracer.counters["sampler.draws"] += int(_arg(args, kwargs, 2, "size"))


def _count_trials(tracer, args, kwargs, result):
    tracer.counters["bench.trials"] += int(_arg(args, kwargs, 0, "cfg").trials)
    if any(frame[2] == "bench.search" for frame in tracer._stack):
        tracer.counters["bench.search_probes"] += 1


def _count_queries(tracer, args, kwargs, result):
    tracer.counters["objective.queries"] += len(_arg(args, kwargs, 3, "queries"))
    tracer.counters["objective.queries_skipped"] += int(result[2])


ON_RETURN = {
    "sampler.draw": _count_draws,
    "bench.probe": _count_trials,
    "objective.max_rel_err": _count_queries,
}


class Tracer:
    """Spans and counters for calls into regsamp, kept in memory."""

    def __init__(self):
        self.spans: list = []          # [name, start, end, parent index]
        self.dropped_spans = 0
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counters = defaultdict(int)
        self._stack: list = []         # [span index, child seconds, name]
        self._patched: list = []       # (owner, attribute, original)

    def reset_aggregates(self):
        self.calls.clear()
        self.total_s.clear()
        self.self_s.clear()
        self.counters.clear()

    def _wrap(self, fn, name):
        tracer = self
        on_return = ON_RETURN.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = _cli_name(args, kwargs) if name is None else name
            stack = tracer._stack
            parent = stack[-1][0] if stack else -1
            if len(tracer.spans) < MAX_SPANS:
                idx = len(tracer.spans)
                tracer.spans.append([label, 0.0, 0.0, parent])
            else:
                idx = -1
                tracer.dropped_spans += 1
            frame = [idx, 0.0, label]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                dur = end - start
                tracer.calls[label] += 1
                tracer.total_s[label] += dur
                tracer.self_s[label] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if idx >= 0:
                    tracer.spans[idx][1] = start
                    tracer.spans[idx][2] = end
            if on_return is not None:
                on_return(tracer, args, kwargs, result)
            return result

        return wrapper

    def install(self):
        """Wrap every target in every loaded regsamp module that references it."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "regsamp" or n.startswith("regsamp."))]
        for mod_name, attr, name in TARGETS:
            owner = sys.modules[mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._patched.append((cls, meth, original))
                setattr(cls, meth, self._wrap(original, name))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(original, name)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is original:
                        self._patched.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self):
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()

    def write_spans(self, path):
        """Write kept spans as JSON lines: name, start, end (seconds), parent index."""
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, round(start, 9), round(end, 9), parent]) + "\n")


# Per-layer metrics of one round, with units; "s" marks a time, the rest repeat exactly.
UNITS = {
    "cli.bench_s": "s", "cli.sample_s": "s", "cli.eval_s": "s", "cli.opt_s": "s",
    "model.io_s": "s", "model.io_calls": "count",
    "sampler.rng_streams": "count", "sampler.rng_s": "s",
    "sampler.draw_calls": "count", "sampler.draws": "count", "sampler.draw_s": "s",
    "sampler.draws_per_stream": "ratio",
    "sampler.probs_calls": "count", "sampler.probs_s": "s",
    "sampler.alias_builds": "count", "sampler.alias_build_s": "s",
    "bench.probes": "count", "bench.trials": "count", "bench.points": "count",
    "bench.probes_per_point": "ratio",
    "bench.probe_s": "s", "bench.search_s": "s", "bench.aggregate_s": "s",
    "hardness.gen_calls": "count", "hardness.gen_s": "s",
    "hardness.predicate_calls": "count", "hardness.predicate_s": "s",
    "objective.rel_err_calls": "count", "objective.rel_err_s": "s",
    "objective.max_rel_err_s": "s", "objective.queries": "count",
    "objective.queries_skipped": "count", "objective.evals_per_query": "ratio",
    "objective.estimate_opt_calls": "count", "objective.estimate_opt_s": "s",
    "losses.eval_loss_calls": "count", "losses.eval_loss_s": "s",
    "losses.eval_deriv_calls": "count",
}


def _ratio(num: float, base: float) -> float:
    return num / base if base else 0.0


def layer_metrics(tracer: Tracer) -> dict:
    """The UNITS metrics from a tracer's aggregates (one round's worth)."""
    calls, total, own, counters = tracer.calls, tracer.total_s, tracer.self_s, tracer.counters
    out = {f"cli.{cmd}_s": own[f"cli.{cmd}"] for cmd in ("bench", "sample", "eval", "opt")}
    out["model.io_s"], out["model.io_calls"] = total["model.io"], calls["model.io"]
    for span in ("sampler.rng", "sampler.draw", "sampler.probs", "sampler.alias_build",
                 "bench.probe", "bench.search", "hardness.gen", "hardness.predicate",
                 "objective.rel_err", "objective.max_rel_err", "objective.estimate_opt",
                 "losses.eval_loss"):
        out[f"{span}_s"] = total[span]
    out["sampler.rng_streams"] = calls["sampler.rng"]
    out["sampler.draw_calls"] = calls["sampler.draw"]
    out["sampler.draws"] = counters["sampler.draws"]
    out["sampler.draws_per_stream"] = _ratio(out["sampler.draws"], out["sampler.rng_streams"])
    out["sampler.probs_calls"] = calls["sampler.probs"]
    out["sampler.alias_builds"] = calls["sampler.alias_build"]
    out["bench.probes"] = calls["bench.probe"]
    out["bench.trials"] = counters["bench.trials"]
    out["bench.points"] = calls["bench.search"]
    out["bench.probes_per_point"] = _ratio(counters["bench.search_probes"], out["bench.points"])
    out["bench.aggregate_s"] = own["bench.probe"]
    out["hardness.gen_calls"] = calls["hardness.gen"]
    out["hardness.predicate_calls"] = calls["hardness.predicate"]
    out["objective.rel_err_calls"] = calls["objective.rel_err"]
    out["objective.queries"] = counters["objective.queries"]
    out["objective.queries_skipped"] = counters["objective.queries_skipped"]
    out["objective.evals_per_query"] = _ratio(out["objective.rel_err_calls"],
                                              out["objective.queries"])
    out["objective.estimate_opt_calls"] = calls["objective.estimate_opt"]
    out["losses.eval_loss_calls"] = calls["losses.eval_loss"]
    out["losses.eval_deriv_calls"] = calls["losses.eval_deriv"]
    return out
