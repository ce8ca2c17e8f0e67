"""Command-line surface: gen | sample | eval | opt | bench | verify.

Every run writes a manifest embedding the fully resolved configuration, so
any output can be regenerated from the manifest alone.  Exit codes:
0 ok, 1 usage error, 2 data error, 3 budget exceeded.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__, bench, hardness
from .errors import (
    BudgetExceededError,
    DataError,
    DimensionMismatchError,
    InvalidInputError,
    NonFiniteQueryError,
    RegsampError,
)
from .losses import LOSS_KINDS, REG_KINDS, make_loss, make_reg
from .model import ObjectiveSpec, load_instance, save_instance
from .objective import estimate_opt, load_queries, relative_errors, save_queries, worst_error
from .sampler import MIXTURE, SCORE_KINDS, draw_iid, load_samples, save_samples

EXIT_OK, EXIT_USAGE, EXIT_DATA, EXIT_BUDGET = 0, 1, 2, 3
# the stderr prefix and exit code of each refusal, by the first class that matches
_REFUSALS = ((InvalidInputError, "error", EXIT_USAGE),
             (BudgetExceededError, "budget error", EXIT_BUDGET),
             ((DataError, DimensionMismatchError, OSError), "data error", EXIT_DATA),
             (RegsampError, "error", EXIT_DATA))

# keys a `bench` config must set and keys it may set, per mode; any other is rejected
_COMMON = ("mode", "trials", "master_seed", "m_cap")
BENCH_KEYS = {"failure-rate": (("kind", "eps", "delta", "m_list", "params"),
                               ("query_policy", *_COMMON)),
              "scaling": (("kind", "k_list", "eps", "delta"), ("reg", *_COMMON))}

_UNIT = ("float", lambda v: 0 < v < 1, "{name} must lie in (0, 1)")
_COUNT = ("int", lambda v: 1 <= v <= 2 ** 63 - 1,  # the largest count numpy draws (int64)
          "{name} must not exceed 2^63 - 1 nor fall below 1")
_SEED = ("int", lambda v: v >= 0, "a seed must be a non-negative integer")
_TEXT = ("str", lambda v: True, "")  # checked where used: the kind table, TrialConfig
# the domain of every value a flag or a bench config key sets: its `hardness.typed`
# annotation, an in-range test and the refusal, which names the flag or key
DOMAINS = {
    "k": ("float", lambda v: 1 <= v < math.inf, "{name} must be a finite real >= 1"),
    "k_list": ("list[float]", lambda v: min(v, default=1) >= 1, "{name} must hold reals >= 1"),
    "eps": _UNIT, "delta": _UNIT, "m": _COUNT, "trials": _COUNT, "m_cap": _COUNT,
    "m_list": ("list[int]", lambda v: len(v) > 0 and all(map(_COUNT[1], v)),
               _COUNT[2] + ", nor be empty"),
    "restarts": ("int", lambda v: v >= 1, "{name} must be >= 1"),
    "seed": _SEED, "master_seed": _SEED,
    # a uniform score D^2 + 2, and twice it, stay finite: S + s forms the law
    "norm_bound": ("float | None", lambda v: 0 <= v <= 2.0 ** 511,
                   "{name} must lie in [0, 2^511]"),
    "kind": _TEXT, "reg": _TEXT, "query_policy": _TEXT,
}


def _checked(name: str, value, flag: str | None = None):
    """value if in DOMAINS[name]; argparse types a flag's value, this a config key's."""
    annotation, inside, refusal = DOMAINS[name]
    if flag is None:
        value = hardness.typed(name, value, annotation)
    if value is not None and not inside(value):
        raise InvalidInputError(f"{refusal.format(name=flag or repr(name))}, got {value!r}")
    return value


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse prints usage and exits 2
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _write_json(doc: dict, path) -> None:
    """Write doc as sorted, 2-space-indented JSON and a newline, to path, or stdout if none."""
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    if not path:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _write_manifest(out_dir: Path, command: str, config: dict, outputs: list[str]):
    _write_json({"command": command, "config": config, "version": __version__,
                 "outputs": sorted(outputs)}, out_dir / "manifest.json")


def _cmd_gen(args) -> int:
    flags = {"k": args.k, "eps": args.eps, "d": args.d, "N": args.n, "reg": args.reg}
    hard = hardness.generate(args.kind, **{key: val for key, val in flags.items()
                                           if val is not None})
    hard.instance.atoms  # built, or refused, before --out is created
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_instance(hard.instance, out / "instance.jsonl")
    save_queries(hard.queries, out / "queries.jsonl")
    params = {key: (val.tolist() if isinstance(val, np.ndarray) else val)
              for key, val in hard.params.items()}
    config = {"kind": args.kind, "params": params,
              "loss": hard.spec.loss.kind, "reg": hard.spec.reg.kind,
              "k": hard.spec.k,
              "instance": "instance.jsonl", "queries": "queries.jsonl"}
    _write_manifest(out, "gen", config, ["instance.jsonl", "queries.jsonl"])
    print(f"wrote {hard.instance.n} atoms and {len(hard.queries) - 1} adversarial "
          f"queries to {out}")
    return EXIT_OK


def _cmd_sample(args) -> int:
    if args.score.startswith("uniform-") != (args.norm_bound is not None):
        verb = "needs" if args.norm_bound is None else "takes no"
        raise InvalidInputError(f"--score {args.score} {verb} --norm-bound")
    instance = load_instance(args.instance)
    samples = draw_iid(instance, args.score, args.m, args.seed,
                       convention=args.convention, D=args.norm_bound)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_samples(samples, out)
    config = {k: getattr(args, k) for k in ("score", "convention", "m", "seed", "norm_bound")}
    _write_manifest(out.parent, "sample", {**config, "instance": str(args.instance),
                                           "out": out.name}, [out.name])
    print(f"wrote {len(samples)} weighted samples to {out}")
    return EXIT_OK


def _cmd_eval(args) -> int:
    instance = load_instance(args.instance)
    samples = load_samples(args.sample)
    if samples.a.shape[1] != instance.dim:
        raise DataError(f"{args.sample}: sample has dimension {samples.a.shape[1]}, "
                        f"instance {args.instance} has dimension {instance.dim}")
    outside = np.flatnonzero((samples.idx < 0) | (samples.idx >= instance.n))
    if outside.size:
        i = int(outside[0])
        raise DataError(f"{args.sample}: line {i + 1}: atom_index {int(samples.idx[i])} is not "
                        f"an atom of instance {args.instance}, which has {instance.n} atoms")
    queries = load_queries(args.queries, dim=instance.dim)
    spec = ObjectiveSpec(make_loss(args.loss), make_reg(args.reg), args.k)
    try:
        errors = relative_errors(instance, spec, samples, queries.queries)
    except NonFiniteQueryError as exc:
        line = exc.row + 1 - queries.implied_origin
        where = f"line {line}" if line else "the origin query it implies"
        raise DataError(f"{args.queries}: {where}: {exc}") from None
    per_query = [{"tag": tag, "error": None if math.isnan(err) else err}
                 for tag, err in zip(queries.tags, errors.tolist())]
    max_err, _, skipped = worst_error(errors)
    report = {"eps": args.eps, "max_error": max_err, "skipped": skipped,
              "pass": bool(max_err <= args.eps), "per_query": per_query}
    _write_json(report, args.out)
    # with the report on stdout the summary goes to stderr, so stdout stays JSON
    print(f"max relative error {max_err:.6g} "
          f"({'pass' if report['pass'] else 'FAIL'} at eps = {args.eps})",
          file=None if args.out else sys.stderr)
    return EXIT_OK


def _cmd_opt(args) -> int:
    instance = load_instance(args.instance)
    spec = ObjectiveSpec(make_loss(args.loss), make_reg(args.reg), args.k)
    report = estimate_opt(instance, spec, restarts=args.restarts, seed=args.seed)
    _write_json({"opt_value": report.opt_value, "analytic_lower": report.analytic_lower,
                 "analytic_upper": report.analytic_upper, "dual_lower": report.dual_lower,
                 "minimizer": [float(v) for v in report.minimizer]}, args.out)
    return EXIT_OK


def _cmd_bench(args) -> int:
    try:
        cfg = json.loads(Path(args.config).read_bytes().decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or nested too deep
        raise DataError(f"{args.config}: {exc}") from None
    if not isinstance(cfg, dict):
        raise InvalidInputError("a bench config must be a JSON object")
    mode = cfg.get("mode", "scaling")
    if mode not in tuple(BENCH_KEYS):
        raise InvalidInputError(f"unknown bench mode {mode!r}")
    required, optional = BENCH_KEYS[mode]
    missing = [key for key in required if key not in cfg]
    if missing:
        raise InvalidInputError(f"{mode} config lacks required key(s) {', '.join(missing)}")
    unknown = [repr(key) for key in cfg if key not in required + optional]
    if unknown:
        raise InvalidInputError(f"{mode} config does not take key(s) {', '.join(unknown)}")
    opts = {"trials": bench.DEFAULT_TRIALS, "master_seed": 0, "m_cap": bench.DEFAULT_M_CAP,
            **{key: _checked(key, val) for key, val in cfg.items() if key in DOMAINS}}
    if not isinstance(cfg.get("params", {}), dict):
        raise InvalidInputError(f"'params' must be an object, got {cfg['params']!r}")
    over = [m for m in opts.get("m_list", ()) if m > opts["m_cap"]]
    if over:
        raise BudgetExceededError(f"'m_list' entries {over} exceed the m cap {opts['m_cap']}")
    out = Path(args.out)
    outputs, warnings = [], []
    if mode == "failure-rate":
        hard = hardness.generate(opts["kind"], **cfg["params"])
        tc = bench.TrialConfig(opts["eps"], opts["delta"], opts["trials"], opts["master_seed"],
                               hard=hard, m_cap=opts["m_cap"],
                               query_policy=opts.get("query_policy", bench.ADVERSARIAL_ONLY))
        rows = []
        for m, (rate, (lo, hi)) in zip(opts["m_list"], bench.failure_rates(tc, opts["m_list"])):
            rows.append({"run_id": f"{opts['kind']}-k{hard.spec.k:g}-m{m}",
                         "kind": opts["kind"], "loss": hard.spec.loss.kind,
                         "reg": hard.spec.reg.kind, "k": hard.spec.k, "eps": tc.eps,
                         "delta": tc.delta, "m": m, "trials": tc.trials, "rate": rate,
                         "failures": int(round(rate * tc.trials)), "ci_lo": lo, "ci_hi": hi})
            if tc.trials == 1:
                warnings.append(f"m={m}: single trial gives a vacuous CI")
        out.mkdir(parents=True, exist_ok=True)
        bench.write_failure_rate_csv(out / "failure_rates.csv", rows)
        outputs.append("failure_rates.csv")
    else:
        curve = bench.scaling_curve(opts["kind"], opts["k_list"], eps=opts["eps"],
                                    delta=opts["delta"], trials=opts["trials"],
                                    seed=opts["master_seed"], reg=opts.get("reg"),
                                    m_cap=opts["m_cap"])
        out.mkdir(parents=True, exist_ok=True)
        bench.write_scaling_csv(out / "scaling.csv", opts["kind"], curve)
        bench.write_plot_data(out / "scaling_plot.dat", curve)
        outputs += ["scaling.csv", "scaling_plot.dat"]
        for k, err in curve.budget_errors:
            warnings.append(f"k={k:g}: {err}")
    _write_manifest(out, "bench", cfg, outputs)
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    print(f"wrote {', '.join(outputs)} to {out}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    from .verify import run_all

    results = run_all(quick=args.quick)
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"[{status}] {res.name} ({res.seconds:.1f}s): {res.detail}")
    failed = sum(not res.passed for res in results)
    print(f"{failed} of {len(results)} checks failed" if failed
          else f"all {len(results)} checks passed")
    return EXIT_DATA if failed else EXIT_OK


@functools.cache
def build_parser() -> _Parser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
    parser = _Parser(prog="regsamp", description="Importance-sampling coresets for "
                                                 "regularized linear classification losses")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a hard instance")
    p.add_argument("--kind", required=True, choices=hardness.HARD_KINDS)
    p.add_argument("--k", type=float)
    p.add_argument("--eps", type=float)
    p.add_argument("--d", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--reg", choices=REG_KINDS)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("sample", help="draw weighted samples")
    p.add_argument("--instance", required=True)
    p.add_argument("--score", default="norm", choices=SCORE_KINDS)
    p.add_argument("--convention", default=MIXTURE, choices=["mixture", "score-only"])
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--norm-bound", type=float, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sample)

    objective = argparse.ArgumentParser(add_help=False)  # the flags eval and opt share
    objective.add_argument("--instance", required=True)
    objective.add_argument("--loss", required=True, choices=LOSS_KINDS)
    objective.add_argument("--reg", required=True, choices=REG_KINDS)
    objective.add_argument("--k", type=float, required=True)
    objective.add_argument("--out")

    p = sub.add_parser("eval", parents=[objective], help="relative errors on a query set")
    p.add_argument("--sample", required=True)
    p.add_argument("--queries", required=True)
    p.add_argument("--eps", type=float, required=True)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("opt", parents=[objective], help="estimate the objective minimum")
    p.add_argument("--restarts", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_opt)

    p = sub.add_parser("bench", help="failure rates and scaling curves")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=".")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("verify", help="run the acceptance battery")
    p.add_argument("--quick", action="store_true")
    p.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command != "gen":  # gen's flags are typed by its kind's schema
            for name, value in vars(args).items():
                if name in DOMAINS:
                    _checked(name, value, "--" + name.replace("_", "-"))
        return args.func(args)
    except (RegsampError, OSError) as exc:
        prefix, code = next((p, c) for cls, p, c in _REFUSALS if isinstance(exc, cls))
        print(f"{prefix}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
