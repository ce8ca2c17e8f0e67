"""Command-line surface: gen | sample | eval | opt | bench | verify.

Every run writes a manifest embedding the fully resolved configuration, so
any output can be regenerated from the manifest alone.  Exit codes:
0 ok, 1 usage error, 2 data error, 3 budget exceeded.
"""

from __future__ import annotations

import argparse
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
    RegsampError,
)
from .losses import make_loss, make_reg
from .model import ObjectiveSpec, load_instance, save_instance
from .objective import estimate_opt, load_queries, relative_errors, save_queries, worst_error
from .sampler import MIXTURE, draw_iid, load_samples, save_samples

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_BUDGET = 3

# keys a `bench` config must set and keys it may set, per mode; any other is rejected
_COMMON = ("mode", "trials", "master_seed", "m_cap", "out")
BENCH_KEYS = {"failure-rate": (("kind", "eps", "delta", "m_list"),
                               ("params", "query_policy", *_COMMON)),
              "scaling": (("kind", "k_list", "eps", "delta"), ("reg", *_COMMON))}
# the type of each bench config key, as `hardness.typed` names it; `params`
# must be an object and is checked against the kind's generator
BENCH_TYPES = {"kind": "str", "reg": "str", "query_policy": "str", "out": "str",
               "eps": "float", "delta": "float", "trials": "int", "master_seed": "int",
               "m_cap": "int", "m_list": "list[int]", "k_list": "list[float]"}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _write_manifest(out_dir: Path, command: str, config: dict, outputs: list[str]):
    manifest = {"command": command, "config": config, "version": __version__,
                "outputs": sorted(outputs)}
    with open(out_dir / "manifest.json", "w") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _cmd_gen(args) -> int:
    flags = {"k": args.k, "eps": args.eps, "d": args.d, "N": args.n, "reg": args.reg}
    hard = hardness.generate(args.kind, **{key: val for key, val in flags.items()
                                           if val is not None})
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
    instance = load_instance(args.instance)
    samples = draw_iid(instance, args.score, args.m, args.seed,
                       convention=args.convention, D=args.norm_bound)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_samples(samples, out)
    _write_manifest(out.parent, "sample",
                    {"instance": str(args.instance), "score": args.score,
                     "convention": args.convention, "m": args.m,
                     "seed": args.seed, "out": out.name},
                    [out.name])
    print(f"wrote {len(samples)} weighted samples to {out}")
    return EXIT_OK


def _cmd_eval(args) -> int:
    instance = load_instance(args.instance)
    samples = load_samples(args.sample)
    queries = load_queries(args.queries, dim=instance.dim)
    spec = ObjectiveSpec(make_loss(args.loss), make_reg(args.reg), args.k)
    errors = relative_errors(instance, spec, samples, queries.queries)
    per_query = [{"tag": tag, "error": None if math.isnan(err) else err}
                 for tag, err in zip(queries.tags, errors.tolist())]
    max_err, _, skipped = worst_error(errors)
    report = {"eps": args.eps, "max_error": max_err, "skipped": skipped,
              "pass": bool(max_err <= args.eps), "per_query": per_query}
    payload = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if args.out:
        Path(args.out).write_text(payload)
    else:
        sys.stdout.write(payload)
    print(f"max relative error {max_err:.6g} "
          f"({'pass' if report['pass'] else 'FAIL'} at eps = {args.eps})")
    return EXIT_OK


def _cmd_opt(args) -> int:
    instance = load_instance(args.instance)
    spec = ObjectiveSpec(make_loss(args.loss), make_reg(args.reg), args.k)
    report = estimate_opt(instance, spec, restarts=args.restarts, seed=args.seed)
    payload = json.dumps({"opt_value": report.opt_value,
                          "analytic_lower": report.analytic_lower,
                          "analytic_upper": report.analytic_upper,
                          "minimizer": [float(v) for v in report.minimizer]},
                         sort_keys=True, indent=2) + "\n"
    if args.out:
        Path(args.out).write_text(payload)
    else:
        sys.stdout.write(payload)
    return EXIT_OK


def _cmd_bench(args) -> int:
    with open(args.config) as fh:
        cfg = json.load(fh)
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
    opts = {key: hardness.typed(key, val, BENCH_TYPES[key])
            for key, val in cfg.items() if key in BENCH_TYPES}
    if not isinstance(cfg.get("params", {}), dict):
        raise InvalidInputError(f"'params' must be an object, got {cfg['params']!r}")
    if any(m < 1 for m in opts.get("m_list", ())):
        raise InvalidInputError(f"'m_list' must hold positive integers, got {cfg['m_list']!r}")
    trials = opts.get("trials", bench.DEFAULT_TRIALS)
    seed = opts.get("master_seed", args.seed)
    m_cap = opts.get("m_cap", bench.DEFAULT_M_CAP)
    out = Path(args.out or opts.get("out", "."))
    out.mkdir(parents=True, exist_ok=True)
    outputs = []
    warnings = []
    if mode == "failure-rate":
        hard = hardness.generate(opts["kind"], **cfg.get("params", {}))
        tc = bench.TrialConfig(eps=opts["eps"], delta=opts["delta"], trials=trials,
                               master_seed=seed, hard=hard,
                               query_policy=opts.get("query_policy", bench.ADVERSARIAL_ONLY),
                               m_cap=m_cap)
        rows = []
        for m in opts["m_list"]:
            rate, (lo, hi) = bench.failure_rate(tc, m)
            rows.append({"run_id": f"{opts['kind']}-k{hard.spec.k:g}-m{m}",
                         "kind": opts["kind"], "loss": hard.spec.loss.kind,
                         "reg": hard.spec.reg.kind, "k": hard.spec.k,
                         "eps": tc.eps, "delta": tc.delta, "m": m,
                         "trials": tc.trials,
                         "failures": int(round(rate * tc.trials)), "rate": rate,
                         "ci_lo": lo, "ci_hi": hi})
            if tc.trials == 1:
                warnings.append(f"m={m}: single trial gives a vacuous CI")
        bench.write_failure_rate_csv(out / "failure_rates.csv", rows)
        outputs.append("failure_rates.csv")
    else:
        curve = bench.scaling_curve(opts["kind"], opts["k_list"], eps=opts["eps"],
                                    delta=opts["delta"], trials=trials, seed=seed,
                                    reg=opts.get("reg"), m_cap=m_cap)
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
    failed = 0
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"[{status}] {res.name} ({res.seconds:.1f}s): {res.detail}")
        failed += 0 if res.passed else 1
    if failed:
        print(f"{failed} of {len(results)} checks failed")
        return EXIT_DATA
    print(f"all {len(results)} checks passed")
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="regsamp",
                     description="Importance-sampling coresets for regularized "
                                 "linear classification losses")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--out", type=str, default=None)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", parents=[common], help="generate a hard instance")
    p.add_argument("--kind", required=True, choices=hardness.HARD_KINDS)
    p.add_argument("--k", type=float)
    p.add_argument("--eps", type=float)
    p.add_argument("--d", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--reg", choices=["l1", "l2", "l2sq"])
    p.set_defaults(func=_cmd_gen, out_required=True)

    p = sub.add_parser("sample", parents=[common], help="draw weighted samples")
    p.add_argument("--instance", required=True)
    p.add_argument("--score", default="norm",
                   choices=["norm", "sqnorm", "uniform-d", "uniform-d2"])
    p.add_argument("--convention", default=MIXTURE, choices=["mixture", "score-only"])
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--norm-bound", type=float, default=None)
    p.set_defaults(func=_cmd_sample, out_required=True)

    p = sub.add_parser("eval", parents=[common], help="relative errors on a query set")
    p.add_argument("--instance", required=True)
    p.add_argument("--sample", required=True)
    p.add_argument("--queries", required=True)
    p.add_argument("--loss", required=True, choices=["logistic", "sigmoid", "hinge", "relu"])
    p.add_argument("--reg", required=True, choices=["l1", "l2", "l2sq"])
    p.add_argument("--k", type=float, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.set_defaults(func=_cmd_eval, out_required=False)

    p = sub.add_parser("opt", parents=[common], help="estimate the objective minimum")
    p.add_argument("--instance", required=True)
    p.add_argument("--loss", required=True, choices=["logistic", "sigmoid", "hinge", "relu"])
    p.add_argument("--reg", required=True, choices=["l1", "l2", "l2sq"])
    p.add_argument("--k", type=float, required=True)
    p.add_argument("--restarts", type=int, default=8)
    p.set_defaults(func=_cmd_opt, out_required=False)

    p = sub.add_parser("bench", parents=[common], help="failure rates and scaling curves")
    p.add_argument("--config", required=True)
    p.set_defaults(func=_cmd_bench, out_required=False)

    p = sub.add_parser("verify", parents=[common], help="run the acceptance battery")
    p.add_argument("--quick", action="store_true")
    p.set_defaults(func=_cmd_verify, out_required=False)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if getattr(args, "out_required", False) and not args.out:
        print("error: --out is required for this command", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except InvalidInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BudgetExceededError as exc:
        print(f"budget error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (DataError, DimensionMismatchError, OSError, json.JSONDecodeError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except RegsampError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
