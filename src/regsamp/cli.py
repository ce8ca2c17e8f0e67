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

# keys a `bench` config must set, per mode
BENCH_KEYS = {"failure-rate": ("kind", "eps", "delta", "m_list"),
              "scaling": ("kind", "k_list", "eps", "delta")}


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
    kwargs: dict = {}
    kind = args.kind
    if kind in (hardness.QUAD_LOGISTIC, hardness.QUAD_SIGMOID,
                hardness.QUAD_HINGE, hardness.QUAD_RELU):
        if args.k is None or args.eps is None:
            raise InvalidInputError(f"{kind} needs --k and --eps")
        kwargs = {"k": args.k, "eps": args.eps}
        if args.reg and kind in (hardness.QUAD_HINGE, hardness.QUAD_RELU):
            kwargs["reg"] = args.reg
    elif kind in (hardness.LIN_RELU, hardness.LIN_LOGISTIC, hardness.LIN_SIGMOID):
        if args.k is None:
            raise InvalidInputError(f"{kind} needs --k")
        kwargs = {"k": int(args.k)}
        if args.reg:
            kwargs["reg"] = args.reg
    elif kind == hardness.COUPON_RELU:
        if args.d is None or args.k is None:
            raise InvalidInputError("coupon-relu needs --d and --k")
        kwargs = {"d": args.d, "k": args.k}
    elif kind == hardness.MOMENT_CURVE:
        if args.n is None or args.d is None:
            raise InvalidInputError("moment-curve needs --n and --d")
        kwargs = {"N": args.n, "d": args.d}
        if args.k is not None:
            kwargs["k"] = args.k
    else:
        raise InvalidInputError(f"unknown hard-instance kind {kind!r}")

    hard = hardness.generate(kind, **kwargs)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_instance(hard.instance, out / "instance.jsonl")
    save_queries(hard.queries, out / "queries.jsonl")
    params = {key: (val.tolist() if isinstance(val, np.ndarray) else val)
              for key, val in hard.params.items()}
    config = {"kind": kind, "params": params,
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
    mode = cfg.get("mode", "scaling")
    if mode not in BENCH_KEYS:
        raise InvalidInputError(f"unknown bench mode {mode!r}")
    missing = [key for key in BENCH_KEYS[mode] if key not in cfg]
    if missing:
        raise InvalidInputError(f"{mode} config lacks required key(s) {', '.join(missing)}")
    out = Path(args.out or cfg.get("out", "."))
    out.mkdir(parents=True, exist_ok=True)
    outputs = []
    warnings = []
    if mode == "failure-rate":
        hard = hardness.generate(cfg["kind"], **cfg.get("params", {}))
        tc = bench.TrialConfig(eps=cfg["eps"], delta=cfg["delta"],
                               trials=cfg.get("trials", bench.DEFAULT_TRIALS),
                               master_seed=cfg.get("master_seed", args.seed),
                               hard=hard,
                               query_policy=cfg.get("query_policy",
                                                    bench.ADVERSARIAL_ONLY),
                               m_cap=cfg.get("m_cap", bench.DEFAULT_M_CAP))
        rows = []
        for m in cfg["m_list"]:
            rate, (lo, hi) = bench.failure_rate(tc, int(m))
            rows.append({"run_id": f"{cfg['kind']}-k{hard.spec.k:g}-m{m}",
                         "kind": cfg["kind"], "loss": hard.spec.loss.kind,
                         "reg": hard.spec.reg.kind, "k": hard.spec.k,
                         "eps": tc.eps, "delta": tc.delta, "m": int(m),
                         "trials": tc.trials,
                         "failures": int(round(rate * tc.trials)), "rate": rate,
                         "ci_lo": lo, "ci_hi": hi})
            if tc.trials == 1:
                warnings.append(f"m={m}: single trial gives a vacuous CI")
        bench.write_failure_rate_csv(out / "failure_rates.csv", rows)
        outputs.append("failure_rates.csv")
    else:
        curve = bench.scaling_curve(cfg["kind"], cfg["k_list"], eps=cfg["eps"],
                                    delta=cfg["delta"],
                                    trials=cfg.get("trials", bench.DEFAULT_TRIALS),
                                    seed=cfg.get("master_seed", args.seed),
                                    reg=cfg.get("reg"),
                                    m_cap=cfg.get("m_cap", bench.DEFAULT_M_CAP))
        bench.write_scaling_csv(out / "scaling.csv", cfg["kind"], curve)
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
