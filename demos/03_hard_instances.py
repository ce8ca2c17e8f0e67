#!/usr/bin/env python3
"""Gallery of adversarial lower-bound instances.

Each construction pairs a distribution with queries on which any
undersized sample must violate the relative-error guarantee.  The script
reproduces the deterministic failure arithmetic for the quadratic-regime
families and the count-deviation predicates for the linear-regime ones.
"""

import numpy as np

import regsamp as rs
from regsamp.hardness import adversarial_relative_error


def forced_miss_sample(hard, kept):
    return rs.Coreset.of_atoms(hard.instance, list(kept), hard.score_kind, hard.convention)


def main():
    eps = 1.0 / 6.0

    print("== relu + ridge, quadratic regime ==")
    hard = rs.gen_quad_relu(6.0, eps)
    d = hard.params["d"]
    samples = forced_miss_sample(hard, range(d // 2, d))
    err_x, _ = adversarial_relative_error(hard, samples)
    print(f"d = {d}; sample covering only the second half gives relative error "
          f"{err_x:.6f} = 3eps/(1+3eps) > eps = {eps:.4f}")

    print("\n== hinge, quadratic regime ==")
    hard = rs.gen_quad_hinge(8.0, eps, reg="l2sq")
    n = hard.instance.n
    samples = forced_miss_sample(hard, range(hard.params["half"], n))
    err_x, _ = adversarial_relative_error(hard, samples)
    print(f"d-1 = {n}; missing-half error {err_x:.6f} = 6eps/(4+6eps)")

    print("\n== logistic, quadratic regime: two-query dichotomy ==")
    hard = rs.gen_quad_logistic(8.0, 0.05)
    n = hard.instance.n
    samples = forced_miss_sample(hard, range(hard.params["half"], n))
    verdict = rs.check_failure(hard, samples, 0.05)
    where = "origin" if not np.any(verdict.witness_query) else "adversarial query"
    print(f"d = {n}; verdict failed={verdict.failed} at the {where}")

    print("\n== relu + l1, linear regime: per-atom count deviations ==")
    hard = rs.gen_lin_relu(8)
    samples = rs.draw_iid(hard.instance, hard.score_kind, 40, seed=3,
                          convention=hard.convention)
    verdict = rs.check_failure(hard, samples, 0.25)
    print(f"2k = {hard.instance.n} signed basis atoms; m = 40 draws; "
          f"failed = {verdict.failed} (any count off its mean by > 3 eps mu)")

    print("\n== coupon collector: relu + ridge needs every atom ==")
    hard = rs.gen_coupon_relu(64, 16.0)
    cfg = rs.TrialConfig(eps=0.25, delta=0.2, trials=200, master_seed=5, hard=hard)
    for m in (64, 400, 800):
        rate, (lo, hi) = rs.failure_rate(cfg, m)
        print(f"m = {m:>4}: failure rate {rate:.3f}  (Wilson 95% [{lo:.3f}, {hi:.3f}])")

    print("\n== moment curve: every atom isolated by a hyperplane ==")
    hard = rs.gen_moment_curve(12, 4)
    dirs = hard.params["directions"]
    margins = hard.instance.atoms @ dirs.T
    print(f"N = 12 atoms in R^5; isolated margins all negative: "
          f"{bool(np.all(np.diag(margins) < 0))}; "
          f"others nonnegative: "
          f"{bool(np.all(margins[~np.eye(12, dtype=bool)] >= -1e-12))}")

    print("\n== scaling a relu witness to logistic/hinge ==")
    x = np.array([0.0, -1.0])
    for beta in (1.0, 1e3, 1e6):
        scaled = beta * x
        val = float(rs.eval_loss(rs.make_loss("logistic"), scaled[1])) / beta
        print(f"beta = {beta:>9.0e}: g(beta * -1)/beta = {val:.8f} -> relu value 1")


if __name__ == "__main__":
    main()
