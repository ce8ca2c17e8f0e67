"""Acceptance checks: one deterministic or Monte Carlo verdict per guarantee.

Each check returns a CheckResult; run_all executes the full battery at the
documented budgets (quick=True shrinks the statistical budgets for smoke
runs, keeping every deterministic check intact).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import hardness
from .bench import TrialConfig, failure_rate, scaling_curve, unbiasedness_check
from .losses import (
    HINGE,
    L1,
    L2,
    L2SQ,
    LOGISTIC,
    RELU,
    SIGMOID,
    decompose,
    eval_loss,
    check_bounded_derivative,
    make_loss,
    make_reg,
)
from .model import ObjectiveSpec, compute_constants, gaussian_instance, make_instance
from .objective import estimate_opt, full_objective, opt_lower_bound, relative_errors, sensitivity
from .sampler import (
    MIXTURE,
    NORM_PLUS_1,
    SQNORM_PLUS_2,
    Coreset,
    derive_rng,
    draw_iid,
    estimate_S,
    weight,
    weights_from_estimate,
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float


def check_unbiasedness(trials: int = 20_000) -> CheckResult:
    """Mean subsampled loss matches the exact loss within 4 standard errors."""
    t0 = time.time()
    inst = gaussian_instance(100, 5, seed=101)
    spec = ObjectiveSpec(make_loss(LOGISTIC), make_reg(L2SQ), 10.0)
    rng = derive_rng(202)
    worst = 0.0
    ok = True
    for i in range(10):
        x = rng.standard_normal(5)
        gap, stderr = unbiasedness_check(inst, spec, NORM_PLUS_1, x, m=50,
                                         trials=trials, seed=300 + i)
        ratio = abs(gap) / (4.0 * stderr)
        worst = max(worst, ratio)
        ok = ok and ratio <= 1.0
    return CheckResult("unbiasedness", ok,
                       f"worst |gap|/(4 stderr) = {worst:.3f} over 10 queries",
                       time.time() - t0)


def check_weight_laws(total_draws: int = 1_000_000) -> CheckResult:
    """Every mixture weight lies in (0, 2] and every per-sample mean is <= 2."""
    t0 = time.time()
    per_instance = total_draws // 20
    ok = True
    w_min, w_max = math.inf, -math.inf
    for i in range(20):
        inst = gaussian_instance(30 + 7 * i, 3 + (i % 4), seed=500 + i,
                                 scale=0.5 + 0.25 * i, uniform_masses=(i % 2 == 0))
        kind = NORM_PLUS_1 if i % 2 else SQNORM_PLUS_2
        w_drawn = draw_iid(inst, kind, per_instance, seed=600 + i).w
        w_min = min(w_min, float(w_drawn.min()))
        w_max = max(w_max, float(w_drawn.max()))
        ok = ok and bool(np.all(w_drawn > 0) and np.all(w_drawn <= 2.0))
        ok = ok and float(w_drawn.mean()) <= 2.0
    return CheckResult("weight-laws", ok,
                       f"weights in [{w_min:.6f}, {w_max:.6f}] over {20 * per_instance} draws",
                       time.time() - t0)


def check_weight_estimate_grid() -> CheckResult:
    """w'(a) stays within [1 - |eta|, 1 + |eta|] of w(a) on the full grid."""
    t0 = time.time()
    S = 10.0
    violations = 0
    for eta_i in range(-10, 11):
        eta = eta_i * 0.05
        s_hat = (1.0 + eta) * S
        for s in range(1, 101):
            ratio = weight(float(s), s_hat) / weight(float(s), S)
            if not (1.0 - abs(eta) - 1e-12 <= ratio <= 1.0 + abs(eta) + 1e-12):
                violations += 1
    return CheckResult("weight-estimate-grid", violations == 0,
                       f"{violations} violations on the 21 x 100 grid",
                       time.time() - t0)


def check_score_mass_estimation(reps: int = 2000) -> CheckResult:
    """Failure rate of the score-mass estimator stays within its guarantee."""
    t0 = time.time()
    inst = make_instance(np.array([[0.0], [3.0]]))  # scores 1 and 4, S = 2.5
    eps, delta = 0.1, 0.05
    S_true = 2.5
    failures = 0
    m_used = None
    for r in range(reps):
        est = estimate_S(inst, NORM_PLUS_1, eps, delta, seed=7000 + r)
        m_used = est.m_used
        if abs(est.s_hat - S_true) > eps * S_true:
            failures += 1
    rate = failures / reps
    slack = 2.0 * math.sqrt(delta * (1.0 - delta) / reps)
    ok = rate <= delta + slack
    return CheckResult("score-mass-estimation", ok,
                       f"failure rate {rate:.4f} <= {delta + slack:.4f} (m = {m_used})",
                       time.time() - t0)


def check_deterministic_lower_bounds() -> CheckResult:
    """Exact failure arithmetic for the quadratic-regime constructions."""
    t0 = time.time()
    msgs = []
    ok = True

    # relu: missing the isolated half gives error exactly 3 eps/(1+3 eps) = 1/3
    eps = 1.0 / 6.0
    hard = hardness.gen_quad_relu(6.0, eps)
    ok &= hard.params["d"] == 36
    samples = Coreset.of_atoms(hard.instance, [20, 25, 30, 35] * 5, hard.score_kind,
                               hard.convention)
    err_x, _ = hardness.adversarial_relative_error(hard, samples)
    want = 3.0 * eps / (1.0 + 3.0 * eps)
    ok &= abs(err_x - want) <= 1e-9 and err_x > eps
    ok &= hardness.check_failure(hard, samples, eps).failed
    msgs.append(f"relu err {err_x:.12f} vs {want:.12f}")

    # hinge: error exactly 6 eps/(4+6 eps) with the l2sq regularizer
    hard = hardness.gen_quad_hinge(8.0, eps, reg=L2SQ)
    h = hard.params["half"]
    n = hard.instance.n
    samples = Coreset.of_atoms(hard.instance, list(range(h, n)) * 2, hard.score_kind,
                               hard.convention)
    err_x, _ = hardness.adversarial_relative_error(hard, samples)
    want = 6.0 * eps / (4.0 + 6.0 * eps)
    ok &= abs(err_x - want) <= 1e-9 and err_x > eps
    ok &= hardness.check_failure(hard, samples, eps).failed
    msgs.append(f"hinge err {err_x:.12f} vs {want:.12f}")

    # logistic / sigmoid: the two-query dichotomy
    for gen, eps_q in ((hardness.gen_quad_logistic, 8.0 * math.log(2.0) / 80.0),
                       (hardness.gen_quad_sigmoid, 0.05)):
        hard = gen(8.0, eps_q)
        h, n = hard.params["half"], hard.instance.n
        miss_half = Coreset.of_atoms(hard.instance, list(range(h, n)) * 2, hard.score_kind,
                                     hard.convention)
        verdict = hardness.check_failure(hard, miss_half, eps_q)
        ok &= verdict.failed and verdict.witness_query is not None \
            and np.any(verdict.witness_query != 0)
        # reweighted so the mean weight sits at the adversarial-query value:
        # the violation must then move to the origin
        half_c = 0.5 + hard.params["c"]
        s_hat = 2.0 * half_c / (2.0 - half_c)
        skew = weights_from_estimate(miss_half, s_hat)
        verdict = hardness.check_failure(hard, skew, eps_q)
        ok &= verdict.failed and verdict.witness_query is not None \
            and not np.any(verdict.witness_query != 0)
        msgs.append(f"{hard.kind} dichotomy ok")

    return CheckResult("deterministic-lower-bounds", bool(ok), "; ".join(msgs),
                       time.time() - t0)


def check_coupon_collector(trials: int = 200) -> CheckResult:
    """Missing-coupon failures: near-certain at m = d, rare at m = 3 d ln d."""
    t0 = time.time()
    hard = hardness.gen_coupon_relu(64, 16.0)
    cfg = TrialConfig(eps=0.25, delta=0.2, trials=trials, master_seed=41, hard=hard)
    rate_small, _ = failure_rate(cfg, 64)
    m_big = math.ceil(3 * 64 * math.log(64))
    rate_big, _ = failure_rate(cfg, m_big)
    ok = rate_small >= 0.95 and rate_big <= 0.2
    return CheckResult("coupon-collector", ok,
                       f"rate(m=64) = {rate_small:.3f} >= 0.95, "
                       f"rate(m={m_big}) = {rate_big:.3f} <= 0.2",
                       time.time() - t0)


def check_moment_curve(samples_to_try: int = 100) -> CheckResult:
    """Isolation sign patterns hold and the eta -> 0 predicate matches counts."""
    t0 = time.time()
    hard = hardness.gen_moment_curve(12, 4)
    inst = hard.instance
    dirs = hard.params["directions"]
    ok = True
    for j in range(12):
        margins = inst.atoms @ dirs[j]
        ok &= margins[j] < 0 and bool(np.all(np.delete(margins, j) >= -1e-12))
    eps = 0.25
    eta = 1e-6
    disagreements = 0
    m = 50
    mu = m * hard.probabilities
    for r in range(samples_to_try):
        smp = draw_iid(inst, hard.score_kind, m, seed=9000 + r,
                       convention=hard.convention)
        counts = np.bincount(smp.idx, minlength=inst.n)
        count_fail = np.abs(counts - mu) > eps * mu
        eval_fail = relative_errors(inst, hard.spec, smp, eta * dirs) > eps
        disagreements += int(np.sum(count_fail != eval_fail))
    ok &= disagreements == 0
    return CheckResult("moment-curve", bool(ok),
                       f"12/12 sign patterns verified; {disagreements} predicate "
                       f"disagreements over {samples_to_try} samples at eta = 1e-6",
                       time.time() - t0)


def check_scaling_separation(trials: int = 200) -> CheckResult:
    """Linear-vs-quadratic sample growth: slopes from empirical minimal sizes."""
    t0 = time.time()
    lin = scaling_curve(hardness.LIN_RELU, [8, 16, 32, 64], eps=0.25, delta=0.2,
                        trials=trials, seed=11, reg=L1)
    quad = scaling_curve(hardness.QUAD_HINGE, [8, 16, 32], eps=0.25, delta=0.2,
                         trials=trials, seed=12, reg=L2SQ)
    ok = (not lin.budget_errors and not quad.budget_errors
          and 0.8 <= lin.fitted_slope <= 1.4 and quad.fitted_slope >= 1.6)
    return CheckResult(
        "scaling-separation", bool(ok),
        f"lin-relu slope {lin.fitted_slope:.3f} in [0.8, 1.4] "
        f"(points {list(lin.points)}); quad-hinge slope {quad.fitted_slope:.3f} >= 1.6 "
        f"(points {list(quad.points)})",
        time.time() - t0)


def check_opt_sandwich(restarts: int = 8, iters: int = 2000) -> CheckResult:
    """estimate_opt lands between the analytic lower bound and g(0)."""
    t0 = time.time()
    combos = []
    rng = derive_rng(77)
    losses = [LOGISTIC, SIGMOID, HINGE]
    regs = [L1, L2, L2SQ]
    for i in range(20):
        combos.append((losses[i % 3], regs[(i // 3) % 3], [4.0, 16.0, 64.0][i % 3],
                       int(rng.integers(1, 1_000_000))))
    ok = True
    worst = ""
    for loss_kind, reg_kind, k, seed in combos:
        inst = gaussian_instance(40, 6, seed=seed)
        spec = ObjectiveSpec(make_loss(loss_kind), make_reg(reg_kind), k)
        report = estimate_opt(inst, spec, restarts=restarts, seed=seed, iters=iters)
        lo = report.analytic_lower - 1e-9
        hi = spec.loss.g0 + 1e-9
        if not (lo <= report.opt_value <= hi):
            ok = False
            worst = f"{loss_kind}/{reg_kind} k={k}: {report.opt_value} not in [{lo}, {hi}]"
    return CheckResult("opt-sandwich", ok, worst or "20/20 inside the bracket",
                       time.time() - t0)


def check_loss_structure() -> CheckResult:
    """Bounded-derivative flags, decomposition, log identity, relu limit."""
    t0 = time.time()
    grid = np.arange(-50.0, 50.0 + 1e-9, 0.01)
    ok = True
    for kind in (LOGISTIC, SIGMOID, HINGE, RELU):
        loss = make_loss(kind)
        flag = check_bounded_derivative(loss, grid)
        ok &= flag == loss.bounded_derivative
        h, b = decompose(loss)
        r = np.linspace(-40, 40, 2001)
        ok &= bool(np.max(np.abs(np.asarray(h(r)) + np.asarray(b(r))
                                 - np.asarray(eval_loss(loss, r)))) <= 1e-12)
        for lam in (0.0, 0.5, 1.0, 2.0, 10.0):
            hv = np.asarray(h(r))
            ok &= bool(np.max(np.abs(np.asarray(h(lam * r)) - lam * hv)
                              / np.maximum(1.0, np.abs(lam * hv))) <= 1e-9)
        bv = np.asarray(b(r))
        cap = 1.0 if kind == SIGMOID else loss.g0
        ok &= bool(np.all(bv >= -1e-15) and np.all(bv <= cap + 1e-12))
    logi = make_loss(LOGISTIC)
    r = np.linspace(-30, 30, 6001)
    ident = np.asarray(eval_loss(logi, -r)) - np.asarray(eval_loss(logi, r)) - r
    ok &= bool(np.max(np.abs(ident)) <= 1e-10)
    beta = 1e6
    for kind in (LOGISTIC, HINGE):
        loss = make_loss(kind)
        for mval in (-2.0, -1.0, -0.1, 0.1, 1.0, 2.0):
            lim = float(eval_loss(loss, beta * mval)) / beta
            ok &= abs(lim - max(0.0, -mval)) <= 1e-6 + 1e-12
    return CheckResult("loss-structure", bool(ok), "flags, split, identity, limit",
                       time.time() - t0)


def check_sensitivity_bound(pairs: int = 1000) -> CheckResult:
    """Pointwise sensitivity cap 16 S B L^2 k / g(0) for logistic + l2sq."""
    t0 = time.time()
    k = 10.0
    inst = gaussian_instance(60, 5, seed=909)
    spec = ObjectiveSpec(make_loss(LOGISTIC), make_reg(L2SQ), k)
    consts = compute_constants(inst, SQNORM_PLUS_2, spec.loss)
    bound = 16.0 * consts.S * consts.B * consts.L ** 2 * k / spec.loss.g0
    lb = opt_lower_bound(spec.loss, spec.reg, k, consts.L, float(inst.masses @ inst.norms()))
    rng = derive_rng(910)
    every_atom = Coreset.of_atoms(inst, np.arange(inst.n), SQNORM_PLUS_2, MIXTURE)
    violations = 0
    worst = 0.0
    for _ in range(pairs):
        x = rng.standard_normal(5) * float(rng.choice([0.1, 1.0, 3.0, 10.0]))
        if full_objective(inst, spec, x)[1] < lb:
            continue
        i = int(rng.integers(inst.n))
        val = float(sensitivity(every_atom, inst, spec, x)[i])
        worst = max(worst, val / bound)
        if val > bound:
            violations += 1
    return CheckResult("sensitivity-bound", violations == 0,
                       f"{violations} violations; worst ratio {worst:.4f} of the cap",
                       time.time() - t0)


def run_all(quick: bool = False) -> list[CheckResult]:
    results = [
        check_unbiasedness(trials=2000 if quick else 20_000),
        check_weight_laws(total_draws=100_000 if quick else 1_000_000),
        check_weight_estimate_grid(),
        check_score_mass_estimation(reps=400 if quick else 2000),
        check_deterministic_lower_bounds(),
        check_coupon_collector(trials=100 if quick else 200),
        check_moment_curve(samples_to_try=30 if quick else 100),
        check_scaling_separation(trials=100 if quick else 200),
        check_opt_sandwich(restarts=2 if quick else 8, iters=300 if quick else 2000),
        check_loss_structure(),
        check_sensitivity_bound(pairs=300 if quick else 1000),
    ]
    return results
