"""Every argument check of the public API that no other test reaches: each
call is refused with its typed error and a message naming what was wrong."""

import json
import math
import os
import re

import numpy as np
import pytest

from regsamp.bench import TrialConfig, failure_rate, fit_loglog_slope, wilson_interval
from regsamp.errors import (
    ApplicabilityError,
    BudgetExceededError,
    ConfigurationError,
    InvalidInputError,
)
from regsamp.hardness import (
    check_failure,
    gen_coupon_relu,
    gen_lin_relu,
    gen_lin_sigmoid,
    gen_quad_relu,
    gen_quad_sigmoid,
    generate,
)
from regsamp import parallel
from regsamp.cli import main
from regsamp.losses import (
    L1,
    L2,
    L2SQ,
    LOGISTIC,
    check_bounded_derivative,
    eval_regularizer,
    make_loss,
    make_reg,
)
from regsamp.model import ObjectiveSpec, compute_constants, gaussian_instance, make_instance
from regsamp.objective import QuerySet, estimate_opt, recommended_sample_size
from regsamp.sampler import (
    CategoricalSampler,
    Coreset,
    derive_rng,
    draw_iid,
    estimate_S,
    weights_from_estimate,
)


def lin_relu_config(**kw):
    return TrialConfig(**{"eps": 0.25, "delta": 0.2, "hard": gen_lin_relu(4), **kw})


def one_sample(hard, idx, w):
    """A one-atom sample of hard's instance that claims atom idx with weight w."""
    return Coreset(np.array([idx]), np.zeros((1, hard.instance.dim)), np.array([w]),
                   np.ones(1))


def sample_size(rule, eps=0.25):
    inst = gaussian_instance(10, 2, seed=0)
    loss = make_loss(LOGISTIC)
    return recommended_sample_size(rule, loss, make_reg(L1), 4.0, eps, 0.1,
                                   compute_constants(inst, "norm", loss))


def a_sample():
    return draw_iid(make_instance(np.eye(2)), "norm", 3, seed=0)


REFUSALS = {
    "trial-config-eps": (lambda: lin_relu_config(eps=1.0),
                         InvalidInputError, "eps and delta must lie in (0, 1)"),
    "trial-config-delta": (lambda: lin_relu_config(delta=0.0),
                           InvalidInputError, "eps and delta must lie in (0, 1)"),
    "trial-config-trials": (lambda: lin_relu_config(trials=0),
                            InvalidInputError, "trials must be >= 1"),
    "wilson-no-trials": (lambda: wilson_interval(0, 0), InvalidInputError, "trials must be >= 1"),
    "failure-rate-m-0": (lambda: failure_rate(lin_relu_config(), 0),
                         InvalidInputError, "sample size m must be >= 1"),
    "slope-one-k": (lambda: fit_loglog_slope([8, 8, 8], [10, 20, 30]),
                    InvalidInputError, "need at least two distinct k values"),
    "quad-sigmoid-eps": (lambda: gen_quad_sigmoid(8.0, 0.2),
                         InvalidInputError, "eps must lie in (0, 1/10]"),
    "quad-relu-eps": (lambda: gen_quad_relu(8.0, 0.3),
                      InvalidInputError, "eps must lie in (0, 1/4]"),
    "lin-sigmoid-k-3": (lambda: gen_lin_sigmoid(3), InvalidInputError, "k must be >= 4"),
    "coupon-relu-d-1": (lambda: gen_coupon_relu(1, 4.0), InvalidInputError, "d must be >= 2"),
    "quad-logistic-huge-k": (lambda: generate("quad-logistic", k=1e308, eps=0.1),
                             BudgetExceededError, "quad-logistic: the instance size overflows"),
    "verdict-index-outside": (lambda: check_failure(gen_lin_relu(4),
                                                    one_sample(gen_lin_relu(4), 8, 1.0), 0.25),
                              ConfigurationError, "sample indexes an atom outside the instance"),
    "verdict-mixture-weight": (lambda: check_failure(gen_coupon_relu(8, 4.0),
                                                     one_sample(gen_coupon_relu(8, 4.0), 0, 2.5),
                                                     0.25),
                               ConfigurationError, "mixture weights must lie in (0, 2)"),
    "queries-empty": (lambda: QuerySet(np.zeros((0, 2))),
                      InvalidInputError, "query set must be nonempty"),
    "queries-nan": (lambda: QuerySet(np.array([[0.0, 0.0], [np.nan, 1.0]])),
                    InvalidInputError, "queries must be finite"),
    "queries-tag-count": (lambda: QuerySet(np.zeros((2, 2)), ("origin",)),
                          InvalidInputError, "one tag per query required"),
    "opt-no-restarts": (lambda: estimate_opt(gaussian_instance(5, 2, seed=0),
                                             ObjectiveSpec(make_loss(LOGISTIC), make_reg(L2SQ),
                                                           4.0), restarts=0),
                        InvalidInputError, "restarts must be >= 1"),
    "sample-size-eps": (lambda: sample_size("norm", eps=1.0),
                        InvalidInputError, "eps and delta must lie in (0, 1)"),
    "sample-size-rule": (lambda: sample_size("nope"),
                         ApplicabilityError, "unknown sample-size rule 'nope'"),
    "sampler-zero-mass": (lambda: CategoricalSampler([0.0, 0.0]),
                          InvalidInputError, "probabilities must have a positive finite sum"),
    "sampler-run-not-divisor": (lambda: CategoricalSampler([0.5, 0.5]).draw(derive_rng(0), 10,
                                                                           run=3),
                                InvalidInputError, "run must be a positive divisor of size 10"),
    "reweight-s-hat": (lambda: weights_from_estimate(a_sample(), -1.0),
                       InvalidInputError, "s_hat must be positive"),
    "estimate-s-eps": (lambda: estimate_S(make_instance(np.eye(2)), "norm", eps=0.0, delta=0.1,
                                          seed=0),
                       InvalidInputError, "eps must be positive and delta in (0, 1)"),
    "unknown-loss": (lambda: make_loss("x"), InvalidInputError, "unknown loss kind 'x'"),
    "unknown-reg": (lambda: make_reg("x"), InvalidInputError, "unknown regularizer kind 'x'"),
    "empty-grid": (lambda: check_bounded_derivative(make_loss(LOGISTIC), []),
                   InvalidInputError, "grid must be nonempty"),
    "masses-shape": (lambda: make_instance(np.eye(2), masses=[1.0]),
                     InvalidInputError, "masses must have one entry per atom"),
    "masses-sign": (lambda: make_instance(np.eye(2), masses=[1.0, -1.0]),
                    InvalidInputError, "masses must be positive with a positive finite sum"),
    "draw-score-kind": (lambda: draw_iid(make_instance(np.eye(2)), "nope", 3, seed=0),
                        ConfigurationError, "unknown score kind 'nope'"),
    "draw-convention": (lambda: draw_iid(make_instance(np.eye(2)), "norm", 3, seed=0,
                                         convention="nope"),
                        ConfigurationError, "unknown sampling convention 'nope'"),
}


@pytest.mark.parametrize("name", list(REFUSALS))
def test_refused_with_its_typed_error(name):
    call, error, fragment = REFUSALS[name]
    with pytest.raises(error, match=re.escape(fragment)):
        call()


def eval_one_query(tmp_path, capsys, x, loss, reg, weights=(2.0, 2.0)):
    """`regsamp eval` at the one query x, on the atoms (1, -1) and (-1, 1) and a
    sample that draws them in turn with these weights: (exit code, stdout,
    stderr, report or None)."""
    atoms = ([1.0, -1.0], [-1.0, 1.0])
    files = {name: tmp_path / f"{name}.jsonl" for name in ("instance", "sample", "queries")}
    files["instance"].write_text("".join(json.dumps(rec) + "\n" for rec in (
        {"dim": 2, "n": 2}, *({"a": a, "p": 0.5} for a in atoms))))
    files["sample"].write_text("".join(
        json.dumps({"atom_index": i % 2, "a": atoms[i % 2], "w": w, "s": 1.0}) + "\n"
        for i, w in enumerate(weights)))
    files["queries"].write_text(json.dumps({"x": x, "tag": "far"}) + "\n")
    report = tmp_path / "report.json"
    code = main(["eval", *(arg for name, path in files.items() for arg in (f"--{name}", str(path))),
                 "--loss", loss, "--reg", reg, "--k", "4", "--eps", "0.5", "--out", str(report)])
    out, err = capsys.readouterr()
    return code, out, err, json.loads(report.read_text()) if report.exists() else None


@pytest.mark.filterwarnings("error")  # an overflow warning would fail the call
@pytest.mark.parametrize("x,loss,reg,weights,where,values", [
    # the margins are 0, and only R(x) = |x|^2 overflows; eval used to report error 0
    ([1e308, 1e308], "relu", "l2sq", (2.0, 2.0), "line 1", "f(x) = inf, f0 = 0 and f0_hat = 0"),
    # the margins overflow to +-inf, so f0 and f0_hat do
    ([1e308, -1e308], "logistic", "l2", (2.0, 2.0), "line 1",
     "f(x) = inf, f0 = inf and f0_hat = inf"),
    # three weights of the largest float: their mean g(0) = 1 rounds past float range
    ([1.0, 1.0], "hinge", "l1", (1.7976931348623157e308,) * 3, "the origin query it implies",
     "f(x) = 1, f0 = 1 and f0_hat = inf"),
], ids=["relu-l2sq-regularizer", "logistic-l2-margins", "hinge-weights-at-the-origin"])
def test_eval_refuses_a_query_where_the_objective_overflows(tmp_path, capsys, x, loss, reg,
                                                           weights, where, values):
    code, out, err, report = eval_one_query(tmp_path, capsys, x, loss, reg, weights)
    assert (code, out, report) == (2, "", None)
    assert err == (f"data error: {tmp_path / 'queries.jsonl'}: {where}: {values}, "
                   "where a relative error needs all three finite\n")


@pytest.mark.filterwarnings("error")  # a worker outside eval's errstate would warn, so fail
def test_eval_refuses_an_overflowing_query_in_a_threaded_block(tmp_path, capsys, monkeypatch):
    # 4096 atoms take 64 queries a block; the margins of query 150 (line 151 of
    # 200) overflow in the third of four blocks, which a worker thread computes
    atoms = [[1.0, -1.0], [-1.0, 1.0]] * 2048
    queries = [[0.01 * i, 0.02] for i in range(200)]
    queries[150] = [1e308, -1e308]
    files = {name: tmp_path / f"{name}.jsonl" for name in ("instance", "sample", "queries")}
    files["instance"].write_text("".join(json.dumps(rec) + "\n" for rec in (
        {"dim": 2, "n": len(atoms)}, *({"a": a, "p": 1 / len(atoms)} for a in atoms))))
    files["sample"].write_text("".join(
        json.dumps({"atom_index": i, "a": atoms[i], "w": 1.0, "s": 1.0}) + "\n" for i in (0, 1)))
    files["queries"].write_text("".join(json.dumps({"x": x, "tag": "far"}) + "\n"
                                        for x in queries))
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    results = []
    for cpus in (1, 3):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: set(range(cpus)))
        assert parallel.workers(4, 2 * 64 * len(atoms), blas=True) == cpus
        code = main(["eval", *(arg for name, path in files.items()
                               for arg in (f"--{name}", str(path))),
                     "--loss", "logistic", "--reg", "l2", "--k", "4", "--eps", "0.5",
                     "--out", str(tmp_path / "report.json")])
        results.append((code, *capsys.readouterr()))
    assert results[0] == results[1]
    assert results[0] == (2, "", f"data error: {files['queries']}: line 151: f(x) = inf, "
                          "f0 = inf and f0_hat = inf, where a relative error needs all three "
                          "finite\n")
    assert not (tmp_path / "report.json").exists()


@pytest.mark.filterwarnings("error")
def test_eval_measures_an_l2_query_whose_norm_is_finite_but_whose_squares_overflow(tmp_path,
                                                                                    capsys):
    # |x| = 1.414e155, whose squares overflow; R(x) used to read inf, and the error 0
    code, _, _, report = eval_one_query(tmp_path, capsys, [1e155, 1e155], "logistic", "l2")
    norm = math.hypot(1e155, 1e155)
    assert eval_regularizer(make_reg(L2), [1e155, 1e155]) == pytest.approx(norm, rel=1e-15)
    assert code == 0 and report["per_query"][1]["error"] == pytest.approx(
        math.log(2.0) / (math.log(2.0) + norm / 4.0), rel=1e-12)
