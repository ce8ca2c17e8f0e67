import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import on_cpus
from regsamp.errors import (
    ApplicabilityError,
    BudgetExceededError,
    DimensionMismatchError,
    InvalidInputError,
    OptimizerFailureError,
)
from regsamp.losses import (
    HINGE,
    L1,
    L2,
    L2SQ,
    LOGISTIC,
    LOSS_KINDS,
    REG_KINDS,
    RELU,
    SIGMOID,
    eval_loss,
    eval_loss_derivative,
    eval_regularizer,
    make_loss,
    make_reg,
)
from regsamp.model import (
    ObjectiveSpec,
    compute_constants,
    gaussian_instance,
    make_instance,
    scale_exponent,
)
from regsamp import objective, parallel
from regsamp.objective import (
    BLOCK,
    QuerySet,
    build_query_set,
    estimate_opt,
    evaluate,
    full_objective,
    max_relative_error,
    opt_lower_bound,
    recommended_sample_size,
    relative_error,
    relative_errors,
    sensitivity,
)
from regsamp.sampler import Coreset, derive_rng, draw_iid, score_array


def hinge_gap_scan():
    """The 400 (instance, k) of the hinge gap scan, from default_rng(0): n in
    [2, 59] atoms in d in [1, 8] dimensions at scale 10^U(-3, 3), a third of
    them shifted off the origin and a third with repeated rows, Dirichlet
    masses plus 1e-3, and k = 10^U(0, 4)."""
    rng = np.random.default_rng(0)
    for _ in range(400):
        n, d = int(rng.integers(2, 60)), int(rng.integers(1, 9))
        scale = 10.0 ** rng.uniform(-3, 3)
        atoms = scale * rng.standard_normal((n, d))
        kind = int(rng.integers(3))
        if kind == 1:
            atoms += scale * rng.standard_normal(d)
        elif kind == 2:
            atoms[n // 2:] = atoms[rng.integers(0, n // 2, n - n // 2)]
        yield make_instance(atoms, rng.dirichlet(np.ones(n)) + 1e-3), 10.0 ** rng.uniform(0, 4)


def logistic_gap_scan():
    """The 600 (instance, k) of the logistic gap scans: 300 from default_rng(5) at
    atom scale 10^U(-3, 3), then 300 from default_rng(11) at 10^U(-6, 6); each
    draws n in [1, 29] atoms in d in [1, 5] dimensions, Dirichlet masses and
    k = 10^U(0, 4), in that order."""
    for seed, lo, hi in ((5, -3, 3), (11, -6, 6)):
        rng = np.random.default_rng(seed)
        for _ in range(300):
            n, d = int(rng.integers(1, 30)), int(rng.integers(1, 6))
            atoms = rng.standard_normal((n, d)) * 10.0 ** rng.uniform(lo, hi)
            yield make_instance(atoms, rng.dirichlet(np.ones(n))), 10.0 ** rng.uniform(0, 4)


def spec_of(loss, reg, k):
    return ObjectiveSpec(make_loss(loss), make_reg(reg), k)


def philox_gaussian_instance(seed):
    """gaussian_instance(40, 6, seed) as it was drawn before 0.18.0, from a Philox
    stream: the instance that some expectations below were found and pinned on."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    return make_instance(rng.standard_normal((40, 6)))


def exhaustive_sample(instance):
    """Each atom once with weight n*p_i, so the coreset objective is exact."""
    return Coreset(np.arange(instance.n), instance.atoms, instance.n * instance.masses,
                   score_array("norm", instance.atoms))


class TestFullObjective:
    def test_origin_value_is_g0(self):
        inst = gaussian_instance(20, 3, seed=1)
        for loss in (LOGISTIC, SIGMOID, HINGE, RELU):
            spec = spec_of(loss, L2SQ, 5.0)
            f0, f = full_objective(inst, spec, np.zeros(3))
            assert f0 == pytest.approx(spec.loss.g0, abs=1e-12)
            assert f == pytest.approx(spec.loss.g0, abs=1e-12)

    def test_dimension_mismatch(self):
        inst = gaussian_instance(5, 3, seed=1)
        with pytest.raises(DimensionMismatchError):
            full_objective(inst, spec_of(LOGISTIC, L1, 2.0), np.zeros(4))

    def test_relu_half_support_loss_part(self):
        # 36 unit vectors, margins -1/6 on half of them: loss part 1/12
        inst = make_instance(np.eye(36))
        spec = spec_of(RELU, L2SQ, 6.0)
        x = np.zeros(36)
        x[:18] = -1.0 / 6.0
        f0, _ = full_objective(inst, spec, x)
        assert f0 == pytest.approx(1.0 / 12.0, abs=1e-12)


@given(st.sampled_from(LOSS_KINDS), st.sampled_from(REG_KINDS),
       st.sampled_from([None, 1, 3]), st.integers(200, 700), st.integers(1, 100),
       st.integers(0, 10_000))
@settings(max_examples=24, deadline=None)
def test_evaluate_matches_per_query_loop(loss, reg, trials, n, extra, seed):
    # n * Q > 3 * BLOCK, so at least four query blocks run, the last one partial;
    # on 3 threads (more than a 2-CPU machine has, switching often) they give the
    # bits of 1
    rng = np.random.default_rng(seed)
    spec = spec_of(loss, reg, float(rng.uniform(1.0, 50.0)))
    atoms = rng.standard_normal((n, 3))
    X = rng.standard_normal((3 * BLOCK // n + extra, 3)) * rng.uniform(0.1, 10.0)
    coef = rng.uniform(0.0, 1.0, size=(n,) if trials is None else (trials, n))
    results = []
    for count in (1, 3):
        with on_cpus(count):
            assert parallel.workers(4, BLOCK, blas=True) == count  # 4 blocks or more
            results.append(evaluate(atoms, coef, spec, X))
    (f0, r), (f0_threads, r_threads) = results
    assert f0.tobytes() == f0_threads.tobytes() and r.tobytes() == r_threads.tobytes()
    want_f0 = np.stack([coef @ eval_loss(spec.loss, atoms @ x) for x in X], axis=-1)
    want_r = np.array([eval_regularizer(spec.reg, x) / spec.k for x in X])
    assert f0.shape == want_f0.shape and r.shape == want_r.shape
    assert np.allclose(f0, want_f0, rtol=1e-12, atol=1e-12)
    assert np.allclose(r, want_r, rtol=1e-12, atol=0.0)


class TestEvaluate:
    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            evaluate(np.ones((4, 3)), np.ones(4), spec_of(LOGISTIC, L1, 2.0), np.ones((2, 2)))

    def test_threads_reuse_their_buffers(self):
        # two threads each hold one margins and one loss buffer of at most BLOCK
        # cells (7.9 MiB together here); new arrays per block, with logistic's
        # min(r, 0) in a third, peak near 12 MiB on two threads
        import tracemalloc

        rng = np.random.default_rng(3)
        atoms, X = rng.standard_normal((20000, 8)), rng.standard_normal((601, 8))
        coef, spec = np.full(20000, 1 / 20000), spec_of(LOGISTIC, L2SQ, 16.0)
        with on_cpus(2):
            evaluate(atoms, coef, spec, X)  # threads and BLAS set up before tracing
            tracemalloc.start()
            try:
                f0, _ = evaluate(atoms, coef, spec, X)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        slack = 2 ** 20  # X's squares, a block's coef @ g, thread state
        assert peak < 2 * 2 * BLOCK * 8 + f0.nbytes + slack

    def test_relative_errors_flag_and_match_scalar_calls(self):
        inst = gaussian_instance(30, 3, seed=21)
        spec = spec_of(RELU, L2SQ, 4.0)
        samples = draw_iid(inst, "norm", 25, seed=22)
        X = np.vstack([np.zeros(3), np.random.default_rng(23).standard_normal((5, 3))])
        errs = relative_errors(inst, spec, samples, X)
        assert math.isnan(errs[0])
        for err, x in zip(errs[1:], X[1:]):
            assert err == pytest.approx(relative_error(inst, spec, samples, x), rel=1e-12)


class TestCoresetObjective:
    """f0_hat(x) = mean_i w_i g(<a_i, x>), as relative_error compares it with f0(x)."""

    def test_exhaustive_sample_is_exact(self):
        for n, seed in ((10, 1), (200, 2), (1000, 3)):
            inst = gaussian_instance(n, 4, seed=seed, uniform_masses=False)
            spec = spec_of(LOGISTIC, L2SQ, 3.0)
            samples = exhaustive_sample(inst)
            x = np.random.default_rng(seed).standard_normal(4)
            _, f = full_objective(inst, spec, x)
            assert relative_error(inst, spec, samples, x) * f <= 1e-10  # |f0 - f0_hat|

    def test_constant_loss_at_origin(self):
        # f(0) = g(0) and f0_hat(0) = mean(w) g(0), so the error is |1 - mean(w)|
        inst = gaussian_instance(30, 3, seed=4)
        spec = spec_of(LOGISTIC, L1, 2.0)
        samples = draw_iid(inst, "norm", 50, seed=5)
        err = relative_error(inst, spec, samples, np.zeros(3))
        assert err == pytest.approx(abs(1.0 - np.mean(samples.w)), abs=1e-12)


class TestRelativeError:
    def test_exhaustive_sample_gives_zero(self):
        inst = gaussian_instance(40, 3, seed=6)
        spec = spec_of(HINGE, L2, 4.0)
        samples = exhaustive_sample(inst)
        x = np.ones(3)
        assert relative_error(inst, spec, samples, x) <= 1e-12

    def test_coupon_style_miss(self):
        # missing atom e_0, query (2k/3d) e_0: error (alpha/d)/(alpha/d + alpha^2/k) = 3/5
        d, k = 8, 6.0
        inst = make_instance(np.eye(d))
        spec = spec_of(RELU, L2SQ, k)
        alpha = 2.0 * k / (3.0 * d)
        samples = Coreset([1, 2, 3], inst.atoms[[1, 2, 3]], np.ones(3), np.full(3, 2.0))
        x = np.zeros(d)
        x[0] = -alpha
        assert relative_error(inst, spec, samples, x) == pytest.approx(0.6, abs=1e-12)

    def test_flagged_when_f_is_zero(self):
        inst = make_instance(np.eye(3))
        spec = spec_of(RELU, L2SQ, 2.0)
        samples = exhaustive_sample(inst)
        assert math.isnan(relative_error(inst, spec, samples, np.zeros(3)))

    @pytest.mark.parametrize("reg", [L1, L2])
    def test_relu_scale_invariance(self, reg):
        inst = gaussian_instance(25, 4, seed=8)
        spec = spec_of(RELU, reg, 3.0)
        samples = draw_iid(inst, "norm", 40, seed=9)
        x = np.random.default_rng(1).standard_normal(4)
        base = relative_error(inst, spec, samples, x)
        for lam in (0.5, 2.0, 10.0):
            scaled = relative_error(inst, spec, samples, lam * x)
            assert scaled == pytest.approx(base, rel=1e-9)


class TestMaxRelativeError:
    def test_origin_only_with_unit_mean_weight(self):
        inst = make_instance(np.eye(4))
        spec = spec_of(LOGISTIC, L2, 2.0)
        samples = exhaustive_sample(inst)
        queries = QuerySet(np.zeros((1, 4)))
        best, _, skipped = max_relative_error(inst, spec, samples, queries)
        assert best <= 1e-12
        assert skipped == 0

    def test_argmax_is_the_adversarial_query(self):
        d, k = 8, 6.0
        inst = make_instance(np.eye(d))
        spec = spec_of(RELU, L2SQ, k)
        samples = Coreset([1, 2, 3], inst.atoms[[1, 2, 3]], np.ones(3), np.full(3, 2.0))
        x_bad = np.zeros(d)
        x_bad[0] = -2.0 * k / (3.0 * d)
        x_ok = -np.ones(d)
        queries = QuerySet(np.vstack([x_ok, x_bad]))
        best, argmax, _ = max_relative_error(inst, spec, samples, queries)
        assert np.array_equal(argmax, x_bad)

    def test_all_flagged_is_an_error(self):
        inst = make_instance(np.eye(3))
        spec = spec_of(RELU, L2SQ, 2.0)
        samples = exhaustive_sample(inst)
        queries = QuerySet(np.zeros((1, 3)))  # only the origin, flagged for relu
        with pytest.raises(InvalidInputError):
            max_relative_error(inst, spec, samples, queries)


class TestOptBounds:
    def test_relu_bound_is_zero(self):
        assert opt_lower_bound(make_loss(RELU), make_reg(L2SQ), 5.0, 1.0, 1.0) == 0.0

    def test_logistic_ridge_value(self):
        val = opt_lower_bound(make_loss(LOGISTIC), make_reg(L2SQ), 10.0, 1.0, 1.0)
        assert val == pytest.approx(math.log(2.0) ** 2 / 40.0, abs=1e-15)
        assert val == pytest.approx(0.0120113, abs=1e-7)

    def test_hinge_l1_value(self):
        assert opt_lower_bound(make_loss(HINGE), make_reg(L1), 4.0, 1.0, 1.0) == 0.25

    @pytest.mark.parametrize("reg", [L1, L2])
    def test_small_lbk_capped_at_g0(self, reg):
        g0 = math.log(2.0)
        assert opt_lower_bound(make_loss(LOGISTIC), make_reg(reg), 4.0, 1.0, 0.05) == g0
        assert opt_lower_bound(make_loss(LOGISTIC), make_reg(reg), 4.0, 1.0, 1.0) == g0 / 4.0

    @pytest.mark.parametrize("loss_kind,reg", [(LOGISTIC, L2SQ), (SIGMOID, L2), (HINGE, L1)])
    def test_all_mass_at_the_origin_bound_is_g0(self, loss_kind, reg):
        # B = 0: every atom is the origin, so f(x) >= f0(x) = g(0) for every x
        loss = make_loss(loss_kind)
        assert opt_lower_bound(loss, make_reg(reg), 4.0, 1.0, 0.0) == loss.g0

    @pytest.mark.parametrize("lb", [0.01, 0.1, 0.2, 0.25, 0.5, 1.0, 3.0])
    def test_l2sq_bound_below_its_own_minimum(self, lb):
        # f(x) >= max(g0 - L B r, 0) + r^2 / k with r = |x|; the bound must not
        # exceed that function's minimum, nor g(0)
        g0, k = math.log(2.0), 4.0
        val = opt_lower_bound(make_loss(LOGISTIC), make_reg(L2SQ), k, 1.0, lb)
        r = np.linspace(0.0, 10.0, 200_001)
        floor = float(np.min(np.maximum(g0 - lb * r, 0.0) + r * r / k))
        assert val <= floor + 1e-12
        assert val <= g0
        if lb * lb * k < (2.0 - math.sqrt(3.0)) * g0:
            assert val == pytest.approx(floor, abs=1e-8)
        else:
            assert val == g0 * g0 / (4.0 * lb * lb * k)

    def test_l2sq_branches_meet_at_the_switch(self):
        g0, k = math.log(2.0), 4.0
        lb = math.sqrt((2.0 - math.sqrt(3.0)) * g0 / k)
        below = opt_lower_bound(make_loss(LOGISTIC), make_reg(L2SQ), k, 1.0, lb * (1 - 1e-12))
        above = opt_lower_bound(make_loss(LOGISTIC), make_reg(L2SQ), k, 1.0, lb * (1 + 1e-12))
        assert below == pytest.approx(above, rel=1e-9)


class TestEstimateOpt:
    def test_symmetric_relu_instance_attains_zero(self):
        inst = make_instance(np.vstack([np.eye(3), -np.eye(3)]))
        spec = spec_of(RELU, L2, 4.0)
        report = estimate_opt(inst, spec, restarts=2, seed=1)
        assert report.opt_value == 0.0

    @pytest.mark.parametrize("reg", [L1, L2, L2SQ])
    def test_small_scale_instance_stays_in_its_bracket(self, reg):
        # at scale 0.05, L B k < 1: the analytic bound once exceeded g(0), and
        # the optimizer's value "escaped" the bracket
        inst = gaussian_instance(40, 6, seed=1, scale=0.05)
        report = estimate_opt(inst, spec_of(LOGISTIC, reg, 4.0))
        assert report.analytic_lower <= report.opt_value <= math.log(2.0)

    def test_opt_value_does_not_depend_on_the_number_of_starts(self):
        # 2 and 8 sigmoid starts find the same minimizer, so they must report the
        # same value, whatever other candidates are evaluated beside it
        inst = gaussian_instance(40, 6, seed=3)
        spec = spec_of(SIGMOID, L2, 16.0)
        few, many = estimate_opt(inst, spec, restarts=2), estimate_opt(inst, spec, restarts=8)
        assert np.array_equal(few.minimizer, many.minimizer)
        assert few.opt_value == many.opt_value == full_objective(inst, spec, few.minimizer)[1]

    @pytest.mark.parametrize("reg", [L1, L2])
    def test_an_origin_minimum_reports_the_objective_at_the_origin(self, reg):
        # f(0) = sum(p) g(0) = 0.5000000000000001 over 40 masses of 1/40, one ulp
        # above g(0); the report must give that value, not one rounded otherwise
        inst = gaussian_instance(40, 6, seed=7)
        spec = spec_of(SIGMOID, reg, 4.0)
        report = estimate_opt(inst, spec)
        assert not np.any(report.minimizer)
        assert report.opt_value == full_objective(inst, spec, np.zeros(6))[1]
        assert report.analytic_lower <= report.dual_lower <= report.opt_value

    @pytest.mark.parametrize("loss", [LOGISTIC, SIGMOID])
    @pytest.mark.parametrize("reg", [L1, L2, L2SQ])
    @pytest.mark.parametrize("restarts", [1, 2, 3, 8])
    def test_each_start_has_the_same_bits_in_any_block(self, monkeypatch, loss, reg, restarts):
        # every quantity of a Newton step is a reduction over one start's row, so a
        # start's minimizer is the same alone, among the first `restarts` starts, among
        # all 8 and in blocks of 1 and 3 starts
        inst, spec = gaussian_instance(40, 6, seed=3), spec_of(loss, reg, 16.0)
        starts = np.vstack([np.zeros(6)] + [derive_rng(0, r).standard_normal(6)
                                            for r in range(1, 8)])

        def solve(rows):
            return objective._newton_minima(spec.loss, spec.reg, inst.atoms, inst.masses,
                                            1.0 / spec.k, rows)

        alone = np.vstack([solve(y[None]) for y in starts[:restarts]])
        got = [solve(starts[:restarts]), solve(starts)[:restarts]]
        report = estimate_opt(inst, spec, restarts=restarts)
        for rows in (1, 3):
            monkeypatch.setattr(objective, "BLOCK", rows * inst.n)
            got.append(solve(starts[:restarts]))
            blocked = estimate_opt(inst, spec, restarts=restarts)
            assert np.array_equal(blocked.minimizer, report.minimizer)
            assert blocked.opt_value == report.opt_value
        for minima in got:
            assert np.array_equal(minima, alone)

    def test_never_above_g0(self):
        for seed, loss in ((1, LOGISTIC), (2, SIGMOID), (3, HINGE)):
            inst = gaussian_instance(30, 4, seed=seed)
            spec = spec_of(loss, L2SQ, 8.0)
            report = estimate_opt(inst, spec, restarts=3, seed=seed)
            assert report.opt_value <= spec.loss.g0 + 1e-9

    def test_against_golden_section_oracle(self):
        # single atom e_1, logistic + l2sq, k = 10: reduces to a 1-d problem
        inst = make_instance(np.array([[1.0, 0.0]]))
        spec = spec_of(LOGISTIC, L2SQ, 10.0)

        def h(r):
            return float(eval_loss(spec.loss, r)) + r * r / 10.0

        lo, hi = 0.0, 20.0
        phi = (math.sqrt(5.0) - 1.0) / 2.0
        for _ in range(200):
            m1 = hi - phi * (hi - lo)
            m2 = lo + phi * (hi - lo)
            if h(m1) <= h(m2):
                hi = m2
            else:
                lo = m1
        oracle = h(0.5 * (lo + hi))
        report = estimate_opt(inst, spec, restarts=4, seed=2)
        assert report.opt_value == pytest.approx(oracle, abs=1e-3)

    def test_respects_analytic_sandwich(self):
        inst = gaussian_instance(40, 5, seed=11)
        spec = spec_of(LOGISTIC, L2SQ, 16.0)
        report = estimate_opt(inst, spec, restarts=4, seed=3)
        assert report.analytic_lower - 1e-9 <= report.opt_value <= report.analytic_upper + 1e-9

    def test_half_sum_inequality(self):
        # f(x) >= (lower + R(x)/k)/2 with the certified lower bound for OPT
        inst = gaussian_instance(30, 4, seed=13)
        spec = spec_of(SIGMOID, L2SQ, 8.0)
        consts = compute_constants(inst, "norm", spec.loss)
        lower = opt_lower_bound(spec.loss, spec.reg, spec.k, consts.L, consts.B)
        rng = np.random.default_rng(14)
        from regsamp.losses import eval_regularizer

        for _ in range(200):
            x = rng.standard_normal(4) * rng.uniform(0, 10)
            _, f = full_objective(inst, spec, x)
            assert f >= (lower + eval_regularizer(spec.reg, x) / spec.k) / 2.0 - 1e-12

    def test_logistic_l1_reaches_the_optimum_of_opt_seed_102(self):
        # perfbench opt seed 102, problem p0: the 8 x 2000 subgradient loop
        # stopped at 0.692373, 1.29e-3 above the optimum
        rng = np.random.default_rng(np.random.SeedSequence([102, 4]).generate_state(3)[0])
        inst = make_instance(rng.standard_normal((40, 6)), np.full(40, 1.0 / 40))
        report = estimate_opt(inst, spec_of(LOGISTIC, L1, 4.0))
        assert report.opt_value <= 0.691478 + 1e-6
        assert report.opt_value - report.dual_lower <= 1e-6 * report.opt_value
        assert report.opt_value == pytest.approx(full_objective(inst, spec_of(LOGISTIC, L1, 4.0),
                                                                report.minimizer)[1], rel=1e-15)

    @pytest.mark.parametrize("loss", [LOGISTIC, HINGE, RELU])
    @pytest.mark.parametrize("reg", [L1, L2, L2SQ])
    @pytest.mark.parametrize("k", [1.0, 16.0])
    def test_convex_classes_carry_a_tight_certificate(self, loss, reg, k):
        inst = gaussian_instance(30, 5, seed=21, uniform_masses=False)
        report = estimate_opt(inst, spec_of(loss, reg, k))
        assert report.analytic_lower <= report.dual_lower <= report.opt_value
        assert report.opt_value <= report.dual_lower + 1e-6 * report.opt_value

    def test_sigmoid_reports_the_analytic_bound(self):
        inst = gaussian_instance(30, 4, seed=22)
        report = estimate_opt(inst, spec_of(SIGMOID, L1, 8.0), restarts=3, seed=5)
        assert report.dual_lower == report.analytic_lower

    def test_sigmoid_l2_origin_minimum_stops_on_the_bound(self, monkeypatch):
        # |grad f0(0)| < 1/k makes the origin a strict local minimum, in the kink
        # of |x|: the origin start stops at once, and every step that passes the
        # origin stops there and ends its start, instead of crawling into the kink
        inst, spec = gaussian_instance(40, 6, seed=7), spec_of(SIGMOID, L2, 4.0)
        slope = eval_loss_derivative(spec.loss, np.zeros(1))[0] * (inst.masses @ inst.atoms)
        assert np.linalg.norm(slope) < 1.0 / spec.k
        calls = []

        def counted(loss, margins, **kwargs):
            calls.append(np.shape(margins))
            return eval_loss(loss, margins, **kwargs)

        monkeypatch.setattr(objective, "eval_loss", counted)
        report = estimate_opt(inst, spec, restarts=8)
        assert not np.any(report.minimizer)
        assert report.opt_value == pytest.approx(full_objective(inst, spec, np.zeros(6))[1],
                                                 rel=1e-15)
        assert len(calls) < 100  # every batched evaluation of the 8 starts, and the final ones

    # opt_value of estimate_opt(philox_gaussian_instance(seed), l2, k), first pinned
    # from a quasi-Newton solve on y itself, whose gradient at the kink y = 0 drops
    # the regularizer; the Newton engine keeps every one of them to 1e-12.  The
    # sigmoid starts are drawn since 0.18.0 from SFC64 streams, from which sigmoid
    # (11, 64) reaches a lower minimum, which Nelder-Mead from the same starts finds
    L2_VALUES = [
        (LOGISTIC, 7, 4.0, 0.6931471805599453), (LOGISTIC, 7, 16.0, 0.6842163477559562),
        (LOGISTIC, 7, 64.0, 0.6651346235012677), (LOGISTIC, 11, 4.0, 0.6931471805599453),
        (LOGISTIC, 11, 16.0, 0.601756098127891), (LOGISTIC, 11, 64.0, 0.5316328592873778),
        (SIGMOID, 7, 4.0, 0.49999999999999994), (SIGMOID, 7, 16.0, 0.4987553776594419),
        (SIGMOID, 7, 64.0, 0.3910954476026628), (SIGMOID, 11, 4.0, 0.49999999999999994),
        (SIGMOID, 11, 16.0, 0.45560294581192073), (SIGMOID, 11, 64.0, 0.32504296900089874),
    ]

    @pytest.mark.parametrize("loss,seed,k,value", L2_VALUES)
    def test_l2_bound_form_keeps_the_minimum(self, loss, seed, k, value):
        report = estimate_opt(philox_gaussian_instance(seed), spec_of(loss, L2, k))
        assert report.opt_value == pytest.approx(value, rel=1e-12, abs=0.0)
        if loss == LOGISTIC:
            assert report.opt_value - report.dual_lower <= 1e-6 * report.opt_value

    @pytest.mark.parametrize("loss", [LOGISTIC, HINGE, SIGMOID])
    def test_rescaled_atoms_give_the_same_minimum(self, loss):
        # f at x on atoms c a with k equals f at c x on atoms a with k c^p (l1: p = 1)
        inst = gaussian_instance(30, 4, seed=23)
        c = 2.0 ** 300
        big = make_instance(c * inst.atoms, inst.masses)
        small = estimate_opt(inst, spec_of(loss, L1, 8.0 * c), restarts=2, seed=3)
        large = estimate_opt(big, spec_of(loss, L1, 8.0), restarts=2, seed=3)
        assert large.opt_value == pytest.approx(small.opt_value, rel=1e-9)
        assert large.dual_lower == pytest.approx(small.dual_lower, rel=1e-9)

    def test_hinge_l2_solves_5000_atoms_in_linear_memory(self):
        import tracemalloc

        import scipy.special  # noqa: F401  its first import is not the solver's memory

        rng = np.random.default_rng(5)
        inst = make_instance(rng.standard_normal((5000, 6)) + 0.3)
        tracemalloc.start()
        try:
            report = estimate_opt(inst, spec_of(HINGE, L2, 16.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.analytic_lower <= report.dual_lower <= report.opt_value
        assert report.opt_value - report.dual_lower <= 1e-6 * report.opt_value
        # one dense n x n workspace alone would take 200 MB
        assert peak < 50 * 2 ** 20

    def test_hinge_l2sq_closes_the_gap_of_opt_seed_134(self):
        # perfbench opt seed 134, problem p8: a quasi-Newton solve of the box dual
        # over [0, p], masses 1/40, once stopped at opt_value 0.61708, a relative
        # gap of 1.27e-3
        rng = np.random.default_rng(np.random.SeedSequence([134, 4]).generate_state(3)[0])
        for _ in range(9):
            atoms = rng.standard_normal((40, 6))
        report = estimate_opt(make_instance(atoms, np.full(40, 1.0 / 40)),
                              spec_of(HINGE, L2SQ, 64.0))
        assert report.opt_value <= 0.616306
        assert report.opt_value - report.dual_lower <= 1e-6 * report.opt_value

    def test_hinge_l2_closes_the_gap_of_opt_seed_198(self):
        # perfbench opt seed 198, problem p5: a quasi-Newton solve of the box dual
        # once stopped inside the hinge/l2 search with a projected gradient of 2e-3,
        # leaving a certified gap of 1.15e-6
        rng = np.random.default_rng(np.random.SeedSequence([198, 4]).generate_state(3)[0])
        for _ in range(6):
            atoms = rng.standard_normal((40, 6))
        report = estimate_opt(make_instance(atoms, np.full(40, 1.0 / 40)),
                              spec_of(HINGE, L2, 64.0))
        assert report.opt_value - report.dual_lower <= 1e-6 * report.opt_value

    @pytest.mark.parametrize("reg", [L2SQ, L2])
    def test_hinge_gap_scan_is_certified_in_every_weight_band(self, reg):
        # the rescaled l2sq weight 1/(k c^2) of the scan spans four bands: at least
        # 1e-3, [1e-6, 1e-3), [1e-9, 1e-6) and below 1e-9
        bands, worst = [0, 0, 0, 0], 0.0
        for inst, k in hinge_gap_scan():
            weight = math.ldexp(1.0 / k, -2 * int(scale_exponent(inst.atoms)))
            bands[int(np.searchsorted([1e-9, 1e-6, 1e-3], weight, side="right"))] += 1
            report = estimate_opt(inst, spec_of(HINGE, reg, k))
            assert report.analytic_lower <= report.dual_lower <= report.opt_value
            worst = max(worst, (report.opt_value - report.dual_lower) / report.opt_value)
        assert bands == [15, 90, 149, 146]
        # l2 stops where |A^T alpha| meets 1/k to 1e-12; l2sq measures 1.13e-8
        assert worst <= {L2SQ: 1e-6, L2: 1e-9}[reg]

    @pytest.mark.parametrize("reg", [L1, L2, L2SQ])
    def test_logistic_gap_scan_is_certified_in_every_weight_band(self, reg):
        # the rescaled weight 1/(k c^p) spans four bands: at least 1e-3, [1e-6, 1e-3),
        # [1e-9, 1e-6) and below 1e-9, where the dual's A^T (p u) cancels to lam
        bands, worst = [0, 0, 0, 0], 0.0
        degree = make_reg(reg).homogeneity_degree
        for inst, k in logistic_gap_scan():
            weight = math.ldexp(1.0 / k, -degree * int(scale_exponent(inst.atoms)))
            bands[int(np.searchsorted([1e-9, 1e-6, 1e-3], weight, side="right"))] += 1
            report = estimate_opt(inst, spec_of(LOGISTIC, reg, k), restarts=4)
            assert report.analytic_lower <= report.dual_lower <= report.opt_value
            worst = max(worst, (report.opt_value - report.dual_lower) / report.opt_value)
        assert bands == {L1: [7, 74, 243, 276], L2: [7, 74, 243, 276],
                         L2SQ: [93, 98, 181, 228]}[reg]
        assert worst <= 1e-6

    LADDER = [1e10, 1e20, 1e30, 1e60, 1e100, 1e150]

    def test_hinge_l2_is_at_most_hinge_l1_at_every_scale(self):
        # |x|_2 <= |x|_1, so OPT(hinge/l2) <= OPT(hinge/l1) at every atom scale.  Both
        # rescale to the weight 1/(k c) and refuse together once it is below 2^-500
        refused, lp_failed = 0, []
        for seed, scale, k in itertools.product(range(10), self.LADDER, [1.0, 64.0]):
            inst = gaussian_instance(40, 6, seed=seed)
            big = make_instance(scale * inst.atoms, inst.masses)
            try:
                l1 = estimate_opt(big, spec_of(HINGE, L1, k)).opt_value
            except OptimizerFailureError as err:
                if "below 2^-500" not in str(err):
                    lp_failed.append((seed, scale, k))
                    continue
                with pytest.raises(OptimizerFailureError, match="below 2\\^-500"):
                    estimate_opt(big, spec_of(HINGE, L2, k))
                refused += 1
                continue
            assert estimate_opt(big, spec_of(HINGE, L2, k)).opt_value <= l1 * (1.0 + 1e-9)
        assert refused == 12
        # HiGHS's presolve once left (4, 1e10, 64) with status "Not Set"
        assert lp_failed == []

    def test_hinge_l2_at_1e20_reaches_the_l1_minimum(self):
        # the l2 search once stopped at 0.7771329862, 2.6% above the minimum that
        # hinge/l1 and hinge/l2sq both reach on this instance
        inst = philox_gaussian_instance(3)
        big = make_instance(1e20 * inst.atoms, inst.masses)
        for reg in (L1, L2, L2SQ):
            report = estimate_opt(big, spec_of(HINGE, reg, 64.0))
            assert report.opt_value == pytest.approx(0.7577854795, rel=1e-10)

    def test_hinge_l2_probes_stay_at_or_above_min_weight(self, monkeypatch):
        # the search's lower bracket end lam^2 / (4 sum(p)) is 2^-670 here; a
        # probe there overflows the l2sq margins, and the suite turns the
        # RuntimeWarning into an error
        inst = gaussian_instance(40, 6, seed=0)
        big = make_instance(1e100 * inst.atoms, inst.masses)
        weights = []

        def spied(A, p, mu, start=None):
            weights.append(mu)
            return solve(A, p, mu, start)

        solve = objective._hinge_l2sq
        monkeypatch.setattr(objective, "_hinge_l2sq", spied)
        report = estimate_opt(big, spec_of(HINGE, L2, 1.0))
        assert weights and min(weights) >= objective.MIN_WEIGHT
        l1 = estimate_opt(big, spec_of(HINGE, L1, 1.0)).opt_value
        assert report.opt_value <= l1 * (1.0 + 1e-9)

    def test_no_bound_exceeds_an_origin_value_below_g0(self):
        # scan instance 12 (hinge/l2, n = 19, d = 1, k = 27.4): alpha = p is optimal,
        # and f(0) = sum(p) rounds to 1 - 3e-16, below the analytic bound g(0) = 1
        inst, k = next(itertools.islice(hinge_gap_scan(), 12, None))
        report = estimate_opt(inst, spec_of(HINGE, L2, k))
        assert not np.any(report.minimizer)
        assert report.opt_value < 1.0
        assert report.analytic_lower <= report.dual_lower <= report.opt_value

    @pytest.mark.parametrize("reg", [L2SQ, L2])
    def test_hinge_repeated_atoms_act_as_one_atom_of_their_summed_mass(self, reg):
        rng = np.random.default_rng(8)
        atoms, masses = rng.standard_normal((12, 4)) + 0.3, rng.dirichlet(np.ones(12))
        rows = np.concatenate([np.arange(12), rng.integers(0, 12, 30)])
        copies = make_instance(atoms[rows], masses[rows])
        merged = make_instance(atoms, np.bincount(rows, weights=masses[rows]))
        want = estimate_opt(merged, spec_of(HINGE, reg, 64.0))
        got = estimate_opt(copies, spec_of(HINGE, reg, 64.0))
        assert got.opt_value == pytest.approx(want.opt_value, rel=1e-12)
        assert got.opt_value - got.dual_lower <= 1e-12 * got.opt_value

    @pytest.mark.parametrize("reg,value", [(L2SQ, 2.0 / 64.0), (L2, math.sqrt(2.0) / 64.0)])
    def test_hinge_optimum_with_more_margins_at_one_than_dimensions(self, reg, value):
        # x = (1, 1) puts all five margins at exactly 1 in d = 2; it is optimal at
        # k = 64, where the multipliers on e_1 and e_2 are at most 1/32 <= 1/5
        atoms = np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5], [0.25, 0.75], [0.75, 0.25]])
        report = estimate_opt(make_instance(atoms), spec_of(HINGE, reg, 64.0))
        assert report.opt_value == pytest.approx(value, rel=1e-12)
        assert report.dual_lower == pytest.approx(value, rel=1e-12)
        assert report.minimizer == pytest.approx([1.0, 1.0], rel=1e-12)

    @pytest.mark.parametrize("reg", [L2SQ, L2])
    @pytest.mark.parametrize("k", [1.0, 8.0, 1e4])
    def test_hinge_in_one_dimension_is_the_least_candidate(self, reg, k):
        # F is convex and piecewise quadratic (l2sq) or linear (l2) in x, with
        # kinks at 0 (l2) and at each 1/a_i: its minimum is at a kink or at the
        # stationary point of a piece
        a = np.array([2.0, -1.0, 0.5, 3.0, -0.25, 0.0])
        p = np.random.default_rng(9).dirichlet(np.ones(6))
        kinks = np.sort(np.concatenate([[0.0], 1.0 / a[a != 0.0]]))
        candidates = list(kinks)
        if reg == L2SQ:
            for lo, hi in zip(np.concatenate([[kinks[0] - 1.0], kinks]),
                              np.concatenate([kinks, [kinks[-1] + 1.0]])):
                x = k / 2.0 * (p * (a * 0.5 * (lo + hi) < 1.0)) @ a
                if (lo == kinks[0] - 1.0 or lo <= x) and (hi == kinks[-1] + 1.0 or x <= hi):
                    candidates.append(x)
        x = np.array(candidates)
        values = p @ np.maximum(0.0, 1.0 - np.outer(a, x)) + eval_regularizer(
            make_reg(reg), x[:, None]) / k
        report = estimate_opt(make_instance(a[:, None], p), spec_of(HINGE, reg, k))
        assert report.opt_value == pytest.approx(values.min(), rel=1e-12)
        assert report.opt_value - report.dual_lower <= 1e-12 * report.opt_value

    # in d = 2, x = (1, 0) puts three margins at exactly 1, and a_4 = (a_1 + a_5) / 2
    LATTICE = np.array([[1.0, -1.0], [-1.0, 0.0], [0.0, 0.5], [1.0, -0.5], [1.0, 0.5],
                        [0.0, -0.5]])

    @pytest.mark.parametrize("reg", [L2SQ, L2])
    def test_hinge_dependent_margins_at_one_are_solved(self, reg):
        # a margin that moves by rounding alone must not join W: a_4 with a_1 and
        # a_5 there would make the working set singular
        report = estimate_opt(make_instance(self.LATTICE), spec_of(HINGE, reg, 256.0))
        assert report.opt_value == pytest.approx(2.0 / 3.0 + 1.0 / 256.0, rel=1e-14)
        assert report.opt_value - report.dual_lower <= 1e-14 * report.opt_value
        assert report.minimizer == pytest.approx([1.0, 0.0], abs=1e-14)

    def test_hinge_singular_working_set_is_a_typed_error(self, monkeypatch):
        from regsamp import objective

        monkeypatch.setattr(objective, "_TINY", 0.0)  # margins then move by rounding too
        with pytest.raises(OptimizerFailureError, match="singular hinge working set of 3"):
            estimate_opt(make_instance(self.LATTICE), spec_of(HINGE, L2SQ, 256.0))

    def test_hinge_active_set_that_cannot_finish_is_a_typed_error(self, monkeypatch):
        from regsamp import objective

        monkeypatch.setattr(objective, "_ACTIVE_SET_STEPS", 1)
        with pytest.raises(OptimizerFailureError, match="did not finish in 1 steps"):
            estimate_opt(gaussian_instance(30, 4, seed=3), spec_of(HINGE, L2SQ, 16.0))

    @pytest.mark.parametrize("loss", [LOGISTIC, SIGMOID])
    def test_hessian_past_the_budget_is_refused(self, loss):
        # one 6000 x 6000 Hessian takes 275 MB, more than MAX_DENSE_CELLS allows
        inst = make_instance(np.ones((1, 6000)))
        with pytest.raises(BudgetExceededError, match="6000 x 6000 Hessian rows"):
            estimate_opt(inst, spec_of(loss, L2SQ, 4.0), restarts=1)

    def test_vanishing_regularizer_weight_is_a_typed_error(self):
        inst = make_instance(np.array([[1e200, 1e200, 1e200], [1.0, 1.0, 1.0]]))
        with pytest.raises(OptimizerFailureError, match="below 2\\^-500"):
            estimate_opt(inst, spec_of(LOGISTIC, L2SQ, 4.0))


class TestSensitivity:
    def test_origin_gives_weight(self):
        inst = gaussian_instance(20, 3, seed=15)
        samples = draw_iid(inst, "norm", 10, seed=16)
        spec = spec_of(LOGISTIC, L2SQ, 4.0)
        val = sensitivity(samples, inst, spec, np.zeros(3))
        assert val == pytest.approx(samples.w, abs=1e-12)
        assert np.all(val <= 2.0)

    @pytest.mark.parametrize("loss", [LOGISTIC, SIGMOID, HINGE, RELU])
    def test_one_pass_matches_per_sample_evaluation(self, loss):
        inst = gaussian_instance(50, 4, seed=17)
        samples = draw_iid(inst, "norm", 300, seed=18)
        spec = spec_of(loss, L2SQ, 4.0)
        x = np.array([0.5, -1.0, 2.0, 0.25])
        _, f = full_objective(inst, spec, x)
        # the diagonal coefficient path through evaluate that the one pass replaced
        want = evaluate(samples.a, np.diag(samples.w), spec, [x])[0][:, 0] / f
        assert np.array_equal(sensitivity(samples, inst, spec, x), want)

    def test_flag_on_zero_objective(self):
        inst = make_instance(np.eye(2))
        spec = spec_of(RELU, L2SQ, 2.0)
        smp = Coreset([0], inst.atoms[[0]], [1.0], [2.0])
        assert math.isnan(sensitivity(smp, inst, spec, np.zeros(2))[0])

    def test_can_exceed_k_when_g0_is_zero(self):
        from regsamp.hardness import gen_moment_curve
        from regsamp.sampler import atom_weights

        hard = gen_moment_curve(8, 3, k=8.0)
        inst = hard.instance
        j = 0
        x = 1e-6 * hard.params["directions"][j]
        w = atom_weights(inst, hard.score_kind, hard.convention)
        smp = Coreset([j], inst.atoms[[j]], w[[j]], [1.0])
        val = sensitivity(smp, inst, hard.spec, x)[0]
        assert val > hard.spec.k


class TestRecommendedSampleSize:
    def consts(self, S=2.0, B=1.0, L=1.0, D=1.0, g0=math.log(2.0)):
        from regsamp.model import Constants

        return Constants(L=L, B=B, S=S, g0=g0, D=D)

    def test_l1_quadratic_formula_value(self):
        loss = make_loss(LOGISTIC)
        m = recommended_sample_size("norm", loss, make_reg(L1), 10.0, 0.1, 0.01,
                                    self.consts(S=2.0))
        assert m == 184_207  # ceil((SL)^2 k^2 ln(1/delta) / eps^2)

    def test_bounded_derivative_rejects_relu(self):
        with pytest.raises(ApplicabilityError):
            recommended_sample_size("bounded-derivative", make_loss(RELU),
                                    make_reg(L2SQ), 4.0, 0.1, 0.1,
                                    self.consts(g0=0.5))

    def test_bounded_derivative_rejects_wrong_reg(self):
        with pytest.raises(ApplicabilityError):
            recommended_sample_size("bounded-derivative", make_loss(LOGISTIC),
                                    make_reg(L1), 4.0, 0.1, 0.1, self.consts())

    def test_l1_rule_rejects_wrong_reg(self):
        with pytest.raises(ApplicabilityError):
            recommended_sample_size("l1", make_loss(LOGISTIC), make_reg(L2),
                                    4.0, 0.1, 0.1, self.consts())

    def test_ridge_with_opt_hint_is_linear_in_k(self):
        loss = make_loss(LOGISTIC)
        m1 = recommended_sample_size("norm", loss, make_reg(L2SQ), 8.0, 0.1, 0.1,
                                     self.consts(), opt_hint=1.0)
        m2 = recommended_sample_size("norm", loss, make_reg(L2SQ), 16.0, 0.1, 0.1,
                                     self.consts(), opt_hint=1.0)
        assert m2 / m1 == pytest.approx(2.0, rel=1e-3)  # up to integer ceilings

    def test_l1_rule_for_a_homogeneous_loss(self):
        # relu: k/eps^2 up to polylog terms, C k ln(1/delta) / eps^2 ln(C k ln(1/delta) / eps)^3
        consts = self.consts(S=2.0, g0=0.0)
        m8, m16 = (recommended_sample_size("l1", make_loss(RELU), make_reg(L1), k, 0.1, 0.01,
                                           consts) for k in (8.0, 16.0))
        c = 2.0 * 8.0 * math.log(100.0)
        assert m8 == math.ceil(c / 0.01 * math.log(c / 0.1) ** 3)
        assert m16 / m8 == pytest.approx(2.0 * (math.log(2 * c / 0.1) / math.log(c / 0.1)) ** 3,
                                         rel=1e-6)

    def test_l2sq_norm_rule_without_a_hint_takes_the_analytic_bound(self):
        loss, reg = make_loss(LOGISTIC), make_reg(L2SQ)
        opt = opt_lower_bound(loss, reg, 10.0, 1.0, 1.0)
        m = recommended_sample_size("norm", loss, reg, 10.0, 0.1, 0.1, self.consts())
        assert m == math.ceil(4.0 * 10.0 * math.log(10.0) / (0.01 * opt))
        assert m == recommended_sample_size("norm", loss, reg, 10.0, 0.1, 0.1, self.consts(),
                                            opt_hint=opt)
        with pytest.raises(ApplicabilityError, match="positive OPT hint"):  # relu's bound is 0
            recommended_sample_size("norm", make_loss(RELU), reg, 10.0, 0.1, 0.1,
                                    self.consts(g0=0.0))

    def test_uniform_variant_swaps_in_d(self):
        loss = make_loss(LOGISTIC)
        consts = self.consts(S=5.0, D=1.0)
        m_uniform = recommended_sample_size("norm", loss, make_reg(L1), 4.0, 0.1,
                                            0.1, consts, uniform=True)
        m_mass = recommended_sample_size("norm", loss, make_reg(L1), 4.0, 0.1,
                                         0.1, self.consts(S=1.0, D=9.0))
        assert m_uniform == m_mass

    def test_c_abs_scales_linearly(self):
        loss = make_loss(LOGISTIC)
        m1 = recommended_sample_size("norm", loss, make_reg(L1), 4.0, 0.2, 0.1,
                                     self.consts())
        m3 = recommended_sample_size("norm", loss, make_reg(L1), 4.0, 0.2, 0.1,
                                     self.consts(), c_abs=3.0)
        assert m3 == pytest.approx(3 * m1, abs=2.0)  # up to integer ceilings

    @pytest.mark.parametrize("rule,reg,eps", [("norm", L1, 0.1), ("norm", L2, 0.1),
                                              ("bounded-derivative", L2SQ, 0.1),
                                              ("l1", L1, 1e-60)])
    def test_sizes_past_float_range_are_a_budget_error(self, rule, reg, eps):
        # the norm bound of atoms of entries 1e200
        consts = self.consts(S=1.8e200, B=1.7e200, D=1.7e200)
        with pytest.raises(BudgetExceededError, match="past float range"):
            recommended_sample_size(rule, make_loss(LOGISTIC), make_reg(reg), 4.0, eps, 0.1,
                                    consts, uniform=True)


class TestQuerySets:
    def test_always_contains_origin(self):
        qs = build_query_set(4, 8.0, seed=1, n_gaussian=5, n_sparse=5)
        assert np.any(np.all(qs.queries == 0.0, axis=1))
        assert qs.tags[0] == "origin"

    def test_counts_and_tags(self):
        qs = build_query_set(4, 8.0, seed=1, n_gaussian=10, n_sparse=7)
        assert len(qs) == 1 + 10 * 5 + 7
        assert qs.tags.count("random-gaussian") == 50
        assert qs.tags.count("random-sparse") == 7
