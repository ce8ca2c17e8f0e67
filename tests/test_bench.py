import math

import numpy as np
import pytest

from regsamp import bench
from regsamp.bench import (
    ScalingCurve,
    TrialConfig,
    failure_rate,
    feller_check,
    fit_loglog_slope,
    min_sample_size,
    scaling_curve,
    unbiasedness_check,
    wilson_interval,
    write_failure_rate_csv,
    write_scaling_csv,
)
from regsamp.errors import BudgetExceededError, DegenerateInstanceError, InvalidInputError
from regsamp.hardness import gen_coupon_relu, gen_lin_relu, gen_quad_relu
from regsamp.losses import L2SQ, LOGISTIC, make_loss, make_reg
from regsamp.model import ObjectiveSpec, gaussian_instance, make_instance
from regsamp.objective import build_query_set
from regsamp.sampler import derive_rng


def plain_config(inst, spec, queries, **kw):
    defaults = dict(eps=0.25, delta=0.2, trials=50, master_seed=7)
    defaults.update(kw)
    return TrialConfig(instance=inst, spec=spec, queries=queries, **defaults)


class TestWilson:
    def test_basic_properties(self):
        lo, hi = wilson_interval(5, 100)
        assert 0.0 <= lo < 0.05 < hi <= 1.0
        assert wilson_interval(0, 10)[0] == 0.0
        assert wilson_interval(10, 10)[1] == 1.0

    def test_coverage_on_synthetic_bernoulli(self):
        rng = np.random.default_rng(3)
        p, n, reps = 0.3, 200, 500
        covered = 0
        for _ in range(reps):
            k = rng.binomial(n, p)
            lo, hi = wilson_interval(k, n)
            covered += lo <= p <= hi
        assert covered / reps >= 0.9


class TestDrawCounts:
    def test_rows_are_multinomial_counts(self):
        q = np.random.default_rng(4).dirichlet(np.ones(30))
        w = np.linspace(0.5, 1.5, 30)
        m, trials = 400, 2000
        counts, mean_w = bench._draw_counts(q, w, m, trials, derive_rng(8, m))
        assert counts.shape == (trials, 30)
        assert np.all(counts.sum(axis=1) == m)
        assert np.array_equal(mean_w, counts @ w / m)
        stderr = np.sqrt(m * q * (1 - q) / trials)
        assert np.all(np.abs(counts.mean(axis=0) - m * q) <= 4 * stderr)

    def test_probabilities_numpy_rejects_are_a_typed_error(self):
        # the first n-1 entries sum above 1, which numpy rejects with ValueError
        with pytest.raises(DegenerateInstanceError):
            bench._draw_counts(np.array([0.6, 0.6, 0.0]), np.ones(3), 5, 2, derive_rng(0))


class TestFailureRate:
    def test_probe_does_not_depend_on_other_probes(self):
        def config():
            return TrialConfig(eps=0.25, delta=0.2, trials=50, master_seed=3,
                               hard=gen_lin_relu(4))
        cfg = config()
        first = failure_rate(cfg, 40)
        assert 0 < first[0] < 1
        for m in (10, 80, 20):
            failure_rate(cfg, m)
        assert failure_rate(cfg, 40) == first
        assert failure_rate(config(), 40) == first

    def test_one_stream_per_probe(self, monkeypatch):
        calls = []

        def counting(*key):
            calls.append(key)
            return derive_rng(*key)

        monkeypatch.setattr(bench, "derive_rng", counting)
        cfg = TrialConfig(eps=0.25, delta=0.2, trials=50, master_seed=3, hard=gen_lin_relu(4))
        for m in (10, 40):
            failure_rate(cfg, m)
        assert calls == [(3, 10), (3, 40)]

    def test_probabilities_and_weights_built_once_per_config(self, monkeypatch):
        import regsamp.hardness as hardness
        calls = []

        def counting(fn):
            return lambda *args, **kw: calls.append(fn.__name__) or fn(*args, **kw)

        for module in (bench, hardness):
            for name in ("atom_probabilities", "atom_weights"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counting(getattr(module, name)))
        cfg = TrialConfig(eps=0.25, delta=0.2, trials=20, master_seed=3, hard=gen_lin_relu(4))
        for m in (10, 40, 80):
            failure_rate(cfg, m)
        # the config's (q, w) and the hard instance's predicate probabilities
        assert sorted(calls) == ["atom_probabilities", "atom_probabilities", "atom_weights"]

    def test_single_atom_never_fails(self):
        inst = make_instance(np.ones((1, 2)))
        spec = ObjectiveSpec(make_loss(LOGISTIC), make_reg(L2SQ), 4.0)
        queries = build_query_set(2, 4.0, seed=1, n_gaussian=5, n_sparse=5)
        cfg = plain_config(inst, spec, queries)
        rate, (lo, hi) = failure_rate(cfg, 3)
        assert rate == 0.0
        assert lo == 0.0

    def test_quad_relu_certain_below_half(self):
        # m <= d/2 cannot cover the isolated half: failure is certain
        hard = gen_quad_relu(8.0, 0.25)
        d = hard.params["d"]
        cfg = TrialConfig(eps=0.25, delta=0.2, trials=40, master_seed=2, hard=hard)
        rate, _ = failure_rate(cfg, d // 2)
        assert rate == 1.0

    def test_coupon_collector_rates(self):
        hard = gen_coupon_relu(64, 16.0)
        cfg = TrialConfig(eps=0.25, delta=0.2, trials=100, master_seed=3, hard=hard)
        rate_small, _ = failure_rate(cfg, 64)
        assert rate_small >= 0.95
        m_big = math.ceil(3 * 64 * math.log(64))
        rate_big, _ = failure_rate(cfg, m_big)
        assert rate_big <= 0.2

    def test_reproducible(self):
        hard = gen_lin_relu(4)
        cfg = TrialConfig(eps=0.25, delta=0.2, trials=30, master_seed=11, hard=hard)
        assert failure_rate(cfg, 40) == failure_rate(cfg, 40)

    def test_unknown_query_policy_rejected(self):
        with pytest.raises(InvalidInputError):
            TrialConfig(eps=0.25, delta=0.2, hard=gen_lin_relu(4), query_policy="everything")


class TestMinSampleSize:
    def test_single_atom_returns_one(self):
        inst = make_instance(np.ones((1, 2)))
        spec = ObjectiveSpec(make_loss(LOGISTIC), make_reg(L2SQ), 4.0)
        queries = build_query_set(2, 4.0, seed=1, n_gaussian=3, n_sparse=3)
        cfg = plain_config(inst, spec, queries, trials=30)
        assert min_sample_size(cfg) == 1

    def test_quad_relu_needs_more_than_half(self):
        hard = gen_quad_relu(8.0, 0.25)
        cfg = TrialConfig(eps=0.25, delta=0.2, trials=60, master_seed=5, hard=hard)
        m_star = min_sample_size(cfg)
        assert m_star >= hard.params["d"] // 2

    def test_within_factor_two_of_linear_scan(self):
        hard = gen_lin_relu(8)
        cfg = TrialConfig(eps=0.25, delta=0.2, trials=100, master_seed=6, hard=hard)
        m_star = min_sample_size(cfg)

        def upper(m):
            _, (_, hi) = failure_rate(cfg, m)
            return hi

        scan = None
        m = max(1, m_star // 4)
        while m <= 4 * m_star:
            if upper(m) <= cfg.delta:
                scan = m
                break
            m += max(1, m_star // 50)
        assert scan is not None
        assert m_star <= 2 * scan
        assert scan <= 2 * m_star

    def test_monotone_in_eps(self):
        hard = gen_lin_relu(6)
        sizes = []
        for eps in (0.15, 0.3):
            cfg = TrialConfig(eps=eps, delta=0.2, trials=80, master_seed=9, hard=hard)
            sizes.append(min_sample_size(cfg))
        assert sizes[0] >= sizes[1]

    def test_budget_error_carries_partial_rates(self):
        hard = gen_quad_relu(8.0, 0.25)
        cfg = TrialConfig(eps=0.25, delta=0.2, trials=30, master_seed=5, hard=hard,
                          m_cap=4)
        with pytest.raises(BudgetExceededError) as err:
            min_sample_size(cfg)
        assert err.value.partial


class TestScalingCurve:
    def test_constant_sizes_fit_zero_slope(self):
        assert fit_loglog_slope([8, 16, 32], [40, 40, 40]) == pytest.approx(0.0)

    def test_requires_three_points(self):
        with pytest.raises(InvalidInputError):
            scaling_curve("lin-relu", [8, 16], eps=0.25, delta=0.2, trials=10)

    def test_non_integral_lin_k_rejected(self):
        # lin-* instances exist for integral k only; 8.5 is not run as 8
        with pytest.raises(InvalidInputError, match="'k'"):
            scaling_curve("lin-relu", [4, 8.5, 16], eps=0.25, delta=0.2, trials=10)

    def test_each_k_has_its_own_master_seed(self, monkeypatch):
        # 8.2 and 8.7 share an integer part; their streams must still differ
        seeds = {}

        def record(cfg):
            seeds[cfg.hard.spec.k] = cfg.master_seed
            return 10

        monkeypatch.setattr(bench, "min_sample_size", record)
        scaling_curve("quad-relu", [8.2, 8.7, 9.0], eps=0.25, delta=0.2, seed=0)
        assert sorted(seeds) == [8.2, 8.7, 9.0]
        assert len(set(seeds.values())) == 3

    def test_small_linear_family_curve(self):
        curve = scaling_curve("lin-relu", [4, 8, 16], eps=0.3, delta=0.25,
                              trials=60, seed=13)
        assert len(curve.points) == 3
        ks = [p[0] for p in curve.points]
        assert ks == sorted(ks)
        assert all(m >= 1 for _, m in curve.points)
        assert np.isfinite(curve.fitted_slope)
        lo, hi = curve.slope_ci
        assert lo <= hi



class TestFeller:
    def test_zero_shift_is_median(self):
        res = feller_check(q=0.05, m=10_000, t=0.0, trials=4000, seed=1)
        assert res.bound == 1.0
        assert 0.4 <= res.empirical <= 0.6

    def test_one_sigma_example(self):
        m, q = 10_000, 0.05
        sigma = math.sqrt(m * q * (1 - q))
        res = feller_check(q=q, m=m, t=sigma, trials=20_000, seed=2)
        assert res.empirical == pytest.approx(0.159, abs=0.02)
        assert res.bound == pytest.approx(math.exp(-1.0 / 3.0), abs=1e-12)
        assert res.fitted_c <= 0.25

    def test_three_sigma_example(self):
        m, q = 10_000, 0.05
        sigma = math.sqrt(m * q * (1 - q))
        res = feller_check(q=q, m=m, t=3 * sigma, trials=40_000, seed=3)
        assert 4e-4 <= res.empirical <= 3e-3
        assert res.bound == pytest.approx(math.exp(-3.0), abs=1e-12)

    def test_advisory_flags(self):
        res = feller_check(q=0.5, m=100, t=60.0, trials=100, seed=4)
        assert any("sigma" in a for a in res.advisories)
        assert any("t =" in a for a in res.advisories)


class TestUnbiasedness:
    def test_deterministic_single_atom(self):
        inst = make_instance(np.ones((1, 3)))
        spec = ObjectiveSpec(make_loss(LOGISTIC), make_reg(L2SQ), 4.0)
        gap, _ = unbiasedness_check(inst, spec, "norm", np.ones(3), m=10,
                                    trials=200, seed=5)
        assert gap == pytest.approx(0.0, abs=1e-15)

    def test_gaussian_instance_within_four_stderr(self):
        inst = gaussian_instance(100, 5, seed=21)
        spec = ObjectiveSpec(make_loss(LOGISTIC), make_reg(L2SQ), 10.0)
        x = np.full(5, 0.5)
        gap, stderr = unbiasedness_check(inst, spec, "norm", x, m=50,
                                         trials=4000, seed=6)
        assert abs(gap) <= 4 * stderr

    def test_negative_control_detected(self):
        # unit weights under norm-biased draws overweight large-margin atoms
        inst = make_instance(np.array([[0.0], [100.0]]))
        spec = ObjectiveSpec(make_loss(LOGISTIC), make_reg(L2SQ), 4.0)
        gap, stderr = unbiasedness_check(inst, spec, "norm", np.array([1.0]),
                                         m=50, trials=2000, seed=7,
                                         weights_override=np.ones(2))
        assert abs(gap) > 4 * stderr

    def test_row_budget_does_not_change_the_result(self, monkeypatch):
        inst = gaussian_instance(100, 5, seed=21)
        spec = ObjectiveSpec(make_loss(LOGISTIC), make_reg(L2SQ), 10.0)
        x = np.full(5, 0.5)
        whole = unbiasedness_check(inst, spec, "norm", x, m=50, trials=300, seed=6)
        monkeypatch.setattr(bench, "COUNT_CELLS", 7 * 100)  # 7-row blocks
        assert unbiasedness_check(inst, spec, "norm", x, m=50, trials=300, seed=6) == whole

    def test_requires_hundred_trials(self):
        inst = make_instance(np.ones((1, 2)))
        spec = ObjectiveSpec(make_loss(LOGISTIC), make_reg(L2SQ), 4.0)
        with pytest.raises(InvalidInputError):
            unbiasedness_check(inst, spec, "norm", np.ones(2), m=5, trials=10, seed=1)


class TestCsvOutputs:
    def test_failure_rate_csv_columns_and_determinism(self, tmp_path):
        rows = [{"run_id": "r1", "kind": "lin-relu", "loss": "relu", "reg": "l1",
                 "k": 8.0, "eps": 0.25, "delta": 0.2, "m": 10, "trials": 5,
                 "failures": 2, "rate": 0.4, "ci_lo": 0.1, "ci_hi": 0.8}]
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_failure_rate_csv(p1, rows)
        write_failure_rate_csv(p2, rows)
        assert p1.read_bytes() == p2.read_bytes()
        head = p1.read_text().splitlines()[0]
        assert head == ("run_id,kind,loss,reg,k,eps,delta,m,trials,"
                        "failures,rate,ci_lo,ci_hi")

    def test_scaling_csv(self, tmp_path):
        curve = ScalingCurve(points=((8.0, 40), (16.0, 75)), fitted_slope=0.9,
                             slope_ci=(0.7, 1.1))
        path = tmp_path / "s.csv"
        write_scaling_csv(path, "lin-relu", curve)
        lines = path.read_text().splitlines()
        assert lines[0] == "kind,k,m_star,slope,slope_lo,slope_hi"
        assert len(lines) == 3
