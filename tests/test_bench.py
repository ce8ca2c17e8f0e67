import functools
import itertools
import math
import os
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import chdtrc

from conftest import on_cpus
from regsamp import bench, parallel
from regsamp.bench import (
    ScalingCurve,
    TrialConfig,
    failure_rate,
    fit_loglog_slope,
    min_sample_size,
    scaling_curve,
    unbiasedness_check,
    wilson_interval,
    write_failure_rate_csv,
    write_scaling_csv,
)
from regsamp.errors import BudgetExceededError, DegenerateInstanceError, InvalidInputError
from regsamp.hardness import (HARD_KINDS, batch_failed, gen_coupon_relu, gen_lin_logistic,
                              gen_lin_relu, gen_moment_curve, gen_quad_hinge, gen_quad_relu,
                              generate)
from regsamp.losses import L2SQ, LOGISTIC, make_loss, make_reg
from regsamp.model import ObjectiveSpec, gaussian_instance, make_instance
from regsamp.objective import relative_gaps
from regsamp.sampler import CategoricalSampler, derive_rng


def single_atom_config(**kw):
    """A coupon-relu instance cut down to one atom, whose every sample is the
    instance itself: no adversarial or random query can fail."""
    hard = replace(gen_coupon_relu(2, 4.0), instance=make_instance(np.ones((1, 2))))
    defaults = dict(eps=0.25, delta=0.2, trials=50, master_seed=7,
                    query_policy=bench.ADVERSARIAL_PLUS_RANDOM)
    defaults.update(kw)
    return TrialConfig(hard=hard, **defaults)


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


class TestFailThreshold:
    DELTAS = (0.001, 0.01, 0.05, 0.1, 0.2, 0.25, 0.3, 0.5, 0.75, 0.9, 0.99)

    def test_threshold_splits_every_count(self):
        # the early stop relies on the Wilson upper bound rising with the
        # failure count at float level: upper > delta exactly from k_fail on
        for trials in range(1, 401):
            uppers = np.array([wilson_interval(k, trials)[1] for k in range(trials + 1)])
            ks = np.arange(trials + 1)
            # an attained upper bound is a delta on the boundary: it passes
            deltas = self.DELTAS + (float(uppers[trials // 3]),)
            for delta in deltas:
                k_fail = bench._fail_threshold(trials, delta)
                assert np.array_equal(uppers > delta, ks >= k_fail), (trials, delta)

    def test_no_failing_count_gives_trials_plus_one(self):
        assert bench._fail_threshold(10, 1.0) == 11
        assert bench._fail_threshold(10, 1e-9) == 0


# a small instance of every kind, each but moment-curve (unequal weights) with
# a uniform weight off 1 in its last bit, so the order of a row's sum shows
BLOCK_KINDS = {
    "quad-logistic": {"k": 16.0, "eps": 0.05}, "quad-sigmoid": {"k": 16.0, "eps": 0.1},
    "quad-hinge": {"k": 12.0, "eps": 0.1}, "quad-relu": {"k": 8.0, "eps": 0.25},
    "lin-relu": {"k": 7}, "lin-logistic": {"k": 8}, "lin-sigmoid": {"k": 8},
    "coupon-relu": {"d": 30, "k": 8.0}, "moment-curve": {"N": 12, "d": 3},
}


def draw_blocks(q, w, m, rng, sizes):
    """Blocks of the given sizes drawn in turn from one count stream on rng.

    An index path counts every block into one array, so each block's counts
    are copied before the next is drawn."""
    draw = bench._count_rows(q, w, m, rng)
    return [(counts.copy(), mean_w) for counts, mean_w in map(draw, sizes)]


def record_rows(monkeypatch):
    """The rows of every draw from every count stream built from now on, in order."""
    rows, count_rows = [], bench._count_rows

    def recording(q, w, m, rng):
        draw = count_rows(q, w, m, rng)

        def recorded(trials):
            rows.append(trials)
            return draw(trials)
        return recorded

    monkeypatch.setattr(bench, "_count_rows", recording)
    return rows


def row_failures(cfg, counts, mean_w, m):
    """Each row's verdict on a count block, worked out over the whole block."""
    failed = batch_failed(cfg.hard, counts, mean_w, m, cfg.eps)
    if cfg.query_policy == bench.ADVERSARIAL_PLUS_RANDOM:
        wG, f0, f = cfg.random_queries
        f0_hat = np.array([row @ wG for row in counts]) / m
        failed |= np.any(relative_gaps(f0, f0_hat, f) > cfg.eps, axis=1)
    return failed


@functools.cache
def block_configs(kind):
    """The kind's small instance under both query policies."""
    hard = generate(kind, **BLOCK_KINDS[kind])
    return tuple(TrialConfig(eps=0.25, delta=0.2, master_seed=3, hard=hard, query_policy=policy)
                 for policy in (bench.ADVERSARIAL_ONLY, bench.ADVERSARIAL_PLUS_RANDOM))


class TestDrawCounts:
    def test_rows_are_multinomial_counts(self):
        # m = 15 = n/2 counts inverse-CDF index draws; m = 400 is the multinomial
        q = np.random.default_rng(4).dirichlet(np.ones(30))
        w = np.linspace(0.5, 1.5, 30)
        trials = 2000
        for m in (15, 400):
            counts, mean_w = bench._count_rows(q, w, m, derive_rng(8, m))(trials)
            assert counts.shape == (trials, 30)
            assert np.all(counts.sum(axis=1) == m)
            np.testing.assert_allclose(mean_w, counts @ w / m, rtol=1e-14, atol=0)
            stderr = np.sqrt(m * q * (1 - q) / trials)
            assert np.all(np.abs(counts.mean(axis=0) - m * q) <= 4 * stderr)

    @pytest.mark.parametrize("m", [3, 10, 64, 120, 300])
    def test_uniform_rows_count_index_draws(self, m):
        # a uniform law at m <= 30 n counts each row's m uniform indices
        n, trials = 10, 3000
        q, w = np.full(n, 1.0 / n), np.linspace(0.5, 1.5, n)
        counts, mean_w = bench._count_rows(q, w, m, derive_rng(5, m))(trials)
        assert np.all(counts.sum(axis=1) == m)
        stderr = np.sqrt(m * (1 / n) * (1 - 1 / n) / trials)
        assert np.all(np.abs(counts.mean(axis=0) - m / n) <= 4 * stderr)
        np.testing.assert_allclose(mean_w, counts @ w / m, rtol=1e-14, atol=0)
        idx = derive_rng(5, m).integers(0, n, size=(trials, m))
        assert np.array_equal(counts, [np.bincount(row, minlength=n) for row in idx])

    @pytest.mark.parametrize("m", [1, 5])  # 5 = n/2, where inverse-CDF draws end
    def test_other_laws_at_small_m_count_inverse_cdf_draws(self, m):
        # a law that is not uniform at m <= n/2 counts each row's m draws of draw_iid's sampler
        n, trials = 10, 3000
        q, w = np.linspace(1, 2, n) / 15, np.linspace(0.5, 1.5, n)
        counts, mean_w = bench._count_rows(q, w, m, derive_rng(5, m))(trials)
        np.testing.assert_allclose(mean_w, counts @ w / m, rtol=1e-14, atol=0)
        idx = CategoricalSampler(q).draw(derive_rng(5, m), trials * m).reshape(trials, m)
        assert np.array_equal(counts, [np.bincount(row, minlength=n) for row in idx])

    @pytest.mark.parametrize("q", [np.full(10, 0.1), np.linspace(1, 2, 10) / 15])
    def test_other_laws_and_sizes_keep_the_multinomial(self, q):
        # past m = 30 n under a uniform law, and past m = n/2 under any other,
        # the rows are numpy's multinomial
        m = 30 * q.size + 1 if q.min() == q.max() else q.size // 2 + 1
        counts, _ = bench._count_rows(q, np.ones(q.size), m, derive_rng(6, m))(50)
        assert np.array_equal(counts, derive_rng(6, m).multinomial(m, q, size=50))

    @staticmethod
    def assert_blocks_concatenate(q, m):
        # 1200 rows of m indices span several index chunks; the blocks of 1, 2
        # and 7 rows shift where the later chunks start.  Unit weights keep
        # every sum exact; the property test below covers weights off 1
        w = np.ones(q.size)
        assert bench.BLOCK_CELLS // max(m, q.size) < 1200 - 10
        whole = bench._count_rows(q, w, m, derive_rng(4, m))(1200)
        parts = draw_blocks(q, w, m, derive_rng(4, m), (1, 2, 7, 1190))
        for one, blocks in zip(whole, zip(*parts)):
            assert np.array_equal(one, np.concatenate(blocks))

    # 300 = 30 n, where index draws end, and one past; 120 and 121 lie inside
    @pytest.mark.parametrize("m", [120, 121, 300, 301])
    def test_uniform_blocks_concatenate_to_the_one_shot_block(self, m):
        self.assert_blocks_concatenate(np.full(10, 0.1), m)

    @pytest.mark.parametrize("m", [500, 501])  # n/2, where index draws end, and one past
    def test_other_law_blocks_concatenate_to_the_one_shot_block(self, m):
        self.assert_blocks_concatenate(np.random.default_rng(1000).dirichlet(np.ones(1000)), m)

    @pytest.mark.parametrize("uniform", [True, False])
    def test_rows_past_index_cells_are_counted_in_pieces(self, uniform):
        # a row of more than BLOCK_CELLS indices is drawn a piece at a time: its
        # counts are those of the row's indices drawn at once, and under the
        # uniform law (600000 indices, 4.8 MB at once) the pieces keep the peak
        # near one piece
        import tracemalloc

        n, m = (20000, 600000) if uniform else (140000, 70000)
        q = np.full(n, 1.0 / n) if uniform else np.random.default_rng(n).dirichlet(np.ones(n))
        assert m > bench.BLOCK_CELLS and (m <= bench.INDEX_RATIO * n if uniform else 2 * m <= n)
        tracemalloc.start()
        try:
            counts, _ = bench._count_rows(q, np.ones(n), m, derive_rng(9, m))(2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        rng, sampler = derive_rng(9, m), CategoricalSampler(q)
        for row in counts:
            idx = rng.integers(0, n, size=m) if uniform else sampler.draw(rng, m)
            assert np.array_equal(row, np.bincount(idx, minlength=n))
        if uniform:
            assert peak < counts.nbytes + 3 * 8 * bench.BLOCK_CELLS < 8 * m

    @pytest.mark.parametrize("n,m", [(100, 10), (100, 50), (1000, 100), (1000, 500)])
    @pytest.mark.parametrize("cells", [None, 64])
    def test_sorted_inverse_cdf_rows_count_the_unsorted_draws(self, monkeypatch, n, m, cells):
        # each row's uniforms are searched sorted, which keeps the row's counts:
        # they are those of the m draws draw_iid's sampler makes from the same
        # stream, in multi-row chunks and, at 64-cell blocks, in pieces of a row
        if cells is not None:
            monkeypatch.setattr(bench, "BLOCK_CELLS", cells)
        q = np.random.default_rng(n).dirichlet(np.ones(n))
        counts, _ = bench._count_rows(q, np.ones(n), m, derive_rng(2, m))(40)
        idx = CategoricalSampler(q).draw(derive_rng(2, m), 40 * m).reshape(40, m)
        assert np.array_equal(counts, [np.bincount(row, minlength=n) for row in idx])

    def test_a_probe_builds_its_inverse_cdf_once(self, monkeypatch):
        # moment-curve's law (n = 12) is not uniform, so rows at m <= 6 count
        # inverse-CDF draws; in blocks of 2 rows (1 row of the 100-atom instance
        # of the unbiasedness check) every probe builds one sampler
        builds = []

        class Counting(CategoricalSampler):
            def __init__(self, probs):
                builds.append(len(probs))
                super().__init__(probs)

        monkeypatch.setattr(bench, "CategoricalSampler", Counting)
        monkeypatch.setattr(bench, "BLOCK_CELLS", 2 * 12)
        cfg = TrialConfig(eps=0.25, delta=0.2, trials=50, master_seed=3,
                          hard=gen_moment_curve(12, 3))
        failure_rate(cfg, 6)
        bench._probe_failures(cfg, 5, bench._fail_threshold(cfg.trials, cfg.delta))
        inst = gaussian_instance(100, 5, seed=21)
        spec = ObjectiveSpec(make_loss(LOGISTIC), make_reg(L2SQ), 10.0)
        unbiasedness_check(inst, spec, "norm", np.full(5, 0.5), m=50, trials=300, seed=6)
        assert builds == [12, 12, 100]

    @pytest.mark.parametrize("kind", HARD_KINDS)
    @settings(max_examples=20, derandomize=True, deadline=None)
    @given(past_index_draws=st.booleans(), spot=st.floats(0, 1), trials=st.integers(1, 600),
           cuts=st.lists(st.floats(0, 1), max_size=6))
    def test_blocks_give_the_one_shot_rows(self, kind, past_index_draws, spot, trials, cuts):
        # rows drawn in blocks split anywhere, on both draw paths (index draws
        # at m <= 30 n under the uniform laws and m <= n/2 under moment-curve's,
        # and the multinomial past that) give the counts and mean weights of
        # the block drawn at once, bit for bit, and a probe's blocks fail as
        # those rows do under both policies; splits also fall across the index
        # draws' chunks
        cfgs = block_configs(kind)
        q, w, _ = cfgs[0].hard.law
        n = q.size
        last = bench.INDEX_RATIO * n if q.min() == q.max() else n // 2
        m = last + 1 + int(spot * 28 * n) if past_index_draws else 1 + int(spot * (last - 1))
        bounds = sorted({0, trials, *(int(cut * trials) for cut in cuts)})
        sizes = [hi - lo for lo, hi in zip(bounds, bounds[1:])]
        whole = bench._count_rows(q, w, m, derive_rng(5, m))(trials)
        parts = draw_blocks(q, w, m, derive_rng(5, m), sizes)
        for one, blocks in zip(whole, zip(*parts)):
            assert np.array_equal(one, np.concatenate(blocks))
        whole = bench._count_rows(q, w, m, derive_rng(cfgs[0].master_seed, m))(trials)
        for cfg in cfgs:
            failed = row_failures(cfg, *whole, m)
            fails = bench._probe(cfg, m)
            assert [fails(rows) for rows in sizes] == [failed[lo:hi].sum()
                                                      for lo, hi in zip(bounds, bounds[1:])]

    @pytest.mark.parametrize("n", [128, 456])
    @pytest.mark.parametrize("trials", [1, 2, 16, 17, 33, 200])
    def test_row_chunks_give_the_one_product(self, n, trials):
        # unequal weights over far more atoms than moment-curve's 12: rows drawn
        # one at a time, or 16 at a time, get the one-shot block's mean weights
        rng = np.random.default_rng(n)
        q, w = rng.dirichlet(np.ones(n)), rng.uniform(0.1, 2.0, n)
        whole = bench._count_rows(q, w, 5000, derive_rng(2, n))(trials)
        for chunk in (1, 16):
            parts = draw_blocks(q, w, 5000, derive_rng(2, n),
                                [min(chunk, trials - lo) for lo in range(0, trials, chunk)])
            for one, blocks in zip(whole, zip(*parts)):
                assert np.array_equal(one, np.concatenate(blocks))

    def test_mc_wide_probe_peaks_near_one_count_block(self):
        # 200 trials x 4000 atoms: the int64 block is 6.4 MB, and the mean weight
        # casts no float copy of it, under mc-wide's uniform law (index draws)
        # and under a law with unequal weights (the multinomial)
        import tracemalloc

        rng = np.random.default_rng(4000)
        laws = [gen_coupon_relu(4000, 16.0).law[:2],
                (rng.dirichlet(np.ones(4000)), rng.uniform(0.1, 2.0, 4000))]
        for q, w in laws:
            tracemalloc.start()
            try:
                counts, _ = bench._count_rows(q, w, 30000, derive_rng(1, 30000))(200)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1.5 * counts.nbytes

    def test_probabilities_numpy_rejects_are_a_typed_error(self):
        # the first n-1 entries sum above 1, which numpy rejects with ValueError
        with pytest.raises(DegenerateInstanceError):
            bench._count_rows(np.array([0.6, 0.6, 0.0]), np.ones(3), 5, derive_rng(0))(2)


class TestCountRowsFollowTheMultinomialLaw:
    """Each count-draw path against the exact Multinomial(m, q) law.

    20,000 rows of one count stream, drawn in blocks, are binned by count
    vector against the multinomial probability of every vector that sums to
    m; cells with fewer than 5 expected rows are pooled.  A correct path fails
    the chi-square test at p < 1e-4, so with probability 1e-4 per path.
    """

    @pytest.mark.parametrize("q,m", [
        (np.full(3, 1 / 3), 6),  # uniform index draws: m <= 30 n
        (np.array([0.1, 0.2, 0.3, 0.4]), 2),  # inverse-CDF index draws: m <= n/2
        (np.array([0.2, 0.3, 0.5]), 5),  # the multinomial: m > n/2
        (np.full(2, 0.5), 61),  # the multinomial: m > 30 n
    ], ids=["uniform-index", "inverse-cdf-index", "multinomial", "uniform-multinomial"])
    def test_rows_pass_a_chi_square_test(self, q, m):
        trials = 20_000
        # the index paths reuse one count array, so draw_blocks copies each block
        blocks = draw_blocks(q, np.ones(q.size), m, derive_rng(31, m), (5000,) * 4)
        seen = Counter(map(tuple, np.concatenate([c for c, _ in blocks]).tolist()))
        cells = [c for c in itertools.product(range(m + 1), repeat=q.size) if sum(c) == m]
        assert set(seen) <= set(cells) and sum(seen.values()) == trials
        probs = np.array([math.factorial(m) / math.prod(map(math.factorial, c))
                          * float(np.prod(q ** np.array(c))) for c in cells])
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)
        observed = np.array([seen[c] for c in cells], dtype=float)
        expected = trials * probs
        small = expected < 5
        if small.any():
            observed = np.append(observed[~small], observed[small].sum())
            expected = np.append(expected[~small], expected[small].sum())
        assert expected.min() >= 5
        stat = float(np.sum((observed - expected) ** 2 / expected))
        assert chdtrc(len(expected) - 1, stat) >= 1e-4


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
        # failure_rate, the search's probes and the unbiasedness check each
        # draw every block of a probe from one count stream on one generator
        calls, streams, count_rows = [], [], bench._count_rows

        def counting(*key):
            calls.append(key)
            return derive_rng(*key)

        def counting_rows(q, w, m, rng):
            streams.append(m)
            return count_rows(q, w, m, rng)

        monkeypatch.setattr(bench, "derive_rng", counting)
        monkeypatch.setattr(bench, "_count_rows", counting_rows)
        monkeypatch.setattr(bench, "BLOCK_CELLS", 3 * 8)  # 3-row blocks of lin-relu(4)
        cfg = TrialConfig(eps=0.25, delta=0.2, trials=50, master_seed=3, hard=gen_lin_relu(4))
        for m in (10, 40):
            failure_rate(cfg, m)
        bench._probe_failures(cfg, 20, bench._fail_threshold(cfg.trials, cfg.delta))
        inst = gaussian_instance(8, 3, seed=21)
        spec = ObjectiveSpec(make_loss(LOGISTIC), make_reg(L2SQ), 10.0)
        unbiasedness_check(inst, spec, "norm", np.full(3, 0.5), m=50, trials=100, seed=6)
        assert calls == [(3, 10), (3, 40), (3, 20), (6, 50)]
        assert streams == [10, 40, 20, 50]

    def test_probabilities_and_weights_built_once_per_config(self, monkeypatch):
        import regsamp.hardness as hardness
        from regsamp import sampler
        calls = []

        def counting(*args, **kw):
            calls.append(args[1])
            return sampler._law(*args, **kw)

        for module in (bench, hardness):
            monkeypatch.setattr(module, "_law", counting)
        cfg = TrialConfig(eps=0.25, delta=0.2, trials=20, master_seed=3, hard=gen_lin_relu(4))
        for m in (10, 40, 80):
            failure_rate(cfg, m)
        # one law, the hard instance's, gives the config's (q, w) and the predicate's q
        assert calls == ["norm"]

    def test_single_atom_never_fails(self):
        cfg = single_atom_config()
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
        assert min_sample_size(single_atom_config(trials=30)) == 1

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

    def test_partial_table_bounds_the_full_rate_on_the_verdicts_side(self):
        cfg = TrialConfig(eps=0.25, delta=0.2, trials=80, master_seed=4,
                          hard=gen_lin_relu(8), m_cap=64)
        with pytest.raises(BudgetExceededError) as err:
            min_sample_size(cfg)
        stopped_early = 0
        for m, hi in err.value.partial.items():
            full_hi = failure_rate(cfg, m)[1][1]
            assert hi <= full_hi
            assert (hi <= cfg.delta) == (full_hi <= cfg.delta)
            stopped_early += hi < full_hi
        assert stopped_early


def reference_min_sample_size(cfg, exact=False):
    """The m* search on full-trial failure rates: doubling, then bisection
    until hi - lo <= hi // 64, or until hi == lo when exact."""
    def accept(m):
        return all(failure_rate(cfg, v)[1][1] <= cfg.delta for v in (m, 2 * m))

    m = 1
    while not accept(m):
        m *= 2
    lo, hi = m // 2 + 1, m
    while hi - lo > (0 if exact else hi // 64):
        mid = (lo + hi) // 2
        if accept(mid):
            hi = mid
        else:
            lo = mid + 1
    return hi


def verdict_configs():
    common = dict(eps=0.25, delta=0.2, trials=60)
    plus_random = dict(common, query_policy=bench.ADVERSARIAL_PLUS_RANDOM)
    return {
        "lin-relu": TrialConfig(master_seed=1, hard=gen_lin_relu(8), **common),
        "quad-hinge": TrialConfig(master_seed=2, hard=gen_quad_hinge(8.0, 0.25), **common),
        "quad-relu": TrialConfig(master_seed=3, hard=gen_quad_relu(8.0, 0.25), **common),
        "coupon-relu": TrialConfig(master_seed=4, hard=gen_coupon_relu(32, 16.0), **common),
        "plus-random": TrialConfig(master_seed=6, hard=gen_lin_relu(4), **plus_random),
        # its random queries decide m*: see test_random_queries_decide_the_search
        "plus-random-logistic": TrialConfig(master_seed=5, hard=gen_lin_logistic(4),
                                            **dict(plus_random, eps=0.1)),
        # the one kind whose weights are unequal
        "moment-curve": TrialConfig(master_seed=7, hard=gen_moment_curve(12, 3), **common),
        # random queries over 64 atoms, whose rates cross delta below m = 200
        "plus-random-logistic-64": TrialConfig(master_seed=8, hard=gen_lin_logistic(64),
                                               **plus_random),
    }


def assert_probes_match_failure_rate(cfg, ms, deltas):
    """Each probe's verdict at each m and delta is the full failure rate's; returns the rates."""
    rates = {m: failure_rate(cfg, m) for m in ms}
    for delta in deltas:
        k_fail = bench._fail_threshold(cfg.trials, delta)
        for m, (rate, (_, hi)) in rates.items():
            seen = bench._probe_failures(cfg, m, k_fail)
            assert (seen < k_fail) == (hi <= delta), (delta, m)
            assert seen <= round(rate * cfg.trials)
    return rates


class TestVerdictProbes:
    @pytest.mark.parametrize("name", list(verdict_configs()))
    def test_search_matches_full_rate_search(self, name):
        cfg = verdict_configs()[name]
        assert min_sample_size(cfg) == reference_min_sample_size(cfg)

    @pytest.mark.parametrize("name", ["lin-relu", "quad-hinge", "plus-random",
                                      "plus-random-logistic", "moment-curve",
                                      "plus-random-logistic-64"])
    def test_probe_verdict_matches_failure_rate(self, name):
        cfg = verdict_configs()[name]
        assert_probes_match_failure_rate(cfg, range(1, 200, 7), (0.05, cfg.delta, 0.5))

    def test_probe_verdict_matches_failure_rate_on_both_draw_paths(self):
        # at eps 0.05 about 88% of quad-hinge trials fail near m = 12 n, where
        # the uniform law's index draws give way to the multinomial
        cfg = replace(verdict_configs()["quad-hinge"], eps=0.05)
        n = cfg.hard.instance.n
        rates = assert_probes_match_failure_rate(cfg, range(12 * n - 20, 12 * n + 21, 4),
                                                 (0.2, 0.9, 0.95))
        assert all(0.7 < rate < 1 for rate, _ in rates.values())

    def test_stop_rule_on_every_failure_sequence(self, monkeypatch):
        # rows fail as a fixed 0/1 sequence says; for every sequence of up to 9
        # trials and every threshold, the probe sees k_fail failures exactly
        # when the whole sequence has that many, and stops at the first row
        # after which the verdict is fixed
        seq, drawn = [], []

        def fake_probe(cfg, m):
            def fails(rows):
                start = sum(drawn)
                drawn.append(rows)
                return sum(seq[start:start + rows])
            return fails

        monkeypatch.setattr(bench, "_probe", fake_probe)
        for trials in range(1, 10):
            cfg = TrialConfig(eps=0.25, delta=0.2, trials=trials, hard=gen_lin_relu(4))
            for bits in range(2 ** trials):
                seq[:] = [(bits >> i) & 1 for i in range(trials)]
                for k_fail in range(trials + 2):
                    drawn.clear()
                    seen = bench._probe_failures(cfg, 1, k_fail)
                    assert sum(drawn) <= trials and all(drawn)
                    assert seen == min(k_fail, sum(seq[:sum(drawn)]))
                    assert (seen < k_fail) == (sum(seq) < k_fail), (seq, k_fail)
                    settled = next(j for j in range(trials + 1)
                                   if not sum(seq[:j]) < k_fail <= sum(seq[:j]) + trials - j)
                    assert sum(drawn) == settled

    def test_search_draws_fewer_rows_from_one_stream_per_probe(self, monkeypatch):
        keys, rng = [], bench.derive_rng
        rows = record_rows(monkeypatch)

        def counting_rng(*key):
            keys.append(key)
            return rng(*key)

        monkeypatch.setattr(bench, "derive_rng", counting_rng)
        cfg = TrialConfig(eps=0.25, delta=0.2, trials=200, master_seed=7,
                          hard=gen_lin_relu(16))
        min_sample_size(cfg)
        assert len(keys) == len(set(keys))
        assert sum(rows) < 0.75 * cfg.trials * len(keys)

    def test_search_is_the_exact_bisection_to_a_64th(self):
        # the exact bisection goes on from where the search stops, so it can
        # only lower hi, by at most hi - lo <= hi // 64, which is 0 below 64
        pairs = [(min_sample_size(cfg), reference_min_sample_size(cfg, exact=True))
                 for cfg in verdict_configs().values()]
        for m_star, exact in pairs:
            assert exact <= m_star <= exact + m_star // 64
        assert any(m_star < 64 for m_star, _ in pairs)
        assert any(m_star > exact for m_star, exact in pairs)

    @pytest.mark.parametrize("name", ["lin-relu", "coupon-relu"])
    def test_above_64_hi_is_accepted_next_to_a_rejected_size(self, monkeypatch, name):
        cfg = verdict_configs()[name]
        k_fail = bench._fail_threshold(cfg.trials, cfg.delta)
        passed, probe = {}, bench._probe_failures

        def spy(cfg, m, k_fail):
            failures = probe(cfg, m, k_fail)
            passed[m] = failures < k_fail
            return failures

        monkeypatch.setattr(bench, "_probe_failures", spy)
        hi = min_sample_size(cfg)
        assert hi >= 64
        assert passed[hi] and passed[2 * hi]
        # a passed m is probed at 2m too, so an m is rejected when m or 2m failed
        rejected = [m for m in passed if not (passed[m] and passed.get(2 * m, True))]
        assert any(hi - hi // 64 - 1 <= m < hi for m in rejected)

    def test_random_queries_decide_the_search(self):
        cfg = verdict_configs()["plus-random-logistic"]
        adversarial = replace(cfg, query_policy=bench.ADVERSARIAL_ONLY)
        assert min_sample_size(adversarial) < min_sample_size(cfg)

    def test_extra_queries_built_once_per_config(self, monkeypatch):
        # the random queries and their per-atom loss matrix are built once;
        # no probe evaluates a loss again
        calls, losses = [], []
        build, loss = bench.build_query_set, bench.eval_loss
        monkeypatch.setattr(bench, "build_query_set",
                            lambda *a, **kw: calls.append(a) or build(*a, **kw))
        monkeypatch.setattr(bench, "eval_loss",
                            lambda *a, **kw: losses.append(a) or loss(*a, **kw))
        cfg = verdict_configs()["plus-random"]
        for m in (10, 40):
            failure_rate(cfg, m)
        min_sample_size(cfg)
        assert len(calls) == 1
        assert len(losses) == 1


class TestScalingCurve:
    def test_constant_sizes_fit_zero_slope(self):
        assert fit_loglog_slope([8, 16, 32], [40, 40, 40]) == pytest.approx(0.0)

    def test_sizes_symmetric_in_log_k_fit_exactly_zero(self):
        assert fit_loglog_slope([8, 16, 32], [251, 439, 251]) == 0.0

    def test_curve_makes_no_least_squares_call(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a least-squares call on the Monte Carlo path")

        monkeypatch.setattr(np, "polyfit", refuse)
        monkeypatch.setattr(np.linalg, "lstsq", refuse)
        curve = scaling_curve("lin-relu", [4, 8, 16], eps=0.3, delta=0.25, trials=20, seed=0,
                              reg="l1")
        ks, ms = zip(*curve.points)
        assert curve.fitted_slope == fit_loglog_slope(ks, ms)
        assert curve.slope_ci == bench._bootstrap_slope_ci(curve.points, 0)

    def test_one_point_left_has_no_slope(self):
        # the doubling search passes the cap at k = 8 and 16, not at 4 (m* = 50)
        curve = scaling_curve("lin-relu", [4, 8, 16], eps=0.3, delta=0.25, trials=20, seed=0,
                              reg="l1", m_cap=64)
        assert curve.points == ((4.0, 50),)
        assert math.isnan(curve.fitted_slope) and all(math.isnan(v) for v in curve.slope_ci)
        assert [k for k, _ in curve.budget_errors] == [8.0, 16.0]

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

    @staticmethod
    def polyfit_bootstrap(points, seed, resamples=200):
        """One np.polyfit per resample; also counts the resamples without spread in k."""
        ks = np.array([p[0] for p in points], dtype=float)
        ms = np.array([p[1] for p in points], dtype=float)
        rng = derive_rng(seed, 0xB007)
        slopes, dropped = [], 0
        for _ in range(resamples):
            idx = rng.integers(0, ks.size, size=ks.size)
            if np.unique(ks[idx]).size < 2:
                dropped += 1
                continue
            slopes.append(np.polyfit(np.log(ks[idx]), np.log(ms[idx]), 1)[0])
        if not slopes:
            return (float("nan"), float("nan")), dropped
        return (float(np.percentile(slopes, 2.5)), float(np.percentile(slopes, 97.5))), dropped

    @pytest.mark.parametrize("points,some_dropped", [
        (((8.0, 151), (16.0, 317), (32.0, 668)), True),
        (((8.0, 190), (16.0, 390), (32.0, 1050), (64.0, 2414)), True),
        (((4.0, 12), (4.0, 15), (8.0, 33), (16.0, 70), (16.0, 61)), True),
        (tuple((float(k), m) for k, m in zip([8, 16] * 6, range(40, 52))), False)])
    def test_batched_bootstrap_matches_polyfit_per_resample(self, points, some_dropped):
        for seed in (0, 3, 13, 2**40):
            ref, dropped = self.polyfit_bootstrap(points, seed)
            assert (dropped > 0) == some_dropped
            lo, hi = bench._bootstrap_slope_ci(points, seed)
            assert abs(lo - ref[0]) <= 1e-12 and abs(hi - ref[1]) <= 1e-12

    def test_two_points_have_no_interval(self):
        # each resample of two points repeats the point fit or has no spread in k
        points = ((4.0, 50), (8.0, 124))
        lo, hi = self.polyfit_bootstrap(points, 0)[0]
        assert lo == pytest.approx(hi, rel=1e-12)
        assert all(math.isnan(v) for v in bench._bootstrap_slope_ci(points, 0))

    def test_bootstrap_without_spread_in_k_is_nan(self):
        points = ((8.0, 40), (8.0, 44), (8.0, 47))
        assert all(math.isnan(v) for v in self.polyfit_bootstrap(points, 5)[0])
        assert all(math.isnan(v) for v in bench._bootstrap_slope_ci(points, 5))

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

    def test_negative_control_detected(self, monkeypatch):
        # unit weights under norm-biased draws overweight large-margin atoms
        inst = make_instance(np.array([[0.0], [100.0]]))
        spec = ObjectiveSpec(make_loss(LOGISTIC), make_reg(L2SQ), 4.0)
        law = bench._law

        def unit_weights(*args):
            q, w, s = law(*args)
            return q, np.ones_like(w), s

        monkeypatch.setattr(bench, "_law", unit_weights)
        gap, stderr = unbiasedness_check(inst, spec, "norm", np.array([1.0]),
                                         m=50, trials=2000, seed=7)
        assert abs(gap) > 4 * stderr

    def test_row_budget_does_not_change_the_result(self, monkeypatch):
        inst = gaussian_instance(100, 5, seed=21)
        spec = ObjectiveSpec(make_loss(LOGISTIC), make_reg(L2SQ), 10.0)
        x = np.full(5, 0.5)
        whole = unbiasedness_check(inst, spec, "norm", x, m=50, trials=300, seed=6)
        monkeypatch.setattr(bench, "BLOCK_CELLS", 7 * 100)  # 7-row blocks
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


class TestBasisInstancesStayImplicit:
    """Failure rates and the m* search read the law and the counts only, so a
    basis construction never builds its (n, d) atoms on that path."""

    @staticmethod
    def refusing(hard):
        def build(lo, hi):
            raise AssertionError("the failure-rate path built the atoms")

        hard.instance._build = build
        return hard

    @pytest.mark.parametrize("kind,params", [
        ("quad-logistic", {"k": 8.0, "eps": 0.05}), ("quad-sigmoid", {"k": 20.0, "eps": 0.1}),
        ("quad-hinge", {"k": 8.0, "eps": 0.25}), ("quad-relu", {"k": 6.0, "eps": 0.25}),
        ("coupon-relu", {"d": 16, "k": 8.0})])
    def test_failure_rate_and_search_never_build_atoms(self, kind, params):
        from regsamp.hardness import generate
        from regsamp.sampler import estimate_S

        hard = self.refusing(generate(kind, **params))
        cfg = TrialConfig(eps=0.25, delta=0.2, trials=60, master_seed=4, hard=hard)
        failure_rate(cfg, 20)
        assert min_sample_size(cfg) >= 1
        estimate_S(hard.instance, "norm", eps=0.5, delta=0.1, seed=0)
        with pytest.raises(AssertionError, match="built the atoms"):
            hard.instance.atoms

    @pytest.mark.parametrize("kind,params", [
        ("quad-logistic", {"k": 8.0, "eps": 0.05}), ("quad-sigmoid", {"k": 20.0, "eps": 0.1}),
        ("quad-hinge", {"k": 8.0, "eps": 0.25}), ("quad-hinge", {"k": 64.0, "eps": 0.25}),
        ("quad-relu", {"k": 6.0, "eps": 0.25}), ("coupon-relu", {"d": 16, "k": 8.0})])
    @pytest.mark.parametrize("rows", [None, 4])
    def test_random_queries_from_row_blocks_keep_the_bits(self, monkeypatch, kind, params, rows):
        # the adversarial-plus-random losses come from blocks of atom rows, of
        # the default size or of 4 rows, and equal those of the built atoms' one
        # product bit for bit.  No block is one row: quad-hinge at k = 64 has
        # 1821 atoms, and its last margins round otherwise as a one-row product
        from regsamp import sampler

        hard = generate(kind, **params)
        if rows is not None:
            monkeypatch.setattr(sampler, "BLOCK_CELLS", rows * hard.instance.dim)
        cfg = TrialConfig(eps=0.25, delta=0.2, master_seed=3, hard=hard,
                          query_policy=bench.ADVERSARIAL_PLUS_RANDOM)
        blocked = cfg.random_queries
        assert hard.instance._atoms is None
        hard.instance.atoms
        for got, want in zip(blocked, replace(cfg).random_queries, strict=True):
            assert np.array_equal(got, want)

    def test_plus_random_probes_past_the_dense_budget_build_no_atoms(self):
        # coupon-relu at d = 8000, whose dense identity (512 MB) the budget
        # refuses: the random queries' losses are built a block of rows at a
        # time, so a 20-trial probe at m = 3 d peaks at about 30 MB, most of
        # it three 8000 x 121 matrices
        import tracemalloc

        hard = generate("coupon-relu", d=8000, k=16.0)
        cfg = TrialConfig(eps=0.25, delta=0.2, trials=20, master_seed=4, hard=hard,
                          query_policy=bench.ADVERSARIAL_PLUS_RANDOM)
        hard.law  # built before tracing starts
        tracemalloc.start()
        try:
            rate, _ = failure_rate(cfg, 24000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 0 <= rate <= 1 and hard.instance._atoms is None
        assert peak < 40 * 2**20
        with pytest.raises(BudgetExceededError, match="256 MB budget"):
            hard.instance.atoms

    def test_mc_wide_probes_stay_small(self):
        # coupon-relu at d = 4000 and the four probes of the benchmark's mc-wide
        # workload; the dense identity alone would take 128 MB
        import tracemalloc

        from regsamp.hardness import generate

        tracemalloc.start()
        try:
            hard = self.refusing(generate("coupon-relu", d=4000, k=16.0))
            cfg = TrialConfig(eps=0.25, delta=0.2, trials=200, master_seed=9, hard=hard)
            for m in (30000, 35000, 40000, 45000):
                failure_rate(cfg, m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20


class TestFailureRateBlocks:
    @pytest.mark.parametrize("hard", [gen_quad_hinge(8.0, 0.25), gen_lin_relu(6),
                                      gen_coupon_relu(30, 8.0)])
    def test_row_blocks_give_the_one_shot_counts(self, monkeypatch, hard):
        cfg = TrialConfig(eps=0.25, delta=0.2, trials=100, master_seed=8, hard=hard)
        ms = (16, 32, 64, 128)
        whole = [failure_rate(cfg, m) for m in ms]
        assert any(0 < rate < 1 for rate, _ in whole)
        monkeypatch.setattr(bench, "BLOCK_CELLS", 7 * hard.instance.n)  # 7-row blocks
        assert [failure_rate(cfg, m) for m in ms] == whole

    def test_row_blocks_bound_the_memory(self):
        # 200 trials x 4000 atoms are a 6.4 MB count block; the default blocks of
        # 16 rows take 0.5 MB
        import tracemalloc

        cfg = TrialConfig(eps=0.25, delta=0.2, trials=200, master_seed=9,
                          hard=gen_coupon_relu(4000, 16.0))
        cfg.hard.law  # built before tracing starts
        tracemalloc.start()
        try:
            failure_rate(cfg, 30000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

    def test_worker_count_bounds_the_memory(self, monkeypatch):
        # workers x max(n, BLOCK_CELLS) count cells stay within MAX_DENSE_CELLS = 2^25
        # however many CPUs the process may use
        def workers(n, jobs):  # failure_rates' thread count
            return parallel.workers(jobs, max(n, bench.BLOCK_CELLS))

        with on_cpus(64):
            assert workers(4000, 4) == 4
            assert workers(100, 1000) == 64
            assert workers(10 ** 6, 64) == 33
            assert workers(2 ** 24, 64) == 2
            assert workers(2 ** 25, 64) == 1
        with on_cpus(2):
            assert workers(10 ** 6, 4) == 2
        monkeypatch.delattr(os, "sched_getaffinity")  # no affinity: every CPU
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert workers(4000, 4) == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert workers(4000, 4) == 1

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_failure_rates_run_under_the_callers_error_state(self, cpus):
        # atoms of norm 1e207 meet the random queries at radius 10 k = 1e101 at
        # margins up to 1e308: f stays finite, but each trial's estimate, a sum of
        # m such losses, overflows; with the random-query table built beforehand,
        # that overflow is the probes', and it raises on the worker threads as it
        # does in the loop
        hard = replace(generate("coupon-relu", d=2, k=1e100),
                       instance=make_instance(1e207 * np.eye(2)))
        cfg = TrialConfig(eps=0.25, delta=0.2, trials=20, master_seed=3, hard=hard,
                          query_policy=bench.ADVERSARIAL_PLUS_RANDOM)
        assert np.all(np.isfinite(cfg.random_queries[2]))
        with on_cpus(cpus), np.errstate(all="raise"):
            assert parallel.workers(3, max(cfg.hard.instance.n, bench.BLOCK_CELLS)) == cpus
            with pytest.raises(FloatingPointError, match="overflow"):
                bench.failure_rates(cfg, [4, 8, 1000])

    @pytest.mark.parametrize("name", ["lin-relu", "quad-hinge", "coupon-relu"])
    def test_search_blocks_keep_to_count_cells(self, monkeypatch, name):
        # a probe's blocks also keep to BLOCK_CELLS cells, and splitting them
        # moves no verdict: m* is the one of the unsplit blocks
        cfg = verdict_configs()[name]
        m_star = min_sample_size(cfg)
        rows = record_rows(monkeypatch)
        monkeypatch.setattr(bench, "BLOCK_CELLS", 3 * cfg.hard.instance.n)  # 3-row blocks
        assert min_sample_size(cfg) == m_star
        assert rows and max(rows) <= 3

    def test_blocks_concatenate_to_the_one_shot_block(self):
        hard = gen_quad_hinge(8.0, 0.25)
        q, w, _ = hard.law
        whole = bench._count_rows(q, w, 90, derive_rng(3, 90))(100)
        parts = draw_blocks(q, w, 90, derive_rng(3, 90), (7, 7, 86))
        for one, blocks in zip(whole, zip(*parts)):
            assert np.array_equal(one, np.concatenate(blocks))
