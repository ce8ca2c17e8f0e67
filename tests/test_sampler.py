import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from regsamp.errors import (
    BudgetExceededError,
    ConfigurationError,
    DataError,
    DegenerateInstanceError,
    EstimatorInconsistencyError,
    InvalidInputError,
)
from regsamp.model import gaussian_instance, make_instance
from regsamp.sampler import (
    MIXTURE,
    SCORE_ONLY,
    CategoricalSampler,
    Coreset,
    atom_probabilities,
    atom_weights,
    derive_rng,
    draw_iid,
    estimate_S,
    load_samples,
    rejection_stream,
    save_samples,
    score,
    score_array,
    weight,
    weighted_reservoir,
    weights_from_estimate,
)

TWO_ATOM = make_instance(np.array([[0.0, 0.0], [0.0, 2.0]]))  # scores 1 and 3, S = 2


class TestScore:
    def test_zero_vector(self):
        assert score("norm", np.zeros(3)) == 1.0

    def test_squared_norm(self):
        assert score("sqnorm", np.array([3.0, 0.0])) == 11.0

    def test_uniform_kinds(self):
        assert score("uniform-d", np.array([0.3, 0.1]), D=1.0) == 2.0
        assert score("uniform-d2", np.array([0.3, 0.1]), D=2.0) == 6.0

    def test_uniform_requires_d(self):
        with pytest.raises(ConfigurationError):
            score("uniform-d", np.zeros(2))

    def test_always_at_least_one(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            a = rng.standard_normal(4) * rng.uniform(0, 10)
            assert score("norm", a) >= 1.0
            assert score("sqnorm", a) >= 2.0


class TestWeight:
    def test_symmetric_case(self):
        assert weight(2.0, 2.0) == 1.0

    def test_formula(self):
        assert weight(30.0, 10.0) == pytest.approx(0.5)

    def test_never_exceeds_two(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            s, S = rng.uniform(1e-3, 1e3, size=2)
            assert 0.0 < weight(s, S) <= 2.0

    def test_rejects_nonpositive(self):
        with pytest.raises(InvalidInputError):
            weight(0.0, 1.0)
        with pytest.raises(InvalidInputError):
            weight(1.0, -1.0)


class TestMixtureProbabilities:
    def test_constant_score_reduces_to_masses(self):
        inst = make_instance(np.eye(3), np.array([0.2, 0.3, 0.5]))
        q = atom_probabilities(inst, "norm", MIXTURE)
        assert np.allclose(q, inst.masses, atol=1e-15)

    def test_two_atom_example(self):
        q = atom_probabilities(TWO_ATOM, "norm", MIXTURE)
        assert np.allclose(q, [3.0 / 8.0, 5.0 / 8.0], atol=1e-15)

    def test_uniform_score_gives_uniform_mixture(self):
        inst = make_instance(np.vstack([np.eye(3), 2 * np.eye(3)]))
        q = atom_probabilities(inst, "uniform-d", MIXTURE, D=2.0)
        assert np.allclose(q, inst.masses, atol=1e-15)

    def test_dominates_half_the_masses(self):
        inst = gaussian_instance(50, 4, seed=7, uniform_masses=False)
        q = atom_probabilities(inst, "norm", MIXTURE)
        assert np.all(q >= inst.masses / 2.0 - 1e-15)

    def test_estimate_variant(self):
        q = atom_probabilities(TWO_ATOM, "norm", MIXTURE, s_hat=2.0)
        assert np.allclose(q, [3.0 / 8.0, 5.0 / 8.0], atol=1e-15)
        q_hat = atom_probabilities(TWO_ATOM, "norm", MIXTURE, s_hat=3.0)
        assert np.allclose(q_hat, [0.5 * 4 / 5, 0.5 * 6 / 5], atol=1e-15)


class TestProbabilitySumCheck:
    # squared norms of 1e200 overflow, so the score mass S and every q_i are NaN
    HUGE = make_instance(np.full((2, 3), 1e200))

    @pytest.mark.parametrize("convention", ["mixture", SCORE_ONLY])
    def test_overflowing_scores_are_a_typed_error(self, convention):
        with pytest.raises(DegenerateInstanceError, match="not 1"):
            atom_probabilities(self.HUGE, "sqnorm", convention)
        with pytest.raises(DegenerateInstanceError):
            draw_iid(self.HUGE, "sqnorm", 5, seed=0, convention=convention)

    def test_check_survives_optimized_mode(self):
        # python -O strips asserts; the check must still raise there
        import regsamp

        code = ("import numpy as np; from regsamp.model import make_instance; "
                "from regsamp.sampler import atom_probabilities as ap\n"
                "try: ap(make_instance(np.full((2, 3), 1e200)), 'sqnorm', 'mixture')\n"
                "except Exception as exc: print(type(exc).__name__)")
        env = {**os.environ, "PYTHONPATH": str(Path(regsamp.__file__).parents[1])}
        proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.stdout.strip() == "DegenerateInstanceError", proc.stderr


class TestDrawIid:
    def test_m_zero_rejected(self):
        with pytest.raises(InvalidInputError):
            draw_iid(TWO_ATOM, "norm", 0, seed=1)

    def test_single_atom_instance(self):
        inst = make_instance(np.array([[1.0, 1.0]]))
        samples = draw_iid(inst, "norm", 5, seed=1)
        assert len(samples) == 5
        assert np.all(samples.idx == 0)
        assert samples.w == pytest.approx(np.ones(5))

    def test_empirical_frequencies(self):
        m = 10_000
        samples = draw_iid(TWO_ATOM, "norm", m, seed=3)
        count1 = int(np.sum(samples.idx == 1))
        p = 5.0 / 8.0
        sigma = math.sqrt(m * p * (1 - p))
        assert abs(count1 - m * p) <= 3 * sigma

    def test_deterministic_given_seed(self):
        s1 = draw_iid(TWO_ATOM, "norm", 50, seed=9)
        s2 = draw_iid(TWO_ATOM, "norm", 50, seed=9)
        assert np.array_equal(s1.idx, s2.idx)
        s3 = draw_iid(TWO_ATOM, "norm", 50, seed=10)
        assert not np.array_equal(s1.idx, s3.idx)

    def test_mean_weight_bounded(self):
        inst = gaussian_instance(30, 3, seed=12, scale=5.0)
        samples = draw_iid(inst, "norm", 500, seed=4)
        w = samples.w
        assert np.all(w > 0) and np.all(w <= 2.0)
        assert w.mean() <= 2.0

    def test_score_only_convention_weights(self):
        samples = draw_iid(TWO_ATOM, "norm", 100, seed=5, convention=SCORE_ONLY)
        assert samples.w == pytest.approx(2.0 / samples.s)


class TestCategoricalSampler:
    def test_matches_probabilities(self):
        probs = np.array([0.1, 0.2, 0.3, 0.4])
        idx = CategoricalSampler(probs).draw(derive_rng(42), 200_000)
        freq = np.bincount(idx, minlength=4) / idx.size
        sigma = np.sqrt(probs * (1 - probs) / idx.size)
        assert np.all(np.abs(freq - probs) <= 4 * sigma)

    def test_rejects_bad_input(self):
        with pytest.raises(InvalidInputError):
            CategoricalSampler([])
        with pytest.raises(InvalidInputError):
            CategoricalSampler([-0.5, 1.5])

    def test_rounded_up_uniform_skips_trailing_zero(self):
        # 0.75 * 5e-324 rounds up to the total, past the last positive cumulative mass
        idx = CategoricalSampler([0.0, 5e-324, 0.0]).draw(Uniforms([0.0, 0.4, 0.75, 1 - 2**-53]), 4)
        assert idx.tolist() == [1, 1, 1, 1]


class Uniforms:
    """Stands in for a Generator whose random(size) returns the given uniforms."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=float)

    def random(self, size):
        return self.u[:size]


@given(st.lists(st.floats(5e-324, 1e3), min_size=1, max_size=40), st.data())
@settings(max_examples=200, deadline=None)
def test_categorical_sampler_never_draws_zero_probability(positive, data):
    n = len(positive)
    zeros = data.draw(st.sets(st.integers(0, n - 1)), label="zeros")
    if data.draw(st.booleans(), label="zero ends"):
        zeros |= {0, n - 1}
    zeros.discard(data.draw(st.integers(0, n - 1), label="kept"))
    probs = np.array(positive)
    probs[sorted(zeros)] = 0.0
    sampler = CategoricalSampler(probs)
    u = data.draw(st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=20), label="u")
    for idx in (sampler.draw(Uniforms([0.0, 1 - 2**-53, *u]), len(u) + 2),
                sampler.draw(derive_rng(data.draw(st.integers(0, 2**32), label="seed")), 500)):
        assert idx.dtype == np.int64
        assert np.all((idx >= 0) & (idx < n))
        assert np.all(probs[idx] > 0)


@given(st.integers(1, 30), st.integers(0, 10_000), st.sampled_from(["norm", "sqnorm"]),
       st.floats(0.5, 2.0))
@settings(max_examples=50, deadline=None)
def test_law_is_the_written_formulas_bit_for_bit(n, seed, kind, eta):
    rng = np.random.default_rng(seed)
    inst = make_instance(rng.standard_normal((n, 3)) * rng.uniform(0.1, 10.0),
                         rng.uniform(0.1, 1.0, size=n))
    s = score_array(kind, inst.atoms)
    S = float(inst.masses @ s)
    s_hat = eta * S
    p = inst.masses
    assert np.array_equal(atom_probabilities(inst, kind, MIXTURE), p * (s + S) / (S + S))
    assert np.array_equal(atom_probabilities(inst, kind, MIXTURE, s_hat=s_hat),
                          p * (s + s_hat) / (S + s_hat))
    assert np.array_equal(atom_probabilities(inst, kind, SCORE_ONLY), p * s / S)
    with pytest.raises(ConfigurationError):
        atom_probabilities(inst, kind, SCORE_ONLY, s_hat=s_hat)
    assert np.array_equal(atom_weights(inst, kind, MIXTURE), 2.0 * S / (s + S))
    assert np.array_equal(atom_weights(inst, kind, SCORE_ONLY), S / s)
    samples = Coreset.of_atoms(inst, rng.integers(0, n, size=7), kind)
    assert np.array_equal(weights_from_estimate(samples, s_hat).w,
                          2.0 * s_hat / (samples.s + s_hat))


class TestCoreset:
    def test_empty_rejected(self):
        with pytest.raises(InvalidInputError):
            Coreset([], np.zeros((0, 2)), [], [])

    @pytest.mark.parametrize("a,w,s", [
        (np.zeros((3, 2)), np.ones(2), np.ones(2)),     # one atom row too many
        (np.zeros((2, 2)), np.ones(3), np.ones(2)),     # one weight too many
        (np.zeros((2, 2)), np.ones(2), np.ones(1)),     # one score too few
        (np.zeros(2), np.ones(2), np.ones(2)),          # atoms not a matrix
    ])
    def test_shape_mismatch_rejected(self, a, w, s):
        with pytest.raises(InvalidInputError):
            Coreset([0, 1], a, w, s)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_nonpositive_or_nonfinite_weight_rejected(self, bad):
        with pytest.raises(InvalidInputError):
            Coreset([0, 1], np.zeros((2, 2)), [1.0, bad], [1.0, 1.0])

    def test_columns_are_read_only_views(self):
        w = np.array([1.0, 2.0])
        smp = Coreset([0, 1], np.zeros((2, 2)), w, [1.0, 1.0])
        with pytest.raises(ValueError):
            smp.w[0] = 3.0
        w[0] = 5.0  # the caller's array stays writable
        assert len(smp) == 2


class TestSampleFiles:
    # the exact text of the sample-file format for this instance and seed
    PINNED = (
        '{"atom_index": 2, "a": [0.1, 3.0], "w": 0.9082556846695841, "s": 4.001666203960727}\n'
        '{"atom_index": 0, "a": [1.0, 0.5], "w": 1.2223321828118165, "s": 2.118033988749895}\n'
        '{"atom_index": 2, "a": [0.1, 3.0], "w": 0.9082556846695841, "s": 4.001666203960727}\n'
        '{"atom_index": 2, "a": [0.1, 3.0], "w": 0.9082556846695841, "s": 4.001666203960727}\n'
    )

    def test_jsonl_text_is_pinned_and_round_trips(self, tmp_path):
        inst = make_instance(np.array([[1.0, 0.5], [-2.0, 0.25], [0.1, 3.0]]),
                             np.array([0.2, 0.3, 0.5]))
        save_samples(draw_iid(inst, "norm", 4, seed=8), tmp_path / "a.jsonl")
        assert (tmp_path / "a.jsonl").read_text() == self.PINNED
        save_samples(load_samples(tmp_path / "a.jsonl"), tmp_path / "b.jsonl")
        assert (tmp_path / "b.jsonl").read_bytes() == (tmp_path / "a.jsonl").read_bytes()

    def test_ragged_atoms_are_a_data_error(self, tmp_path):
        path = tmp_path / "ragged.jsonl"
        path.write_text('{"atom_index": 0, "a": [1.0, 2.0], "w": 1.0, "s": 2.0}\n'
                        '{"atom_index": 1, "a": [1.0], "w": 1.0, "s": 2.0}\n')
        with pytest.raises(DataError):
            load_samples(path)


class TestRejectionStream:
    def test_all_accepted_when_scores_match_estimate(self):
        atoms = [np.array([0.0, 2.0])] * 100  # score 3 everywhere
        accepted = rejection_stream(atoms, "norm", s_hat=3.0, seed=1)
        assert len(accepted) == 100

    def test_estimator_inconsistency(self):
        atoms = [np.array([0.0, 5.0])]  # score 6 > 3
        with pytest.raises(EstimatorInconsistencyError):
            rejection_stream(atoms, "norm", s_hat=3.0, seed=1)

    def test_accepted_composition_matches_mixture(self):
        # stream from P, accept with 1/2 + s/(2 s_hat): accepted ~ mixture(s_hat)
        n_stream = 100_000
        s_hat = 3.0
        rng = derive_rng(77)
        choices = rng.random(n_stream) < 0.5
        atoms = [TWO_ATOM.atoms[0] if c else TWO_ATOM.atoms[1] for c in choices]
        accepted = rejection_stream(atoms, "norm", s_hat=s_hat, seed=78)
        got1 = sum(1 for a in accepted if a[1] == 2.0)
        q = atom_probabilities(TWO_ATOM, "norm", MIXTURE, s_hat=s_hat)
        n_acc = len(accepted)
        sigma = math.sqrt(n_acc * q[1] * (1 - q[1]))
        assert abs(got1 - n_acc * q[1]) <= 3 * sigma


class TestWeightedReservoir:
    def test_equal_scores_prefix(self):
        stream = [(i, 1.0) for i in range(5)]
        assert weighted_reservoir(stream, 5, seed=1) == [0, 1, 2, 3, 4]

    def test_short_stream_returns_everything(self):
        stream = [(i, 2.0) for i in range(3)]
        assert sorted(weighted_reservoir(stream, 10, seed=1)) == [0, 1, 2]

    def test_pps_three_items(self):
        # scores (1, 1, 8): item 2 wins a size-1 reservoir with probability 0.8
        hits = 0
        trials = 10_000
        for t in range(trials):
            res = weighted_reservoir([(0, 1.0), (1, 1.0), (2, 8.0)], 1, seed=1000 + t)
            hits += res[0] == 2
        p = 0.8
        sigma = math.sqrt(trials * p * (1 - p))
        assert abs(hits - trials * p) <= 3 * sigma

    def test_uniform_inclusion_rates(self):
        # 1000 simultaneous 3-sigma tests would expect a few misses; gate on
        # coverage instead of per-item
        n, m, trials = 1000, 10, 2000
        counts = np.zeros(n)
        for t in range(trials):
            for i in weighted_reservoir(((i, 1.0) for i in range(n)), m, seed=t):
                counts[i] += 1
        p = m / n
        sigma = math.sqrt(trials * p * (1 - p))
        dev = np.abs(counts - trials * p)
        assert np.mean(dev <= 3 * sigma) >= 0.99
        assert np.all(dev <= 5 * sigma)

    def test_rejects_nonpositive_scores(self):
        with pytest.raises(InvalidInputError):
            weighted_reservoir([(0, 0.0)], 1, seed=1)

    def test_huge_scores(self):
        # u ** (1 / 1e17) rounds to 1.0; log-space keys stay distinct from 0
        res = weighted_reservoir([(i, 1e17) for i in range(10)], 3, seed=1)
        assert len(set(res)) == 3 and set(res) <= set(range(10))


class TestEstimateS:
    def test_identical_atoms_exact(self):
        inst = make_instance(np.tile([[0.0, 2.0]], (4, 1)))
        est = estimate_S(inst, "norm", eps=0.5, delta=0.5, seed=3)
        assert est.s_hat == pytest.approx(3.0)

    def test_sample_size_formula(self):
        inst = make_instance(np.array([[1.0, 0.0], [0.5, 0.5]]))  # D = 1
        est = estimate_S(inst, "norm", eps=0.1, delta=0.01, seed=3)
        assert est.m_used == 461  # ceil(1 * ln(100) / 0.01)

    def test_uniform_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            estimate_S(TWO_ATOM, "uniform-d", eps=0.1, delta=0.1, seed=0)

    def test_draw_budget_raises_before_allocating(self):
        # D = 1e4 under sqnorm asks for D^2 ln(10) / 0.01, about 2.3e10 draws
        inst = make_instance(np.array([[1e4, 0.0], [0.0, 1.0]]))
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceededError):
                estimate_S(inst, "sqnorm", eps=0.1, delta=0.1, seed=0)
            # eps^2 underflows to 0 here
            with pytest.raises(BudgetExceededError):
                estimate_S(TWO_ATOM, "norm", eps=1e-200, delta=0.1, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


class TestWeightsFromEstimate:
    def test_exact_estimate_is_identity(self):
        samples = draw_iid(TWO_ATOM, "norm", 20, seed=6)
        rew = weights_from_estimate(samples, s_hat=2.0)
        assert rew.w == pytest.approx(samples.w, abs=1e-15)

    def test_ratio_example(self):
        # s = 10, S = 10 gives w = 1; s_hat = 10.5 gives w' = 21/20.5
        w = weight(10.0, 10.0)
        w_prime = weight(10.0, 10.5)
        assert w == pytest.approx(1.0)
        assert w_prime == pytest.approx(21.0 / 20.5)
        assert 0.95 <= w_prime / w <= 1.05

    def test_grid_spot_check(self):
        S = 10.0
        for eta in (-0.5, -0.25, 0.0, 0.25, 0.5):
            s_hat = (1 + eta) * S
            for s in range(1, 101):
                ratio = weight(float(s), s_hat) / weight(float(s), S)
                assert 1 - abs(eta) - 1e-12 <= ratio <= 1 + abs(eta) + 1e-12


class TestDeriveRng:
    def test_streams_are_stable_and_distinct(self):
        a1 = derive_rng(5, 1).random(4)
        a2 = derive_rng(5, 1).random(4)
        b = derive_rng(5, 2).random(4)
        assert np.array_equal(a1, a2)
        assert not np.array_equal(a1, b)


@given(st.integers(1, 30), st.integers(0, 10_000))
@settings(max_examples=50, deadline=None)
def test_mixture_sums_to_one_and_dominates(n, seed):
    rng = np.random.default_rng(seed)
    inst = make_instance(rng.standard_normal((n, 3)), rng.uniform(0.1, 1.0, size=n))
    q = atom_probabilities(inst, "norm", MIXTURE)
    assert abs(q.sum() - 1.0) <= 1e-12
    assert np.all(q >= inst.masses / 2.0 - 1e-15)
