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
    InvalidInputError,
)
from regsamp.model import gaussian_instance, make_instance
from regsamp.sampler import (
    MIXTURE,
    SCORE_ONLY,
    CategoricalSampler,
    Coreset,
    _law,
    atom_probabilities,
    atom_weights,
    derive_rng,
    draw_iid,
    estimate_S,
    load_samples,
    save_samples,
    score_array,
    weight,
    weights_from_estimate,
)

TWO_ATOM = make_instance(np.array([[0.0, 0.0], [0.0, 2.0]]))  # scores 1 and 3, S = 2


class TestScore:
    def test_zero_vector(self):
        assert score_array("norm", np.zeros(3)).tolist() == [1.0]

    def test_squared_norm(self):
        assert score_array("sqnorm", np.array([3.0, 0.0])).tolist() == [11.0]

    def test_uniform_kinds(self):
        assert score_array("uniform", np.array([[0.3, 0.1], [4.0, 0.0]])).tolist() == [1.0, 1.0]

    @pytest.mark.parametrize("kind", ["uniform-d", "uniform-d2"])
    def test_removed_uniform_kinds_are_unknown(self, kind):
        with pytest.raises(ConfigurationError, match="unknown score kind"):
            score_array(kind, np.zeros(2))

    def test_always_at_least_one(self):
        rng = np.random.default_rng(0)
        atoms = rng.standard_normal((100, 4)) * rng.uniform(0, 10, size=(100, 1))
        assert np.all(score_array("norm", atoms) >= 1.0)
        assert np.all(score_array("sqnorm", atoms) >= 2.0)


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
        inst = make_instance(np.vstack([np.eye(3), 2 * np.eye(3)]), np.arange(1.0, 7.0))
        for convention in (MIXTURE, SCORE_ONLY):
            q = atom_probabilities(inst, "uniform", convention)
            assert np.allclose(q, inst.masses, atol=1e-15)

    def test_dominates_half_the_masses(self):
        inst = gaussian_instance(50, 4, seed=7, uniform_masses=False)
        q = atom_probabilities(inst, "norm", MIXTURE)
        assert np.all(q >= inst.masses / 2.0 - 1e-15)


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

    @pytest.mark.parametrize("run", [1, 7, 50, 350])
    def test_sorted_runs_keep_each_runs_draws(self, run):
        # each run of `run` uniforms is searched sorted: its draws come out in
        # ascending order, the unsorted call's draws of that run sorted
        sampler = CategoricalSampler(np.random.default_rng(3).dirichlet(np.ones(100)))
        got = sampler.draw(derive_rng(4), 350, run=run).reshape(-1, run)
        want = np.sort(sampler.draw(derive_rng(4), 350).reshape(-1, run), axis=1)
        assert np.array_equal(got, want)

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
    assert np.array_equal(atom_probabilities(inst, kind, SCORE_ONLY), p * s / S)
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
        '{"atom_index": 1, "a": [-2.0, 0.25], "w": 1.04941858481439, "s": 3.0155644370746373}\n'
        '{"atom_index": 2, "a": [0.1, 3.0], "w": 0.9082556846695841, "s": 4.001666203960727}\n'
        '{"atom_index": 2, "a": [0.1, 3.0], "w": 0.9082556846695841, "s": 4.001666203960727}\n'
        '{"atom_index": 0, "a": [1.0, 0.5], "w": 1.2223321828118165, "s": 2.118033988749895}\n'
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


    @pytest.mark.parametrize("weight", ["0.0", "-1.5"])
    def test_weight_the_coreset_refuses_is_a_data_error(self, tmp_path, weight):
        path = tmp_path / "w.jsonl"
        path.write_text('{"atom_index": 0, "a": [1.0, 2.0], "w": 1.0, "s": 2.0}\n'
                        f'{{"atom_index": 1, "a": [1.0, 0.5], "w": {weight}, "s": 2.0}}\n')
        with pytest.raises(DataError) as info:
            load_samples(path)
        assert str(info.value) == f"{path}: sample weights must be positive and finite"


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
            estimate_S(TWO_ATOM, "uniform", eps=0.1, delta=0.1, seed=0)

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
            # D^2 = (1.7e200)^2 is past float range
            with pytest.raises(BudgetExceededError, match="D = 1.73205e\\+200"):
                estimate_S(make_instance(np.full((2, 3), 1e200)), "sqnorm", eps=0.1,
                           delta=0.1, seed=0)
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


class TestScoreInputs:
    """What every score reads of the atoms is `Instance.norms()`: a dense
    instance's norms keep the bits of one np.linalg.norm call over all its
    rows wherever they are finite and at least 2^-500."""

    @pytest.mark.parametrize("n,d,cells", [(20000, 8, None), (3000, 700, None),
                                           (700, 3000, None), (5, 100_000, None),
                                           (1000, 3, 7 * 3), (999, 1, 10)])
    def test_norm_and_sqnorm_keep_the_one_shot_bits(self, monkeypatch, n, d, cells):
        from regsamp import sampler

        if cells is not None:  # row blocks of 7 and 10 rows
            monkeypatch.setattr(sampler, "BLOCK_CELLS", cells)
        rng = np.random.default_rng(n + d)
        atoms = rng.standard_normal((n, d)) * rng.uniform(1e-3, 1e3, size=(n, 1))
        inst = make_instance(atoms)
        one_shot = np.linalg.norm(atoms, axis=1)
        assert np.array_equal(inst.norms(), one_shot)
        assert np.array_equal(score_array("norm", atoms), one_shot + 1.0)
        assert np.array_equal(_law(inst, "norm", MIXTURE)[2], one_shot + 1.0)
        assert np.array_equal(_law(inst, "sqnorm", MIXTURE)[2], one_shot ** 2 + 2.0)

    @pytest.mark.parametrize("n,d", [(20000, 8), (1000, 3), (999, 1), (3000, 700),
                                     (5, 100_000)])
    def test_sqnorm_is_the_square_of_the_norm(self, n, d):
        # a few ulps from an einsum over few columns, and as close to the exact
        # sum of squares at every width, where the einsum drifts by tens of ulps
        rng = np.random.default_rng(n + d)
        atoms = rng.standard_normal((n, d)) * rng.uniform(1e-3, 1e3, size=(n, 1))
        _, _, s = _law(make_instance(atoms), "sqnorm", MIXTURE)
        exact = np.array([math.fsum(row) for row in atoms * atoms]) + 2.0
        assert np.all(np.abs(s - exact) <= 3 * np.spacing(exact))
        if d <= 8:
            einsum = np.einsum("ij,ij->i", atoms, atoms) + 2.0
            assert np.all(np.abs(s - einsum) <= 4 * np.spacing(einsum))

    def test_overflowing_rows_get_their_finite_norms(self):
        # the plain norm of a row of 1e200s overflows; its rescaled norm does not
        atoms = np.array([[1e200, 1e200, 1e200], [1.0, 2.0, 2.0], [1e300, -1e300, 0.0]])
        norms = make_instance(atoms).norms()
        assert norms[1] == 3.0
        assert norms[[0, 2]] == pytest.approx([3 ** 0.5 * 1e200, 2 ** 0.5 * 1e300], rel=1e-15)
        assert np.array_equal(score_array("norm", atoms), norms + 1.0)
        assert score_array("norm", atoms[0]).tolist() == [norms[0] + 1.0]
        # a norm past float range stays infinite, and the law refuses it
        beyond = make_instance(np.array([[1.5e308, 1.5e308], [1.0, 0.0]]))
        assert np.array_equal(beyond.norms(), [np.inf, 1.0])
        with pytest.raises(DegenerateInstanceError, match="not 1"):
            atom_probabilities(beyond, "norm", MIXTURE)

    def test_underflowing_rows_keep_their_nonzero_norms(self):
        # the squares of 1e-200 underflow to 0, so the plain norm of that row
        # is 0; below 2^-500 a row is rescaled as an overflowing one is
        atoms = np.array([[1e-200, 1e-200], [3e-170, 0.0], [0.0, 0.0], [3.0, 4.0],
                          [2.0 ** -499, 0.0]])
        norms = make_instance(atoms).norms()
        assert norms[0] == pytest.approx(2 ** 0.5 * 1e-200, rel=1e-15, abs=0.0)
        assert norms[1] == pytest.approx(3e-170, rel=1e-15, abs=0.0)
        assert np.array_equal(norms[2:], np.linalg.norm(atoms[2:], axis=1))

    def test_the_norm_score_law_is_finite_where_sqnorm_overflows(self):
        inst = make_instance(np.array([[1e200, 1e200, 1e200], [1.0, 2.0, 2.0]]))
        q, w, s = _law(inst, "norm", SCORE_ONLY)
        assert np.all(np.isfinite(q)) and np.all(np.isfinite(w)) and abs(q.sum() - 1.0) <= 1e-12
        with pytest.raises(DegenerateInstanceError, match="sum to nan"):
            atom_probabilities(inst, "sqnorm", MIXTURE)

    def test_norm_blocks_are_bounded(self, monkeypatch):
        # one np.linalg.norm over 2000 x 1000 atoms takes a 16 MB squared copy;
        # blocks of 100 rows take 0.8 MB, and so does a block of overflowing rows
        from regsamp import sampler

        monkeypatch.setattr(sampler, "BLOCK_CELLS", 100 * 1000)
        for entry in (1.0, 1e200):
            inst = make_instance(np.full((2000, 1000), entry))
            tracemalloc.start()
            try:
                inst.norms()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2_000_000

    def test_inputs_are_computed_once_and_read_only(self):
        inst = gaussian_instance(50, 4, seed=2)
        x = inst.norms()
        assert inst.norms() is x
        assert not x.flags.writeable
        with pytest.raises(ValueError):
            x[0] = 1.0
