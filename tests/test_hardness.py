import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from regsamp.errors import (
    ConfigurationError,
    ConstructionError,
    InvalidInputError,
)
from regsamp.hardness import (
    KINDS,
    adversarial_relative_error,
    batch_failed,
    check_failure,
    gen_coupon_relu,
    gen_lin_logistic,
    gen_lin_relu,
    gen_lin_sigmoid,
    gen_moment_curve,
    gen_quad_hinge,
    gen_quad_logistic,
    gen_quad_relu,
    gen_quad_sigmoid,
    generate,
    isolating_direction,
)
from regsamp.losses import L1, L2, L2SQ, eval_loss, eval_regularizer, make_loss, make_reg
from regsamp.objective import full_objective, relative_error
from regsamp.sampler import (
    MIXTURE,
    Coreset,
    _law,
    draw_iid,
    weight,
)


def sample_atoms(hard, indices):
    return Coreset.of_atoms(hard.instance, list(indices), hard.score_kind, hard.convention)


class TestQuadLogistic:
    def test_dimension_formula(self):
        hard = gen_quad_logistic(8.0, 0.05)
        assert hard.params["d"] == 16  # ceil(2 (8 ln2 / 2)^2) = ceil(15.37)

    def test_boundary_sizing(self):
        eps = 0.0625
        k = 40.0 * eps / math.log(2.0)
        hard = gen_quad_logistic(k, eps)
        assert hard.params["d"] == 2

    def test_eps_range(self):
        with pytest.raises(InvalidInputError):
            gen_quad_logistic(8.0, 0.2)

    def test_rescaled_objective_at_adversarial_query(self):
        # with d/2 an exact square the rescaled value is 1/2 + c + 1/(40 eps)
        k = 8.0
        eps = k * math.log(2.0) / 80.0  # makes d = 8 exactly
        hard = gen_quad_logistic(k, eps)
        assert hard.params["d"] == 8
        x = hard.queries.queries[1]
        _, f = full_objective(hard.instance, hard.spec, x)
        c = hard.params["g_hit"] / (2.0 * hard.params["g_miss"])
        assert f / math.log(2.0) == pytest.approx(0.5 + c + 1.0 / (40.0 * eps), abs=1e-12)

    def test_c_constant(self):
        # c = g(1) / (2 g(0)) = ln(1 + 1/e) / (2 ln 2), derived from the recorded losses
        hard = gen_quad_logistic(8.0, 0.05)
        assert "c" not in hard.params
        c = hard.params["g_hit"] / (2.0 * hard.params["g_miss"])
        assert c == math.log(1.0 + math.exp(-1.0)) / (2.0 * math.log(2.0))
        assert c == pytest.approx(0.225971, abs=1e-6)

    def test_origin_always_in_queries(self):
        hard = gen_quad_logistic(8.0, 0.05)
        assert np.all(hard.queries.queries[0] == 0.0)


class TestQuadSigmoid:
    def test_dimension_formula(self):
        hard = gen_quad_sigmoid(20.0, 0.1)
        assert hard.params["d"] == 8  # ceil(2 * (10/5)^2)

    def test_c_constant(self):
        hard = gen_quad_sigmoid(20.0, 0.1)
        assert "c" not in hard.params
        c = hard.params["g_hit"] / (2.0 * hard.params["g_miss"])
        assert c == 1.0 / (1.0 + math.e)
        assert c < 0.3
        assert hard.params["g_miss"] == 0.5  # g(0), the loss of every missed atom


class TestQuadHinge:
    def test_atom_norms(self):
        hard = gen_quad_hinge(8.0, 0.2)
        norms_sq = np.sum(hard.instance.atoms ** 2, axis=1)
        assert np.allclose(norms_sq, 1.5, atol=1e-12)

    def test_margins_at_adversarial_query(self):
        hard = gen_quad_hinge(8.0, 1.0 / 6.0)
        d = hard.params["d"]
        h = hard.params["half"]
        x = hard.queries.queries[1]
        margins = hard.instance.atoms @ x
        loss = make_loss("hinge")
        # isolated atoms lose 1/sqrt(d-1) when d-1 = 2h, the rest exactly 0
        assert np.allclose(margins[h:], 1.0, atol=1e-12)
        assert np.allclose(np.asarray(eval_loss(loss, margins[h:])), 0.0, atol=1e-12)
        assert np.allclose(np.asarray(eval_loss(loss, margins[:h])),
                           1.0 / math.sqrt(2 * h), atol=1e-12)

    def test_regularizer_value(self):
        hard = gen_quad_hinge(8.0, 1.0 / 6.0, reg=L2SQ)
        x = hard.queries.queries[1]
        assert eval_regularizer(make_reg(L2SQ), x) == pytest.approx(2.0, abs=1e-12)
        assert eval_regularizer(make_reg(L2), x) == pytest.approx(math.sqrt(2.0), abs=1e-12)


class TestQuadRelu:
    def test_dimension_and_nominal_objective(self):
        eps = 1.0 / 6.0
        hard = gen_quad_relu(6.0, eps)
        assert hard.params["d"] == 36
        x = hard.queries.queries[1]
        f0, _ = full_objective(hard.instance, hard.spec, x)
        assert f0 == pytest.approx(1.0 / 12.0, abs=1e-12)
        # with the construction's stated regularizer value the objective is
        # (2 + 6 eps)/(2k) = 0.25
        f_nominal = f0 + hard.params["reg_value"] / hard.spec.k
        assert f_nominal == pytest.approx((2.0 + 6.0 * eps) / (2.0 * hard.spec.k), abs=1e-12)
        assert f_nominal == pytest.approx(0.25, abs=1e-12)

    def test_missing_half_error_value(self):
        eps = 1.0 / 6.0
        hard = gen_quad_relu(6.0, eps)
        samples = sample_atoms(hard, list(range(18, 36)))
        err_x, err_0 = adversarial_relative_error(hard, samples)
        assert err_x == pytest.approx(3.0 * eps / (1.0 + 3.0 * eps), abs=1e-9)
        assert err_x == pytest.approx(1.0 / 3.0, abs=1e-9)
        assert math.isnan(err_0)
        assert check_failure(hard, samples, eps).failed

    def test_exhaustive_sample_not_failed(self):
        eps = 0.2
        hard = gen_quad_relu(4.0, eps)
        samples = sample_atoms(hard, list(range(hard.instance.n)) * 3)
        assert not check_failure(hard, samples, eps).failed


QUAD_CASES = [(gen_quad_logistic, {}), (gen_quad_sigmoid, {}),
              (gen_quad_hinge, {"reg": L2}), (gen_quad_hinge, {"reg": L2SQ}),
              (gen_quad_relu, {"reg": L2}), (gen_quad_relu, {"reg": L2SQ})]


@pytest.mark.parametrize("k", [7.0, 8.0])
@pytest.mark.parametrize("gen,kwargs", QUAD_CASES)
def test_recorded_constants_are_the_construction(gen, kwargs, k):
    # the constants _quad_errors reads instead of the atoms: g at the isolated
    # and at the other atoms' margins, and the regularizer at the query
    # (quad-relu's is the construction's nominal 1)
    hard = gen(k, 0.1, **kwargs)
    x, h = hard.queries.queries[1], hard.params["half"]
    g = np.asarray(eval_loss(hard.spec.loss, hard.instance.atoms @ x))
    assert np.all(np.abs(g[:h] - hard.params["g_hit"]) <= 1e-12)
    assert np.all(np.abs(g[h:] - hard.params["g_miss"]) <= 1e-12)
    want = 1.0 if gen is gen_quad_relu else eval_regularizer(hard.spec.reg, x)
    assert abs(hard.params["reg_value"] - want) <= 1e-12


class TestLinRelu:
    def test_construction_size(self):
        hard = gen_lin_relu(8)
        assert hard.instance.n == 16
        assert np.allclose(hard.instance.masses, 1.0 / 16.0)
        assert len([t for t in hard.queries.tags if t == "adversarial"]) == 16

    def test_k_precondition(self):
        with pytest.raises(InvalidInputError):
            gen_lin_relu(1)

    def test_objective_at_isolating_query(self):
        k = 8
        hard = gen_lin_relu(k)
        x = hard.queries.queries[1]  # first adversarial query (after origin)
        f0, f = full_objective(hard.instance, hard.spec, x)
        assert f0 == pytest.approx(1.0 / (2.0 * k), abs=1e-12)
        assert f == pytest.approx(3.0 / (2.0 * k), abs=1e-12)

    def test_predicate_example(self):
        # m = 100, k = 10, uniform scores: mu = 5, threshold 1.5; a count of 7
        # fails, and counts of 6 and 4 pass
        k, m = 10, 100
        hard = gen_lin_relu(k)
        verdicts = []
        for counts in ([7, 4, 4] + [5] * 17, [6, 4] + [5] * 18):
            indices = [i for i, c in enumerate(counts) for _ in range(c)]
            assert len(indices) == m
            verdicts.append(check_failure(hard, sample_atoms(hard, indices), 0.1))
        assert verdicts[0].failed and not verdicts[1].failed
        assert np.array_equal(verdicts[0].witness_query, -hard.instance.atoms[0])

    def test_exact_proportions_not_failed(self):
        k = 10
        hard = gen_lin_relu(k)
        samples = sample_atoms(hard, range(2 * k))  # one of each: counts = mu
        assert not check_failure(hard, samples, 0.1).failed

    def test_verdict_deterministic(self):
        hard = gen_lin_relu(6)
        samples = sample_atoms(hard, [0, 0, 0, 1, 2, 3])
        v1 = check_failure(hard, samples, 0.25)
        v2 = check_failure(hard, samples, 0.25)
        assert v1.failed == v2.failed
        assert np.array_equal(v1.witness_query, v2.witness_query)


class TestLinLogistic:
    def test_alpha_matches_identity(self):
        hard = gen_lin_logistic(10)
        alpha = hard.params["alpha"]
        assert alpha == pytest.approx(2.2522, abs=1e-4)
        loss = make_loss("logistic")
        assert 10.0 * eval_loss(loss, alpha) == pytest.approx(1.0, abs=1e-12)

    def test_margins(self):
        k = 10
        hard = gen_lin_logistic(k)
        alpha = hard.params["alpha"]
        adv = hard.queries.queries[1:]
        for j in range(k):
            margins = hard.instance.atoms @ adv[j]
            assert margins[j] == pytest.approx(-alpha, abs=1e-12)
            others = np.delete(margins, j)
            assert np.allclose(others, alpha, atol=1e-12)

    def test_log_identity_at_alpha(self):
        hard = gen_lin_logistic(10)
        alpha = hard.params["alpha"]
        loss = make_loss("logistic")
        assert eval_loss(loss, -alpha) - eval_loss(loss, alpha) == pytest.approx(
            alpha, abs=1e-10)

    def test_threshold_factor_by_reg(self):
        alpha = gen_lin_logistic(10, reg=L1).params["alpha"]
        assert gen_lin_logistic(10, reg=L1).params["threshold_factor"] == pytest.approx(
            2.0 + 10.0)
        assert gen_lin_logistic(10, reg=L2SQ).params["threshold_factor"] == pytest.approx(
            2.0 + 10.0 * alpha)

    def test_k_precondition(self):
        with pytest.raises(InvalidInputError):
            gen_lin_logistic(3)

    def test_mean_weight_band_failure(self):
        # all atoms share one score, so uniformly scaled weights are consistent
        # with an estimated score mass; the off-band mean must fail at the origin
        hard = gen_lin_logistic(8)
        base = sample_atoms(hard, range(8))
        skew = replace(base, w=1.5 * base.w)
        verdict = check_failure(hard, skew, 0.2)
        assert verdict.failed
        assert not np.any(verdict.witness_query != 0.0)

    def test_inconsistent_weights_rejected(self):
        hard = gen_lin_logistic(8)
        base = sample_atoms(hard, [0, 1, 2, 3])
        broken = replace(base, w=base.w * [1.0, 1.0, 1.0, 0.5])
        with pytest.raises(ConfigurationError):
            check_failure(hard, broken, 0.2)


class TestLinSigmoid:
    def test_alpha_and_g(self):
        hard = gen_lin_sigmoid(10)
        alpha = hard.params["alpha"]
        assert alpha == pytest.approx(math.log(9.0), abs=1e-12)
        loss = make_loss("sigmoid")
        assert eval_loss(loss, alpha) == pytest.approx(0.1, abs=1e-12)

    def test_symmetry_gap(self):
        for k in (4, 10, 50):
            hard = gen_lin_sigmoid(k)
            alpha = hard.params["alpha"]
            loss = make_loss("sigmoid")
            h_alpha = 1.0 - 2.0 * eval_loss(loss, alpha)
            assert h_alpha == pytest.approx(1.0 - 2.0 / k, abs=1e-12)
            assert 0.5 <= h_alpha <= 1.0

    def test_threshold_factor(self):
        hard = gen_lin_sigmoid(10, reg=L2SQ)
        alpha = hard.params["alpha"]
        assert hard.params["threshold_factor"] == pytest.approx(4.0 + 20.0 * alpha ** 2)


class TestCouponRelu:
    def test_alpha_formula(self):
        hard = gen_coupon_relu(3, 9.0)
        assert hard.params["alpha"] == pytest.approx(2.0, abs=1e-15)

    def test_full_objective_at_query(self):
        d, k = 8, 6.0
        hard = gen_coupon_relu(d, k)
        alpha = hard.params["alpha"]
        x = hard.queries.queries[1]
        f0, f = full_objective(hard.instance, hard.spec, x)
        assert f0 == pytest.approx(alpha / d, abs=1e-12)
        assert f == pytest.approx(alpha / d + alpha * alpha / k, abs=1e-12)

    def test_missed_atom_fails_with_error_point_six(self):
        d, k = 8, 6.0
        hard = gen_coupon_relu(d, k)
        samples = sample_atoms(hard, [1, 2, 3, 4, 5, 6, 7])  # atom 0 missed
        verdict = check_failure(hard, samples, 0.25)
        assert verdict.failed
        err = relative_error(hard.instance, hard.spec, samples, verdict.witness_query)
        assert err == pytest.approx(0.6, abs=1e-12)

    @pytest.mark.parametrize("k", [16.0, 1e160, 1e307, 1.7976931348623157e308])
    def test_missed_atom_fails_at_every_k(self, k):
        # the error at a missed atom's query is 3/5 at every k; alpha^2 used to
        # overflow to read 0 past k = 1e154, and alpha = 2k/(3d) itself past 9e307
        hard = gen_coupon_relu(30, k)
        alpha = hard.params["alpha"]
        assert np.isfinite(alpha) and (alpha == 2.0 * k / 90.0 or 2.0 * k == np.inf)
        assert check_failure(hard, sample_atoms(hard, range(1, 30)), 0.25).failed

    def test_complete_sample_not_failed(self):
        hard = gen_coupon_relu(6, 4.0)
        samples = sample_atoms(hard, range(6))
        assert not check_failure(hard, samples, 0.25).failed


class TestIsolatingDirection:
    def test_two_point_line(self):
        atoms = np.array([[-1.0], [1.0]])
        x = isolating_direction(atoms, 0)
        margins = atoms @ x
        assert margins[0] < 0 <= margins[1]

    def test_interior_point_is_infeasible(self):
        atoms = np.array([[-1.0], [0.0], [1.0]])
        with pytest.raises(ConstructionError):
            isolating_direction(atoms, 1)

    def test_documented_directions_satisfy_pattern(self):
        t = np.array([1.0, 2.0, 3.0, 4.0])
        atoms = np.vander(t, 3, increasing=True)
        for x, j in (([0.0, -1.5, 1.0], 0), ([3.75, -4.0, 1.0], 1)):
            margins = atoms @ np.asarray(x)
            assert margins[j] < 0
            assert np.all(np.delete(margins, j) >= 0)

    def test_expected_margins_of_quadratic_witness(self):
        t = np.array([1.0, 2.0, 3.0, 4.0])
        atoms = np.vander(t, 3, increasing=True)
        margins = atoms @ np.array([3.75, -4.0, 1.0])
        assert np.allclose(margins, [0.75, -0.25, 0.75, 3.75], atol=1e-12)


class TestMomentCurve:
    def test_construction_counts(self):
        hard = gen_moment_curve(6, 2)
        assert hard.instance.n == 6
        assert hard.instance.dim == 3
        assert len([t for t in hard.queries.tags if t == "adversarial"]) == 18

    def test_preconditions(self):
        with pytest.raises(InvalidInputError):
            gen_moment_curve(3, 3)
        with pytest.raises(InvalidInputError):
            gen_moment_curve(4, 2, t_values=[1.0, 1.0, 2.0, 3.0])

    def test_sign_patterns_verified(self):
        hard = gen_moment_curve(12, 4)
        dirs = hard.params["directions"]
        for j in range(12):
            margins = hard.instance.atoms @ dirs[j]
            assert margins[j] < 0
            assert np.all(np.delete(margins, j) >= -1e-12)

    def test_count_predicate(self):
        hard = gen_moment_curve(6, 2)
        from regsamp.sampler import atom_probabilities

        q = atom_probabilities(hard.instance, hard.score_kind, hard.convention)
        m = 60
        exact = np.round(m * q).astype(int)
        # craft counts far from one mean
        indices = [i for i, c in enumerate(exact) for _ in range(c)]
        samples = sample_atoms(hard, indices)
        verdict = check_failure(hard, samples, 0.5)
        # rounding keeps all counts within 50% of their means here
        mu = len(indices) * q
        assert verdict.failed == bool(np.any(np.abs(exact - mu) > 0.5 * mu))

    def test_mixture_samples_rejected(self):
        hard = gen_moment_curve(6, 2)
        samples = draw_iid(hard.instance, hard.score_kind, 30, seed=3,
                           convention="mixture")
        with pytest.raises(ConfigurationError):
            check_failure(hard, samples, 0.25)


class TestReductionScale:
    """g(beta t)/beta -> relu(-t), the limit that carries a relu witness x to
    logistic and hinge as beta * x (demo 03)."""

    def test_logistic_limit(self):
        loss = make_loss("logistic")
        beta = 1e6
        assert float(eval_loss(loss, beta * -1.0)) / beta == pytest.approx(1.0, abs=1e-6)

    def test_hinge_exact_form(self):
        loss = make_loss("hinge")
        beta = 1e6
        val = float(eval_loss(loss, beta * -1.0)) / beta
        assert val == (1.0 + beta) / beta


class TestGenerateDispatch:
    def test_known_kinds(self):
        assert generate("lin-relu", k=4).kind == "lin-relu"
        assert generate("quad-relu", k=4.0, eps=0.2).kind == "quad-relu"

    def test_unknown_kind(self):
        with pytest.raises(ConfigurationError):
            generate("nope")

    def test_integral_float_k_for_lin_kinds(self):
        # manifests store k as a float
        assert generate("lin-relu", k=8.0).instance.n == 16

    @pytest.mark.parametrize("kind,params,name", [
        ("lin-relu", {"k": 8.5}, "'k'"),
        ("lin-sigmoid", {"k": 8.5}, "'k'"),
        ("quad-hinge", {"k": True, "eps": 0.2}, "'k'"),
        ("coupon-relu", {"d": "sixteen", "k": 8}, "'d'"),
        ("quad-logistic", {"k": 8.0, "eps": 0.05, "reg": "l1"}, "'reg'"),
        ("quad-hinge", {"k": 8.0, "eps": 0.2, "reg": "l1"}, "l2 and l2sq"),
        ("moment-curve", {"N": 4, "d": 2, "t_values": [1, 2, "x", 4]}, "'t_values'"),
    ])
    def test_bad_parameter_is_named(self, kind, params, name):
        with pytest.raises(InvalidInputError, match=name):
            generate(kind, **params)


class TestSampledRoundTrip:
    """check_failure consumes draw_iid output directly."""

    @pytest.mark.parametrize("gen,kwargs", [
        (gen_lin_relu, {"k": 8}),
        (gen_lin_logistic, {"k": 8}),
        (gen_lin_sigmoid, {"k": 8}),
        (gen_quad_relu, {"k": 6.0, "eps": 1.0 / 6.0}),
        (gen_quad_hinge, {"k": 8.0, "eps": 0.2}),
        (gen_quad_logistic, {"k": 8.0, "eps": 0.05}),
        (gen_coupon_relu, {"d": 16, "k": 8.0}),
        (gen_moment_curve, {"N": 6, "d": 2}),
        (gen_quad_sigmoid, {"k": 20.0, "eps": 0.1}),
    ])
    def test_draw_and_check(self, gen, kwargs):
        hard = gen(**kwargs)
        samples = draw_iid(hard.instance, hard.score_kind, 40, seed=5,
                           convention=hard.convention)
        verdict = check_failure(hard, samples, 0.25)
        assert isinstance(verdict.failed, bool)
        if verdict.failed:
            assert verdict.witness_query is not None


# one small instance per kind of the table
PREDICATE_CASES = {
    "quad-logistic": {"k": 8.0, "eps": 0.05},
    "quad-sigmoid": {"k": 20.0, "eps": 0.1},
    "quad-hinge": {"k": 8.0, "eps": 0.25, "reg": L2},
    "quad-relu": {"k": 6.0, "eps": 1.0 / 6.0},
    "lin-relu": {"k": 4},
    "lin-logistic": {"k": 5, "reg": L2SQ},
    "lin-sigmoid": {"k": 4},
    "coupon-relu": {"d": 6, "k": 4.0},
    "moment-curve": {"N": 5, "d": 2},
}
PREDICATE_HARDS = {kind: generate(kind, **params) for kind, params in PREDICATE_CASES.items()}


def test_predicate_cases_cover_every_kind():
    assert sorted(PREDICATE_CASES) == sorted(KINDS)


@given(st.sampled_from(sorted(PREDICATE_CASES)), st.data(),
       st.sampled_from([0.05, 0.2, 0.5, 0.9]), st.sampled_from([1.0, 0.8, 1.25]))
@settings(max_examples=300, deadline=None)
def test_check_failure_agrees_with_batch_failed(kind, data, eps, scale):
    hard = PREDICATE_HARDS[kind]
    n = hard.instance.n
    idx = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=4 * n))
    # a common weight scale is consistent with an estimated score mass for
    # every kind (equal scores or the score-only convention) and moves the
    # mean weight, which the origin candidates test
    samples = sample_atoms(hard, idx)
    samples = replace(samples, w=scale * samples.w)
    verdict = check_failure(hard, samples, eps)
    counts = np.bincount(idx, minlength=n)
    assert verdict.failed == bool(batch_failed(hard, counts, [samples.w.mean()], len(idx), eps)[0])
    if verdict.failed:
        assert verdict.witness_query is not None
        assert verdict.witness_query.shape == (hard.instance.dim,)


# the basis constructions, whose instances build their atoms on demand
BASIS = [(gen_quad_logistic, (8.0, 0.05)), (gen_quad_sigmoid, (20.0, 0.1)),
         (gen_quad_hinge, (8.0, 0.2, L2)), (gen_quad_hinge, (8.0, 0.2, L2SQ)),
         (gen_quad_relu, (6.0, 0.2, L2)), (gen_coupon_relu, (16, 8.0))]


class TestAtomsOnDemand:
    """A basis construction's instance keeps its norms and builds its atoms on
    first access; everything read from it equals what the dense atoms give."""

    @staticmethod
    def dense_twin(hard):
        from regsamp.model import Instance

        return replace(hard, instance=Instance(np.array(hard.instance.atoms),
                                               hard.instance.masses))

    @pytest.mark.parametrize("gen,args", BASIS)
    def test_law_and_norms_are_the_dense_bits(self, gen, args):
        hard = gen(*args)
        twin = self.dense_twin(hard)
        for mine, dense in zip(hard.law, twin.law):  # q, w, s
            assert np.array_equal(mine, dense)
        assert np.array_equal(hard.instance.norms(), twin.instance.norms())
        for kind in ("norm", "sqnorm"):
            for mine, dense in zip(_law(hard.instance, kind, MIXTURE),
                                   _law(twin.instance, kind, MIXTURE)):
                assert np.array_equal(mine, dense)

    @pytest.mark.parametrize("gen,args", BASIS)
    def test_verdicts_are_the_dense_verdicts(self, gen, args):
        hard = gen(*args)
        twin = self.dense_twin(hard)
        eps = 0.2
        rng = np.random.default_rng(5)
        n = hard.instance.n
        for m in (n // 2, n, 4 * n):
            counts = rng.multinomial(m, hard.probabilities, size=40)
            mean_w = counts @ hard.law[1] / m
            assert np.array_equal(batch_failed(hard, counts, mean_w, m, eps),
                                  batch_failed(twin, counts, mean_w, m, eps))
            samples = draw_iid(hard.instance, hard.score_kind, m, seed=m,
                               convention=hard.convention)
            mine, dense = check_failure(hard, samples, eps), check_failure(twin, samples, eps)
            assert mine.failed == dense.failed
            assert (mine.witness_query is None) == (dense.witness_query is None)
            if mine.failed:
                assert np.array_equal(mine.witness_query, dense.witness_query)

    @pytest.mark.parametrize("gen,args", BASIS)
    def test_atoms_are_built_once_and_read_only(self, gen, args):
        inst = gen(*args).instance
        atoms = inst.atoms
        assert inst.atoms is atoms
        assert atoms.shape == (inst.n, inst.dim) and not atoms.flags.writeable

    @pytest.mark.parametrize("gen,args", BASIS)
    def test_check_failure_reads_no_atoms(self, gen, args):
        hard = gen(*args)
        _, w, s = hard.law
        idx = np.arange(hard.instance.n // 2)  # the other half is missed
        samples = Coreset(idx, np.zeros((idx.size, hard.instance.dim)), w[idx], s[idx])

        def build(lo, hi):
            raise AssertionError("check_failure built the atoms")

        hard.instance._build = build
        assert check_failure(hard, samples, 0.2).failed

    def test_atoms_past_the_budget_are_refused_before_building(self):
        from regsamp.errors import BudgetExceededError

        hard = gen_coupon_relu(6000, 16.0)  # 6000^2 cells, 275 MB dense
        inst = hard.instance
        assert np.array_equal(inst.norms(), np.ones(6000))
        assert np.array_equal(hard.law[2], np.full(6000, 2.0))  # the norm scores
        assert inst._atoms is None
        with pytest.raises(BudgetExceededError, match="256 MB budget"):
            inst.atoms

    def test_count_rows_past_count_cells_are_refused(self):
        from regsamp.errors import BudgetExceededError

        with pytest.raises(BudgetExceededError, match="count row"):
            generate("coupon-relu", d=2_000_001, k=16.0)
        with pytest.raises(BudgetExceededError, match="count row"):
            generate("quad-relu", k=1e5, eps=0.01)
