import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import expit

from regsamp.losses import (
    HINGE,
    L1,
    L2,
    L2SQ,
    LOGISTIC,
    RELU,
    SIGMOID,
    check_bounded_derivative,
    decompose,
    eval_loss,
    eval_loss_derivative,
    eval_regularizer,
    make_loss,
    make_reg,
)

ALL_LOSSES = [LOGISTIC, SIGMOID, HINGE, RELU]


def central_difference(loss, r, h=1e-5):
    return (eval_loss(loss, r + h) - eval_loss(loss, r - h)) / (2 * h)


class TestValues:
    def test_logistic_at_zero(self):
        assert eval_loss(make_loss(LOGISTIC), 0.0) == pytest.approx(math.log(2), abs=1e-15)

    def test_logistic_shift_identity(self):
        # g(-r) - g(r) = r exactly
        loss = make_loss(LOGISTIC)
        assert abs(eval_loss(loss, -3.0) - eval_loss(loss, 3.0) - 3.0) <= 1e-12

    def test_direct_formulas(self):
        assert eval_loss(make_loss(SIGMOID), 0.0) == 0.5
        assert eval_loss(make_loss(HINGE), -1.0) == 2.0
        assert eval_loss(make_loss(RELU), -1.0) == 1.0

    def test_stability_at_large_arguments(self):
        loss = make_loss(LOGISTIC)
        assert eval_loss(loss, 1e3) == pytest.approx(0.0, abs=1e-300)
        assert eval_loss(loss, -1e3) == pytest.approx(1e3, rel=1e-12)


def margin_grid():
    """Signed linear and geometric margins, zeros, infinities and float-range ends."""
    mags = np.geomspace(1e-300, 1e3, 4000)
    lin = np.linspace(-800.0, 800.0, 16001)
    ends = np.array([0.0, -0.0, np.inf, -np.inf, 1e308, -1e308])
    return np.concatenate([lin, mags, -mags, ends])


class TestFormulas:
    def test_logistic_within_two_ulps_of_logaddexp(self):
        r = margin_grid()
        got = eval_loss(make_loss(LOGISTIC), r)
        ref = np.logaddexp(0.0, -r)
        exact = (ref == 0.0) | np.isinf(ref) | (r == 0.0)
        assert np.array_equal(got[exact], ref[exact])
        got, ref = got[~exact], ref[~exact]
        assert np.all(np.abs(got - ref) <= 2 * np.spacing(ref))

    @pytest.mark.parametrize("kind,ref", [
        (RELU, lambda r: np.maximum(0.0, -r)),
        (HINGE, lambda r: np.maximum(0.0, 1.0 - r)),
        (SIGMOID, lambda r: expit(-r))],
        ids=[RELU, HINGE, SIGMOID])
    def test_piecewise_and_sigmoid_keep_every_bit(self, kind, ref):
        r = margin_grid()
        assert eval_loss(make_loss(kind), r).tobytes() == ref(r).tobytes()

    def test_logistic_decomposition_sums_bit_for_bit(self):
        loss = make_loss(LOGISTIC)
        h, b = decompose(loss)
        r = margin_grid()
        assert np.array_equal(np.asarray(h(r)) + np.asarray(b(r)), eval_loss(loss, r))

    @pytest.mark.parametrize("kind", ALL_LOSSES)
    def test_scalar_in_float_out_and_input_untouched(self, kind):
        loss = make_loss(kind)
        assert type(eval_loss(loss, 0.5)) is float
        assert type(eval_loss(loss, np.float64(-2.0))) is float
        r = margin_grid()
        before = r.copy()
        eval_loss(loss, r)
        assert r.tobytes() == before.tobytes()

    @pytest.mark.parametrize("kind", ALL_LOSSES)
    def test_peak_memory_is_the_result_and_one_temporary(self, kind):
        loss = make_loss(kind)
        n = 200_000
        r = np.random.default_rng(3).uniform(-50.0, 50.0, n)
        eval_loss(loss, r[:10])  # warm up outside the measurement
        tracemalloc.start()
        try:
            eval_loss(loss, r)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2 * n * 8 + 64 * 1024


class TestDerivatives:
    def test_logistic_at_zero(self):
        assert eval_loss_derivative(make_loss(LOGISTIC), 0.0) == pytest.approx(-0.5)

    def test_sigmoid_at_zero(self):
        assert eval_loss_derivative(make_loss(SIGMOID), 0.0) == pytest.approx(-0.25)

    def test_relu_flat_region(self):
        assert eval_loss_derivative(make_loss(RELU), 3.0) == 0.0

    def test_left_derivative_at_kinks(self):
        assert eval_loss_derivative(make_loss(HINGE), 1.0) == -1.0
        assert eval_loss_derivative(make_loss(RELU), 0.0) == -1.0

    @pytest.mark.parametrize("kind", ALL_LOSSES)
    def test_matches_central_differences(self, kind):
        loss = make_loss(kind)
        kinks = {HINGE: 1.0, RELU: 0.0}.get(kind)
        rng = np.random.default_rng(4)
        for r in rng.uniform(-20, 20, size=400):
            if kinks is not None and abs(r - kinks) <= 1e-4:
                continue
            assert eval_loss_derivative(loss, r) == pytest.approx(
                central_difference(loss, r), abs=1e-5)


class TestBoundedDerivative:
    GRID = np.arange(-50.0, 50.0 + 1e-9, 0.01)

    @pytest.mark.parametrize("kind", ALL_LOSSES)
    def test_agrees_with_analytic_flag(self, kind):
        loss = make_loss(kind)
        assert check_bounded_derivative(loss, self.GRID) == loss.bounded_derivative

    def test_relu_witness(self):
        loss = make_loss(RELU)
        assert eval_loss(loss, -0.5) == 0.5
        assert abs(eval_loss_derivative(loss, -0.5)) == 1.0

    def test_hinge_witness(self):
        loss = make_loss(HINGE)
        assert eval_loss(loss, 0.5) == 0.5
        assert abs(eval_loss_derivative(loss, 0.5)) == 1.0


class TestDecompose:
    def test_relu_is_already_homogeneous(self):
        h, b = decompose(make_loss(RELU))
        r = np.linspace(-5, 5, 101)
        assert np.allclose(np.asarray(h(r)), eval_loss(make_loss(RELU), r))
        assert np.all(np.asarray(b(r)) == 0.0)

    def test_sigmoid_is_all_bounded(self):
        h, b = decompose(make_loss(SIGMOID))
        r = np.linspace(-5, 5, 101)
        assert np.all(np.asarray(h(r)) == 0.0)
        assert np.allclose(np.asarray(b(r)), eval_loss(make_loss(SIGMOID), r))

    def test_logistic_at_zero(self):
        h, b = decompose(make_loss(LOGISTIC))
        assert h(0.0) == 0.0
        assert b(0.0) == pytest.approx(math.log(2), abs=1e-15)

    @pytest.mark.parametrize("kind", ALL_LOSSES)
    def test_sum_and_range(self, kind):
        loss = make_loss(kind)
        h, b = decompose(loss)
        r = np.linspace(-40, 40, 4001)
        total = np.asarray(h(r)) + np.asarray(b(r))
        assert np.max(np.abs(total - np.asarray(eval_loss(loss, r)))) <= 1e-12
        bv = np.asarray(b(r))
        assert np.all(bv >= -1e-15)
        # sigmoid's bounded part is the whole loss, capped by 1 = 2 g(0);
        # no homogeneous h can pull it under g(0)
        cap = 1.0 if kind == SIGMOID else loss.g0
        assert np.all(bv <= cap + 1e-12)

    @pytest.mark.parametrize("kind", ALL_LOSSES)
    @pytest.mark.parametrize("lam", [0.0, 0.5, 1.0, 2.0, 10.0])
    def test_h_homogeneous(self, kind, lam):
        h, _ = decompose(make_loss(kind))
        r = np.linspace(-30, 30, 601)
        lhs = np.asarray(h(lam * r))
        rhs = lam * np.asarray(h(r))
        assert np.max(np.abs(lhs - rhs) / np.maximum(1.0, np.abs(rhs))) <= 1e-9


class TestLipschitz:
    @pytest.mark.parametrize("kind", ALL_LOSSES)
    def test_pairwise_bound(self, kind):
        loss = make_loss(kind)
        rng = np.random.default_rng(11)
        r1 = rng.uniform(-100, 100, size=10_000)
        r2 = rng.uniform(-100, 100, size=10_000)
        lhs = np.abs(np.asarray(eval_loss(loss, r1)) - np.asarray(eval_loss(loss, r2)))
        rhs = loss.lipschitz_tight * np.abs(r1 - r2) * (1 + 1e-9)
        assert np.all(lhs <= rhs + 1e-15)

    def test_formula_constant_is_clamped(self):
        assert make_loss(SIGMOID).lipschitz_tight == 0.25
        assert make_loss(SIGMOID).lipschitz_formula == 1.0
        for kind in (LOGISTIC, HINGE, RELU):
            assert make_loss(kind).lipschitz_formula == 1.0


class TestRegularizers:
    def test_simple_values(self):
        assert eval_regularizer(make_reg(L2SQ), [1.0, 1.0]) == 2.0
        assert eval_regularizer(make_reg(L1), [1.0, -2.0]) == 3.0

    def test_hinge_construction_vector(self):
        # x = e_d - sum_{i <= (d-1)/2} e_i / sqrt((d-1)/2) has squared norm 2
        d = 5
        x = np.zeros(d)
        x[-1] = 1.0
        x[:2] = -1.0 / math.sqrt(2)
        assert eval_regularizer(make_reg(L2SQ), x) == pytest.approx(2.0, abs=1e-12)

    def test_norm_comparison(self):
        rng = np.random.default_rng(5)
        xs = rng.standard_normal((10_000, 6))
        l1 = np.abs(xs).sum(axis=1)
        l2 = np.linalg.norm(xs, axis=1)
        assert np.all(l1 >= l2 - 1e-12)

    def test_homogeneity_degrees(self):
        assert make_reg(L1).homogeneity_degree == 1
        assert make_reg(L2).homogeneity_degree == 1
        assert make_reg(L2SQ).homogeneity_degree == 2


@given(st.floats(-200, 200), st.floats(-200, 200))
@settings(max_examples=300, deadline=None)
def test_losses_nonnegative_and_nonincreasing(r1, r2):
    lo, hi = min(r1, r2), max(r1, r2)
    for kind in ALL_LOSSES:
        loss = make_loss(kind)
        assert eval_loss(loss, lo) >= eval_loss(loss, hi) - 1e-12
        assert eval_loss(loss, r1) >= 0.0


@given(st.floats(-500, 500))
@settings(max_examples=300, deadline=None)
def test_bounded_part_stays_in_range(r):
    for kind in ALL_LOSSES:
        loss = make_loss(kind)
        _, b = decompose(loss)
        val = b(r)
        cap = 1.0 if kind == SIGMOID else loss.g0
        assert -1e-15 <= val <= cap + 1e-12
