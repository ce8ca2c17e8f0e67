import numpy as np
import pytest

from regsamp.errors import (
    DataError,
    DegenerateInstanceError,
    InvalidInputError,
    UnsupportedNormalizationError,
)
from regsamp.losses import L1, L2SQ, LOGISTIC, make_loss, make_reg
from regsamp.model import (
    Instance,
    ObjectiveSpec,
    compute_constants,
    fold_label,
    gaussian_instance,
    load_instance,
    make_instance,
    normalize_instance,
    save_instance,
)


class TestFoldLabel:
    def test_positive_label_is_identity(self):
        assert np.array_equal(fold_label([1.0, 2.0], +1), [1.0, 2.0])

    def test_negative_label_flips(self):
        assert np.array_equal(fold_label([1.0, 2.0], -1), [-1.0, -2.0])

    def test_zero_vector(self):
        assert np.array_equal(fold_label([0.0, 0.0], -1), [0.0, 0.0])

    def test_nonfinite_rejected(self):
        with pytest.raises(InvalidInputError):
            fold_label([1.0, np.inf], +1)
        with pytest.raises(InvalidInputError):
            fold_label([1.0, 2.0], 0)


class TestInstanceInvariants:
    def test_masses_must_be_positive(self):
        with pytest.raises(InvalidInputError):
            Instance(np.eye(2), np.array([1.0, 0.0]))

    def test_masses_must_sum_to_one(self):
        with pytest.raises(InvalidInputError):
            Instance(np.eye(2), np.array([0.6, 0.6]))

    def test_make_instance_renormalizes(self):
        inst = make_instance(np.eye(3), np.array([1.0, 2.0, 3.0]))
        assert abs(inst.masses.sum() - 1.0) <= 1e-12

    def test_nonfinite_atoms_rejected(self):
        with pytest.raises(InvalidInputError):
            make_instance(np.array([[np.nan, 0.0]]))

    def test_norms_do_not_overflow(self):
        inst = make_instance(np.array([[1e200, 1e200, 1e200], [1.0, 1.0, 1.0]]))
        assert inst.norms() == pytest.approx([3 ** 0.5 * 1e200, 3 ** 0.5], rel=1e-15)

    def test_norms_keep_every_bit_of_ordinary_atoms(self):
        atoms = np.random.default_rng(3).standard_normal((50, 7)) * 30.0
        assert np.array_equal(make_instance(atoms).norms(), np.linalg.norm(atoms, axis=1))


class TestComputeConstants:
    def test_uniform_unit_vectors(self):
        inst = make_instance(np.eye(4))
        consts = compute_constants(inst, "norm", make_loss(LOGISTIC))
        assert consts.B == pytest.approx(1.0, abs=1e-12)
        assert consts.S == pytest.approx(2.0, abs=1e-12)
        assert consts.D == pytest.approx(1.0, abs=1e-12)
        assert consts.L == 1.0
        assert consts.g0 == pytest.approx(np.log(2.0))

    def test_single_zero_atom(self):
        inst = make_instance(np.zeros((1, 3)))
        consts = compute_constants(inst, "norm", make_loss(LOGISTIC))
        assert consts.B == 0.0
        assert consts.S == 1.0

    def test_squared_norm_score(self):
        inst = make_instance(np.array([[1.0, 0.0], [3.0, 0.0]]))
        consts = compute_constants(inst, "sqnorm", make_loss(LOGISTIC))
        assert consts.B == pytest.approx(5.0, abs=1e-12)
        assert consts.S == pytest.approx(7.0, abs=1e-12)

    def test_b_le_s_and_norm_score_gap(self):
        inst = gaussian_instance(40, 3, seed=2)
        consts = compute_constants(inst, "norm", make_loss(LOGISTIC))
        assert consts.B <= consts.S
        assert consts.S == pytest.approx(consts.B + 1.0, abs=1e-12)

    def test_permutation_invariance(self):
        inst = gaussian_instance(60, 4, seed=3, uniform_masses=False)
        perm = np.random.default_rng(0).permutation(60)
        shuffled = make_instance(inst.atoms[perm], inst.masses[perm])
        c1 = compute_constants(inst, "norm", make_loss(LOGISTIC))
        c2 = compute_constants(shuffled, "norm", make_loss(LOGISTIC))
        assert c1.B == pytest.approx(c2.B, abs=1e-12)
        assert c1.S == pytest.approx(c2.S, abs=1e-12)
        assert c1.D == c2.D


class TestNormalize:
    def test_already_normalized(self):
        inst = make_instance(np.eye(4))
        spec = ObjectiveSpec(make_loss(LOGISTIC), make_reg(L1), 10.0)
        scaled, new_spec = normalize_instance(inst, spec)
        assert new_spec.k == pytest.approx(10.0)
        assert np.allclose(scaled.atoms, inst.atoms)

    def test_halves_atoms_and_doubles_k(self):
        inst = make_instance(2.0 * np.eye(4))
        spec = ObjectiveSpec(make_loss(LOGISTIC), make_reg(L1), 10.0)
        scaled, new_spec = normalize_instance(inst, spec)
        assert np.allclose(scaled.atoms, np.eye(4))
        assert new_spec.k == pytest.approx(20.0)

    def test_post_constants_are_unit(self):
        inst = gaussian_instance(30, 3, seed=9, scale=4.0)
        spec = ObjectiveSpec(make_loss(LOGISTIC), make_reg(L1), 5.0)
        scaled, _ = normalize_instance(inst, spec)
        consts = compute_constants(scaled, "norm", spec.loss)
        assert consts.B == pytest.approx(1.0, abs=1e-12)
        assert consts.L == 1.0

    def test_l2sq_unsupported(self):
        inst = make_instance(2.0 * np.eye(4))
        spec = ObjectiveSpec(make_loss(LOGISTIC), make_reg(L2SQ), 10.0)
        with pytest.raises(UnsupportedNormalizationError):
            normalize_instance(inst, spec)

    def test_degenerate_instance(self):
        inst = make_instance(np.zeros((2, 3)))
        spec = ObjectiveSpec(make_loss(LOGISTIC), make_reg(L1), 10.0)
        with pytest.raises(DegenerateInstanceError):
            normalize_instance(inst, spec)


class TestObjectiveSpec:
    def test_k_must_be_at_least_one(self):
        with pytest.raises(InvalidInputError):
            ObjectiveSpec(make_loss(LOGISTIC), make_reg(L1), 0.5)


class TestInstanceIO:
    def test_round_trip(self, tmp_path):
        inst = gaussian_instance(17, 5, seed=21, uniform_masses=False)
        path = tmp_path / "inst.jsonl"
        save_instance(inst, path)
        back = load_instance(path)
        assert np.array_equal(back.atoms, inst.atoms)
        assert np.array_equal(back.masses, inst.masses)

    def test_malformed_line_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"dim": 2, "n": 2}\n{"a": [1.0, 2.0], "p": 0.5}\nnot json\n')
        with pytest.raises(DataError, match="line 3"):
            load_instance(path)

    def test_dimension_mismatch_reported(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"dim": 2, "n": 1}\n{"a": [1.0], "p": 1.0}\n')
        with pytest.raises(DataError, match="line 2"):
            load_instance(path)

    def test_invalid_masses_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"dim": 1, "n": 2}\n{"a": [1.0], "p": 0.9}\n{"a": [2.0], "p": 0.9}\n')
        with pytest.raises(DataError):
            load_instance(path)

    def test_header_count_mismatch(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"dim": 1, "n": 3}\n{"a": [1.0], "p": 1.0}\n')
        with pytest.raises(DataError):
            load_instance(path)
