import numpy as np
import pytest

from regsamp import model
from regsamp.errors import DataError, InvalidInputError
from regsamp.losses import L1, LOGISTIC, make_loss, make_reg
from regsamp.model import (
    Instance,
    ObjectiveSpec,
    compute_constants,
    gaussian_instance,
    load_instance,
    make_instance,
    save_instance,
)


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

    @pytest.mark.parametrize("dim,body,line,what", [
        (1, '{"a": [1.0], "p": 0.5}, {"a": [2.0], "p": 0.5}\n{"a": [3.0], "p": 0.5}\n',
         2, "malformed atom record"),
        # two lines that read as one list of two records once joined by a comma
        (2, '{"a": [1.0, 2.0], "p": 0.5}, {"a": [1.0\n2.0], "p": 0.5}\n', 2,
         "malformed atom record"),
        (1, '{"a": [1.0], "p": 0.5}\n{"a": [2.0], "p": null}\n', 3, "malformed atom record"),
        (1, '{"a": [1.0], "p": 0.5}\n{"a": [1' + "0" * 400 + '], "p": 0.5}\n', 3,
         "malformed atom record"),
        (1, '{"a": [1.0], "p": 0.5}\n{"a": [[2.0]], "p": 0.5}\n', 3,
         "atom has dimension 1, expected 1"),
    ], ids=["two-records-one-line", "record-across-lines", "null-mass", "int-past-float",
            "nested-atom"])
    def test_bad_record_names_its_line(self, tmp_path, dim, body, line, what):
        path = tmp_path / "bad.jsonl"
        path.write_text(f'{{"dim": {dim}, "n": 2}}\n' + body)
        with pytest.raises(DataError) as info:
            load_instance(path)
        assert str(info.value) == f"{path}: line {line}: {what}"

    def test_blocks_of_records_load_the_same(self, tmp_path, monkeypatch):
        # blocks of 2 lines of 3 entries: a spaced line falls to the line-by-line
        # read in the second block, and a bad line in the third is named
        inst = gaussian_instance(7, 3, seed=5, uniform_masses=False)
        path = tmp_path / "inst.jsonl"
        save_instance(inst, path)
        monkeypatch.setattr(model, "RECORD_CELLS", 6)
        lines = path.read_text().splitlines()
        lines[3] = " " + lines[3]
        path.write_text("\n".join(lines) + "\n")
        back = load_instance(path)
        assert np.array_equal(back.atoms, inst.atoms)
        assert np.array_equal(back.masses, inst.masses)
        lines[6] = lines[6].replace('"p"', '"q"')
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=r": line 7: malformed atom record$"):
            load_instance(path)

    def test_header_count_mismatch(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"dim": 1, "n": 3}\n{"a": [1.0], "p": 1.0}\n')
        with pytest.raises(DataError):
            load_instance(path)
