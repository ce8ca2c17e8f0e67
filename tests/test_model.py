import gc
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from regsamp import model
from regsamp.cli import main
from regsamp.errors import DataError, DegenerateInstanceError, InvalidInputError
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
from regsamp.objective import TAG_ORIGIN, QuerySet, load_queries, save_queries
from regsamp.sampler import Coreset, load_samples, save_samples


def jsonl(*lines):
    return "".join(line + "\n" for line in lines)


ATOM1, ATOM2 = '{"a": [1.0], "p": 0.5}', '{"a": [1.0, 2.0], "p": 0.5}'
HEADER1, HEADER2 = '{"dim": 1, "n": 2}', '{"dim": 2, "n": 2}'
SAMPLE = '{"atom_index": 0, "a": [1.0, 2.0], "w": 1.0, "s": 2.0}'
QUERY = '{"x": [1.0, 2.0], "tag": "grid"}'
LOADERS = {"instance": load_instance, "sample": load_samples,
           "queries": lambda path: load_queries(path, 2)}
# files of dimension 2 that load, for the CLI case
GOOD_FILES = {"instance": jsonl(HEADER2, ATOM2, '{"a": [-1.0, 0.5], "p": 0.5}'),
              "sample": jsonl(SAMPLE), "queries": jsonl(QUERY)}

# (format, file text, line, what "<path>: line <line>: " is followed by)
BAD_RECORDS = [
    pytest.param("instance", jsonl(HEADER1, ATOM1 + ', {"a": [2.0], "p": 0.5}', ATOM1), 2,
                 "malformed atom record", id="two-records-one-line"),
    # two lines that read as one list of two records once joined by a comma
    pytest.param("instance", jsonl(HEADER2, ATOM2 + ', {"a": [1.0', '2.0], "p": 0.5}'), 2,
                 "malformed atom record", id="record-across-lines"),
    pytest.param("instance", jsonl(HEADER1, ATOM1, '{"a": [2.0], "p": null}'), 3,
                 "malformed atom record", id="null-mass"),
    # json reads 1 followed by 400 zeros as an int that no float holds
    pytest.param("instance", jsonl(HEADER1, ATOM1, '{"a": [1' + "0" * 400 + '], "p": 0.5}'), 3,
                 "malformed atom record", id="int-past-float"),
    pytest.param("instance", jsonl(HEADER1, ATOM1, '{"a": [[2.0]], "p": 0.5}'), 3,
                 "malformed atom record", id="nested-atom"),
    pytest.param("instance", jsonl(HEADER2, ATOM2, '{"a": "12", "p": 0.5}'), 3,
                 "malformed atom record", id="string-atom"),
    pytest.param("instance", jsonl(HEADER2, ATOM2, '{"a": [1.0, null], "p": 0.5}'), 3,
                 "malformed atom record", id="null-atom-entry"),
    pytest.param("instance", jsonl(HEADER2, ATOM2, ATOM1), 3,
                 "atom has dimension 1, expected 2", id="short-atom"),
    pytest.param("instance", jsonl(HEADER2, "", ATOM2), 2,
                 "malformed atom record", id="blank-atom-line"),
    pytest.param("instance", jsonl('{"dim": true, "n": 1}', ATOM1), 1,
                 "malformed header", id="bool-dim"),
    pytest.param("instance", jsonl('{"dim": 1.9, "n": 1}', ATOM1), 1,
                 "malformed header", id="float-dim"),
    pytest.param("instance", jsonl('{"dim": 1, "n": "1"}', ATOM1), 1,
                 "malformed header", id="string-n"),
    pytest.param("instance", jsonl('{"dim": 0, "n": 1}', ATOM1), 1,
                 "dim and n must be positive, got 0 and 1", id="zero-dim"),
    pytest.param("instance", jsonl('{"dim": 1, "n": 0}'), 1,
                 "dim and n must be positive, got 1 and 0", id="zero-n"),
    pytest.param("sample", jsonl(SAMPLE, '{"atom_index": 1, "a": "12", "w": 1.0, "s": 2.0}'), 2,
                 "malformed sample record", id="string-sample"),
    pytest.param("sample", jsonl(SAMPLE, SAMPLE.replace("0", "1.9", 1)), 2,
                 "malformed sample record", id="float-atom-index"),
    pytest.param("sample", jsonl(SAMPLE, SAMPLE.replace("0", "true", 1)), 2,
                 "malformed sample record", id="bool-atom-index"),
    pytest.param("sample", jsonl(SAMPLE, SAMPLE.replace("0", '"3"', 1)), 2,
                 "malformed sample record", id="string-atom-index"),
    pytest.param("sample", jsonl(SAMPLE, SAMPLE.replace("0", str(2 ** 63), 1)), 2,
                 "malformed sample record", id="atom-index-past-int64"),
    pytest.param("sample", jsonl(SAMPLE, SAMPLE.replace('"w": 1.0', '"w": null')), 2,
                 "malformed sample record", id="null-weight"),
    pytest.param("sample", jsonl(SAMPLE, SAMPLE.replace("[1.0, 2.0]", "[NaN, 2.0]")), 2,
                 "malformed sample record", id="nan-sample-entry"),
    pytest.param("sample", jsonl(SAMPLE, SAMPLE.replace("[1.0, 2.0]", "[1.0]")), 2,
                 "sample has dimension 1, expected 2", id="ragged-sample"),
    pytest.param("sample", jsonl(SAMPLE, "", SAMPLE), 2,
                 "malformed sample record", id="blank-sample-line"),
    pytest.param("queries", jsonl(QUERY, '{"x": "1.5", "tag": "grid"}'), 2,
                 "malformed query record", id="string-query"),
    pytest.param("queries", jsonl(QUERY, '{"x": [1.0, 2.0], "tag": 7}'), 2,
                 "malformed query record", id="int-tag"),
    pytest.param("queries", jsonl(QUERY, '{"x": [1e999, 0.0]}'), 2,
                 "malformed query record", id="infinite-query-entry"),
    pytest.param("queries", jsonl(QUERY, '{"x": [1.0]}'), 2,
                 "query has dimension 1, expected 2", id="short-query"),
    pytest.param("queries", jsonl(QUERY, "", QUERY), 2,
                 "malformed query record", id="blank-query-line"),
    # "\udcff" is written as the byte 0xff, which no UTF-8 text holds
    pytest.param("instance", jsonl(HEADER1, ATOM1, '{"a": [2.0], "p": 0.5}\udcff'), 3,
                 "not UTF-8 text", id="byte-ff-instance"),
    pytest.param("sample", jsonl(SAMPLE, "\udcff" + SAMPLE), 2,
                 "not UTF-8 text", id="byte-ff-sample"),
    pytest.param("queries", jsonl(QUERY, '{"x": [1.0, 2.0], "tag": "\udcff"}'), 2,
                 "not UTF-8 text", id="byte-ff-query"),
]


def write(path, text):
    """text as UTF-8, with each lone surrogate U+DC80..U+DCFF as the byte 0x80..0xff."""
    path.write_bytes(text.encode("utf-8", "surrogateescape"))


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

    def test_norm_score_constants_of_huge_atoms_are_finite(self):
        # norms of 1.7e200, whose squares overflow
        consts = compute_constants(make_instance(np.full((2, 3), 1e200)), "norm",
                                   make_loss(LOGISTIC))
        assert consts.B == consts.D == pytest.approx(3 ** 0.5 * 1e200, rel=1e-15)
        assert consts.S == consts.D + 1.0

    def test_norm_constants_of_tiny_atoms_are_positive(self):
        # norms of 1.4e-200 and 3e-170, whose squares underflow
        consts = compute_constants(make_instance(np.array([[1e-200, 1e-200], [3e-170, 0.0]])),
                                   "norm", make_loss(LOGISTIC))
        assert consts.B > 0.0
        assert consts.D == pytest.approx(3e-170, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("score", ["sqnorm", "uniform-d2"])
    def test_squared_constants_past_float_range_are_a_typed_error(self, score):
        with pytest.raises(DegenerateInstanceError, match="score mass overflows"):
            compute_constants(make_instance(np.full((2, 3), 1e200)), score, make_loss(LOGISTIC))


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

    @pytest.mark.parametrize("fmt,text,line,what", BAD_RECORDS)
    def test_bad_record_names_its_line(self, tmp_path, fmt, text, line, what):
        # the three formats share one reader, so one table covers them all
        path = tmp_path / "bad.jsonl"
        write(path, text)
        with pytest.raises(DataError) as info:
            LOADERS[fmt](path)
        assert str(info.value) == f"{path}: line {line}: {what}"

    @pytest.mark.parametrize("fmt,text,line,what", BAD_RECORDS)
    def test_bad_record_is_one_cli_data_error(self, tmp_path, capsys, fmt, text, line, what):
        files = {name: tmp_path / f"{name}.jsonl" for name in LOADERS}
        for name, path in files.items():
            write(path, text if name == fmt else GOOD_FILES[name])
        capsys.readouterr()
        assert main(["eval", "--instance", str(files["instance"]),
                     "--sample", str(files["sample"]), "--queries", str(files["queries"]),
                     "--loss", "relu", "--reg", "l1", "--k", "4", "--eps", "0.5",
                     "--out", str(tmp_path / "report.json")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"data error: {files[fmt]}: line {line}: {what}\n"

    def test_blocks_of_records_load_the_same(self, tmp_path, monkeypatch):
        # blocks of 2 lines of 3 entries: lines are stripped, so a spaced line in
        # the second block loads, and a bad line in the third is named
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


# one record of each format, dimension 2, of which eight make a multi-block file
RECORDS = {"instance": '{"a": [1.0, 2.0], "p": 0.125}', "sample": SAMPLE, "queries": QUERY}


def eight_records(fmt: str, bad: bool) -> str:
    """Eight records of format fmt; with bad, the last one's vector is a string."""
    lines = [RECORDS[fmt]] * 8
    if bad:
        lines[-1] = lines[-1].replace("[1.0, 2.0]", '"12"')
    return jsonl(*(['{"dim": 2, "n": 8}'] if fmt == "instance" else []), *lines)


@pytest.fixture
def restore_gc():
    was_enabled = gc.isenabled()
    yield
    (gc.enable if was_enabled else gc.disable)()


class TestCollectorPause:
    """The reader pauses automatic garbage collection while it parses records."""

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    @pytest.mark.parametrize("bad", [False, True], ids=["loads", "refused"])
    @pytest.mark.parametrize("fmt", LOADERS)
    def test_loaders_leave_the_collector_as_found(self, tmp_path, monkeypatch, restore_gc,
                                                  fmt, bad, enabled):
        # blocks of 2 records, so a bad last record fails in a later block than the first
        monkeypatch.setattr(model, "RECORD_CELLS", 4)
        path = tmp_path / f"{fmt}.jsonl"
        write(path, eight_records(fmt, bad))
        (gc.enable if enabled else gc.disable)()
        if bad:
            with pytest.raises(DataError, match=r": line [89]: malformed \w+ record$"):
                LOADERS[fmt](path)
        else:
            LOADERS[fmt](path)
        assert gc.isenabled() is enabled

    def test_no_collection_starts_during_a_multi_block_parse(self, tmp_path, monkeypatch,
                                                             restore_gc):
        path = tmp_path / "inst.jsonl"
        save_instance(gaussian_instance(3000, 3, seed=5), path)
        # 3 blocks of 1000 records: a block's 2000 dicts and lists are alive at once,
        # past the 700 new objects that start a young collection
        monkeypatch.setattr(model, "RECORD_CELLS", 3000)
        lines = path.read_text().splitlines()
        events = []

        def on_gc(phase, info):
            events.append(phase)

        def parse_one(line, parse=model._object):
            events.append("record")
            return parse(line)

        gc.enable()
        gc.callbacks.append(on_gc)
        try:
            parsed = [json.loads(line) for line in lines]  # the same records, collection on
            unpaused = events.count("start")
            events.clear()
            monkeypatch.setattr(model, "_object", parse_one)
            load_instance(path)
        finally:
            gc.callbacks.remove(on_gc)
        assert len(parsed) == 3001 and unpaused > 0
        # the header and every record are parsed before any collection starts
        last = len(events) - events[::-1].index("record")
        assert events[:last].count("record") == 3001
        assert "start" not in events[:last]


FINITE = st.floats(allow_nan=False, allow_infinity=False)
ROUND_TRIP = settings(max_examples=60, deadline=None,
                      suppress_health_check=[HealthCheck.function_scoped_fixture])


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def saved_twice(save, load, obj, path):
    """The bytes save writes for obj, what load reads back, and the bytes that saves."""
    save(obj, path)
    text = path.read_bytes()
    back = load(path)
    save(back, path)
    return text, back, path.read_bytes()


class TestRoundTrips:
    """save -> load gives the same bits, and save -> load -> save the same bytes."""

    @ROUND_TRIP
    @given(st.data(), st.integers(1, 4), st.integers(1, 6))
    def test_instance(self, tmp_path, data, dim, n):
        atoms = data.draw(st.lists(FINITE, min_size=n * dim, max_size=n * dim))
        masses = data.draw(st.lists(st.floats(1e-3, 1e3), min_size=n, max_size=n))
        inst = make_instance(np.reshape(atoms, (n, dim)), masses)
        text, back, again = saved_twice(save_instance, load_instance, inst,
                                        tmp_path / "i.jsonl")
        assert same_bits(back.atoms, inst.atoms) and same_bits(back.masses, inst.masses)
        assert again == text

    @ROUND_TRIP
    @given(st.data(), st.integers(0, 4), st.integers(1, 6))
    def test_samples(self, tmp_path, data, dim, m):
        # a sample's dimension is its first record's, which may be 0
        def column(elements, size=m):
            return data.draw(st.lists(elements, min_size=size, max_size=size))

        samples = Coreset(column(st.integers(0, 2 ** 63 - 1)),
                          np.reshape(column(FINITE, m * dim), (m, dim)),
                          column(st.floats(0.0, exclude_min=True, allow_infinity=False)),
                          column(FINITE))
        text, back, again = saved_twice(save_samples, load_samples, samples,
                                        tmp_path / "s.jsonl")
        for name in ("idx", "a", "w", "s"):
            assert same_bits(getattr(back, name), getattr(samples, name))
        assert again == text

    @ROUND_TRIP
    @given(st.data(), st.integers(1, 4), st.integers(1, 5))
    def test_queries(self, tmp_path, data, dim, q):
        # zero rows are likely, so the implicit origin is sometimes added and sometimes not
        entries = st.sampled_from([0.0, -0.0]) | FINITE
        rows = data.draw(st.lists(entries, min_size=q * dim, max_size=q * dim))
        tags = data.draw(st.lists(st.text().filter(lambda t: t != TAG_ORIGIN),
                                  min_size=q, max_size=q))
        queries = QuerySet(np.reshape(rows, (q, dim)), tuple(tags))
        text, back, again = saved_twice(save_queries, lambda path: load_queries(path, dim),
                                        queries, tmp_path / "q.jsonl")
        assert same_bits(back.queries, queries.queries) and back.tags == queries.tags
        assert again == text

    def test_origin_alone_is_an_empty_file(self, tmp_path):
        origin = QuerySet(np.zeros((1, 3)), (TAG_ORIGIN,))
        text, back, again = saved_twice(save_queries, lambda path: load_queries(path, 3),
                                        origin, tmp_path / "q.jsonl")
        assert text == again == b""
        assert same_bits(back.queries, origin.queries) and back.tags == origin.tags
