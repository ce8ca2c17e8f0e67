"""Every CLI flag and bench config key is checked against one table of domains.

The fuzz test drives `cli.main` in-process over gen, sample, eval, opt and
bench with flag and config values drawn from a table of extremes, and with
input files of random bytes or damaged JSONL records: every run exits with
a code in 0-3, raises nothing, warns nothing and, when it exits non-zero,
prints exactly one stderr line.
"""

import argparse
import contextlib
import copy
import io
import json
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from regsamp import cli
from regsamp.hardness import HARD_KINDS, kind_params
from regsamp.model import gaussian_instance, save_instance

EXTREME_FLAGS = ["nan", "inf", "-inf", "0", "-1", str(2 ** 63), "1e308", ""]
EXTREME_VALUES = [float("nan"), float("inf"), float("-inf"), 0, -1, 2 ** 63, 1e308, "", [], {}]
extreme_values = st.sampled_from(EXTREME_VALUES).map(copy.deepcopy)  # no list or dict shared

FAILURE_RATE = {"mode": "failure-rate", "kind": "coupon-relu", "params": {"d": 8, "k": 4},
                "eps": 0.25, "delta": 0.2, "trials": 5, "m_list": [4, 8], "m_cap": 64,
                "master_seed": 0, "query_policy": "adversarial-only"}
SCALING = {"mode": "scaling", "kind": "lin-relu", "k_list": [4, 8, 16], "eps": 0.3,
           "delta": 0.25, "trials": 20, "m_cap": 4096, "master_seed": 0, "reg": "l1"}


def run(argv):
    """(exit code, stdout, stderr) of one in-process `cli.main` call, which must not warn."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main([str(arg) for arg in argv])
    assert not caught, [str(w.message) for w in caught]
    return code, out.getvalue(), err.getvalue()


def assert_one_line_refusal(code, err, expected_code=None):
    assert code in (1, 2, 3) if expected_code is None else code == expected_code, (code, err)
    assert "Traceback" not in err
    assert err.endswith("\n") and err.count("\n") == 1, err


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A lin-relu instance with its queries, a sample of it, and both bench configs."""
    root = tmp_path_factory.mktemp("inputs")
    assert run(["gen", "--kind", "lin-relu", "--k", "4", "--out", root / "g"])[0] == 0
    assert run(["sample", "--instance", root / "g" / "instance.jsonl", "--m", "20",
                "--out", root / "s" / "samples.jsonl"])[0] == 0
    for name, cfg in (("fr", FAILURE_RATE), ("sc", SCALING)):
        (root / f"{name}.json").write_text(json.dumps(cfg))
    return {"instance": root / "g" / "instance.jsonl", "queries": root / "g" / "queries.jsonl",
            "sample": root / "s" / "samples.jsonl", "fr": root / "fr.json",
            "sc": root / "sc.json"}


def _invocation(data, inputs, work: Path):
    """An argv for one subcommand: its flags, some set to extremes, and its input files."""
    command = data.draw(st.sampled_from(["gen", "sample", "eval", "opt", "bench"]))
    files = {}
    if command == "gen":
        kind = data.draw(st.sampled_from(["lin-relu", "quad-hinge", "coupon-relu"]))
        taken = {name.lower() for name in kind_params(kind)}
        flags = {f"--{name}": val for name, val in (("k", "4"), ("eps", "0.25"), ("d", "8"),
                                                    ("n", "6")) if name in taken}
        flags.update({"--kind": kind, "--out": work / "out"})
        numeric = ["--k", "--eps", "--d", "--n"]
    elif command == "sample":
        score = data.draw(st.sampled_from(["norm", "sqnorm", "uniform"]))
        flags = {"--score": score, "--m": "20", "--seed": "0", "--out": work / "s.jsonl"}
        numeric, files = ["--m", "--seed"], {"--instance": inputs["instance"]}
    elif command in ("eval", "opt"):
        flags = {"--loss": data.draw(st.sampled_from(["logistic", "sigmoid", "hinge", "relu"])),
                 "--reg": data.draw(st.sampled_from(["l1", "l2", "l2sq"])), "--k": "4",
                 "--out": work / "r.json"}
        files = {"--instance": inputs["instance"]}
        if command == "eval":
            flags["--eps"] = "0.25"
            numeric = ["--k", "--eps"]
            files.update({"--sample": inputs["sample"], "--queries": inputs["queries"]})
        else:
            flags.update({"--restarts": "2", "--seed": "0"})
            numeric = ["--k", "--restarts", "--seed"]
    else:
        cfg = json.loads(inputs[data.draw(st.sampled_from(["fr", "sc"]))].read_text())
        for key in data.draw(st.lists(st.sampled_from(sorted(cfg)), unique=True, max_size=3)):
            cfg[key] = data.draw(extreme_values)
        if isinstance(cfg.get("params"), dict):
            for key in data.draw(st.lists(st.sampled_from(["d", "k"]), unique=True)):
                cfg["params"][key] = data.draw(extreme_values)
        (work / "cfg.json").write_text(json.dumps(cfg))
        flags, numeric = {"--out": work / "b"}, []
        files = {"--config": work / "cfg.json"}
    for flag in data.draw(st.lists(st.sampled_from(numeric), unique=True, max_size=2)) \
            if numeric else []:
        flags[flag] = data.draw(st.sampled_from(EXTREME_FLAGS))
    if files and data.draw(st.booleans()):
        flag = data.draw(st.sampled_from(sorted(files)))
        good = Path(files[flag]).read_bytes()
        if data.draw(st.booleans()):
            bad = data.draw(st.binary(max_size=64))
        else:  # a splice of random bytes over part of the file: damaged records
            start = data.draw(st.integers(0, len(good)))
            end = data.draw(st.integers(start, len(good)))
            bad = good[:start] + data.draw(st.binary(max_size=8)) + good[end:]
        files[flag] = work / f"damaged{Path(files[flag]).suffix}"
        files[flag].write_bytes(bad)
    return [command] + [str(v) for pair in {**files, **flags}.items() for v in pair]


@settings(max_examples=250, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_extreme_flags_and_damaged_inputs_exit_typed(inputs, data):
    with tempfile.TemporaryDirectory() as tmp:
        argv = _invocation(data, inputs, Path(tmp))
        code, _, err = run(argv)
    event(f"{argv[0]} exits {code}")
    if code:
        assert_one_line_refusal(code, err)
    else:
        assert "Traceback" not in err


def _non_number(value, how):
    """value as the JSON string or bool that float() and numpy would read as a number."""
    return str(value) if how == "string" else True


@pytest.mark.parametrize("how", ["string", "bool"])
@pytest.mark.parametrize("fmt,key,what", [
    ("instance", "a", "atom"), ("instance", "p", "atom"), ("sample", "a", "sample"),
    ("sample", "w", "sample"), ("sample", "s", "sample"), ("queries", "x", "query")])
def test_json_strings_and_bools_are_not_numbers(tmp_path, inputs, fmt, key, what, how):
    # every vector entry and float field of the three formats is a JSON number
    lines = inputs[fmt].read_text().splitlines()
    rec = json.loads(lines[1])
    if isinstance(rec[key], list):
        rec[key][0] = _non_number(rec[key][0], how)
    else:
        rec[key] = _non_number(rec[key], how)
    lines[1] = json.dumps(rec)
    files = {name: inputs[name] for name in ("instance", "sample", "queries")}
    files[fmt] = tmp_path / f"{fmt}.jsonl"
    files[fmt].write_text("\n".join(lines) + "\n")
    code, out, err = run(["eval", "--instance", files["instance"], "--sample", files["sample"],
                          "--queries", files["queries"], "--loss", "relu", "--reg", "l1",
                          "--k", "4", "--eps", "0.25", "--out", tmp_path / "r.json"])
    assert (code, out, err) == (2, "", f"data error: {files[fmt]}: line 2: malformed {what} record\n")


def test_opt_refuses_an_atom_of_strings_and_bools(tmp_path):
    path = tmp_path / "instance.jsonl"
    path.write_text('{"dim": 2, "n": 2}\n{"a": ["1.5", true], "p": "0.5"}\n'
                    '{"a": [1.0, 2.0], "p": 0.5}\n')
    code, out, err = run(["opt", "--instance", path, "--loss", "relu", "--reg", "l1",
                          "--k", "4"])
    assert (code, out, err) == (2, "", f"data error: {path}: line 2: malformed atom record\n")


def _bench_config(tmp_path, name="cfg.json", **changes):
    path = tmp_path / name
    path.write_text(json.dumps({**SCALING, **changes}))
    return path


@pytest.mark.parametrize("argv", [
    ["gen", "--kind", "lin-relu", "--k", "4", "--out", "{out}", "--seed", "0"],
    ["eval", "--instance", "{instance}", "--sample", "{sample}", "--queries", "{queries}",
     "--loss", "relu", "--reg", "l1", "--k", "4", "--eps", "0.25", "--seed", "0"],
    ["verify", "--quick", "--seed", "0"],
    ["verify", "--quick", "--out", "{out}"],
    ["bench", "--config", "{config}", "--out", "{out}", "--seed", "3"],
    ["bench", "--config", "{config_out}", "--out", "{out}"],
], ids=["gen-seed", "eval-seed", "verify-seed", "verify-out", "bench-seed", "bench-out-key"])
def test_deleted_inputs_are_usage_errors(tmp_path, inputs, argv):
    names = {**{key: str(val) for key, val in inputs.items()}, "out": str(tmp_path / "o"),
             "config": str(_bench_config(tmp_path)),
             "config_out": str(_bench_config(tmp_path, "out.json", out=str(tmp_path / "o")))}
    code, out, err = run([arg.format(**names) for arg in argv])
    assert_one_line_refusal(code, err, expected_code=1)
    assert err.startswith("error: ") and out == ""
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("flags,message", [
    # a norm bound changed no draw of any score, and the flag is gone
    (["--score", "sqnorm", "--norm-bound", "3"], "unrecognized arguments: --norm-bound 3"),
    (["--norm-bound", "0"], "unrecognized arguments: --norm-bound 0"),
    (["--m", "0"], "--m must not exceed 2^63 - 1 nor fall below 1, got 0"),
    (["--m", str(2 ** 63)], f"--m must not exceed 2^63 - 1 nor fall below 1, got {2 ** 63}"),
    (["--m", "abc"], "argument --m: invalid int value: 'abc'"),
], ids=["bound-with-sqnorm", "bound-with-norm", "m-zero", "m-past-int64", "m-not-int"])
def test_sample_refusals(tmp_path, inputs, flags, message):
    argv = ["sample", "--instance", inputs["instance"], "--m", "5", *flags,
            "--out", tmp_path / "s" / "x.jsonl"]
    code, out, err = run(argv)
    assert (code, out, err) == (1, "", f"error: {message}\n")
    assert not (tmp_path / "s").exists()


@pytest.mark.parametrize("convention", ["mixture", "score-only"])
def test_uniform_score_records_unit_scores_and_weights(tmp_path, convention):
    # a constant score makes the law the masses: every s is 1 and every w is 1
    # up to the rounding of the masses' sum, here 5000 unequal masses
    instance, out = tmp_path / "i.jsonl", tmp_path / "s.jsonl"
    save_instance(gaussian_instance(5000, 3, seed=4, uniform_masses=False), instance)
    code, _, err = run(["sample", "--instance", instance, "--m", "400", "--score", "uniform",
                        "--convention", convention, "--out", out])
    assert (code, err) == (0, "")
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(records) == 400 and {rec["s"] for rec in records} == {1.0}
    assert max(abs(rec["w"] - 1.0) for rec in records) <= 1e-12


@pytest.mark.parametrize("score,convention", [("uniform", "score-only"), ("sqnorm", "mixture"),
                                              ("norm", None)])
def test_sample_manifest_regenerates_the_sample(tmp_path, inputs, score, convention):
    first = tmp_path / "a" / "s.jsonl"
    flags = [] if convention is None else ["--convention", convention]
    assert run(["sample", "--instance", inputs["instance"], "--m", "7", "--seed", "3",
                "--score", score, *flags, "--out", first])[0] == 0
    config = json.loads((first.parent / "manifest.json").read_text())["config"]
    assert sorted(config) == ["convention", "instance", "m", "out", "score", "seed"]
    again = tmp_path / "b" / "s.jsonl"
    argv = ["sample", "--instance", config["instance"], "--m", config["m"],
            "--seed", config["seed"], "--score", config["score"],
            "--convention", config["convention"], "--out", again]
    assert run(argv)[0] == 0
    assert again.read_bytes() == first.read_bytes()


@pytest.mark.parametrize("loss", ["hinge", "sigmoid", "relu"])
def test_opt_refuses_a_negative_seed_for_every_loss(inputs, loss):
    code, out, err = run(["opt", "--instance", inputs["instance"], "--loss", loss,
                          "--reg", "l2", "--k", "4", "--seed", "-1"])
    assert (code, out, err) == (1, "", "error: a seed must be a non-negative integer, got -1\n")


@pytest.mark.parametrize("changes,message", [
    ({"m_cap": 0}, "'m_cap' must not exceed 2^63 - 1 nor fall below 1, got 0"),
    ({"k_list": [0.5, 4, 8]}, "'k_list' must hold reals >= 1, got [0.5, 4.0, 8.0]"),
    ({"delta": 1}, "'delta' must lie in (0, 1), got 1.0"),
], ids=["m_cap-zero", "k_list-below-one", "delta-one"])
def test_bench_key_refusals(tmp_path, changes, message):
    code, out, err = run(["bench", "--config", _bench_config(tmp_path, **changes),
                          "--out", tmp_path / "o"])
    assert (code, out, err) == (1, "", f"error: {message}\n")
    assert not (tmp_path / "o").exists()


def test_empty_m_list_is_a_usage_error(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**FAILURE_RATE, "m_list": []}))
    code, out, err = run(["bench", "--config", path, "--out", tmp_path / "o"])
    assert (code, out) == (1, "")
    assert err == ("error: 'm_list' must not exceed 2^63 - 1 nor fall below 1, nor be empty, "
                   "got []\n")
    assert not (tmp_path / "o").exists()


def test_non_utf8_bench_config_is_one_data_error(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_bytes(b"\xff")
    code, out, err = run(["bench", "--config", path, "--out", tmp_path / "o"])
    assert_one_line_refusal(code, err, expected_code=2)
    assert err.startswith(f"data error: {path}: 'utf-8' codec can't decode byte 0xff")


@pytest.mark.parametrize("which", ["config", "instance", "queries"])
def test_json_nested_past_the_recursion_limit_is_one_data_error(tmp_path, inputs, which):
    deep = {"config": "[" * 100000, "instance": '{"dim": 4, "n": 1}\n' + "[" * 100000,
            "queries": '{"x": ' + "[" * 100000 + "}"}
    path = tmp_path / f"{which}.json"
    path.write_text(deep[which] + "\n")
    objective = ["--loss", "relu", "--reg", "l1", "--k", "4"]
    argv = {"config": ["bench", "--config", path, "--out", tmp_path / "o"],
            "instance": ["opt", "--instance", path, *objective],
            "queries": ["eval", "--instance", inputs["instance"], "--sample", inputs["sample"],
                        "--queries", path, *objective, "--eps", "0.25"]}[which]
    code, out, err = run(argv)
    assert_one_line_refusal(code, err, expected_code=2)
    assert err.startswith(f"data error: {path}: ") and out == ""


def test_every_numeric_flag_and_bench_key_has_a_domain():
    parser = cli.build_parser()
    [subparsers] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    # gen's flags are typed by the generator schema of the kind they are passed to
    gen_params = {name.lower() for kind in HARD_KINDS for name in kind_params(kind)}
    named = set()
    for command, sub in subparsers.choices.items():
        for action in sub._actions:
            if action.type in (int, float):
                assert action.dest in (gen_params if command == "gen" else cli.DOMAINS), \
                    (command, action.dest)
            named.add(action.dest)
    keys = {key for required, optional in cli.BENCH_KEYS.values() for key in required + optional}
    assert keys - {"mode", "params"} <= cli.DOMAINS.keys()
    assert cli.DOMAINS.keys() <= named | keys  # no domain outlives its flag or key
