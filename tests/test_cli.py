import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import regsamp
from regsamp.cli import main
from regsamp.model import load_instance
from regsamp.objective import load_queries


def run(*argv):
    return main(list(argv))


def gen_lin_relu_dir(tmp_path, k=8):
    out = tmp_path / f"h{k}"
    assert run("gen", "--kind", "lin-relu", "--k", str(k), "--out", str(out)) == 0
    return out


class TestGen:
    def test_lin_relu_counts(self, tmp_path):
        out = gen_lin_relu_dir(tmp_path, k=8)
        inst = load_instance(out / "instance.jsonl")
        assert inst.n == 16
        lines = (out / "queries.jsonl").read_text().splitlines()
        assert len(lines) == 16  # adversarial records; origin is implicit
        queries = load_queries(out / "queries.jsonl", dim=inst.dim)
        assert len(queries) == 17  # origin restored on load
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "gen"
        assert manifest["config"]["kind"] == "lin-relu"

    def test_moment_curve_counts(self, tmp_path):
        out = tmp_path / "mc"
        assert run("gen", "--kind", "moment-curve", "--n", "6", "--d", "2",
                   "--out", str(out)) == 0
        inst = load_instance(out / "instance.jsonl")
        assert inst.n == 6
        lines = (out / "queries.jsonl").read_text().splitlines()
        assert len(lines) == 18  # 3 eta values per atom

    def test_invalid_k_exits_with_usage_error(self, tmp_path):
        out = tmp_path / "bad"
        assert run("gen", "--kind", "lin-relu", "--k", "1", "--out", str(out)) == 1

    def test_unknown_kind_is_usage_error(self, tmp_path):
        assert run("gen", "--kind", "nope", "--out", str(tmp_path / "x")) == 1

    def test_missing_out_is_usage_error(self):
        assert run("gen", "--kind", "lin-relu", "--k", "8") == 1

    @pytest.mark.parametrize("args,name", [
        (["--kind", "quad-logistic", "--k", "8", "--eps", "0.05", "--reg", "l1"], "'reg'"),
        (["--kind", "lin-relu", "--k", "8", "--d", "4"], "'d'"),
        (["--kind", "lin-relu", "--k", "8.5"], "'k'"),
    ], ids=["reg-not-taken", "d-not-taken", "non-integral-k"])
    def test_parameter_is_never_rewritten(self, tmp_path, capsys, args, name):
        out = tmp_path / "g"
        assert run("gen", *args, "--out", str(out)) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:") and name in lines[0]
        assert not out.exists()


class TestSample:
    def test_single_atom_three_lines(self, tmp_path):
        inst_path = tmp_path / "one.jsonl"
        inst_path.write_text('{"dim": 2, "n": 1}\n{"a": [1.0, 1.0], "p": 1.0}\n')
        out = tmp_path / "samples.jsonl"
        assert run("sample", "--instance", str(inst_path), "--m", "3",
                   "--seed", "4", "--out", str(out)) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 3
        assert len(set(lines)) == 1
        rec = json.loads(lines[0])
        assert rec["w"] == pytest.approx(1.0)

    def test_same_seed_byte_identical(self, tmp_path):
        out = gen_lin_relu_dir(tmp_path)
        s1, s2 = tmp_path / "s1.jsonl", tmp_path / "s2.jsonl"
        for target in (s1, s2):
            assert run("sample", "--instance", str(out / "instance.jsonl"),
                       "--m", "20", "--seed", "9", "--convention", "score-only",
                       "--out", str(target)) == 0
        assert s1.read_bytes() == s2.read_bytes()

    def test_weights_capped_at_two(self, tmp_path):
        inst_path = tmp_path / "spread.jsonl"
        rng = np.random.default_rng(3)
        atoms = rng.standard_normal((20, 3)) * rng.uniform(0.1, 30, size=(20, 1))
        header = json.dumps({"dim": 3, "n": 20})
        body = "\n".join(json.dumps({"a": list(map(float, a)), "p": 0.05})
                         for a in atoms)
        inst_path.write_text(header + "\n" + body + "\n")
        out = tmp_path / "s.jsonl"
        assert run("sample", "--instance", str(inst_path), "--score", "sqnorm",
                   "--m", "200", "--seed", "1", "--out", str(out)) == 0
        ws = [json.loads(line)["w"] for line in out.read_text().splitlines()]
        assert all(0 < w <= 2.0 for w in ws)

    def test_malformed_instance_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"dim": 2, "n": 1}\nnot json\n')
        assert run("sample", "--instance", str(bad), "--m", "3",
                   "--out", str(tmp_path / "s.jsonl")) == 2

    @pytest.mark.parametrize("score", ["sqnorm", "norm"])
    def test_overflowing_scores_print_one_error_line(self, tmp_path, score):
        # squares of 1e200 overflow: the score mass is infinite and q is NaN
        inst_path = tmp_path / "huge.jsonl"
        inst_path.write_text('{"dim": 3, "n": 2}\n'
                             + '{"a": [1e200, 1e200, 1e200], "p": 0.5}\n' * 2)
        env = {**os.environ, "PYTHONPATH": str(Path(regsamp.__file__).parents[1])}
        proc = subprocess.run(
            [sys.executable, "-m", "regsamp.cli", "sample", "--instance", str(inst_path),
             "--score", score, "--m", "3", "--out", str(tmp_path / "s.jsonl")],
            env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2
        assert proc.stderr == "error: sampling probabilities sum to nan, not 1\n"


class TestEval:
    def test_exhaustive_sample_passes(self, tmp_path):
        out = gen_lin_relu_dir(tmp_path, k=4)
        inst = load_instance(out / "instance.jsonl")
        from regsamp.objective import exhaustive_sample
        from regsamp.sampler import save_samples

        save_samples(exhaustive_sample(inst), tmp_path / "ex.jsonl")
        report_path = tmp_path / "report.json"
        assert run("eval", "--instance", str(out / "instance.jsonl"),
                   "--sample", str(tmp_path / "ex.jsonl"),
                   "--queries", str(out / "queries.jsonl"),
                   "--loss", "relu", "--reg", "l1", "--k", "4",
                   "--eps", "0.25", "--out", str(report_path)) == 0
        report = json.loads(report_path.read_text())
        assert report["pass"]
        assert report["max_error"] <= 1e-12

    def test_coupon_miss_fails_then_passes_at_loose_eps(self, tmp_path):
        out = tmp_path / "coupon"
        assert run("gen", "--kind", "coupon-relu", "--d", "8", "--k", "6",
                   "--out", str(out)) == 0
        inst = load_instance(out / "instance.jsonl")
        from regsamp.hardness import check_failure, gen_coupon_relu
        from regsamp.objective import QuerySet, save_queries
        from regsamp.sampler import Coreset, save_samples

        hard = gen_coupon_relu(8, 6.0)
        miss = [1, 2, 3, 4, 5, 6, 7]
        samples = Coreset.of_atoms(inst, miss, "norm", "mixture")
        save_samples(samples, tmp_path / "miss.jsonl")
        x = check_failure(hard, samples, 0.25).witness_query
        save_queries(QuerySet(x[None, :], ("adversarial",)), tmp_path / "q.jsonl")
        args = ["eval", "--instance", str(out / "instance.jsonl"),
                "--sample", str(tmp_path / "miss.jsonl"),
                "--queries", str(tmp_path / "q.jsonl"),
                "--loss", "relu", "--reg", "l2sq", "--k", "6",
                "--out", str(tmp_path / "r.json")]
        assert run(*args, "--eps", "0.25") == 0
        rep = json.loads((tmp_path / "r.json").read_text())
        assert not rep["pass"]
        assert rep["max_error"] == pytest.approx(0.6, abs=1e-12)
        assert run(*args, "--eps", "0.7") == 0
        rep = json.loads((tmp_path / "r.json").read_text())
        assert rep["pass"]

    def test_dimension_mismatch_is_data_error(self, tmp_path):
        out = gen_lin_relu_dir(tmp_path, k=4)
        other = tmp_path / "other.jsonl"
        other.write_text('{"dim": 2, "n": 1}\n{"a": [1.0, 0.0], "p": 1.0}\n')
        from regsamp.objective import exhaustive_sample
        from regsamp.sampler import save_samples

        inst = load_instance(out / "instance.jsonl")
        save_samples(exhaustive_sample(inst), tmp_path / "ex.jsonl")
        assert run("eval", "--instance", str(other),
                   "--sample", str(tmp_path / "ex.jsonl"),
                   "--queries", str(out / "queries.jsonl"),
                   "--loss", "relu", "--reg", "l1", "--k", "4",
                   "--eps", "0.25") == 2


class TestOpt:
    def test_writes_bracketed_report(self, tmp_path):
        out = gen_lin_relu_dir(tmp_path, k=4)
        report_path = tmp_path / "opt.json"
        assert run("opt", "--instance", str(out / "instance.jsonl"),
                   "--loss", "logistic", "--reg", "l2sq", "--k", "4",
                   "--restarts", "2", "--out", str(report_path)) == 0
        rep = json.loads(report_path.read_text())
        assert rep["analytic_lower"] - 1e-9 <= rep["opt_value"] <= rep["analytic_upper"] + 1e-9


class TestBench:
    def test_scaling_run_and_reproducibility(self, tmp_path):
        cfg = {"mode": "scaling", "kind": "lin-relu", "k_list": [4, 8, 16],
               "eps": 0.3, "delta": 0.25, "trials": 40, "master_seed": 5,
               "reg": "l1"}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        for out in (out1, out2):
            assert run("bench", "--config", str(cfg_path), "--out", str(out)) == 0
        assert (out1 / "scaling.csv").read_bytes() == (out2 / "scaling.csv").read_bytes()
        assert (out1 / "scaling_plot.dat").exists()
        lines = (out1 / "scaling.csv").read_text().splitlines()
        assert lines[0] == "kind,k,m_star,slope,slope_lo,slope_hi"
        assert len(lines) == 4

    def test_failure_rate_mode(self, tmp_path):
        cfg = {"mode": "failure-rate", "kind": "coupon-relu",
               "params": {"d": 16, "k": 8.0}, "eps": 0.25, "delta": 0.2,
               "trials": 50, "master_seed": 2, "m_list": [16, 120]}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "fr"
        assert run("bench", "--config", str(cfg_path), "--out", str(out)) == 0
        lines = (out / "failure_rates.csv").read_text().splitlines()
        assert len(lines) == 3
        first = dict(zip(lines[0].split(","), lines[1].split(",")))
        assert first["kind"] == "coupon-relu"
        assert float(first["rate"]) > float(lines[2].split(",")[10])

    def test_unknown_kind_is_usage_error(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"mode": "scaling", "kind": "nope",
                                        "k_list": [4, 8, 16], "eps": 0.3,
                                        "delta": 0.25}))
        assert run("bench", "--config", str(cfg_path)) != 0


FAILURE_RATE = {"mode": "failure-rate", "kind": "coupon-relu", "eps": 0.25, "delta": 0.2,
                "m_list": [16], "params": {"d": 16, "k": 8}}
SCALING = {"mode": "scaling", "kind": "lin-relu", "k_list": [4, 8, 16], "eps": 0.3,
           "delta": 0.25}


class TestBenchBadConfigs:
    @pytest.mark.parametrize("cfg,names", [
        ({"mode": "failure-rate", "kind": "coupon-relu", "eps": 0.25, "delta": 0.2,
          "m_list": [16]}, "'d'"),
        ({"mode": "failure-rate", "kind": "coupon-relu", "eps": 0.25, "delta": 0.2,
          "m_list": [16], "params": {"d": 16, "k": 8.0, "bogus": 1}}, "'bogus'"),
        ({"mode": "scaling", "kind": "lin-relu", "k_list": [4, 8, 16], "delta": 0.25},
         "eps"),
        ({**FAILURE_RATE, "params": [16, 8]}, "'params'"),
        ({**FAILURE_RATE, "params": {"d": "sixteen", "k": 8}}, "'d'"),
        ({**SCALING, "trials": "many"}, "'trials'"),
        ({**SCALING, "eps": "0.25"}, "'eps'"),
        ({**SCALING, "k_list": 8}, "'k_list'"),
        ([1, 2], "object"),
        ({**FAILURE_RATE, "m_list": "16"}, "'m_list'"),
        ({**FAILURE_RATE, "m_list": [16, 0]}, "'m_list'"),
        ({**FAILURE_RATE, "trials": True}, "'trials'"),
        ({**FAILURE_RATE, "query_policy": "everything"}, "'everything'"),
        ({**SCALING, "k_list": [4, 8.5, 16]}, "'k'"),
        ({**SCALING, "kind": "quad-logistic", "reg": "l1"}, "'reg'"),
        ({**SCALING, "trails": 40}, "'trails'"),
        ({**SCALING, "m_list": [16]}, "'m_list'"),
        ({**FAILURE_RATE, "reg": "l1"}, "'reg'"),
    ], ids=["no-params", "unknown-param", "scaling-without-eps", "params-list",
            "params-wrong-type", "trials-string", "eps-string", "k_list-scalar",
            "config-list", "m_list-string", "m_list-zero", "trials-bool",
            "unknown-query-policy", "non-integral-lin-k", "reg-not-taken",
            "unknown-key", "m_list-in-scaling", "reg-in-failure-rate"])
    def test_one_line_usage_error(self, tmp_path, capsys, cfg, names):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert run("bench", "--config", str(cfg_path), "--out", str(tmp_path / "o")) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:") and names in lines[0]


class TestUsage:
    def test_no_command_is_usage_error(self):
        assert run() == 1

    def test_unknown_flag_is_usage_error(self):
        assert run("gen", "--bogus") == 1


class TestVerify:
    def test_quick_battery_passes(self, capsys):
        assert run("verify", "--quick") == 0
        out = capsys.readouterr().out
        assert out.count("[PASS]") == 11
        assert "[FAIL]" not in out


class TestBenchWarnings:
    def test_single_trial_flags_vacuous_ci(self, tmp_path, capsys):
        cfg = {"mode": "failure-rate", "kind": "coupon-relu",
               "params": {"d": 8, "k": 6.0}, "eps": 0.25, "delta": 0.2,
               "trials": 1, "master_seed": 1, "m_list": [8]}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert run("bench", "--config", str(cfg_path), "--out", str(tmp_path / "o")) == 0
        assert "warning" in capsys.readouterr().err


# one `gen` call per kind of the hard-instance table
ROUND_TRIP = [
    (["--kind", "lin-relu", "--k", "8"], "lin-relu"),
    (["--kind", "quad-hinge", "--k", "8", "--eps", "0.2", "--reg", "l2sq"],
     "quad-hinge"),
    (["--kind", "moment-curve", "--n", "6", "--d", "2"], "moment-curve"),
    (["--kind", "quad-logistic", "--k", "8", "--eps", "0.05"], "quad-logistic"),
    (["--kind", "quad-sigmoid", "--k", "20", "--eps", "0.1"], "quad-sigmoid"),
    (["--kind", "quad-relu", "--k", "6", "--eps", "0.2", "--reg", "l2"], "quad-relu"),
    (["--kind", "lin-logistic", "--k", "6", "--reg", "l2sq"], "lin-logistic"),
    (["--kind", "lin-sigmoid", "--k", "6"], "lin-sigmoid"),
    (["--kind", "coupon-relu", "--d", "16", "--k", "8"], "coupon-relu"),
]


class TestManifestRoundTrip:
    def test_every_kind_is_covered(self):
        from regsamp.hardness import KINDS

        assert sorted(kind for _, kind in ROUND_TRIP) == sorted(KINDS)

    @pytest.mark.parametrize("args,kind", ROUND_TRIP)
    def test_regenerate_from_manifest(self, tmp_path, args, kind):
        from regsamp.hardness import load_hard_instance

        out = tmp_path / "gen"
        assert run("gen", *args, "--out", str(out)) == 0
        hard = load_hard_instance(out / "manifest.json")
        assert hard.kind == kind
        disk = load_instance(out / "instance.jsonl")
        assert np.allclose(hard.instance.atoms, disk.atoms)
        queries = load_queries(out / "queries.jsonl", dim=disk.dim)
        assert np.allclose(hard.queries.queries, queries.queries)
        config = json.loads((out / "manifest.json").read_text())["config"]
        assert hard.spec.k == config["k"] and hard.spec.reg.kind == config["reg"]

    def test_moment_curve_t_values_survive(self, tmp_path):
        from regsamp.hardness import load_hard_instance

        out = tmp_path / "gen"
        assert run("gen", "--kind", "moment-curve", "--n", "5", "--d", "2",
                   "--out", str(out)) == 0
        path = out / "manifest.json"
        manifest = json.loads(path.read_text())
        t_values = [0.5, 1.25, 2.0, 3.5, 5.0]
        manifest["config"]["params"]["t_values"] = t_values
        path.write_text(json.dumps(manifest))
        hard = load_hard_instance(path)
        assert hard.params["t_values"].tolist() == t_values
        assert hard.instance.atoms[:, 1].tolist() == t_values


class TestMissingFiles:
    def test_missing_instance_is_data_error(self, tmp_path):
        assert run("sample", "--instance", str(tmp_path / "missing.jsonl"),
                   "--m", "3", "--out", str(tmp_path / "s.jsonl")) == 2

    def test_missing_bench_config_is_data_error(self, tmp_path):
        assert run("bench", "--config", str(tmp_path / "nope.json")) == 2
