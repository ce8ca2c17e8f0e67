import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import regsamp
from regsamp import bench, cli, parallel
from regsamp.cli import main
from regsamp.errors import BudgetExceededError, DegenerateInstanceError
from regsamp.hardness import generate, kind_params
from regsamp.model import gaussian_instance, load_instance, save_instance
from regsamp.objective import load_queries
from regsamp.sampler import BLOCK_CELLS, Coreset, load_samples, save_samples


def run(*argv):
    return main(list(argv))


def gen_lin_relu_dir(tmp_path, k=8):
    out = tmp_path / f"h{k}"
    assert run("gen", "--kind", "lin-relu", "--k", str(k), "--out", str(out)) == 0
    return out


def save_exhaustive_sample(instance, path):
    """Each atom once with weight n*p_i, so the sample's objective is exact."""
    n = instance.n
    save_samples(Coreset(np.arange(n), instance.atoms, n * instance.masses, np.ones(n)), path)


def regenerate(manifest_path):
    """The hard instance a `gen` manifest records, generated again from its parameters."""
    config = json.loads(Path(manifest_path).read_text())["config"]
    kind, params = config["kind"], config["params"]
    return generate(kind, **{name: params[name] for name in kind_params(kind) if name in params})


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

    @staticmethod
    def sample_huge_atoms(tmp_path, score):
        """`regsamp sample` in a fresh interpreter on two atoms of entries 1e200."""
        inst_path = tmp_path / "huge.jsonl"
        inst_path.write_text('{"dim": 3, "n": 2}\n'
                             + '{"a": [1e200, 1e200, 1e200], "p": 0.5}\n' * 2)
        env = {**os.environ, "PYTHONPATH": str(Path(regsamp.__file__).parents[1])}
        return subprocess.run(
            [sys.executable, "-m", "regsamp.cli", "sample", "--instance", str(inst_path),
             "--score", score, "--m", "3", "--out", str(tmp_path / "s.jsonl")],
            env=env, capture_output=True, text=True, timeout=60)

    @pytest.mark.parametrize("score", ["sqnorm"])
    def test_overflowing_scores_print_one_error_line(self, tmp_path, score):
        # squares of norms of 1.7e200 overflow: the score mass is infinite and q is NaN
        proc = self.sample_huge_atoms(tmp_path, score)
        assert proc.returncode == 2
        assert proc.stderr == "error: sampling probabilities sum to nan, not 1\n"

    def test_huge_atoms_sample_by_norm(self, tmp_path):
        # their norms of 1.7e200 are finite, so equal atoms get weight 1
        proc = self.sample_huge_atoms(tmp_path, "norm")
        assert proc.returncode == 0 and proc.stderr == ""
        samples = load_samples(tmp_path / "s.jsonl")
        assert np.array_equal(samples.w, np.ones(3))
        assert samples.s == pytest.approx(np.full(3, 3 ** 0.5 * 1e200), rel=1e-15)

    def test_negative_seed_is_one_usage_error(self, tmp_path, capsys):
        out = gen_lin_relu_dir(tmp_path)
        capsys.readouterr()
        assert run("sample", "--instance", str(out / "instance.jsonl"), "--m", "3",
                   "--seed", "-1", "--out", str(tmp_path / "s" / "x.jsonl")) == 1
        assert capsys.readouterr().err == "error: a seed must be a non-negative integer, got -1\n"
        assert not (tmp_path / "s").exists()

    def test_sample_past_the_dense_budget_is_refused(self, tmp_path, capsys):
        # 10^15 drawn 2-dim atoms are 7.11 PiB of indices alone; nothing is drawn
        inst_path = tmp_path / "one.jsonl"
        inst_path.write_text('{"dim": 2, "n": 1}\n{"a": [1.0, 1.0], "p": 1.0}\n')
        assert run("sample", "--instance", str(inst_path), "--m", "1000000000000000",
                   "--out", str(tmp_path / "s" / "x.jsonl")) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("budget error: 1000000000000000 x 2 atoms take ")
        assert captured.err.count("\n") == 1
        assert not (tmp_path / "s").exists()


class TestEval:
    def test_exhaustive_sample_passes(self, tmp_path):
        out = gen_lin_relu_dir(tmp_path, k=4)
        save_exhaustive_sample(load_instance(out / "instance.jsonl"), tmp_path / "ex.jsonl")
        report_path = tmp_path / "report.json"
        assert run("eval", "--instance", str(out / "instance.jsonl"),
                   "--sample", str(tmp_path / "ex.jsonl"),
                   "--queries", str(out / "queries.jsonl"),
                   "--loss", "relu", "--reg", "l1", "--k", "4",
                   "--eps", "0.25", "--out", str(report_path)) == 0
        report = json.loads(report_path.read_text())
        assert report["pass"]
        assert report["max_error"] <= 1e-12

    def test_report_on_stdout_is_json_and_summary_on_stderr(self, tmp_path, capsys):
        out = gen_lin_relu_dir(tmp_path, k=8)
        assert run("sample", "--instance", str(out / "instance.jsonl"), "--m", "100",
                   "--seed", "0", "--convention", "score-only",
                   "--out", str(out / "samples.jsonl")) == 0
        capsys.readouterr()
        assert run("eval", "--instance", str(out / "instance.jsonl"),
                   "--sample", str(out / "samples.jsonl"),
                   "--queries", str(out / "queries.jsonl"),
                   "--loss", "relu", "--reg", "l1", "--k", "8", "--eps", "0.25") == 0
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        assert len(report["per_query"]) == 17
        assert captured.err == (f"max relative error {report['max_error']:.6g} "
                                f"({'pass' if report['pass'] else 'FAIL'} at eps = 0.25)\n")

    def test_coupon_miss_fails_then_passes_at_loose_eps(self, tmp_path):
        out = tmp_path / "coupon"
        assert run("gen", "--kind", "coupon-relu", "--d", "8", "--k", "6",
                   "--out", str(out)) == 0
        inst = load_instance(out / "instance.jsonl")
        from regsamp.hardness import check_failure, gen_coupon_relu
        from regsamp.objective import QuerySet, save_queries

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

    def test_dimension_mismatch_is_data_error(self, tmp_path, capsys):
        out = gen_lin_relu_dir(tmp_path, k=4)
        other = tmp_path / "other.jsonl"
        other.write_text('{"dim": 2, "n": 1}\n{"a": [1.0, 0.0], "p": 1.0}\n')
        instance = load_instance(out / "instance.jsonl")
        save_exhaustive_sample(instance, tmp_path / "ex.jsonl")
        (tmp_path / "origin.jsonl").write_text("")  # the origin alone, of any dimension
        capsys.readouterr()
        assert run("eval", "--instance", str(other),
                   "--sample", str(tmp_path / "ex.jsonl"),
                   "--queries", str(tmp_path / "origin.jsonl"),
                   "--loss", "relu", "--reg", "l1", "--k", "4",
                   "--eps", "0.25") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"data error: {tmp_path / 'ex.jsonl'}: sample has dimension "
                                f"{instance.dim}, instance {other} has dimension 2\n")

    @pytest.mark.parametrize("index", [5, 2, -3])
    def test_atom_index_outside_the_instance_is_data_error(self, tmp_path, capsys, index):
        instance = tmp_path / "two.jsonl"
        instance.write_text('{"dim": 2, "n": 2}\n{"a": [1.0, 0.0], "p": 0.5}\n'
                            '{"a": [0.0, 1.0], "p": 0.5}\n')
        sample = tmp_path / "s.jsonl"
        sample.write_text('{"atom_index": 1, "a": [0.0, 1.0], "w": 1.0, "s": 2.0}\n'
                          f'{{"atom_index": {index}, "a": [1.0, 0.0], "w": 1.0, "s": 2.0}}\n')
        (tmp_path / "origin.jsonl").write_text("")
        assert run("eval", "--instance", str(instance), "--sample", str(sample),
                   "--queries", str(tmp_path / "origin.jsonl"),
                   "--loss", "relu", "--reg", "l1", "--k", "4", "--eps", "0.25",
                   "--out", str(tmp_path / "r.json")) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"data error: {sample}: line 2: atom_index {index} is not an "
                                f"atom of instance {instance}, which has 2 atoms\n")
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("eps", ["nan", "-1", "0", "1", "inf"])
    def test_eps_outside_the_unit_interval_is_one_usage_error(self, tmp_path, capsys, eps):
        out = gen_lin_relu_dir(tmp_path, k=4)
        save_exhaustive_sample(load_instance(out / "instance.jsonl"), tmp_path / "ex.jsonl")
        capsys.readouterr()
        assert run("eval", "--instance", str(out / "instance.jsonl"),
                   "--sample", str(tmp_path / "ex.jsonl"),
                   "--queries", str(out / "queries.jsonl"),
                   "--loss", "relu", "--reg", "l1", "--k", "4", "--eps", eps) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --eps must lie in (0, 1), got {float(eps)}\n"

    @pytest.mark.parametrize("which,record,what", [
        ("sample", '{"atom_index": 0, "a": [1%s, 0.0, 0.0, 0.0], "w": 1.0, "s": 1.0}', "sample"),
        ("queries", '{"x": [1%s, 0.0, 0.0, 0.0], "tag": "grid"}', "query")],
        ids=["sample", "queries"])
    def test_number_past_float_range_is_one_data_error(self, tmp_path, capsys, which,
                                                       record, what):
        # json reads 1 followed by 400 zeros as an int that no float holds
        out = gen_lin_relu_dir(tmp_path, k=4)
        files = {"sample": tmp_path / "ex.jsonl", "queries": out / "queries.jsonl"}
        save_exhaustive_sample(load_instance(out / "instance.jsonl"), files["sample"])
        bad = files[which]
        good = bad.read_text().splitlines(keepends=True)
        bad.write_text(good[0] + record % ("0" * 400) + "\n" + "".join(good[1:]))
        capsys.readouterr()
        assert run("eval", "--instance", str(out / "instance.jsonl"),
                   "--sample", str(files["sample"]), "--queries", str(files["queries"]),
                   "--loss", "relu", "--reg", "l1", "--k", "4", "--eps", "0.25",
                   "--out", str(tmp_path / "r.json")) == 2
        err = capsys.readouterr().err
        assert err == f"data error: {bad}: line 2: malformed {what} record\n"


class TestOpt:
    def test_writes_bracketed_report(self, tmp_path):
        out = gen_lin_relu_dir(tmp_path, k=4)
        report_path = tmp_path / "opt.json"
        assert run("opt", "--instance", str(out / "instance.jsonl"),
                   "--loss", "logistic", "--reg", "l2sq", "--k", "4",
                   "--restarts", "2", "--out", str(report_path)) == 0
        rep = json.loads(report_path.read_text())
        assert rep["analytic_lower"] - 1e-9 <= rep["opt_value"] <= rep["analytic_upper"] + 1e-9
        assert rep["analytic_lower"] <= rep["dual_lower"] <= rep["opt_value"]
        assert rep["opt_value"] - rep["dual_lower"] <= 1e-6 * rep["opt_value"]

    @pytest.mark.parametrize("reg", ["l1", "l2sq"])
    def test_huge_atoms_exit_with_one_error_line(self, tmp_path, reg):
        # rescaled by 2^665, the weight 1/(4 * 2^665) (l1) or 1/(4 * 2^1330) (l2sq)
        # is below 2^-500: one typed error, and no numpy warning from the 1e200 entries
        inst_path = tmp_path / "huge.jsonl"
        inst_path.write_text('{"dim": 3, "n": 2}\n{"a": [1e200, 1e200, 1e200], "p": 0.5}\n'
                             '{"a": [1.0, 1.0, 1.0], "p": 0.5}\n')
        env = {**os.environ, "PYTHONPATH": str(Path(regsamp.__file__).parents[1])}
        proc = subprocess.run(
            [sys.executable, "-m", "regsamp.cli", "opt", "--instance", str(inst_path),
             "--loss", "logistic", "--reg", reg, "--k", "4"],
            env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: atom entries reach 2^665: the regularizer weight")
        assert proc.stderr.count("\n") == 1

    def test_huge_k_is_named_in_one_error_line(self, tmp_path):
        # atoms of entries near 1 rescale by 2^2 only: 1/k = 1e-300 alone is below
        # 2^-500, so the refusal names k, not the atoms
        inst_path = tmp_path / "two.jsonl"
        inst_path.write_text('{"dim": 2, "n": 2}\n{"a": [1, 2], "p": 0.5}\n'
                             '{"a": [-1, 0.5], "p": 0.5}\n')
        env = {**os.environ, "PYTHONPATH": str(Path(regsamp.__file__).parents[1])}
        proc = subprocess.run(
            [sys.executable, "-m", "regsamp.cli", "opt", "--instance", str(inst_path),
             "--loss", "hinge", "--reg", "l2", "--k", "1e300"],
            env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == "error: k = 1e+300 puts the regularizer weight 1/k below 2^-500\n"

    def test_tiny_atoms_solve_without_warnings(self, tmp_path):
        # -grad f0(0) is about 1e-170, whose squares underflow: the l2 start scales
        # it up instead of dividing by a zero norm
        inst_path = tmp_path / "tiny.jsonl"
        inst_path.write_text('{"dim": 2, "n": 2}\n{"a": [1e-200, 1e-200], "p": 0.5}\n'
                             '{"a": [3e-170, 0], "p": 0.5}\n')
        env = {**os.environ, "PYTHONPATH": str(Path(regsamp.__file__).parents[1])}
        proc = subprocess.run(
            [sys.executable, "-m", "regsamp.cli", "opt", "--instance", str(inst_path),
             "--loss", "logistic", "--reg", "l2", "--k", "4"],
            env=env, capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stderr) == (0, "")
        rep = json.loads(proc.stdout)
        assert rep["opt_value"] == rep["dual_lower"] == math.log(2.0)

    @pytest.mark.parametrize("header", ['{"dim": -1, "n": 1}', '{"dim": 1000000000000, "n": 1}'])
    def test_bad_header_is_one_data_error(self, tmp_path, header):
        # nothing is sized from the header alone: the second dim is 7.28 TiB of atoms
        inst_path = tmp_path / "bad.jsonl"
        inst_path.write_text(header + '\n{"a": [1.0], "p": 1.0}\n')
        proc = run_cli("opt", "--instance", str(inst_path), "--loss", "logistic",
                       "--reg", "l2", "--k", "4")
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("data error: ") and proc.stderr.count("\n") == 1

    def test_sigmoid_restarts_past_the_dense_budget_are_one_budget_error(self, tmp_path, capsys):
        # 10^11 starts in R^4 would take 2.9 TiB
        out = gen_lin_relu_dir(tmp_path, k=4)
        capsys.readouterr()
        assert run("opt", "--instance", str(out / "instance.jsonl"), "--loss", "sigmoid",
                   "--reg", "l2", "--k", "4", "--restarts", "100000000000") == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("budget error: 100000000000 x 4 starts take ")
        assert captured.err.count("\n") == 1

    def test_negative_seed_is_one_usage_error(self, tmp_path, capsys):
        # only sigmoid's restarts draw from the seed
        out = gen_lin_relu_dir(tmp_path, k=4)
        capsys.readouterr()
        assert run("opt", "--instance", str(out / "instance.jsonl"), "--loss", "sigmoid",
                   "--reg", "l2", "--k", "4", "--restarts", "2", "--seed", "-1") == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: a seed must be a non-negative integer, got -1\n"


def test_importing_the_cli_leaves_scipy_optimize_unloaded():
    # scipy adds about 0.2 s to every CLI start; the solvers and the sigmoid and
    # logistic derivatives import what they use of it where they use it, and
    # `bench.failure_rates` and `objective.evaluate` their thread pools
    env = {**os.environ, "PYTHONPATH": str(Path(regsamp.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, regsamp.cli; "
         "print([m for m in sys.modules if m.startswith(('scipy', 'concurrent'))])"],
        env=env, capture_output=True, text=True, timeout=60, check=True)
    assert proc.stdout == "[]\n"


NO_SCIPY_RUN = """
import json, sys
from pathlib import Path
from regsamp.cli import main

out = Path(sys.argv[1])
assert main(["gen", "--kind", "lin-relu", "--k", "8", "--out", str(out / "g")]) == 0
assert main(["gen", "--kind", "quad-hinge", "--k", "4", "--eps", "0.25",
             "--out", str(out / "q")]) == 0
configs = {"fr": {"mode": "failure-rate", "kind": "coupon-relu", "params": {"d": 16, "k": 8},
                  "eps": 0.25, "delta": 0.2, "trials": 20, "m_list": [16, 64]},
           "sc": {"mode": "scaling", "kind": "lin-relu", "k_list": [4, 8, 16],
                  "eps": 0.3, "delta": 0.25, "trials": 20}}
for name, cfg in configs.items():
    (out / f"{name}.json").write_text(json.dumps(cfg))
    assert main(["bench", "--config", str(out / f"{name}.json"), "--out", str(out / name)]) == 0
assert main(["sample", "--instance", str(out / "g" / "instance.jsonl"), "--m", "20",
             "--out", str(out / "s.jsonl")]) == 0
print([m for m in sys.modules if m.startswith("scipy")])
"""


def test_gen_bench_and_sample_load_no_scipy(tmp_path):
    # relu and hinge instances, failure rates, the m* search and sampling need numpy alone
    env = {**os.environ, "PYTHONPATH": str(Path(regsamp.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", NO_SCIPY_RUN, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    assert proc.stdout.splitlines()[-1] == "[]"


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

    def test_scaling_past_the_m_cap_writes_a_budget_row(self, tmp_path, capsys):
        # k = 16 (m* = 424 uncapped) passes the cap; k = 4 and 8 are fitted, and
        # two points have a slope but no bootstrap interval
        cfg = {"mode": "scaling", "kind": "lin-relu", "k_list": [4, 8, 16], "eps": 0.3,
               "delta": 0.25, "trials": 20, "master_seed": 0, "reg": "l1", "m_cap": 256}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        capsys.readouterr()
        assert run("bench", "--config", str(cfg_path), "--out", str(tmp_path / "o")) == 0
        assert capsys.readouterr().err == \
            "warning: k=16: no accepted sample size below the cap 256\n"
        lines = (tmp_path / "o" / "scaling.csv").read_text().splitlines()
        slope = f"{math.log2(124 / 50):.10g}"
        assert slope == "1.310340121"
        assert lines[1:3] == [f"lin-relu,4,50,{slope},nan,nan", f"lin-relu,8,124,{slope},nan,nan"]
        assert lines[3:] == ["lin-relu,16,budget-exceeded,,,"]
        assert (tmp_path / "o" / "scaling_plot.dat").read_text() == "4 50\n8 124\n"

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

    # m values on every count-draw path: coupon-relu's uniform law counts index
    # draws up to m = 30 n = 480 and the multinomial past it; moment-curve's
    # (n = 12) counts inverse-CDF draws up to m = 6 and the multinomial past it
    @pytest.mark.parametrize("kind,params,m_list", [
        ("coupon-relu", {"d": 16, "k": 8}, [16, 64, 600, 40]),
        ("moment-curve", {"N": 12, "d": 3}, [4, 6, 40, 200]),
    ], ids=["coupon-relu", "moment-curve"])
    @pytest.mark.parametrize("policy", ["adversarial-only", "adversarial-plus-random"])
    def test_failure_rates_do_not_depend_on_the_worker_count(self, tmp_path, monkeypatch,
                                                             kind, params, m_list, policy):
        cfg = {"mode": "failure-rate", "kind": kind, "params": params, "eps": 0.25,
               "delta": 0.2, "trials": 60, "master_seed": 4, "m_list": m_list,
               "query_policy": policy}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        n = generate(kind, **params).instance.n
        outputs = []
        for cpus in (1, 3):  # 3 threads on a 2-CPU machine too, switching often
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: set(range(cpus)))
            assert parallel.workers(len(m_list), max(n, BLOCK_CELLS)) == cpus
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                assert run("bench", "--config", str(cfg_path),
                           "--out", str(tmp_path / str(cpus))) == 0
            finally:
                sys.setswitchinterval(interval)
            outputs.append([(tmp_path / str(cpus) / name).read_bytes()
                            for name in ("failure_rates.csv", "manifest.json")])
        assert outputs[0] == outputs[1]
        rows = outputs[0][0].decode().splitlines()[1:]
        assert [int(row.split(",")[7]) for row in rows] == m_list

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_a_failing_m_raises_the_loops_error(self, tmp_path, capsys, monkeypatch, cpus):
        # the first failing m in m_list order gives the loop's one stderr line and
        # exit code, though with two threads m = 48 fails first in time; the m
        # values still pending then never start
        started, failure_rate = [], bench.failure_rate

        def failing(cfg, m):
            started.append(m)
            if m == 32:
                time.sleep(0.2)
                raise DegenerateInstanceError(f"sampling probabilities rejected at m = {m}")
            if m == 48:
                raise BudgetExceededError("a later m's error")
            time.sleep(0.02)
            return failure_rate(cfg, m)

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        monkeypatch.setattr(bench, "failure_rate", failing)
        m_list = [16, 32, 48, *range(100, 140)]
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({**FAILURE_RATE, "m_list": m_list}))
        assert run("bench", "--config", str(cfg_path), "--out", str(tmp_path / "x" / "b")) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: sampling probabilities rejected at m = 32\n"
        assert not (tmp_path / "x").exists()
        assert {16, 32} <= set(started) and len(started) < len(m_list)
        assert (48 in started) == (cpus == 2)

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
          "m_list": [16]}, "params"),
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
        ({**SCALING, "k_list": [8, 16, 8, 4]}, "repeats k = 8"),
    ], ids=["no-params", "unknown-param", "scaling-without-eps", "params-list",
            "params-wrong-type", "trials-string", "eps-string", "k_list-scalar",
            "config-list", "m_list-string", "m_list-zero", "trials-bool",
            "unknown-query-policy", "non-integral-lin-k", "reg-not-taken",
            "unknown-key", "m_list-in-scaling", "reg-in-failure-rate", "repeated-k"])
    def test_one_line_usage_error(self, tmp_path, capsys, cfg, names):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert run("bench", "--config", str(cfg_path), "--out", str(tmp_path / "o")) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:") and names in lines[0]


class TestParser:
    def test_built_once_per_process(self):
        assert cli.build_parser() is cli.build_parser()

    def test_no_parse_state_leaks_between_calls(self, tmp_path):
        # seed 1 is the least seed whose instance, under sigmoid/l2 at k = 64,
        # ends elsewhere from 2 starts than from 8
        inst_path = tmp_path / "inst.jsonl"
        save_instance(gaussian_instance(40, 6, seed=1), inst_path)
        argv = ["opt", "--instance", str(inst_path), "--loss", "sigmoid", "--reg", "l2",
                "--k", "64"]
        cli.build_parser.cache_clear()
        assert run(*argv, "--out", str(tmp_path / "alone.json")) == 0
        assert run(*argv, "--restarts", "2", "--out", str(tmp_path / "two.json")) == 0
        assert run(*argv, "--out", str(tmp_path / "after.json")) == 0
        alone = (tmp_path / "alone.json").read_bytes()
        assert (tmp_path / "two.json").read_bytes() != alone
        assert (tmp_path / "after.json").read_bytes() == alone


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
        out = tmp_path / "gen"
        assert run("gen", *args, "--out", str(out)) == 0
        hard = regenerate(out / "manifest.json")
        assert hard.kind == kind
        disk = load_instance(out / "instance.jsonl")
        assert np.allclose(hard.instance.atoms, disk.atoms)
        queries = load_queries(out / "queries.jsonl", dim=disk.dim)
        assert np.allclose(hard.queries.queries, queries.queries)
        config = json.loads((out / "manifest.json").read_text())["config"]
        assert hard.spec.k == config["k"] and hard.spec.reg.kind == config["reg"]

    def test_moment_curve_t_values_survive(self, tmp_path):
        out = tmp_path / "gen"
        assert run("gen", "--kind", "moment-curve", "--n", "5", "--d", "2",
                   "--out", str(out)) == 0
        path = out / "manifest.json"
        manifest = json.loads(path.read_text())
        t_values = [0.5, 1.25, 2.0, 3.5, 5.0]
        manifest["config"]["params"]["t_values"] = t_values
        path.write_text(json.dumps(manifest))
        hard = regenerate(path)
        assert hard.params["t_values"].tolist() == t_values
        assert hard.instance.atoms[:, 1].tolist() == t_values


class TestMissingFiles:
    def test_missing_instance_is_data_error(self, tmp_path):
        assert run("sample", "--instance", str(tmp_path / "missing.jsonl"),
                   "--m", "3", "--out", str(tmp_path / "s.jsonl")) == 2

    def test_missing_bench_config_is_data_error(self, tmp_path):
        assert run("bench", "--config", str(tmp_path / "nope.json")) == 2


# SHA-256 of each file `gen` wrote for each ROUND_TRIP call (the manifest's
# "version" line left out).  Instances and queries are those of version
# 0.4.0, when every construction built its dense atoms up front; the
# manifests are those of version 0.5.0, apart from quad-logistic's and
# quad-sigmoid's, which lost params "c" (= g_hit / (2 g_miss)) in 0.7.0.
GEN_SHA256 = {
    "instance.jsonl": {
        "lin-relu": "a8ee516e2181210eb18e64fc0ac8c979575306ecf09e0e2d9cc9173fc4d66ef9",
        "quad-hinge": "a0d1fafeff9ca8051e5f6659016d28eb52e4fba1dbe19f9b122774418397f6bb",
        "moment-curve": "415bb7fcee021eeed2132b5760a89c4bb0f56cceadec89727a9857842278af9c",
        "quad-logistic": "cbdf635d01ba2e6eaac14cc243815f0e029e5d65b47b372d34a9f402e4548fec",
        "quad-sigmoid": "1994bb8b8e84097ea90e594c91b2ad0a75ab31cbb0685f8ee026967c6eb857aa",
        "quad-relu": "f727401f27d319d6daa782b066bec7d206e9ce612376903545ec02eaf15d0458",
        "lin-logistic": "79cf7ced9e1d22c10ef87a04b0ff9c8326d39073c7ce3995f5770c284462dac0",
        "lin-sigmoid": "79cf7ced9e1d22c10ef87a04b0ff9c8326d39073c7ce3995f5770c284462dac0",
        "coupon-relu": "cbdf635d01ba2e6eaac14cc243815f0e029e5d65b47b372d34a9f402e4548fec",
    },
    "queries.jsonl": {
        "lin-relu": "48fa902a6c857dcbabdec1eecaad961b0e9f6e553a227ee3aaeec33aabc9ae91",
        "quad-hinge": "d8d36268620743aadd947a1806d38e81490e78d17e07a1538be336593041c1aa",
        "moment-curve": "d73b6dbea62feba3d2178d7023d5406105761387c62ba87472094ebe332d344d",
        "quad-logistic": "427c03bc086749f38d21bece92fa248e190974b5c415e00b22da21f2ef0d72d9",
        "quad-sigmoid": "ae9f86526aab2312c85a43262538bcf3e233dca3ebdf9fdf5215ead71b15431e",
        "quad-relu": "6ea748aa6594b92c22b83559c1423cc2cea2214f1b6a67138818406abaa8a05e",
        "lin-logistic": "78ef60244ec4cfe3b7028e1ee3d6a41a43523cd59b6bd908d7371e84d3150f44",
        "lin-sigmoid": "74d42324ce33da0fa9e2324babddc0b0aaf699a877e7ed26957d6f6af9e92569",
        "coupon-relu": "7fafb8f2135ef6cd27f7f2775cfeff3c8bab1a73ed81fe3c0ace618fd139e743",
    },
    "manifest.json": {
        "lin-relu": "6b1e54e601ab57d1e4369b655f3a7725bb0d25329cd6226bc62ebc1ce2d9de5e",
        "quad-hinge": "60c10dfd2db666ef68a50ecb88dab82e32bb39f5596ba706eb79c431ff801f7e",
        "moment-curve": "46c8f2de9b12ee569081dbfa0a96385cbee02503ce6e3cbd13694557a00773ca",
        "quad-logistic": "3bc0b8a647b902dceda3e8d20b2868b6ef18d0c322a41eff5c2b6cbd71f45732",
        "quad-sigmoid": "a44da674dde88e175a36a20bc981e0a542a329b1cc46296d161cbc1dc64ceae2",
        "quad-relu": "26dffce033ac71ac2c7b5444a28fca0bdc3dbb77b479209d202ebb2c31ef3167",
        "lin-logistic": "ce148d197ce8bd1e262a3b4007acda95419a6de04b1fd744164544a5ef0608c1",
        "lin-sigmoid": "18b36a2ef9ad1908a9d98946a5bd71c12ffb115ae01fa3b11811ac05d9eeb1b0",
        "coupon-relu": "5eaea5acd2cfc88a660385f47e9a308e4470ea48d4af2c5febc3c9e166a02584",
    },
}


@pytest.mark.parametrize("args,kind", ROUND_TRIP)
def test_gen_output_is_pinned(tmp_path, args, kind):
    import hashlib

    out = tmp_path / "gen"
    assert run("gen", *args, "--out", str(out)) == 0
    for name, digests in GEN_SHA256.items():
        lines = (out / name).read_bytes().splitlines(keepends=True)
        kept = b"".join(line for line in lines if not line.lstrip().startswith(b'"version"'))
        assert hashlib.sha256(kept).hexdigest() == digests[kind], name


def run_cli(*argv):
    env = {**os.environ, "PYTHONPATH": str(Path(regsamp.__file__).parents[1])}
    return subprocess.run([sys.executable, "-m", "regsamp.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=120)


class TestSizeBudgets:
    def test_gen_refuses_atoms_past_the_dense_budget(self, tmp_path):
        # 10^6 x 10^6 basis atoms are 8 TB dense; the refusal comes before any row
        proc = run_cli("gen", "--kind", "coupon-relu", "--d", "1000000", "--k", "16",
                       "--out", str(tmp_path / "g"))
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr.startswith("budget error: 1000000 x 1000000 atoms take ")
        assert proc.stderr.count("\n") == 1
        assert not (tmp_path / "g").exists()

    @pytest.mark.parametrize("args", [["--kind", "coupon-relu", "--d", "3000000", "--k", "16"],
                                      ["--kind", "quad-hinge", "--k", "1e200", "--eps", "0.25"],
                                      ["--kind", "lin-relu", "--k", "1000000"]])
    def test_generate_refuses_before_allocating(self, tmp_path, args):
        # a count row over more than COUNT_CELLS atoms, a size past the largest
        # float, and dense atoms past the budget
        proc = run_cli("gen", *args, "--out", str(tmp_path / "g"))
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr.startswith("budget error: ")
        assert proc.stderr.count("\n") == 1

    def test_refused_bench_leaves_no_out_directory(self, tmp_path):
        cfg = {"mode": "failure-rate", "kind": "coupon-relu",
               "params": {"d": 3000000, "k": 4}, "eps": 0.25, "delta": 0.2,
               "m_list": [10]}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert run("bench", "--config", str(cfg_path), "--out", str(tmp_path / "x" / "b")) == 3
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("m", [2 ** 62, 2_000_001])
    def test_failure_rate_m_past_the_cap_is_refused(self, tmp_path, capsys, m):
        # the cap holds in both modes; 2^62 used to run, and nothing is drawn now
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({**FAILURE_RATE, "m_list": [16, m]}))
        assert run("bench", "--config", str(cfg_path), "--out", str(tmp_path / "x" / "b")) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"budget error: 'm_list' entries [{m}] exceed the m cap 2000000\n"
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("cfg,key", [
        ({**FAILURE_RATE, "m_list": [10 ** 30]}, "m_list"),
        ({**FAILURE_RATE, "m_cap": 10 ** 30}, "m_cap"),
        ({**SCALING, "m_cap": 2 ** 63}, "m_cap"),
        ({**FAILURE_RATE, "trials": 2 ** 63}, "trials"),
    ], ids=["m_list", "m_cap", "scaling-m_cap", "trials"])
    def test_sizes_past_int64_are_usage_errors(self, tmp_path, capsys, cfg, key):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert run("bench", "--config", str(cfg_path), "--out", str(tmp_path / "x")) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"error: {key!r} must not exceed 2^63 - 1")
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("cfg", [FAILURE_RATE, SCALING], ids=["failure-rate", "scaling"])
    def test_negative_master_seed_is_one_usage_error(self, tmp_path, capsys, cfg):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({**cfg, "master_seed": -1}))
        assert run("bench", "--config", str(cfg_path), "--out", str(tmp_path / "x")) == 1
        assert capsys.readouterr().err == "error: a seed must be a non-negative integer, got -1\n"
        assert not (tmp_path / "x").exists()

    def test_bench_failure_rate_at_a_million_atoms(self, tmp_path):
        cfg = {"mode": "failure-rate", "kind": "coupon-relu",
               "params": {"d": 1000000, "k": 16}, "eps": 0.25, "delta": 0.2,
               "trials": 2, "master_seed": 1, "m_list": [10]}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        proc = run_cli("bench", "--config", str(cfg_path), "--out", str(tmp_path / "fr"))
        assert proc.returncode == 0, proc.stderr
        row = (tmp_path / "fr" / "failure_rates.csv").read_text().splitlines()[1].split(",")
        assert row[7:10] == ["10", "2", "2"]  # m, trials, failures: 10 draws miss an atom
