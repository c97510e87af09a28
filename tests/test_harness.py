"""Experiment configuration, CSV emission, determinism, and the CLI."""

import math
import os

import numpy as np
import pytest

from lpboot.cli import main
from lpboot.harness import (ExperimentConfig, config_from_dict,
                            default_delta_grid, parse_config,
                            paper_scale_preset, run_experiment,
                            sparse_direction, summarize_coverage)
from lpboot.lp import LpExponent
from lpboot.sampling import MarginalKind

SMALL = dict(n=40, d=20, mc_reps=4, B=200, truth_reps=200, block=2,
             cv_folds=3, cv_grid_size=5)


def small_cfg(kind, **over):
    kw = dict(SMALL)
    kw.update(over)
    return ExperimentConfig(kind=kind, **kw)


class TestExperimentConfig:
    def test_defaults(self):
        cfg = ExperimentConfig(kind="ks")
        assert cfg.n == 200 and cfg.d == 200 and cfg.block == 2
        assert cfg.marginal is MarginalKind.UNIFORM_SYM
        assert len(cfg.p_list) == 4
        assert cfg.estimators == ("proxy", "gmb", "naive", "corr_cv")

    def test_power_fills_delta_grid(self):
        cfg = ExperimentConfig(kind="power-dense", n=100, d=100)
        assert len(cfg.delta_grid) == 13
        assert cfg.delta_grid[0] == 0.0
        assert cfg.delta_grid[-1] == pytest.approx(6.0 / 100.0)

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            ExperimentConfig(kind="mystery")
        with pytest.raises(ValueError):
            ExperimentConfig(kind="ks", d=10, block=3)
        with pytest.raises(ValueError):
            ExperimentConfig(kind="ks", alpha=1.5)
        with pytest.raises(ValueError):
            ExperimentConfig(kind="ks", mc_reps=0)

    def test_rejects_unknown_estimator(self):
        with pytest.raises(ValueError, match="'gmbb'"):
            ExperimentConfig(kind="ks", estimators=("proxy", "gmbb"))
        with pytest.raises(ValueError, match="'corrcv'"):
            config_from_dict({"kind": "coverage", "estimators": "naive,corrcv"})

    def test_paper_scale_preset(self):
        cfg = paper_scale_preset("coverage")
        assert cfg.d == 1000 and cfg.mc_reps == 1000 and cfg.truth_reps == 5000


class TestDeltaGrid:
    def test_dense_scale(self):
        grid = default_delta_grid("power-dense", 200, 200)
        assert grid[-1] == pytest.approx(6.0 / math.sqrt(200 * 200))

    def test_sparse_scale(self):
        grid = default_delta_grid("power-sparse", 200, 200)
        assert grid[-1] == pytest.approx(6.0 * math.sqrt(math.log(200) / 200))

    def test_sparse_direction(self):
        v = sparse_direction(200)
        k = 2 * math.ceil(math.sqrt(math.log(200)) / 2)
        assert v.sum() == k and set(v) == {0.0, 1.0}


class TestConfigParsing:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text(
            "# comment line\n"
            "kind = ks\n"
            "n=50  # inline comment\n"
            "d = 20\n"
            "block = 2\n"
            "marginal = heavy\n"
            "p_list = 1, 2, logd, inf\n"
            "estimators = naive, corr_cv\n"
            "standardize = false\n"
            "seed = 7\n")
        cfg = parse_config(str(path))
        assert cfg.kind == "ks" and cfg.n == 50 and cfg.d == 20
        assert cfg.marginal is MarginalKind.STUDENT_T4
        assert cfg.p_list == (LpExponent.finite(1), LpExponent.finite(2),
                              LpExponent.log_dim(), LpExponent.infinity())
        assert cfg.estimators == ("naive", "corr_cv")
        assert cfg.standardize is False and cfg.seed == 7

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            config_from_dict({"kind": "ks", "bogus": "1"})

    def test_missing_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            config_from_dict({"n": "10"})

    def test_malformed_line_reports_position(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("kind=ks\nnot a pair\n")
        with pytest.raises(ValueError, match=":2:"):
            parse_config(str(path))

    def test_bad_value_rejected(self):
        with pytest.raises(ValueError, match="bad config value"):
            config_from_dict({"kind": "ks", "n": "many"})


class TestKsExperiment:
    def test_schema_and_determinism(self, tmp_path):
        out = str(tmp_path / "ks.csv")
        cfg = small_cfg("ks", estimators=("naive",), output_path=out, seed=3)
        rows = run_experiment(cfg)
        lines = open(out).read().splitlines()
        assert lines[0] == "rep,p,estimator,ks"
        assert lines[1:] == rows
        assert len(rows) == cfg.mc_reps * len(cfg.p_list)
        for row in rows:
            rep, p, est, ks = row.split(",")
            assert est == "naive" and 0.0 <= float(ks) <= 1.0
        # identical config reproduces byte-identical output
        cfg2 = small_cfg("ks", estimators=("naive",), output_path=out, seed=3)
        assert run_experiment(cfg2) == rows

    def test_threads_do_not_change_output(self, tmp_path):
        one = small_cfg("ks", estimators=("proxy", "gmb"), seed=5, threads=1)
        four = small_cfg("ks", estimators=("proxy", "gmb"), seed=5, threads=4)
        assert run_experiment(one) == run_experiment(four)

    def test_proxy_tracks_truth(self):
        # the oracle engine should sit close to the simulated truth
        cfg = small_cfg("ks", estimators=("proxy",), mc_reps=8, B=400,
                        truth_reps=400, seed=9)
        ks_vals = [float(r.split(",")[3]) for r in run_experiment(cfg)]
        assert np.median(ks_vals) <= 0.25


class TestCoverageExperiment:
    def test_schema_summary_and_rate(self, tmp_path):
        out = str(tmp_path / "cov.csv")
        cfg = small_cfg("coverage", estimators=("proxy",), mc_reps=100,
                        output_path=out, seed=2,
                        p_list=(LpExponent.finite(2),))
        rows = run_experiment(cfg)
        assert open(out).read().splitlines()[0] == "rep,p,estimator,covered"
        summary = open(str(tmp_path / "cov.summary.csv")).read().splitlines()
        assert summary[0] == "p,estimator,coverage,se,reps"
        p, est, cov, se, reps = summary[1].split(",")
        assert (p, est, reps) == ("2", "proxy", "100")
        assert float(cov) == np.mean([int(r.split(",")[3]) for r in rows])
        assert abs(float(cov) - 0.95) <= 0.08  # binomial noise at 100 reps

    def test_summarize_coverage_direct(self):
        rows = ["0,2,naive,1", "1,2,naive,0", "0,inf,naive,1", "1,inf,naive,1"]
        out = summarize_coverage(rows)
        assert out[0].startswith("2,naive,0.5,")
        assert out[1].startswith("inf,naive,1,")


class TestPowerExperiment:
    def test_monotone_and_schema(self, tmp_path):
        out = str(tmp_path / "pw.csv")
        cfg = small_cfg("power-dense", mc_reps=20, output_path=out, seed=4,
                        p_list=(LpExponent.finite(1),),
                        delta_grid=(0.0, 0.5))
        rows = run_experiment(cfg)
        assert open(out).read().splitlines()[0] == "delta,p,power,mc_se"
        power = {float(r.split(",")[0]): float(r.split(",")[2]) for r in rows}
        assert power[0.0] <= 0.25          # near the nominal level
        assert power[0.5] == 1.0           # huge shift always detected

    def test_sparse_uses_sparse_direction(self):
        cfg = small_cfg("power-sparse", mc_reps=10, seed=6,
                        p_list=(LpExponent.infinity(),), delta_grid=(3.0,))
        rows = run_experiment(cfg)
        assert float(rows[0].split(",")[2]) == 1.0


class TestProbeExperiment:
    def test_rows_and_pass_rate(self, tmp_path):
        out = str(tmp_path / "probe.csv")
        cfg = small_cfg("probe", truth_reps=1000, output_path=out, seed=8)
        rows = run_experiment(cfg)
        assert open(out).read().splitlines()[0] == \
            "probe,instance,estimate,bound,C,n_mc,passed"
        # 2 dims x 3 p x 2 eps levy rows + 4 scales x |p_list| comparison rows
        assert len(rows) == 12 + 4 * len(cfg.p_list)
        assert all(r.split(",")[-1] == "1" for r in rows)


class TestCli:
    def test_missing_out_is_config_error(self, capsys):
        assert main(["ks"]) == 2
        assert "output path" in capsys.readouterr().err

    def test_unknown_command(self):
        assert main(["frobnicate"]) == 2

    def test_experiment_roundtrip(self, tmp_path, capsys):
        cfgfile = tmp_path / "c.txt"
        cfgfile.write_text(
            "kind=ks\nn=30\nd=10\nblock=2\nmc_reps=2\nB=100\n"
            "truth_reps=100\ncv_folds=3\ncv_grid_size=4\nestimators=naive\n")
        out = tmp_path / "o.csv"
        assert main(["ks", "--config", str(cfgfile), "--out", str(out), "--seed", "1"]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "rep,p,estimator,ks" and len(lines) == 1 + 2 * 4

    def test_kind_mismatch_rejected(self, tmp_path, capsys):
        cfgfile = tmp_path / "c.txt"
        cfgfile.write_text("kind=coverage\nn=10\nd=4\nblock=2\n")
        assert main(["ks", "--config", str(cfgfile), "--out", str(tmp_path / "o.csv")]) == 2

    def test_power_kind_from_config(self, tmp_path):
        cfgfile = tmp_path / "c.txt"
        cfgfile.write_text(
            "kind=power-sparse\nn=30\nd=10\nblock=2\nmc_reps=2\nB=100\n"
            "truth_reps=100\ncv_folds=3\ncv_grid_size=4\n"
            "p_list=inf\ndelta_grid=0.0,2.0\n")
        out = tmp_path / "o.csv"
        assert main(["power", "--config", str(cfgfile), "--out", str(out)]) == 0
        assert out.read_text().splitlines()[0] == "delta,p,power,mc_se"

    def test_threads_env_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HDBOOT_THREADS", "3")
        from lpboot.cli import _threads_default
        assert _threads_default() == 3
        monkeypatch.setenv("HDBOOT_THREADS", "junk")
        assert _threads_default() == 1

    def test_test_subcommand(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        data = tmp_path / "x.csv"
        np.savetxt(data, rng.normal(size=(40, 3)) + 3.0, delimiter=",")
        out = tmp_path / "res.csv"
        code = main(["test", str(data), "--estimator", "naive", "--B", "200",
                     "--p", "inf", "--out", str(out)])
        assert code == 0
        stdout = capsys.readouterr().out.splitlines()
        assert stdout[0].startswith("statistic,critical_value")
        row = out.read_text().splitlines()[1].split(",")
        assert row[3] == "1"  # shift of 3 sigma rejects
        assert row[4] == "inf"

    def test_test_subcommand_missing_file(self, capsys):
        assert main(["test", "/nonexistent.csv"]) == 2

    def test_volume_subcommand(self, capsys):
        assert main(["volume", "--d", "2", "--p", "2", "--r", "1"]) == 0
        assert float(capsys.readouterr().out) == pytest.approx(math.pi, rel=1e-10)

    def test_volume_log_fallback(self, capsys):
        assert main(["volume", "--d", "3000", "--p", "inf", "--r", "4"]) == 0
        outv = capsys.readouterr().out
        assert outv.startswith("log_volume=")
        assert float(outv.split("=")[1]) == pytest.approx(3000 * math.log(8.0), rel=1e-9)

    def test_volume_bad_args(self, capsys):
        assert main(["volume", "--d", "0", "--p", "2", "--r", "1"]) == 2
