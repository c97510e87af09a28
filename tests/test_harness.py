"""Experiment configuration, CSV emission, determinism, and the CLI."""

import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lpboot
from lpboot import cli, harness, parallel, sampling
from lpboot.bootstrap import MAX_DRAWS, gmb_draws, gpb_draws, proxy_draws
from lpboot.cli import main
from lpboot.covariance import cv_select_lambda, sample_covariance
from lpboot.harness import (ENGINES, KINDS, ExperimentConfig, config_from_dict,
                            default_delta_grid, default_p_list, parse_config,
                            paper_scale_preset, run_experiment,
                            sparse_direction, summarize_coverage)
from lpboot.inference import EstimatorSpec, estimate_covariance
from lpboot.lp import LpExponent
from lpboot.sampling import (MarginalKind, RngSeed, build_block_covariance,
                             copula_covariance, copula_sample)

SMALL = dict(n=40, d=20, mc_reps=4, B=200, truth_reps=200, block=2,
             cv_folds=3, cv_grid_size=5)


def small_cfg(kind, **over):
    kw = dict(SMALL)
    kw.update(over)
    return ExperimentConfig(kind=kind, **kw)


def assert_threads_do_not_change_output(tmp_path, kind, **over):
    """Run kind at 1 and 3 worker threads; the returned rows and every
    written file must match byte for byte.  Returns the written file names."""
    runs = []
    for threads in (1, 3):
        outdir = tmp_path / f"threads{threads}"
        outdir.mkdir()
        cfg = small_cfg(kind, seed=5, threads=threads, output_path=str(outdir / "o.csv"), **over)
        rows = run_experiment(cfg)
        runs.append((rows, {f.name: f.read_bytes() for f in outdir.iterdir()}))
    assert runs[0] == runs[1]
    return set(runs[0][1])


def run_with_one_blas_thread(*args: str) -> str:
    """stdout of `python args` in a child process whose BLAS runs one thread."""
    src = os.path.dirname(os.path.dirname(lpboot.__file__))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class TestExperimentConfig:
    def test_defaults(self):
        cfg = ExperimentConfig(kind="ks")
        assert cfg.n == 200 and cfg.d == 200 and cfg.block == 2
        assert cfg.marginal is MarginalKind.UNIFORM_SYM
        assert len(cfg.p_list) == 4
        assert cfg.estimators == ("proxy", "gmb", "naive", "corr_cv")
        assert cfg.threads == len(os.sched_getaffinity(0)) >= 1
        # CV's 10 folds x 40 points are EstimatorSpec's
        cv = EstimatorSpec("corr_cv")
        assert (cfg.cv_folds, tuple(cfg.cv_grid)) == (cv.cv_folds, cv.cv_grid)
        assert (cfg.cv_folds, len(cfg.cv_grid)) == (10, 40)
        # d / 100 where 100 divides d, else 2 for an even d and 1 for an odd one
        for d, block in ((300, 3), (1000, 10), (50, 2), (250, 2), (51, 1), (3, 1)):
            assert ExperimentConfig(kind="ks", d=d).block == block

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
        with pytest.raises(ValueError, match="block must be nonnegative"):
            ExperimentConfig(kind="ks", d=10, block=-2)
        with pytest.raises(ValueError):
            ExperimentConfig(kind="ks", alpha=1.5)
        with pytest.raises(ValueError):
            ExperimentConfig(kind="ks", mc_reps=0)
        with pytest.raises(ValueError, match=re.escape(f"B must lie in [1, {MAX_DRAWS}]")):
            ExperimentConfig(kind="ks", B=MAX_DRAWS + 1)
        with pytest.raises(ValueError, match=re.escape(f"truth_reps must lie in [1, {MAX_DRAWS}]")):
            ExperimentConfig(kind="ks", truth_reps=MAX_DRAWS + 1)
        for name in ("cv_grid_size", "cv_folds", "threads"):
            with pytest.raises(ValueError, match=name):
                ExperimentConfig(kind="power-dense", **{name: 0})
        for name in ("p_list", "estimators"):
            with pytest.raises(ValueError, match=name):
                ExperimentConfig(kind="ks", **{name: ()})
        for kind in ("ks", "coverage", "power-sparse"):
            with pytest.raises(ValueError, match="n=3 too small"):
                ExperimentConfig(kind=kind, n=3, d=10, block=2, estimators=("gmb", "cv"))
        with pytest.raises(ValueError, match="d >= 3"):
            ExperimentConfig(kind="probe", d=2, block=2)
        # sizes are checked before the power delta grid is derived from them
        for kind, bad in (("power-dense", dict(n=0)), ("power-sparse", dict(n=-5)),
                          ("power-sparse", dict(d=0))):
            with pytest.raises(ValueError, match=f"{next(iter(bad))} must be >= 1"):
                ExperimentConfig(kind=kind, **bad)
        with pytest.raises(ValueError, match="p_list 2, 2 names one exponent twice"):
            config_from_dict({"kind": "coverage", "p_list": "2,2"})
        with pytest.raises(ValueError, match="p_list inf, 1, inf"):
            ExperimentConfig(kind="ks", p_list=(LpExponent.infinity(), LpExponent.finite(1),
                                                LpExponent.infinity()))
        for grid in ((0.0, math.nan), (math.inf,), (0.0, -math.inf)):
            with pytest.raises(ValueError, match="delta_grid values must be finite"):
                ExperimentConfig(kind="power-dense", delta_grid=grid)
        with pytest.raises(ValueError, match="seed must be nonnegative"):
            ExperimentConfig(kind="ks", seed=-1)
        # sizes too large for a float are bad values, not overflows
        for kind, big in (("power-dense", dict(n=10**400)), ("power-sparse", dict(n=10**400)),
                          ("power-dense", dict(d=10**400, block=1))):
            with pytest.raises(ValueError, match="too large for a float"):
                ExperimentConfig(kind=kind, **big)
        # so are sizes past the largest array numpy can index, and shifts that
        # overflow: each failed only after compute started
        for kind, big in (("ks", dict(n=10**23)), ("ks", dict(n=10**400)),
                          ("coverage", dict(d=2**31, block=1)),
                          ("power-dense", dict(n=10**23, delta_grid=(0.0, 1.0)))):
            with pytest.raises(ValueError, match=r"n \* d and d \* d must be at most"):
                ExperimentConfig(kind=kind, **big)
        for kind, grid in (("power-dense", (0.0, 1e308)), ("power-sparse", (-1e308,)),
                           ("power-dense", (0.0, 2e307))):
            with pytest.raises(ValueError, match=r"delta_grid values times sqrt\(n\)"):
                ExperimentConfig(kind=kind, delta_grid=grid)
        ExperimentConfig(kind="power-dense", n=30, d=10, block=2, delta_grid=(0.0, 1e307))
        # no CV runs here, so three rows are enough
        ExperimentConfig(kind="ks", n=3, d=10, block=2, estimators=("naive", "proxy"))
        # proxy draws from the true covariance; every other engine needs two rows
        ExperimentConfig(kind="coverage", n=1, d=10, block=2, estimators=("proxy",))
        ExperimentConfig(kind="probe", n=3)

    def test_rejects_a_sparse_alternative_at_d_1(self):
        # sparse_direction(1) is zero, so every delta would estimate the size
        # as power; an explicit grid does not help
        small = dict(n=12, d=1, p_list=(LpExponent.finite(1), LpExponent.finite(2)),
                     mc_reps=3, B=20, cv_folds=2, cv_grid_size=3, threads=1)
        for grid in ((), (0.0, 0.5)):
            with pytest.raises(ValueError, match="d >= 2, got d=1"):
                ExperimentConfig(kind="power-sparse", delta_grid=grid, **small)
        assert not sparse_direction(1).any()
        assert sparse_direction(2).all()
        ExperimentConfig(kind="power-sparse", **{**small, "d": 2})
        ExperimentConfig(kind="power-dense", **small)

    @pytest.mark.parametrize("bad", [dict(cv_grid_size=0), dict(B=MAX_DRAWS + 1),
                                     dict(truth_reps=MAX_DRAWS + 1)])
    def test_bad_config_fails_before_any_compute(self, tmp_path, monkeypatch, bad):
        def no_compute(*args, **kwargs):
            raise AssertionError("copula_sample ran before the config was checked")

        monkeypatch.setattr(harness, "copula_sample", no_compute)
        cfgfile = tmp_path / "c.txt"
        cfgfile.write_text("kind=ks\nn=30\nd=10\nblock=2\nmc_reps=2\n"
                           + "".join(f"{k}={v}\n" for k, v in bad.items()))
        with pytest.raises(ValueError):
            run_experiment(parse_config(str(cfgfile)))

    @pytest.mark.parametrize("kind", ["ks", "coverage"])
    @pytest.mark.parametrize("estimators", ["gmb", "naive", "hard(0.1)", "band(1)",
                                            "proxy,gmb"])
    def test_one_row_needs_proxy_alone(self, tmp_path, monkeypatch, capsys, kind, estimators):
        values = {"kind": kind, "n": "1", "d": "10", "block": "2", "estimators": estimators}
        with pytest.raises(ValueError, match="need at least two observations"):
            config_from_dict(values)

        def no_truth(*args, **kwargs):
            raise AssertionError("the truth phase ran before the config was checked")

        monkeypatch.setattr(harness, "_truth_distributions", no_truth)
        cfgfile = tmp_path / "c.txt"
        cfgfile.write_text("".join(f"{k}={v}\n" for k, v in values.items()))
        assert main([kind, "--config", str(cfgfile), "--out", str(tmp_path / "o.csv")]) == 2
        assert "error: need at least two observations" in capsys.readouterr().err

    def test_rejects_unknown_estimator(self):
        with pytest.raises(ValueError, match="'gmbb'"):
            ExperimentConfig(kind="ks", estimators=("proxy", "gmbb"))
        with pytest.raises(ValueError, match="'corrcv'"):
            config_from_dict({"kind": "coverage", "estimators": "naive,corrcv"})
        with pytest.raises(ValueError, match="'hardly'"):
            ExperimentConfig(kind="ks", estimators=("hardly", "bandit"))
        # two spellings of one spec
        with pytest.raises(ValueError, match="twice"):
            config_from_dict({"kind": "ks", "estimators": "cv, corr_cv"})

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

    def test_rejects_a_kind_without_a_grid(self):
        for kind in ("ks", "power", "probe"):
            with pytest.raises(ValueError, match=f"no delta grid for kind '{kind}'"):
                default_delta_grid(kind, 200, 200)

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
            "estimators = naive, corr_cv, hard(0.2), band(1)\n"
            "seed = 7\n")
        cfg = parse_config(str(path))
        assert cfg.kind == "ks" and cfg.n == 50 and cfg.d == 20
        assert cfg.marginal is MarginalKind.STUDENT_T4
        assert cfg.p_list == (LpExponent.finite(1), LpExponent.finite(2),
                              LpExponent.log_dim(), LpExponent.infinity())
        assert cfg.estimators == ("naive", "corr_cv", "hard(0.2)", "band(1)")
        assert cfg.seed == 7

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            config_from_dict({"kind": "ks", "bogus": "1"})
        # the copula is always standardized and the block decay fixed at 0.8
        for key, value in (("standardize", "false"), ("decay", "0.5")):
            with pytest.raises(ValueError, match=f"unknown config keys: {key}$"):
                config_from_dict({"kind": "ks", key: value})

    def test_keys_are_the_config_fields(self):
        # every field is a key: a junk value is a bad value, not an unknown key
        for f in dataclasses.fields(ExperimentConfig):
            try:
                config_from_dict({"kind": "ks", f.name: "junk"})
            except ValueError as exc:
                assert "unknown config keys" not in str(exc), f.name
        # and nothing else is
        with pytest.raises(ValueError, match="unknown config keys: KIND, rng, seeds$"):
            config_from_dict({"kind": "ks", "seeds": "1", "rng": "1", "KIND": "ks"})

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

    @given(st.dictionaries(
        st.sampled_from(sorted(harness._PARSERS)) | st.text(max_size=6),
        st.text(max_size=12) | st.integers(-10**400, 10**400).map(str)
        | st.sampled_from(["0", "1", "3", "1e400", "nan", "-inf", "2,logd,inf", "cv,naive",
                           "hard(0.1),band(2)", "hard(1e400)", "gmb,gmb", "uniform"]),
        max_size=6), st.sampled_from(KINDS) | st.text(max_size=8))
    @example({"n": "9" * 400}, "ks")
    @example({"n": "9" * 400}, "power-dense")
    @settings(max_examples=300, deadline=None)
    def test_parsers_raise_only_value_errors(self, values, kind):
        with pytest.MonkeyPatch.context() as mp:
            def no_compute(*args, **kwargs):
                raise AssertionError("a config check ran compute")

            mp.setattr(harness, "run_experiment", no_compute)
            mp.setattr(harness, "estimate_covariance", no_compute)
            mp.setattr(harness, "copula_sample", no_compute)
            try:
                config_from_dict({**values, "kind": kind})
            except ValueError:
                pass
            for text in values.values():
                try:
                    EstimatorSpec.parse(text)
                except ValueError:
                    pass


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
        assert assert_threads_do_not_change_output(tmp_path, "ks", estimators=ENGINES) \
            == {"o.csv"}
        (tmp_path / "specs").mkdir()
        assert assert_threads_do_not_change_output(
            tmp_path / "specs", "ks", estimators=("hard(0.2)", "band(1)")) == {"o.csv"}

    def test_rows_depend_only_on_the_spec(self):
        def rows_by_engine(*estimators):
            out = {}
            for row in run_experiment(small_cfg("ks", estimators=estimators, seed=11)):
                rep, p, est, ks = row.split(",")
                out.setdefault(est, []).append((rep, p, ks))
            return out

        alone = rows_by_engine("hard(0.2)")
        mixed = rows_by_engine("naive", "band(1)", "hard(0.2)", "cv")
        assert mixed["hard(0.2)"] == alone["hard(0.2)"]
        # the estimator column keeps the label as written
        assert mixed["cv"] == rows_by_engine("corr_cv")["corr_cv"]

    def test_blas_threads_do_not_change_output(self, tmp_path):
        # at these sizes OpenBLAS splits no product over threads, so the bytes
        # would agree even unpinned (they do up to d = 200);
        # test_blas_threads_do_not_change_draws_where_blas_splits covers d = 320
        cfgfile = tmp_path / "c.txt"
        cfgfile.write_text("kind=ks\nn=60\nd=40\nblock=2\nmc_reps=2\nB=600\n"
                           "truth_reps=100\ncv_folds=3\ncv_grid_size=4\nseed=13\n"
                           # serial here, where BLAS keeps its default threads
                           "threads=1\n")
        single = tmp_path / "single.csv"
        run_with_one_blas_thread("-m", "lpboot.cli", "ks", "--config", str(cfgfile),
                                 "--out", str(single), "--threads", "1")
        cfg = parse_config(str(cfgfile))
        assert cfg.estimators == ENGINES
        outputs = []
        # CV's fold pool would pin BLAS to one thread: first fully serial,
        # then with the folds pooled
        for cores in (1, 3):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(parallel, "_available_cores", lambda: cores)
                cfg.output_path = str(tmp_path / f"cores{cores}.csv")
                run_experiment(cfg)
            outputs.append(open(cfg.output_path, "rb").read())
        assert outputs == [single.read_bytes()] * 2

    def test_worker_count_does_not_change_output_where_blas_splits(self, blas_at_two,
                                                                  monkeypatch):
        # d = 500: a serial run that left BLAS two threads wrote other bytes
        # than a pooled run, whose hold pins it to one
        monkeypatch.setattr(parallel, "_available_cores", lambda: 2)
        kw = dict(kind="ks", n=200, d=500, estimators=("proxy", "gmb", "naive"), mc_reps=2,
                  B=200, truth_reps=50, seed=0)
        assert run_experiment(ExperimentConfig(threads=1, **kw)) == \
            run_experiment(ExperimentConfig(threads=2, **kw))
        assert blas_at_two() == 2

    def test_proxy_tracks_truth(self):
        # the oracle engine should sit close to the simulated truth
        cfg = small_cfg("ks", estimators=("proxy",), mc_reps=8, B=400,
                        truth_reps=400, seed=9)
        ks_vals = [float(r.split(",")[3]) for r in run_experiment(cfg)]
        assert np.median(ks_vals) <= 0.25


CV_RISKS = """
import json, sys
import numpy as np
from lpboot.covariance import cv_select_lambda
from lpboot.sampling import RngSeed
print(json.dumps([cv_select_lambda(np.load(path), list(np.linspace(0.0, 1.0, 10)), 3,
                                   RngSeed(k)) for k, path in enumerate(sys.argv[1:])]))
"""


def test_cv_risks_do_not_depend_on_blas_threads(tmp_path):
    # d * d > 10000 entries, so OpenBLAS would split a dot product over threads
    S = build_block_covariance(120, 2, 0.8, RngSeed(0))
    paths = []
    for k in range(3):
        paths.append(str(tmp_path / f"x{k}.npy"))
        np.save(paths[-1], copula_sample(S, MarginalKind.UNIFORM_SYM, 60, RngSeed(1).child(k)))
    here = []
    # fully serial at the default BLAS thread count, then with the folds
    # pooled and BLAS pinned to one thread
    for cores in (1, 3):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(parallel, "_available_cores", lambda: cores)
            here.append([cv_select_lambda(np.load(path), list(np.linspace(0.0, 1.0, 10)), 3,
                                          RngSeed(k)) for k, path in enumerate(paths)])
    # risk lists hold NaN where a grid point was pruned; NaN must match NaN
    for other in (here[1], json.loads(run_with_one_blas_thread("-c", CV_RISKS, *paths))):
        for (lam, risks), (lam0, risks0) in zip(other, here[0], strict=True):
            assert lam == lam0 and np.array_equal(risks, risks0, equal_nan=True)


DRAW_DIGESTS = """
import hashlib, json
import numpy as np
from lpboot.bootstrap import gpb_draws
from lpboot.inference import EstimatorSpec, TestSpec, estimate_covariance, run_test
from lpboot.lp import LpExponent
from lpboot.sampling import RngSeed

n, d = 200, 320
X = RngSeed(2).generator().standard_normal((n, d))
X[:, 1::2] += X[:, ::2]  # correlated neighbours, which hard(0.2) and band(2) keep
draws = {}
for est in ("naive", "hard(0.2)", "band(2)"):
    spec = TestSpec(np.eye(d), np.zeros(d), LpExponent.finite(2), 0.05,
                    EstimatorSpec.parse(est), 500, RngSeed(3))
    draws[est] = run_test(X, spec).distribution.samples
Sigma = estimate_covariance(X, EstimatorSpec("naive"), RngSeed(0))
draws["gpb"] = gpb_draws(Sigma, LpExponent.finite(2), 500, RngSeed(5)).samples
print(json.dumps({k: hashlib.sha256(v.tobytes()).hexdigest() for k, v in draws.items()}))
"""


def test_blas_threads_do_not_change_draws_where_blas_splits(blas_at_two, capsys):
    # d = 320: OpenBLAS on two threads splits eigh and the products, and
    # changes their last bits, unless the call holds the pin
    exec(DRAW_DIGESTS, {})
    here = json.loads(capsys.readouterr().out)
    assert blas_at_two() == 2
    assert here == json.loads(run_with_one_blas_thread("-c", DRAW_DIGESTS))


class TestEngineDraws:
    def test_replicate_draws_equal_public_engines(self):
        # B spans many blocks, the last cut short; each engine keeps its sub-stream
        cfg = small_cfg("ks", n=30, d=10, B=4097)
        S = build_block_covariance(cfg.d, cfg.block, perm_seed=RngSeed(1))
        Sigma_X = copula_covariance(S, cfg.marginal)
        X = copula_sample(S, cfg.marginal, cfg.n, RngSeed(2))
        rep = RngSeed(3).child(2, 7)
        cv = EstimatorSpec("corr_cv", cv_folds=cfg.cv_folds, cv_grid=tuple(cfg.cv_grid))
        Sigma_cv = estimate_covariance(X, cv, rep.child(4))
        Sigma_hard = estimate_covariance(X, EstimatorSpec("hard", lam=0.2), rep.child(4))
        Sigma_band = estimate_covariance(X, EstimatorSpec("band", ell=2), rep.child(4))
        expected = {
            "proxy": lambda p: proxy_draws(Sigma_X, p, cfg.B, rep.child(1)),
            "gmb": lambda p: gmb_draws(X, p, cfg.B, rep.child(2)),
            "naive": lambda p: gpb_draws(sample_covariance(X), p, cfg.B, rep.child(3)),
            "corr_cv": lambda p: gpb_draws(Sigma_cv, p, cfg.B, rep.child(5)),
            "hard(0.2)": lambda p: gpb_draws(Sigma_hard, p, cfg.B,
                                             rep.child(6, *(0.2).as_integer_ratio())),
            "band(2)": lambda p: gpb_draws(Sigma_band, p, cfg.B, rep.child(7, 2)),
        }
        assert cfg.p_list == default_p_list()
        for engine in expected:
            draws = harness._engine_draws(engine, X, Sigma_X, cfg, rep)
            for p in cfg.p_list:
                assert np.array_equal(draws[p].samples, expected[engine](p).samples), (engine, p)


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

    def test_close_exponents_get_a_summary_row_each(self, tmp_path):
        # both exponents printed as 2 under %g, so their rows were merged
        out = tmp_path / "cov.csv"
        ps = (LpExponent.finite(2.0000001), LpExponent.finite(2.0000002))
        run_experiment(small_cfg("coverage", estimators=("naive",), mc_reps=3, p_list=ps,
                                 output_path=str(out)))
        summary = (tmp_path / "cov.summary.csv").read_text().splitlines()[1:]
        assert [(row.split(",")[:2], row.split(",")[-1]) for row in summary] == [
            (["2.0000001", "naive"], "3"), (["2.0000002", "naive"], "3")]

    def test_summarize_coverage_direct(self):
        records = [(0, "2", "naive", 1), (1, "2", "naive", 0),
                   (0, "inf", "naive", 1), (1, "inf", "naive", 1)]
        out = summarize_coverage(records)
        assert out[0][:3] == ("2", "naive", 0.5)
        assert out[1][:3] == ("inf", "naive", 1.0)


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
        header, *written = open(out).read().splitlines()
        assert header == "probe,instance,estimate,bound,C,n_mc,passed"
        assert written == rows
        assert all(len(r.split(",")) == len(header.split(",")) for r in rows)
        # 2 dims x 3 p x 2 eps levy rows + 4 scales x |p_list| comparison rows
        assert len(rows) == 12 + 4 * len(cfg.p_list)
        assert all(r.startswith("levy,levy:") for r in rows[:12])
        assert all(r.startswith("comparison_ks,comparison:") for r in rows[12:])
        assert all(r.split(",")[-1] == "1" for r in rows)


@pytest.mark.parametrize("kind,files", [
    ("coverage", {"o.csv", "o.summary.csv"}),
    ("power-dense", {"o.csv"}),
    ("power-sparse", {"o.csv"}),
    ("probe", {"o.csv"}),
])
def test_threads_do_not_change_output(tmp_path, kind, files):
    assert assert_threads_do_not_change_output(tmp_path, kind) == files


def test_shared_covariances_factored_once(monkeypatch):
    # a slow factorization lets every worker reach the shared covariances'
    # caches before the first one fills them
    calls = []

    def slow_counting(S):
        calls.append(S.provenance)
        time.sleep(0.05)
        return factorize(S)

    factorize = sampling.factorize_psd
    monkeypatch.setattr(sampling, "factorize_psd", slow_counting)
    run_experiment(small_cfg("coverage", estimators=("proxy",), threads=3))
    assert len(calls) == 2


class TestPoolBlasThreads:
    @pytest.fixture(autouse=True)
    def two_cores(self, monkeypatch):
        # the pool is capped at the usable cores; these tests need two workers
        monkeypatch.setattr(parallel, "_available_cores", lambda: 2)

    def test_workers_run_one_blas_thread(self, blas_at_two):
        assert harness._run_indexed(lambda i: blas_at_two(), 6, 2) == [1] * 6
        assert blas_at_two() == 2

    def test_count_restored_when_a_worker_raises(self, blas_at_two):
        seen = []

        def worker(i):
            seen.append(blas_at_two())
            if i == 3:
                raise RuntimeError("replicate failed")

        with pytest.raises(RuntimeError, match="replicate failed"):
            harness._run_indexed(worker, 6, 2)
        assert seen and set(seen) == {1}
        assert blas_at_two() == 2

    def test_serial_run_leaves_blas_alone(self, blas_at_two):
        assert harness._run_indexed(lambda i: blas_at_two(), 3, 1) == [2] * 3
        assert blas_at_two() == 2


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

    def test_sparse_flag_against_config_kind(self, tmp_path, monkeypatch, capsys):
        seen = []
        monkeypatch.setattr(cli, "run_experiment", seen.append)
        out = str(tmp_path / "o.csv")
        dense, sparse = tmp_path / "dense.txt", tmp_path / "sparse.txt"
        dense.write_text("kind=power-dense\n")
        sparse.write_text("kind=power-sparse\n")
        assert main(["power", "--sparse", "--config", str(dense), "--out", out]) == 2
        assert "error: --sparse conflicts with config kind 'power-dense'" in capsys.readouterr().err
        assert seen == []
        for argv in (["--config", str(sparse)], ["--sparse", "--config", str(sparse)],
                     ["--sparse"], []):
            assert main(["power", *argv, "--out", out]) == 0
        assert [cfg.kind for cfg in seen] == ["power-sparse"] * 3 + ["power-dense"]

    def test_missing_power_config_is_config_error(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.txt")
        assert main(["power", "--config", missing, "--out", str(tmp_path / "o.csv")]) == 2
        assert "cannot read config" in capsys.readouterr().err

    def test_threads_precedence(self, tmp_path, monkeypatch):
        # --threads, then the config's threads
        cfgfile = tmp_path / "c.txt"
        cfgfile.write_text("kind=ks\nthreads=3\n")
        seen = []
        monkeypatch.setattr(cli, "run_experiment", seen.append)
        argv = ["ks", "--config", str(cfgfile), "--out", str(tmp_path / "o.csv")]
        for extra in ([], ["--threads", "4"]):
            assert main(argv + extra) == 0
        assert [cfg.threads for cfg in seen] == [3, 4]

    def test_threads_ignore_the_environment(self, tmp_path, monkeypatch):
        cfgfile = tmp_path / "c.txt"
        cfgfile.write_text("kind=ks\nthreads=3\n")
        seen = []
        monkeypatch.setattr(cli, "run_experiment", seen.append)
        for env in ("2", "junk", "-7"):
            monkeypatch.setenv("HDBOOT_THREADS", env)
            assert main(["ks", "--config", str(cfgfile), "--out", str(tmp_path / "o.csv")]) == 0
            assert main(["ks", "--out", str(tmp_path / "o.csv")]) == 0
        assert [cfg.threads for cfg in seen] == [3, len(os.sched_getaffinity(0))] * 3

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
        assert row[5:7] == ["0.05", "naive"]

    def test_test_subcommand_writes_the_exact_alpha(self, tmp_path, capsys):
        # %g would write 0.0123457, another level
        data = tmp_path / "x.csv"
        np.savetxt(data, np.random.default_rng(0).normal(size=(40, 3)), delimiter=",")
        out = tmp_path / "res.csv"
        assert main(["test", str(data), "--estimator", "hard(0.123456789)", "--B", "200",
                     "--p", "2.0000001", "--alpha", "0.0123456789", "--out", str(out)]) == 0
        row = out.read_text().splitlines()[1].split(",")
        assert row[4:7] == ["2.0000001", "0.0123456789", "hard(0.123456789)"]
        assert float(row[5]) == 0.0123456789

    @pytest.mark.parametrize("data, extra, message", [
        ("\n".join(f"{1e307 * k},1" for k in range(1, 11)), [], "the test statistic overflows"),
        ("1,2,3\n4,5,6\n7,8,1\n2,2,2", ["--M-file", "M.csv"],
         "the conjugation M Sigma_hat M' overflows"),
        # rows x1, -x1, x2, -x2, x3, -x3: statistic 0, draws past the largest float
        ("\n".join(",".join(repr(s * 3e307 * v) for v in x) for x in
                   ([1.2, 1.25, 1.3, 1.22], [1.21, 1.29, 1.24, 1.27], [1.28, 1.23, 1.26, 1.2])
                   for s in (1, -1)), [], "the bootstrap draws overflow"),
    ], ids=["column-sum", "M-file", "draws"])
    def test_test_subcommand_overflow_is_one_error_line(self, tmp_path, data, extra, message):
        # in a child process, so warnings print as they would for a user
        (tmp_path / "x.csv").write_text(data + "\n")
        (tmp_path / "M.csv").write_text("1e300,1e300,1e300\n" * 3)
        src = os.path.dirname(os.path.dirname(lpboot.__file__))
        proc = subprocess.run(
            [sys.executable, "-m", "lpboot.cli", "test", "x.csv", "--estimator", "naive", *extra],
            cwd=tmp_path, capture_output=True, text=True, timeout=300,
            env=dict(os.environ, PYTHONPATH=src, PYTHONWARNINGS=""))
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == [proc.stderr.strip()]
        assert proc.stderr.startswith(f"error: {message}")

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

    @pytest.mark.parametrize("d, p, r", [("2000", "1", "1"), ("5", "2", "1e-320"),
                                         ("5", "2", "1e-63")])  # subnormal, ~5e-315
    def test_volume_log_fallback_on_underflow(self, capsys, d, p, r):
        assert main(["volume", "--d", d, "--p", p, "--r", r]) == 0
        outv = capsys.readouterr().out
        assert outv.startswith("log_volume=")
        d, p, r = int(d), float(p), float(r)
        exact = d * math.log(2.0 * r) + d * math.lgamma(1.0 + 1.0 / p) - math.lgamma(1.0 + d / p)
        assert float(outv.split("=")[1]) == pytest.approx(exact, rel=1e-11)

    @pytest.mark.parametrize("d", ["1", "3"])
    @pytest.mark.parametrize("r", ["1e308", repr(sys.float_info.max)])
    def test_volume_log_where_the_diameter_overflows(self, capsys, d, r):
        # 2r passes the largest float: the log volume is d (log 2 + log r) + ...
        assert main(["volume", "--d", d, "--p", "2", "--r", r]) == 0
        outv = capsys.readouterr().out
        assert outv.startswith("log_volume=")
        d, r = int(d), float(r)
        exact = d * (math.log(2.0) + math.log(r)) + d * math.lgamma(1.5) - math.lgamma(1.0 + d / 2)
        assert float(outv.split("=")[1]) == pytest.approx(exact, rel=1e-11)

    def test_volume_bad_args(self, capsys):
        assert main(["volume", "--d", "0", "--p", "2", "--r", "1"]) == 2


FUZZ_FILES = {
    "x.csv": "1,2,3\n4,5,6\n7,8,1\n2,2,2\n",
    "empty.csv": "",
    "nan.csv": "1,2\nnan,3\n4,5\n",
    "inf.csv": "1,2\ninf,3\n4,5\n",
    "onecol.csv": "1\n2\n3\n4\n5\n6\n",
    "onerow.csv": "1,2,3\n",
    "M_cols.csv": "1,0\n0,1\n",
    "m0_long.csv": "0\n0\n0\n0\n",
    "empty_p.txt": "kind=ks\nn=30\nd=10\nblock=2\np_list=\n",
    "empty_estimators.txt": "kind=coverage\nn=30\nd=10\nblock=2\nestimators= ,\n",
    "tiny_cv.txt": "kind=ks\nn=3\nd=10\nblock=2\nestimators=naive,cv\n",
    "tiny_power.txt": "kind=power-dense\nn=3\nd=10\nblock=2\n",
    "logd_d2.txt": "kind=ks\nd=2\nblock=2\np_list=2,logd\n",
    "power_n0.txt": "kind=power-dense\nn=0\n",
    "sparse_d0.txt": "kind=power-sparse\nd=0\n",
    "repeated_p.txt": "kind=coverage\nn=30\nd=10\nblock=2\nmc_reps=3\np_list=2,2\n",
    "nan_delta.txt": "kind=power-dense\nn=30\nd=10\nblock=2\ndelta_grid=0,nan\n",
    "negative_seed.txt": "kind=ks\nn=30\nd=10\nblock=2\nseed=-1\n",
    "negative_block.txt": "kind=ks\nn=30\nd=10\nblock=-2\n",
    "small_ks.txt": "kind=ks\nn=30\nd=10\nblock=2\n",
    "many_truth.txt": f"kind=ks\nn=30\nd=10\nblock=2\ntruth_reps={MAX_DRAWS + 1}\n",
    "huge_delta.txt": "kind=power-dense\nn=30\nd=10\nblock=2\ndelta_grid=0,1e308\n",
    "huge_n.txt": f"kind=ks\nn={10**23}\nd=10\nblock=2\n",
    "malformed.csv": "1,2\n3,x\n4,5\n",
    "repeated_key.txt": "kind=ks\nn=40\nd=10\nblock=2\n n = 30\n",
    "sparse_d1.txt": "kind=power-sparse\nn=30\nd=1\np_list=1,2\n",
}


# cases that must exit 2 before any data is drawn or any test runs
EARLY_FAILURES = [
    ["test", "x.csv", "--estimator", "hard(nan)"],
    ["test", "x.csv", "--estimator", "hard(inf)"],
    ["test", "x.csv", "--estimator", "hard(-1)"],
    ["test", "x.csv", "--estimator", "band(-1)"],
    ["test", "x.csv", "--out", "nodir/o.csv"],
    ["ks", "--out", "nodir/o.csv"],
    ["ks", "--threads", "0", "--out", "o.csv"],
    ["ks", "--config", "empty_p.txt", "--out", "o.csv"],
    ["coverage", "--config", "empty_estimators.txt", "--out", "o.csv"],
    ["ks", "--config", "tiny_cv.txt", "--out", "o.csv"],
    ["power", "--config", "tiny_power.txt", "--out", "o.csv"],
    ["ks", "--config", "logd_d2.txt", "--out", "o.csv"],
    ["power", "--config", "power_n0.txt", "--out", "o.csv"],
    ["power", "--config", "sparse_d0.txt", "--out", "o.csv"],
    ["coverage", "--config", "repeated_p.txt", "--out", "o.csv"],
    ["power", "--config", "nan_delta.txt", "--out", "o.csv"],
    ["ks", "--config", "negative_seed.txt", "--out", "o.csv"],
    ["ks", "--config", "negative_block.txt", "--out", "o.csv"],
    ["ks", "--paper-scale", "--config", "small_ks.txt", "--out", "o.csv"],
    ["ks", "--seed", "-1", "--out", "o.csv"],
    ["test", "x.csv", "--seed", "-1"],
    ["test", "missing.csv", "--seed", "-1"],
]
# more such cases, listed last below so that earlier cases keep their ids
LATER_EARLY_FAILURES = [
    ["ks", "--config", "many_truth.txt", "--out", "o.csv"],
    ["ks", "--config", "small_ks.txt", "--out", "outdir"],
    ["test", "x.csv", "--out", "outdir"],
    ["power", "--config", "huge_delta.txt", "--out", "o.csv"],
    ["ks", "--config", "huge_n.txt", "--out", "o.csv"],
    ["test", "malformed.csv"],
    ["ks", "--config", "repeated_key.txt", "--out", "o.csv"],
    ["power", "--config", "sparse_d1.txt", "--sparse", "--out", "o.csv"],
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv", [
    ["test", "empty.csv"],
    ["test", "nan.csv", "--B", "50"],
    ["test", "onecol.csv", "--B", "50"],
    ["test", "onerow.csv"],
    ["test", "x.csv", "--M-file", "M_cols.csv"],
    ["test", "x.csv", "--m0-file", "m0_long.csv"],
    ["test", "x.csv", "--m0-file", "empty.csv"],
    ["test", "x.csv", "--p", "0.5"],
    ["test", "x.csv", "--p", "abc"],
    ["test", "x.csv", "--alpha", "1.5"],
    ["test", "x.csv", "--alpha", "x"],
    ["test", "x.csv", "--B", "0"],
    ["test", "x.csv", "--B", str(MAX_DRAWS + 1), "--estimator", "naive"],
    ["test", "x.csv", "--estimator", "bogus"],
    ["test", "x.csv", "--estimator", "hard(x)"],
    ["ks", "--config", "missing.txt", "--out", "o.csv"],
    ["coverage", "--config", "missing.txt", "--out", "o.csv"],
    ["power", "--config", "missing.txt", "--out", "o.csv"],
    ["probe", "--config", "missing.txt", "--out", "o.csv"],
    ["test", "inf.csv", "--B", "50"],
    *EARLY_FAILURES,
    ["volume", "--d", "2", "--p", "2", "--r", "inf"],
    ["volume", "--d", "2", "--p", "2", "--r", "nan"],
    *LATER_EARLY_FAILURES,
])
def test_cli_bad_input_exits_cleanly(tmp_path, monkeypatch, capsys, argv):
    for name, text in FUZZ_FILES.items():
        (tmp_path / name).write_text(text)
    (tmp_path / "outdir").mkdir()
    monkeypatch.chdir(tmp_path)
    if argv in EARLY_FAILURES + LATER_EARLY_FAILURES:
        def no_compute(*args, **kwargs):
            raise AssertionError("compute ran before the options were checked")

        monkeypatch.setattr(harness, "copula_sample", no_compute)
        monkeypatch.setattr(cli, "run_test", no_compute)
    code = main(argv)
    err = capsys.readouterr().err
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if "missing.txt" in argv:
        assert code == 2
    if argv[1] == "empty.csv":
        assert code == 2 and "error: empty.csv: no data" in err
    if argv[1] in ("nan.csv", "inf.csv"):
        assert code == 2 and f"error: {argv[1]}: non-finite value" in err
    if argv[1] == "malformed.csv":
        assert code == 2 and "error: malformed CSV malformed.csv" in err
    if argv[2:3] in (["--p"], ["--estimator"]):
        assert code == 2 and f"error: {argv[2]} {argv[3]!r}" in err
    if "nodir/o.csv" in argv:
        assert code == 2 and "nodir/o.csv" in err
    if "outdir" in argv:
        assert code == 2 and "error: cannot write outdir: it is a directory" in err
    if "--threads" in argv:
        assert code == 2 and "threads" in err
    if argv[0] == "volume":
        assert code == 2 and "r < inf" in err
    if "--paper-scale" in argv:
        assert code == 2 and "not allowed with argument --paper-scale" in err
    if "--seed" in argv:
        assert code == 2 and "seed must be nonnegative" in err
    if argv[0] == "test" and "--seed" in argv:
        assert "error: --seed -1:" in err
    expected = {"empty_p.txt": "p_list", "empty_estimators.txt": "estimators",
                "tiny_cv.txt": "n=3 too small", "tiny_power.txt": "n=3 too small",
                "logd_d2.txt": "d=2", "power_n0.txt": "error: n must be >= 1",
                "sparse_d0.txt": "error: d must be >= 1",
                "repeated_p.txt": "p_list 2, 2 names one exponent twice",
                "nan_delta.txt": "delta_grid values must be finite",
                "negative_seed.txt": "seed must be nonnegative",
                "negative_block.txt": "error: block must be nonnegative",
                "many_truth.txt": f"error: truth_reps must lie in [1, {MAX_DRAWS}]",
                "huge_delta.txt": "error: delta_grid values times sqrt(n) must be finite",
                "huge_n.txt": "error: n * d and d * d must be at most",
                "repeated_key.txt": "repeated_key.txt:5: config key 'n' repeats line 2",
                "sparse_d1.txt": "error: a sparse alternative needs d >= 2, got d=1",
                }.get(argv[2] if len(argv) > 2 else "")
    if expected:
        assert code == 2 and expected in err


def test_paper_scale_checks_the_output_before_compute(tmp_path, monkeypatch, capsys):
    def no_compute(*args, **kwargs):
        raise AssertionError("compute ran before the options were checked")

    monkeypatch.setattr(harness, "copula_sample", no_compute)
    monkeypatch.setattr(harness, "build_block_covariance", no_compute)
    out = tmp_path / "missing" / "x.csv"
    assert main(["ks", "--paper-scale", "--out", str(out)]) == 2
    assert f"error: cannot write {out}: no directory" in capsys.readouterr().err


@pytest.mark.parametrize("where", ["missing directory", "directory"])
def test_run_experiment_checks_the_output_path_before_compute(tmp_path, monkeypatch, where):
    def no_compute(*args, **kwargs):
        raise AssertionError("compute ran before the output path was checked")

    monkeypatch.setattr(harness, "build_block_covariance", no_compute)
    out = tmp_path / "missing" / "o.csv" if where == "missing directory" else tmp_path
    cfg = ExperimentConfig(kind="ks", n=20, d=20, mc_reps=3, B=100, truth_reps=50, block=2,
                           output_path=str(out))
    message = "no directory" if where == "missing directory" else "it is a directory"
    with pytest.raises(ValueError, match=f"cannot write .*: {message}"):
        run_experiment(cfg)


@pytest.mark.parametrize("argv", [["test", "x.csv", "--B", "50"],
                                  ["ks", "--config", "small_ks.txt", "--out", "o.csv"]])
@pytest.mark.parametrize("exc", [RuntimeError("boom"), MemoryError("boom"),
                                 np.linalg.LinAlgError("boom")])
def test_runtime_failure_exits_1_without_a_traceback(tmp_path, monkeypatch, capsys, argv, exc):
    for name in ("x.csv", "small_ks.txt"):
        (tmp_path / name).write_text(FUZZ_FILES[name])
    monkeypatch.chdir(tmp_path)

    def fail(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, "run_test", fail)
    monkeypatch.setattr(cli, "run_experiment", fail)
    assert main(argv) == 1
    assert capsys.readouterr().err == "runtime error: boom\n"
