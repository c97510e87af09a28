"""A config that passes its checks runs to the end.

Each key of an experiment config (through config_from_dict and `lpboot ks`,
`coverage`, `power` and `probe`) and of a one-shot test (through TestSpec
with run_test and `lpboot test`) is drawn from edge values. Either the checks
reject the draw with a ValueError before any compute starts, or the run
completes with finite numbers. Only tiny accepted configs run, on at most two
threads; the others are constructed and their guarantees checked, so that no
draw allocates or starts threads at a huge size.

Every count the library takes from outside (sizes, draws, folds, seeds and
stream indices) must be an integer: anything else is a ValueError before any
compute, and an integer of any type gives the bytes of the plain int.
"""

import contextlib
import dataclasses
import hashlib
import io
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, event, example, given, settings
from hypothesis import strategies as st

from lpboot import bootstrap, cli, covariance, diagnostics, harness, inference, sampling
from lpboot.bootstrap import MAX_DRAWS
from lpboot.cli import main
from lpboot.covariance import CovMatrix, band, cv_select_lambda
from lpboot.diagnostics import comparison_ks, levy_concentration
from lpboot.harness import KINDS, ExperimentConfig, config_from_dict, run_experiment
from lpboot.inference import EstimatorSpec, lp_ball_volume, run_test
from lpboot.lp import LpExponent
from lpboot.sampling import (MarginalKind, RngSeed, build_block_covariance, copula_sample,
                             mvn_sample)

HUGE, SUBNORMAL = str(10**30), "5e-324"
DEFAULT = None  # a drawn key left out, so that it takes ExperimentConfig's default
# integers: 0, 1, negative, small, huge, and floats that no integer key accepts, as
# text and as non-integral floats (which reach the library as they are)
COUNTS = ["0", "1", "-1", "2", "3", HUGE, "1e308", "nan", "inf", SUBNORMAL, 0.5, 2.5, DEFAULT]
ALPHAS = ["0", "1", "-1", "0.05", "1e-300", SUBNORMAL, "0.9999999999999999", "1e308",
          "nan", "inf"]
P_LISTS = ["1", "1e308", "logd", "inf", "1,1e308,logd,inf", "0.5", "0", "-1", "nan",
           SUBNORMAL, DEFAULT]
DELTAS = ["0", "1e308", "1.7976931348623157e308", "1e153,1e154", "0,1e-300", SUBNORMAL,
          "-1", "nan", "inf", DEFAULT]
ESTIMATORS = ["proxy", "gmb", "naive", "corr_cv", "hard(0)", "hard(1e308)", "hard(5e-324)",
              "hard(nan)", "hard(inf)", "band(0)", "band(-1)", "band(1)", "proxy,corr_cv",
              "gmb,naive,band(2)", DEFAULT]
EDGES = {
    "n": COUNTS + ["4", "6"], "d": COUNTS + ["4", "6"], "block": COUNTS + ["4"],
    "mc_reps": COUNTS, "B": COUNTS, "truth_reps": COUNTS, "seed": COUNTS,
    "cv_folds": COUNTS, "cv_grid_size": COUNTS, "threads": COUNTS, "alpha": ALPHAS + [DEFAULT],
    "p_list": P_LISTS, "delta_grid": DELTAS, "estimators": ESTIMATORS,
    "marginal": ["uniform", "t4", "normal", "bogus", DEFAULT],
}
# the keys a draw leaves as they are; the sizes of a config that runs, past
# which it is only constructed
TINY = {"n": "4", "d": "4", "block": "2", "mc_reps": "2", "B": "10", "truth_reps": "10",
        "threads": "2", "cv_folds": "2", "cv_grid_size": "3"}
RUN_CAPS = {"n": 6, "d": 6, "mc_reps": 2, "B": 10, "truth_reps": 10, "threads": 2,
            "cv_folds": 3, "cv_grid_size": 3}
LABELS = {"p", "estimator", "probe", "instance"}  # the CSV columns that hold no number


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """path(text): a file that holds text, written once in one directory for
    the module, so that no example waits on the file system."""
    root = tmp_path_factory.mktemp("edges")

    def path(text: str) -> str:
        file = root / hashlib.sha256(text.encode()).hexdigest()
        if not file.exists():
            file.write_text(text)
        return str(file)

    return path


def _main(argv: list) -> int:
    """cli.main(argv), asserting that it prints no traceback."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv)
    assert "Traceback" not in err.getvalue()
    return code


def _no_compute(*args, **kwargs):
    raise AssertionError("compute ran for a config its checks reject")


def _check_constructed(cfg) -> None:
    """What the constructor guarantees of a config too large to run."""
    assert min(cfg.n, cfg.d, cfg.mc_reps, cfg.B, cfg.truth_reps, cfg.cv_folds,
               cfg.cv_grid_size, cfg.threads) >= 1 and cfg.seed >= 0
    assert cfg.d % cfg.block == 0 and 0.0 < cfg.alpha < 1.0
    assert max(cfg.B, cfg.truth_reps) <= MAX_DRAWS
    assert max(cfg.n, cfg.d) * cfg.d <= np.iinfo(np.intp).max // 8
    assert math.isfinite(math.sqrt(cfg.n) * max(map(abs, cfg.delta_grid), default=0.0))
    for p in cfg.p_list:
        p.resolve(cfg.d)


def _edges(table: dict):
    """Up to three keys of table, each with one of its edge values."""
    return st.dictionaries(st.sampled_from(sorted(table)), st.none(), max_size=3).flatmap(
        lambda keys: st.fixed_dictionaries({key: st.sampled_from(table[key]) for key in keys}))


@given(kind=st.sampled_from(KINDS), drawn=_edges(EDGES))
@example(kind="probe", drawn={"p_list": "1e308"})  # a NaN comparison bound
@example(kind="ks", drawn={"B": 2.5})  # ran, then failed inside numpy
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_an_accepted_config_runs_to_the_end(files, kind, drawn):
    values = {key: value for key, value in {"kind": kind, **TINY, **drawn}.items()
              if value is not DEFAULT}
    path = files("".join(f"{key}={value}\n" for key, value in values.items()))
    argv = [kind.partition("-")[0], "--config", path, "--out", path + ".csv"]
    # a float reaches the library through replace, as the CLI's --seed and
    # --threads do; the config file holds its text
    floats = {key: value for key, value in values.items() if isinstance(value, float)}
    try:
        cfg = dataclasses.replace(config_from_dict(
            {key: value for key, value in values.items() if key not in floats}), **floats)
    except ValueError:
        cfg = None
    large = cfg is not None and any(getattr(cfg, key) > cap for key, cap in RUN_CAPS.items())
    event("rejected" if cfg is None else "constructed only" if large else "run")
    with pytest.MonkeyPatch.context() as mp:
        seen = []
        mp.setattr(cli, "run_experiment", seen.append)  # the CLI's run is the one below
        if cfg is None:
            mp.setattr(harness, "copula_sample", _no_compute)
            assert _main(argv) == 2 and seen == []
            return
        assert _main(argv) == 0
        assert seen == [dataclasses.replace(cfg, output_path=path + ".csv")]
    if large:
        _check_constructed(cfg)
        return
    header = harness._EXPERIMENTS[cfg.kind][0].split(",")
    rows = run_experiment(cfg)
    assert rows
    for row in rows:
        for name, text in zip(header, row.split(","), strict=True):
            # a comparison bound past the largest float is inf, as where it has no side
            assert name in LABELS or math.isfinite(float(text)) or (
                name == "bound" and float(text) == math.inf), (name, row)


# a fixed tiny data set: 6 rows, 4 coordinates, with a common factor
DATA = (RngSeed(5).generator().standard_normal((6, 4))
        + RngSeed(6).generator().standard_normal((6, 1)))
# 1e160 is finite, and so is its sum over DATA's rows, but its square is not
ENTRIES = [0.0, 1.0, -1.0, 1e160, 1e308, 5e-324, math.nan, math.inf]
# the options of `lpboot test`, as text, with CV's folds and grid and the
# restriction map (its row count and its one entry) and target (its entry)
TEST_EDGES = {
    "p": ["1", "1e308", "logd", "inf", "0.5", "nan", SUBNORMAL], "alpha": ALPHAS,
    "B": COUNTS[:-1], "seed": COUNTS[:-1],
    "estimator": ["corr_cv", "hard(0)", "hard(1e308)", "hard(5e-324)", "hard(nan)", "band(0)",
                  "band(-1)", "band(9)"],
    "cv_folds": [0, 1, -1, 2, 2.5], "cv_grid": [(0.5,), (0.0,), (1.0,), (math.nan,), (2.0,)],
    "M": [(rows, entry) for rows in (1, 2, 4) for entry in ENTRIES], "m0": ENTRIES,
}
TEST_TINY = {"p": "2", "alpha": "0.05", "B": "7", "seed": "0", "estimator": "naive",
             "cv_folds": None, "cv_grid": None, "M": None, "m0": None}


def _count(value):
    """A drawn count as `lpboot test` parses its text, or the float itself."""
    return value if isinstance(value, float) else int(value)


@given(drawn=_edges(TEST_EDGES))
@example(drawn={"M": (1, 1e160)})  # the conjugation overflowed once CV had run
@example(drawn={"B": 2.5})  # ran, then failed inside numpy
@example(drawn={"estimator": "corr_cv", "cv_folds": 2.5})
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_an_accepted_test_spec_runs_to_the_end(files, drawn):
    opt = {**TEST_TINY, **drawn}
    rows = 4 if opt["M"] is None else opt["M"][0]
    M = np.eye(4) if opt["M"] is None else np.full((rows, 4), opt["M"][1])
    m0 = np.zeros(rows) if opt["m0"] is None else np.full(rows, opt["m0"])
    cv = {key: opt[key] for key in ("cv_folds", "cv_grid") if opt[key] is not None}
    estimate_covariance, estimated = inference.estimate_covariance, []

    def estimate(*args, **kwargs):
        estimated.append(True)
        return estimate_covariance(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(inference, "estimate_covariance", estimate)
        try:  # with the parsers `lpboot test` applies to its options
            estimator = dataclasses.replace(EstimatorSpec.parse(opt["estimator"]), **cv)
            spec = inference.TestSpec(M=M, m0=m0, p=LpExponent.parse(opt["p"]),
                                      alpha=float(opt["alpha"]), estimator=estimator,
                                      B=_count(opt["B"]), seed=RngSeed(_count(opt["seed"])))
            res = run_test(DATA, spec)
        except ValueError:
            assert not estimated, "a ValueError after compute started"
            res = None
    event("rejected" if res is None else "run")
    if res is not None:
        assert all(math.isfinite(v) for v in (res.statistic, res.critical_value, res.p_value))
        assert np.isfinite(res.distribution.samples).all()
    if cv:  # `lpboot test` takes CV's defaults
        return

    def csv(values: np.ndarray) -> str:
        return files("".join(",".join(f"{v:.17g}" for v in row) + "\n" for row in values))

    argv = ["test", csv(DATA)] + [f"--{key}={opt[key]}"
                                  for key in ("p", "alpha", "B", "seed", "estimator")]
    if opt["M"] is not None:
        argv += ["--M-file", csv(M)]
    if opt["m0"] is not None:
        argv += ["--m0-file", csv(m0[:, None])]
    with pytest.MonkeyPatch.context() as mp:
        if res is None:
            mp.setattr(inference, "estimate_covariance", _no_compute)
        assert _main(argv) == (0 if res is not None else 2)


# every count that comes from outside, as a call of it: (call, a valid count,
# the call's first compute steps as (owner, attribute))
S = CovMatrix(np.eye(4) + 0.5, provenance="equicorrelated")
P2 = LpExponent.finite(2)
SIZES = {"n": 4, "d": 4, "block": 2, "mc_reps": 2, "B": 10, "truth_reps": 10, "threads": 1,
         "cv_folds": 2, "cv_grid_size": 3, "seed": 0}


def _spec_and_result(B):
    spec = inference.TestSpec(np.eye(4), np.zeros(4), P2, 0.05, EstimatorSpec("naive"), B,
                              RngSeed(0))
    return spec, run_test(DATA, spec)


def _config_and_rows(**count):
    cfg = ExperimentConfig(kind="ks", **{**SIZES, **count})
    return cfg, run_experiment(cfg)


def _seed_and_draws(seed):
    return seed, seed.generator().random(3)


COUNT_SITES = {
    "band": (lambda v: band(S, v), 1, [(covariance, "_keep_off_diagonal")]),
    "EstimatorSpec.ell": (lambda v: EstimatorSpec("band", ell=v), 1, []),
    "EstimatorSpec.cv_folds": (lambda v: EstimatorSpec("corr_cv", cv_folds=v), 2, []),
    "cv_select_lambda": (lambda v: cv_select_lambda(DATA, (0.0, 0.5), v, RngSeed(0)), 2,
                         [(covariance, "_cv_fold")]),
    "TestSpec.B": (_spec_and_result, 7, [(inference, "_statistic_inputs")]),
    "_norm_draws": (lambda v: bootstrap._norm_draws(np.eye(4), (P2,), v, RngSeed(0)), 7,
                    [(RngSeed, "generator")]),
    "RngSeed": (lambda v: _seed_and_draws(RngSeed(v)), 3, [(RngSeed, "generator")]),
    "RngSeed.child": (lambda v: _seed_and_draws(RngSeed(1).child(v)), 3,
                      [(RngSeed, "generator")]),
    "mvn_sample": (lambda v: mvn_sample(S.factor(), v, RngSeed(0)), 5, [(RngSeed, "generator")]),
    "copula_sample": (lambda v: copula_sample(S, MarginalKind.UNIFORM_SYM, v, RngSeed(0)), 5,
                      [(sampling, "mvn_sample")]),
    "build_block_covariance.d": (lambda v: build_block_covariance(v, 2), 4,
                                 [(sampling, "CovMatrix")]),
    "build_block_covariance.block": (lambda v: build_block_covariance(4, v), 2,
                                     [(sampling, "CovMatrix")]),
    "levy_concentration": (lambda v: levy_concentration(CovMatrix(S.values), P2, 0.1, v,
                                                        RngSeed(0)), 1000,
                           [(diagnostics, "lp_norm"), (diagnostics, "proxy_draws")]),
    "comparison_ks": (lambda v: comparison_ks(S, CovMatrix(2.0 * S.values), P2, v, RngSeed(0)),
                      1000, [(diagnostics, "proxy_draws")]),
    "lp_ball_volume": (lambda v: lp_ball_volume(v, 2.0, 1.0), 3, [(inference, "gammaln")]),
    **{f"ExperimentConfig.{name}": (lambda v, name=name: _config_and_rows(**{name: v}), k,
                                    [(harness, "build_block_covariance")])
       for name, k in SIZES.items()},
}


@pytest.mark.parametrize("value", [2.5, 1000.0, "3", None])
@pytest.mark.parametrize("site", sorted(COUNT_SITES))
def test_a_count_that_is_no_integer_is_rejected_before_compute(monkeypatch, site, value):
    call, _, steps = COUNT_SITES[site]
    for owner, name in steps:
        monkeypatch.setattr(owner, name, _no_compute)
    with pytest.raises(ValueError, match=f"must be an integer, not {value!r}"):
        call(value)


def _bytes(out) -> str:
    """out down to the bytes of its arrays and the types and reprs of the rest."""
    if isinstance(out, np.ndarray):
        return f"{out.dtype}{out.shape}:{out.tobytes().hex()}"
    if isinstance(out, (list, tuple)):
        return "(" + ", ".join(map(_bytes, out)) + ")"
    if isinstance(out, dict):
        return "{" + ", ".join(f"{_bytes(k)}: {_bytes(v)}" for k, v in out.items()) + "}"
    if dataclasses.is_dataclass(out):
        return type(out).__name__ + _bytes(vars(out))
    return f"{type(out).__name__}({out!r})"


def _outcome(call, count) -> str:
    try:
        return _bytes(call(count))
    except ValueError as exc:
        return f"ValueError: {exc}"


@pytest.mark.parametrize("site", sorted(COUNT_SITES))
def test_an_integer_of_any_type_gives_the_plain_ints_bytes(site):
    call, k, _ = COUNT_SITES[site]
    assert _outcome(call, np.int64(k)) == _outcome(call, k)
    assert _outcome(call, True) == _outcome(call, 1)
