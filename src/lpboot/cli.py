"""Command-line front end: experiment drivers (ks, coverage, power, probe),
one-shot hypothesis tests on CSV data, and lp-ball volumes.

Exit codes: 0 success, 2 configuration/usage error, 1 runtime failure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import warnings
from dataclasses import replace

import numpy as np

from .bootstrap import _seed_label
from .harness import (ExperimentConfig, _format, _write_csv, config_from_dict,
                      parse_config, paper_scale_preset, run_experiment)
from .inference import EstimatorSpec, TestSpec, run_test
from .inference import lp_ball_volume
from .lp import LpExponent
from .sampling import RngSeed

CONFIG_ERROR = 2
RUNTIME_ERROR = 1
TEST_HEADER = "statistic,critical_value,p_value,reject,p,alpha,estimator,B,seed"


class ConfigError(ValueError):
    """Bad input from the command line or from a file it names."""


def _parse_option(option: str, parse, text: str):
    """parse(text), with a failure reported as a bad value of option."""
    try:
        return parse(text)
    except ValueError as exc:
        raise ConfigError(f"{option} {text!r}: {exc}") from exc


def _check_out_dir(path: str) -> None:
    """Fail before any compute when path names a directory or a file in a
    missing directory."""
    if os.path.isdir(path):
        raise ConfigError(f"cannot write {path}: it is a directory")
    directory = os.path.dirname(path) or "."
    if not os.path.isdir(directory):
        raise ConfigError(f"cannot write {path}: no directory {directory}")


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="lpboot",
                                 description="Bootstrap inference for high-dimensional lp-statistics")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_experiment(name: str, help_text: str):
        sp = sub.add_parser(name, help=help_text)
        source = sp.add_mutually_exclusive_group()
        source.add_argument("--config", help="flat key=value configuration file")
        sp.add_argument("--seed", type=int, help="master seed (overrides config)")
        sp.add_argument("--out", help="output CSV path (overrides config)")
        sp.add_argument("--threads", type=int, default=None,
                        help="worker threads (default: the config's threads, else "
                             "the cores this process may use)")
        source.add_argument("--paper-scale", action="store_true",
                            help="full-size preset (hours of compute)")
        return sp

    add_experiment("ks", "distribution-estimation accuracy experiment")
    add_experiment("coverage", "confidence-set coverage experiment")
    pw = add_experiment("power", "power-curve experiment")
    pw.add_argument("--sparse", action="store_true",
                    help="sparse alternative (default: dense)")
    add_experiment("probe", "concentration/comparison diagnostic probes")

    ts = sub.add_parser("test", help="bootstrap mean test on a CSV data file")
    ts.add_argument("data", help="CSV of observations, one row per sample")
    ts.add_argument("--header", action="store_true", help="skip one header line")
    ts.add_argument("--M-file", dest="M_file", help="CSV restriction matrix (default: identity)")
    ts.add_argument("--m0-file", dest="m0_file", help="CSV target vector (default: zero)")
    ts.add_argument("--p", default="2", help="norm exponent: number, 'logd', or 'inf'")
    ts.add_argument("--alpha", type=float, default=0.05)
    ts.add_argument("--estimator", default="corr_cv",
                    help="naive | hard(l) | corr_cv | band(l)")
    ts.add_argument("--B", type=int, default=1000)
    ts.add_argument("--seed", type=int, default=0)
    ts.add_argument("--out", help="write the result row to this CSV file")

    vol = sub.add_parser("volume", help="volume of the lp-ball of radius r")
    vol.add_argument("--d", type=int, required=True)
    vol.add_argument("--p", required=True, help="norm exponent: number or 'inf'")
    vol.add_argument("--r", type=float, required=True)
    return ap


def _experiment_config(args) -> ExperimentConfig:
    """Config for an experiment subcommand; the power subcommand runs
    whichever power kind a config file names (--sparse picks it otherwise,
    and is an error beside a power-dense config)."""
    command = args.command
    kind = command
    if command == "power":
        kind = "power-sparse" if args.sparse else "power-dense"
    if args.paper_scale:
        cfg = paper_scale_preset(kind)
    elif args.config:
        try:
            cfg = parse_config(args.config)
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
        if cfg.kind.partition("-")[0] != command:
            raise ConfigError(f"config kind {cfg.kind!r} does not match subcommand {command!r}")
        if command == "power" and args.sparse and cfg.kind == "power-dense":
            raise ConfigError("--sparse conflicts with config kind 'power-dense'")
    else:
        cfg = config_from_dict({"kind": kind})
    # through replace, so that the config's own checks see these values too
    return replace(cfg, threads=cfg.threads if args.threads is None else args.threads,
                   seed=cfg.seed if args.seed is None else args.seed,
                   output_path=args.out or cfg.output_path)


def _load_csv(path: str, skip_header: bool = False, ndmin: int = 2) -> np.ndarray:
    try:
        with warnings.catch_warnings():
            # an empty file is reported below, not as numpy's warning
            warnings.simplefilter("ignore", UserWarning)
            values = np.loadtxt(path, delimiter=",", skiprows=1 if skip_header else 0,
                                ndmin=ndmin)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"malformed CSV {path}: {exc}") from exc
    if values.size == 0:
        raise ConfigError(f"{path}: no data")
    if not np.isfinite(values).all():
        raise ConfigError(f"{path}: non-finite value")
    return values


def _cmd_test(args) -> int:
    p = _parse_option("--p", LpExponent.parse, args.p)
    estimator = _parse_option("--estimator", EstimatorSpec.parse, args.estimator)
    seed = _parse_option("--seed", RngSeed, args.seed)
    if args.out:
        _check_out_dir(args.out)
    X = _load_csv(args.data, skip_header=args.header)
    d = X.shape[1]
    M = _load_csv(args.M_file) if args.M_file else np.eye(d)
    m0 = _load_csv(args.m0_file, ndmin=1).ravel() if args.m0_file else np.zeros(M.shape[0])
    spec = TestSpec(M=M, m0=m0, p=p, alpha=args.alpha, estimator=estimator, B=args.B,
                    seed=seed)
    res = run_test(X, spec)
    row = _format((res.statistic, res.critical_value, res.p_value, int(res.reject), p.label,
                   f"{args.alpha:g}", estimator.label, args.B, _seed_label(seed)))
    print(TEST_HEADER)
    print(row)
    if args.out:
        _write_csv(args.out, TEST_HEADER, [row])
    return 0


def _cmd_volume(args) -> int:
    p = _parse_option("--p", LpExponent.parse, args.p)
    vol = lp_ball_volume(args.d, p.resolve(args.d), args.r)
    # a subnormal volume keeps too few bits for 12 digits; the log is exact
    if sys.float_info.min <= vol.volume < math.inf:
        print(f"{vol.volume:.12g}")
    else:
        print(f"log_volume={vol.log_volume:.12g}")
    return 0


def main(argv=None) -> int:
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return CONFIG_ERROR if exc.code not in (0, None) else 0
    try:
        if args.command == "test":
            return _cmd_test(args)
        if args.command == "volume":
            return _cmd_volume(args)
        cfg = _experiment_config(args)
        if not cfg.output_path:
            raise ConfigError("an output path is required (--out or output_path=...)")
        _check_out_dir(cfg.output_path)
        run_experiment(cfg)
        return 0
    except ValueError as exc:  # ConfigError is one
        print(f"error: {exc}", file=sys.stderr)
        return CONFIG_ERROR
    except Exception as exc:  # runtime failure
        print(f"runtime error: {exc}", file=sys.stderr)
        return RUNTIME_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
