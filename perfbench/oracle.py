"""Independent checks of lpboot's outputs, written with plain numpy and
exact rational arithmetic rather than lpboot's own helpers."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

STAT_RTOL = 1e-9


def plain_norm(v: np.ndarray, label: str) -> float:
    """lp-norm of v for the exponent labels the workloads use."""
    a = np.abs(v)
    if label == "inf":
        return float(a.max())
    q = math.log(v.size) if label == "logd" else float(label)
    return float((a ** q).sum() ** (1.0 / q))


def critical_index(alpha: float, B: int) -> int:
    """1-based order-statistic index ceil((1 - alpha) B), computed exactly
    for the decimal level alpha was written as."""
    k = (1 - Fraction(repr(alpha))) * B
    return -(-k.numerator // k.denominator)


def check_test_result(X: np.ndarray, p_label: str, alpha: float, B: int, res) -> list:
    """Violations of one run_test result (M = I, m0 = 0); empty when correct."""
    bad = []
    n = X.shape[0]
    stat = plain_norm(X.sum(axis=0) / math.sqrt(n), p_label)
    if not math.isclose(res.statistic, stat, rel_tol=STAT_RTOL):
        bad.append(f"statistic {res.statistic!r} != {stat!r}")
    draws = np.sort(np.asarray(res.distribution.samples, dtype=float))
    if draws.size != B:
        return bad + [f"{draws.size} draws, expected {B}"]
    crit = float(draws[critical_index(alpha, B) - 1])
    if res.critical_value != crit:
        bad.append(f"critical value {res.critical_value!r} != order statistic {crit!r}")
    p_value = int(np.count_nonzero(draws >= res.statistic)) / B
    if res.p_value != p_value:
        bad.append(f"p_value {res.p_value!r} != {p_value!r}")
    if res.reject != (res.statistic >= res.critical_value):
        bad.append(f"reject {res.reject} disagrees with statistic >= critical value")
    return bad


def check_ks_rows(rows: list, reps: int, estimators, p_labels) -> dict:
    """Violations per replicate index in harness KS rows ('rep,p,estimator,ks').

    Rows must come rep-major, then estimator, then p, with every KS value in
    [0, 1]; a missing, extra or malformed row marks its replicate failed.
    """
    expected = [(rep, p, est) for rep in range(reps) for est in estimators for p in p_labels]
    bad: dict = {}
    if len(rows) != len(expected):
        bad[-1] = [f"{len(rows)} rows, expected {len(expected)}"]
    for i, (rep, p, est) in enumerate(expected):
        if i >= len(rows):
            bad.setdefault(rep, []).append("row missing")
            continue
        fields = rows[i].split(",")
        if fields[:3] != [str(rep), p, est] or len(fields) != 4:
            bad.setdefault(rep, []).append(f"row {i} is {rows[i]!r}, expected {rep},{p},{est},<ks>")
            continue
        ks = float(fields[3])
        if not 0.0 <= ks <= 1.0:
            bad.setdefault(rep, []).append(f"KS {ks!r} outside [0, 1]")
    return bad
