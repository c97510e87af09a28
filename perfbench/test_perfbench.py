"""Tests for the benchmark itself: every workload at a tiny size prints every
declared metric with its unit, and the oracle catches corrupted results.

Run from the repository root:  python3 -m pytest perfbench -q
"""

import dataclasses
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
from oracle import check_ks_rows, check_test_result, critical_index

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def invoke(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_run_prints_every_metric(workload, trace):
    out = invoke(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0.2",
                 "--trace", str(trace), "--scale", "tiny")
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    report = "\n".join(lines[:-1])
    if not trace:
        for m in declared:
            value = result["metrics"][m["name"]]["value"]
            assert re.search(rf"^{re.escape(m['name'])} {value:.6f} {re.escape(m['unit'])}\b",
                             report, re.M), m["name"]
        assert re.search(r"^failed_share 0\.000000 ratio\b", report, re.M)
    assert "digest sha256:" in report and '"harness_threads"' in report


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = invoke(tmp_path, "--workload", "oneshot-naive", "--seed", "0",
                 "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout


def test_critical_index_is_exact():
    assert critical_index(0.05, 1000) == 950
    assert critical_index(0.059, 1000) == 941   # float ceil gives 942
    assert critical_index(0.18, 250) == 205


@pytest.fixture(scope="module")
def one_result():
    lpboot = run.import_lpboot()
    bench = run.OneShot(lpboot, "oneshot-naive", 5, run.SCALES["tiny"])
    bench.setup_round()
    X = bench.pool[1]
    spec = bench.spec(1, lpboot.sampling.RngSeed(5).child(2, 1))
    return X, spec, lpboot.inference.run_test(X, spec)


def test_oracle_accepts_a_correct_result(one_result):
    X, spec, res = one_result
    assert check_test_result(X, spec.p.label, spec.alpha, spec.B, res) == []


@pytest.mark.parametrize("field", ["critical_value", "p_value", "reject", "statistic"])
def test_oracle_flags_a_corrupted_result(one_result, field):
    X, spec, res = one_result
    draws = res.distribution.samples
    k = critical_index(spec.alpha, spec.B)
    corrupt = {
        "critical_value": float(draws[k]),   # the next order statistic up
        "p_value": res.p_value + 1.0 / spec.B,
        "reject": not res.reject,
        "statistic": res.statistic * (1 + 1e-6),
    }[field]
    bad = dataclasses.replace(res, **{field: corrupt})
    assert check_test_result(X, spec.p.label, spec.alpha, spec.B, bad)


def test_ks_oracle_flags_bad_rows():
    good = [f"{rep},{p},{est},0.25" for rep in range(2) for est in ("a", "b") for p in ("1", "inf")]
    assert check_ks_rows(good, 2, ("a", "b"), ("1", "inf")) == {}
    out_of_range = good[:5] + [good[5].replace("0.25", "1.5")] + good[6:]
    assert set(check_ks_rows(out_of_range, 2, ("a", "b"), ("1", "inf"))) == {1}
    assert 1 in check_ks_rows(good[:-1], 2, ("a", "b"), ("1", "inf"))
    swapped = [good[1], good[0]] + good[2:]
    assert set(check_ks_rows(swapped, 2, ("a", "b"), ("1", "inf"))) == {0}
