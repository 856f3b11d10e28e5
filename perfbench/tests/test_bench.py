"""Tests of the benchmark itself, on its smoke sizes.

    python3 -m pytest perfbench/tests
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_cli(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def test_metric_spec_matches_benchmark_json():
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == run.per_layer_spec()
    assert sorted(WORKLOADS) == sorted(run.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_named_metric_is_emitted(workload, trace):
    proc = run_cli("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def _off_by_one(wl):
    if isinstance(wl, run.CountSparse):
        wl.expected = [e + 1 for e in wl.expected]
    elif isinstance(wl, run.SweepPaper):
        wl.expected[0]["I"] += 1
    else:
        wl.expected = [(m, size + 1, iso) for m, size, iso in wl.expected]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_wrong_oracle_value_counts_as_failed_op(workload, monkeypatch):
    cls = run.WORKLOADS[workload]
    original = cls.compute_oracle

    def corrupted(self):
        original(self)
        _off_by_one(self)

    monkeypatch.setattr(cls, "compute_oracle", corrupted)
    record = run.run(workload, seed=3, seconds=1, trace=False, smoke=True)
    result = record["result"]
    assert not result["correct"]
    assert result["attempted"] >= 1 and result["failed"] == result["attempted"]
    assert record["detail"]["fail_frac"] == 1.0


def test_fails_without_the_program():
    # a checkout holding only BENCHMARK.json and the benchmark's files
    bare = os.path.join(run.WORK, f"bare-{os.getpid()}")
    try:
        shutil.copytree(BENCH, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns(".work", "results", "__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = run_cli("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_peak_rss_is_the_op_childs_own():
    # a spawned child's wait4 rusage starts from this process's peak RSS;
    # the reported peak must not
    ballast = b"\x01" * (160 << 20)
    record = run.run("count_sparse", seed=3, seconds=1, trace=False, smoke=True)
    del ballast
    assert record["detail"]["bench_maxrss_mb"] > 160
    assert 0 < record["result"]["metrics"]["peak_rss_mb"]["value"] < 120


def test_tail_has_ten_samples_beyond():
    value, pct, beyond = run.tail([float(i) for i in range(30)])
    assert (value, beyond) == (19.0, 10)
    assert pct == pytest.approx(100 * 19 / 29)


@pytest.mark.parametrize("base, change, better, expected", [
    ([1.0, 1.01, 0.99, 1.0], [1.3, 1.31, 1.29, 1.3], "lower", "worse"),
    ([1.0, 1.01, 0.99, 1.0], [0.8, 0.81, 0.79, 0.8], "lower", "better"),
    ([1.0, 1.01, 0.99, 1.0], [1.02, 1.03, 1.01, 1.02], "lower", "within bound"),
    ([1.0, 1.01, 0.99, 1.0], [0.8, 0.81, 0.79, 0.8], "higher", "worse"),
    ([1.0, 2.0, 0.5, 1.5], [1.1, 0.6, 1.9, 1.2], "lower", "unresolved"),
    # a quiet base does not resolve a change side that drifted
    ([1.0, 1.01, 0.99, 1.0], [0.5, 0.7, 0.9, 1.1], "lower", "unresolved"),
    ([1.0, 1.01, 0.99, 1.0], [1.5, 1.3, 1.1, 0.9], "lower", "unresolved"),
    # unless every change run beats every base run
    ([1.0, 2.0, 0.5, 1.5], [0.1, 0.2, 0.15, 0.12], "lower", "better"),
    # medians apart, but the change wins only half the pairs
    ([1.0, 1.01, 0.99, 1.0], [0.95, 1.02, 0.95, 1.02], "lower", "within bound"),
])
def test_compare_verdicts(base, change, better, expected):
    assert run.verdict(base, change, better, 0.1) == expected


def test_series_alternates_which_side_runs_first():
    sides = [("base", "b.json"), ("change", "c.json")]
    assert [run.sides_in_order(sides, i)[0][0] for i in range(4)] == ["base", "change", "base", "change"]
