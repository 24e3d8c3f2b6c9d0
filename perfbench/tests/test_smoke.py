"""Tiny-scale runs of every workload, checked against BENCHMARK.json."""

import json
import math
import os
import re
import shutil
import subprocess
import sys

import pytest

import run as bench
from workloads import REGISTRY

from conftest import BENCH, ROOT

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)

#: Named metrics each workload prints (the gated ones are a subset).
NAMED = {
    "authors-loop": {"orig_qps", "trans_qps"},
    "category-cold": {"orig_qps", "trans_qps"},
    "hotset-serve": {
        "read_p50_s", "read_p99_s", "card_p50_s", "card_p99_s",
        "write_p50_s", "write_p99_s", "light_p50_s", "light_p99_s",
        "max_ok_rate",
    },
}
EVERY_WORKLOAD = {"setup_s", "failed_ratio", "peak_rss_mb"}


def test_spec_follows_its_schema():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert [w["name"] for w in SPEC["workloads"]] == list(REGISTRY)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", metric["name"])
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", metric["unit"])
        assert metric["better"] in ("higher", "lower")
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"} and len(workload["why"]) <= 200


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("workload", list(REGISTRY))
def test_tiny_run_reports_every_declared_metric(workload, trace):
    result = bench.run(workload, seed=5, seconds=2.0, trace=trace, scale="tiny")
    line = bench.report(result, trace)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"], result["violations"]
    assert line["failed"] == 0 and line["attempted"] >= 1
    kind = "per_layer" if trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert set(line["metrics"]) == set(declared)
    for name, metric in line["metrics"].items():
        assert metric["unit"] == declared[name]
        assert isinstance(metric["value"], float) and math.isfinite(metric["value"])
        if not trace:
            assert metric["value"] > 0, name
    assert json.loads(json.dumps(line)) == line
    if not trace:
        assert NAMED[workload] | EVERY_WORKLOAD <= set(result["named"])
        for metric in result["named"].values():
            assert metric.count >= 1


def test_violation_fails_the_run(monkeypatch):
    import workloads

    original = workloads.HotsetState.perform_blocking

    def wrong(state, request):
        original(state, request)
        if request[0] == "read":
            raise AssertionError("injected wrong answer")

    monkeypatch.setattr(workloads.HotsetState, "perform_blocking", wrong)
    result = bench.run("hotset-serve", seed=5, seconds=2.0, trace=False, scale="tiny")
    line = bench.report(result, False)
    assert not line["correct"] and line["failed"] > 0
    assert any("injected wrong answer" in v for v in result["violations"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(
        BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__")
    )
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "authors-loop",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
