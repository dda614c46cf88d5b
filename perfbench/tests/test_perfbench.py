"""Self-test of the benchmark harness at a reduced size.

    python3 -m pytest perfbench/tests -q

Runs the real harness on the "small" size (200 rows, 3 forest trees) and
checks the output contract, trace completeness and failure accounting.
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import tracer  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run_bench(*extra, root=ROOT, workload="train-cv", trace=0):
    command = [sys.executable, os.path.join(root, "perfbench", "run.py"),
               "--workload", workload, "--seed", "3", "--seconds", "1",
               "--trace", str(trace), "--size", "small", *extra]
    return subprocess.run(command, capture_output=True, text=True, cwd=root,
                          timeout=170, check=False)


def last_json(done):
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    return result


def test_spec_meets_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.PLANS)
    assert 2 <= len(SPEC["workloads"]) <= 8
    names = [m["name"] for section in ("workloads", "end_to_end", "per_layer")
             for m in SPEC[section]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"} and len(workload["why"]) <= 200
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25 and UNIT.match(metric["unit"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"} and UNIT.match(metric["unit"])
    assert 1 <= SPEC["run_seconds"] <= 60


def test_no_flag_the_roadmap_removes():
    for make in workloads.PLANS.values():
        plan = make("work", "input.csv", workloads.SIZES["full"])
        for command in plan.setup + plan.timed + plan.check:
            assert "--scaler" not in command.argv and "--jobs" not in command.argv


@pytest.mark.parametrize("workload", list(workloads.PLANS))
def test_end_to_end_metrics_named_with_units(workload):
    result = last_json(run_bench(workload=workload))
    assert result["correct"] and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", list(workloads.PLANS))
def test_per_layer_metrics_and_trace_completeness(workload):
    result = last_json(run_bench(workload=workload, trace=1))
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in metrics.items()} == expected
    # time outside every layer span stays small
    wall = metrics["trace.wall_s"]["value"]
    overhead = metrics["trace.overhead"]["value"]
    commands = metrics["cli.commands"]["value"]
    assert metrics["cli.self_s"]["value"] <= max(overhead, 0.01) * wall + 0.004 * commands
    if workload == "explain":
        assert metrics["explain.shap_rows"]["value"] > 0
        assert metrics["tree.fit_calls"]["value"] == 0
    else:
        assert metrics["tree.fit_calls"]["value"] > 0
        assert metrics["explain.shap_rows"]["value"] == 0


def test_tracer_reports_missing_counted_function(monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "src"))
    monkeypatch.setitem(tracer.COUNTERS, "tree.fit_tree_renamed", tracer._count_fit)
    traced = tracer.Tracer()
    problems = traced.install()
    traced.active = False
    assert problems == ["counted function tree.fit_tree_renamed not found"]
    assert "tree.fit_tree" in traced.wrapped


def test_tracer_reports_failing_counter():
    traced = tracer.Tracer()
    traced.active = True
    wrapped = traced.wrap(lambda: None, "explain.shap_exact")
    wrapped()  # no rows argument: the counter cannot count
    assert len(traced.counter_errors) == 1
    assert traced.counter_errors[0].startswith("counter of explain.shap_exact failed")


def test_bad_input_counts_as_failure():
    result = last_json(run_bench("--inject-bad-row"))
    assert not result["correct"]
    assert 0 < result["failed"] <= result["attempted"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    done = run_bench(root=str(tmp_path))
    assert done.returncode != 0
    assert not done.stdout.strip()
