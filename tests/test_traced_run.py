"""Every command runs under the benchmark's tracer, and its counters count.

`perfbench/tracer.py` wraps the layer modules' public functions, and a
traced benchmark run whose counted functions were not found, or whose
counters raised, is reported as incorrect.  `test_bench_names.py` checks
that the counted names exist; this test installs the tracer itself, in a
subprocess so that its patching stays out of this process, and runs the
commands of both benchmark workloads on a small synthetic dataset.  It
reads the tracer and changes nothing under `perfbench/`.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))

CHILD = r"""
import importlib.util
import json
import os
import sys

root, work = sys.argv[1], sys.argv[2]
sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "tests")]
spec = importlib.util.spec_from_file_location(
    "perfbench_tracer", os.path.join(root, "perfbench", "tracer.py"))
tracer_mod = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer_mod)

from click.testing import CliRunner

import synth
from premex.cli import main

csv_path = os.path.join(work, "input.csv")
with open(csv_path, "w", encoding="utf-8") as handle:
    handle.write(synth.make_csv_text(n=120, seed=7))
grid_path = os.path.join(work, "grid.json")
with open(grid_path, "w", encoding="utf-8") as handle:
    json.dump({"n_estimators": [3, 2], "max_depth": [2]}, handle)
out = os.path.join(work, "out")
dataset, split = os.path.join(out, "dataset.json"), os.path.join(out, "split.json")
commands = [("ingest", ["ingest", csv_path, "--out", out])]
for variant in ("rf", "gbm", "xgb"):
    commands.append((f"train {variant}", ["train", dataset, "--model", variant, "--out", out,
                                          "--n-estimators", "4"]))
commands.append(("tune rf", ["tune", dataset, "--model", "rf", "--grid", grid_path,
                             "--folds", "2", "--out", out]))
for variant in ("rf", "gbm", "xgb"):
    model = os.path.join(out, f"model_{variant}.json")
    commands += [
        (f"evaluate {variant}", ["evaluate", model, dataset, "--split", split, "--out", out]),
        (f"explain shap {variant}", ["explain", model, dataset, "--mode", "shap", "--split",
                                     split, "--background-size", "8", "--rows", "3",
                                     "--out", out]),
        (f"explain ice {variant}", ["explain", model, dataset, "--mode", "ice", "--centered",
                                    "--split", split, "--rows", "3", "--grid-points", "4",
                                    "--out", out]),
    ]

tracer = tracer_mod.Tracer()
problems = tracer.install()
exits = {}
for name, argv in commands:
    with tracer.root(f"cli.{name}"):
        result = CliRunner().invoke(main, argv)
    exits[name] = [result.exit_code, result.output[-500:]]
tracer.active = False
counted = {}
for i, name in enumerate(tracer.names):
    if i in tracer.info:
        counted[name] = counted.get(name, 0) + 1
print(json.dumps({
    "exits": exits,
    "problems": problems,
    "counter_errors": tracer.counter_errors,
    "spans": len(tracer.names),
    "commands": len(commands),
    "counted": counted,
    "names": sorted(set(tracer.names)),
    "layers": tracer_mod.layer_metrics(tracer, 1.0),
}))
"""


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    work = str(tmp_path_factory.mktemp("traced"))
    done = subprocess.run([sys.executable, "-c", CHILD, ROOT, work], capture_output=True,
                          text=True, timeout=300, check=False)
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_every_command_exits_0(traced):
    failed = {name: output for name, (code, output) in traced["exits"].items() if code != 0}
    assert not failed


def test_tracer_installs_and_every_counter_runs(traced):
    assert traced["problems"] == []
    assert traced["counter_errors"] == []


def test_layer_metrics_reduce_the_spans(traced):
    layers = traced["layers"]
    assert layers["trace.spans"] == traced["spans"] > traced["commands"]
    assert layers["cli.commands"] == traced["commands"]
    assert layers["ensemble.model_bytes"] > 0
    assert layers["ensemble.predict_rows"] > 0
    assert layers["artifacts.writes"] > 0 and layers["artifacts.bytes_written"] > 0


@pytest.mark.parametrize("name", [
    "ensemble.trees",  # len(model.trees) of each fitted model
    "ensemble.predict_ns_per_row_tree",  # rows times len(model.trees) of each prediction
    "tree.predict_calls",  # the boosting stages' RegressionTree.predict_matrix updates
])
def test_layer_metric_counts(traced, name):
    assert traced["layers"][name] > 0


@pytest.mark.parametrize("name", [
    "report.ice_long_csv",
    "report.ice_panel_svg",
    "report.beeswarm_svg",
])
def test_report_writer_is_a_span(traced, name):
    # formatting done outside the public report functions would land in cli.self_s
    assert name in traced["names"]


def test_cli_self_time_per_command(traced):
    # the benchmark allows 4 ms per command, plus a share of the traced wall time
    assert traced["layers"]["cli.self_s"] <= 0.004 * traced["commands"]


@pytest.mark.parametrize("name", [
    "ensemble.save_model",
    "ensemble.load_model",
    "ensemble.ForestModel.predict",
    "ensemble.BoostedModel.predict",
    "artifacts.write_text_atomic",
])
def test_counted(traced, name):
    assert traced["counted"].get(name, 0) > 0
