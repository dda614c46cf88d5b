"""Workload plans: which `premex` commands a benchmark iteration runs.

A plan is built for one iteration directory, without touching the disk:
`files` are written first, then `setup` commands run before
the clock starts (their cost lands in `setup_s`); `timed` commands are the
measured part (`wall_s`).  All inputs come from the workload seed; the
pipeline's own `--seed` stays at its default of 42.

Flags the roadmap plans to delete are never passed: the scaler reaches
`evaluate` and `explain` through the global `--config` default map, which
silently ignores keys a command lacks, and `--jobs` is never used.  Once
the scaler layer and the thread pool are removed, these command lines keep
working unchanged.
"""

import json
import os
from dataclasses import dataclass, field

VARIANTS = ("rf", "gbm", "xgb")

# Rows in the synthetic input: the size of the real premium file.
FULL_ROWS = 986

# Per-size knobs.  "full" is what BENCHMARK.json runs; "small" only keeps
# the self-test quick.  The random forest is grown with one tenth of its
# published 220 trees so that one iteration takes seconds and a run can
# report a median over several iterations; every other parameter,
# including the per-tree row counts, is the published one.
# `test_r2_floor` is a sanity floor for test-split R^2: a model under it is
# broken, not merely less accurate.  At the seed commit every full-size
# model scores at least 0.87 on data seeds 1-20.
SIZES = {
    "full": {"rows": FULL_ROWS, "rf_trees": 22, "folds": 5,
             "background_size": 50, "explain_rows": 20, "test_r2_floor": 0.8},
    "small": {"rows": 200, "rf_trees": 3, "folds": 3,
              "background_size": 8, "explain_rows": 4, "test_r2_floor": 0.5},
}


# One grid cell per model: the published parameters (the config defaults),
# with the forest's tree count scaled as above.
def _grid(variant, size):
    if variant == "rf":
        return {"n_estimators": [size["rf_trees"]]}
    if variant == "gbm":
        return {"n_estimators": [19], "learning_rate": [0.19]}
    return {"n_estimators": [50], "learning_rate": [0.1]}


def _train_flags(variant, size):
    return ["--n-estimators", str(size["rf_trees"])] if variant == "rf" else []


# The binary feature whose raw ICE curve is compared with the SHAP sum.
CHECK_FEATURE = "Diabetes"


@dataclass
class Command:
    name: str
    argv: list


@dataclass
class Plan:
    workload: str
    workdir: str
    csv_path: str
    files: dict = field(default_factory=dict)  # path -> text, written before set-up
    setup: list = field(default_factory=list)
    timed: list = field(default_factory=list)
    # explain's test R^2 is read after timing by evaluate commands
    check: list = field(default_factory=list)
    params: dict = field(default_factory=dict)


def _paths(workdir):
    out = os.path.join(workdir, "out")
    return out, os.path.join(out, "dataset.json"), os.path.join(out, "split.json")


def _config(plan, out):
    """Global --config default map: the scaler path for evaluate/explain."""
    path = os.path.join(plan.workdir, "config.json")
    scaler = os.path.join(out, "scaler.json")
    plan.files[path] = json.dumps({"evaluate": {"scaler": scaler}, "explain": {"scaler": scaler}})
    return path


def _cmd(config, name, *argv):
    return Command(name, ["--config", config, *argv])


def _evaluate(config, variant, out, dataset, split):
    return _cmd(config, f"evaluate {variant}", "evaluate",
                os.path.join(out, f"model_{variant}.json"), dataset,
                "--split", split, "--out", out)


def _train(config, variant, size, out, dataset):
    return _cmd(config, f"train {variant}", "train", dataset, "--model", variant,
                "--out", out, *_train_flags(variant, size))


def train_cv(workdir, csv_path, size):
    out, dataset, split = _paths(workdir)
    plan = Plan("train-cv", workdir, csv_path)
    config = _config(plan, out)
    plan.timed.append(_cmd(config, "ingest", "ingest", csv_path, "--out", out))
    for variant in VARIANTS:
        grid_path = os.path.join(workdir, f"grid_{variant}.json")
        plan.files[grid_path] = json.dumps(_grid(variant, size))
        plan.timed.append(_cmd(config, f"tune {variant}", "tune", dataset, "--model", variant,
                               "--grid", grid_path, "--folds", str(size["folds"]),
                               "--out", out))
        plan.timed.append(_train(config, variant, size, out, dataset))
        plan.timed.append(_evaluate(config, variant, out, dataset, split))
    plan.params = {"rows": size["rows"], "folds": size["folds"],
                   "grids": {v: _grid(v, size) for v in VARIANTS},
                   "rf_trees": size["rf_trees"]}
    return plan


def explain(workdir, csv_path, size):
    out, dataset, split = _paths(workdir)
    plan = Plan("explain", workdir, csv_path)
    config = _config(plan, out)
    plan.setup.append(_cmd(config, "ingest", "ingest", csv_path, "--out", out))
    rows = str(size["explain_rows"])
    for variant in VARIANTS:
        plan.setup.append(_train(config, variant, size, out, dataset))
        model = os.path.join(out, f"model_{variant}.json")
        plan.timed.append(_cmd(config, f"explain shap {variant}", "explain", model, dataset,
                               "--mode", "shap", "--split", split,
                               "--background-size", str(size["background_size"]),
                               "--rows", rows, "--out", out))
        # same --rows and split, so ICE explains the rows SHAP explained
        plan.timed.append(_cmd(config, f"explain ice {variant}", "explain", model, dataset,
                               "--mode", "ice", "--centered", "--split", split,
                               "--rows", rows, "--out", out))
        plan.check.append(_evaluate(config, variant, out, dataset, split))
    plan.params = {"rows": size["rows"], "rf_trees": size["rf_trees"],
                   "background_size": size["background_size"],
                   "explain_rows": size["explain_rows"]}
    return plan


PLANS = {"train-cv": train_cv, "explain": explain}
