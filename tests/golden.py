"""The golden manifest: the sha256 of every artifact of one capped `reproduce`.

`tests/test_golden.py` runs GOLDEN_ARGS on `synth.make_csv_text(DATA_ROWS,
DATA_SEED)` and compares the run's manifest with `tests/data/golden_manifest.json`.
It also runs `explain` in the ICE modes that `reproduce` never writes (raw and
derivative, ICE_RUNS) on the run's `model_gbm.json`, and `tune` once per
variant on the run's `dataset.json` (TUNE_GRIDS: unsorted `n_estimators`
values, never the grid's last key), and records those files' hashes under
`<run>/<file>`.  A last run, `explain_bench`, explains every model at the
explain benchmark's sizes (SHAP of 20 rows against 50 background rows,
centered ICE of 20 rows on 30 grid points; BENCH_RUNS), so the report
writers are pinned on inputs as large as the ones they are timed on.
A change that moves artifact bytes on purpose regenerates the file with

    PYTHONPATH=src python tests/golden.py --write

which prints the entries it added, removed or changed, and says which
files changed and why.
"""

import hashlib
import json
import os
import sys

import numpy as np
from click.testing import CliRunner

sys.path.insert(0, os.path.dirname(__file__))

import synth  # noqa: E402

from premex.cli import main  # noqa: E402

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data", "golden_manifest.json")
DATA_ROWS = 120
DATA_SEED = 7
GOLDEN_ARGS = ["--folds", "2", "--background-size", "10", "--explain-rows", "4",
               "--ice-rows", "5", "--grid-points", "5"]
ICE_ARGS = ["--mode", "ice", "--rows", "5", "--grid-points", "5"]
ICE_RUNS = {"ice_raw": [], "ice_derivative": ["--derivative"]}
BENCH_RUNS = {
    "shap": ["--mode", "shap", "--rows", "20", "--background-size", "50"],
    "ice": ["--mode", "ice", "--centered", "--rows", "20", "--grid-points", "30"],
}
BENCH_DIR = "explain_bench"
VARIANTS = ("rf", "gbm", "xgb")
TUNE_ARGS = ["--folds", "2"]
TUNE_GRIDS = {
    "rf": {"n_estimators": [5, 2, 3], "max_depth": [2, 4]},
    "gbm": {"n_estimators": [4, 1, 3], "learning_rate": [0.19, 0.3]},
    "xgb": {"max_depth": [2, 3], "n_estimators": [6, 2, 4], "subsample": [0.75]},
}


def _explain_argv(out_dir, variant, run_dir, flags):
    return ["explain", os.path.join(out_dir, f"model_{variant}.json"),
            os.path.join(out_dir, "dataset.json"), "--split", os.path.join(out_dir, "split.json"),
            "--out", run_dir, *flags]


def _hash_dir(files, run, run_dir) -> None:
    for name in sorted(os.listdir(run_dir)):
        with open(os.path.join(run_dir, name), "rb") as handle:
            files[f"{run}/{name}"] = hashlib.sha256(handle.read()).hexdigest()


def run_manifest(work_dir) -> dict:
    """Run the capped reproduce in `work_dir`; name -> sha256 (None if not hashed)."""
    csv_path = os.path.join(work_dir, "premiums.csv")
    with open(csv_path, "w", encoding="utf-8") as handle:
        handle.write(synth.make_csv_text(n=DATA_ROWS, seed=DATA_SEED))
    out_dir = os.path.join(work_dir, "out")
    result = CliRunner().invoke(main, ["reproduce", csv_path, "--out", out_dir, *GOLDEN_ARGS])
    if result.exit_code != 0:
        raise RuntimeError(f"reproduce exited {result.exit_code}: {result.output}")
    with open(os.path.join(out_dir, "manifest.json"), encoding="utf-8") as handle:
        entries = json.load(handle)["files"]
    files = {entry["name"]: entry.get("sha256") for entry in entries}
    for run, flags in ICE_RUNS.items():
        ice_dir = os.path.join(work_dir, run)
        result = CliRunner().invoke(main, _explain_argv(out_dir, "gbm", ice_dir,
                                                        [*ICE_ARGS, *flags]))
        if result.exit_code != 0:
            raise RuntimeError(f"explain {run} exited {result.exit_code}: {result.output}")
        _hash_dir(files, run, ice_dir)
    for variant, grid in TUNE_GRIDS.items():
        grid_path = os.path.join(work_dir, f"grid_{variant}.json")
        with open(grid_path, "w", encoding="utf-8") as handle:
            json.dump(grid, handle)
        tune_dir = os.path.join(work_dir, f"tune_{variant}")
        result = CliRunner().invoke(main, [
            "tune", os.path.join(out_dir, "dataset.json"), "--model", variant,
            "--grid", grid_path, "--out", tune_dir, *TUNE_ARGS,
        ])
        if result.exit_code != 0:
            raise RuntimeError(f"tune {variant} exited {result.exit_code}: {result.output}")
        _hash_dir(files, f"tune_{variant}", tune_dir)
    bench_dir = os.path.join(work_dir, BENCH_DIR)
    for variant in VARIANTS:
        for mode, flags in BENCH_RUNS.items():
            result = CliRunner().invoke(main, _explain_argv(out_dir, variant, bench_dir, flags))
            if result.exit_code != 0:
                raise RuntimeError(f"explain {mode} {variant} exited {result.exit_code}: "
                                   f"{result.output}")
    _hash_dir(files, BENCH_DIR, bench_dir)
    return files


def load_golden() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def manifest_changes(old: dict, new: dict) -> list:
    """One line per entry that `new` adds, removes or changes against `old`."""
    lines = [f"added {name}" for name in sorted(set(new) - set(old))]
    lines += [f"removed {name}" for name in sorted(set(old) - set(new))]
    lines += [f"changed {name}" for name in sorted(set(old) & set(new)) if old[name] != new[name]]
    return lines


def write_golden(files: dict) -> None:
    document = {
        "command": ["premex", "reproduce", "premiums.csv", "--out", "out", *GOLDEN_ARGS],
        "ice_commands": {
            run: ["premex", "explain", "out/model_gbm.json", "out/dataset.json",
                  "--split", "out/split.json", "--out", run, *ICE_ARGS, *flags]
            for run, flags in ICE_RUNS.items()
        },
        "tune_commands": {
            f"tune_{variant}": ["premex", "tune", "out/dataset.json", "--model", variant,
                                "--grid", f"grid_{variant}.json", "--out", f"tune_{variant}",
                                *TUNE_ARGS]
            for variant in TUNE_GRIDS
        },
        "tune_grids": TUNE_GRIDS,
        "bench_commands": {
            f"{mode}_{variant}": ["premex", "explain", f"out/model_{variant}.json",
                                  "out/dataset.json", "--split", "out/split.json",
                                  "--out", BENCH_DIR, *flags]
            for variant in VARIANTS for mode, flags in BENCH_RUNS.items()
        },
        "data": {"generator": "tests/synth.py make_csv_text", "n": DATA_ROWS,
                 "seed": DATA_SEED},
        "numpy": np.__version__,
        "files": files,
    }
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    import tempfile

    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/golden.py --write")
    previous = load_golden()["files"] if os.path.exists(GOLDEN_PATH) else {}
    with tempfile.TemporaryDirectory() as scratch:
        manifest = run_manifest(scratch)
    write_golden(manifest)
    for line in manifest_changes(previous, manifest):
        print(line)
    hashed = sum(value is not None for value in manifest.values())
    print(f"wrote {GOLDEN_PATH}: {len(manifest)} files, {hashed} hashed")
