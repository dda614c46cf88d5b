"""Output checks, run after the timed part of an iteration.

Each check returns a list of (command name, problem) pairs; a command with
at least one problem counts as failed.  Checks read only the artifacts the
commands wrote, never the premex package, so a broken program cannot
vouch for itself.
"""

import csv
import hashlib
import json
import math
import os

from workloads import CHECK_FEATURE, VARIANTS

# Artifacts that must be byte-identical across runs of one invocation.
DETERMINISTIC_PREFIXES = ("model_", "metrics_", "shap_values_", "ice_")
SHAP_ICE_TOLERANCE = 1e-6


def _data_lines(path):
    """CSV rows after the leading `# meta` line."""
    with open(path, "r", encoding="utf-8", newline="") as handle:
        lines = [line for line in handle if not line.startswith("#")]
    return list(csv.reader(lines))


def _bad_number(token):
    raise ValueError(f"non-finite number {token}")


def non_finite(path):
    """A description of the first non-finite number in a CSV or JSON file."""
    try:
        if path.endswith(".json"):
            with open(path, "r", encoding="utf-8") as handle:
                json.load(handle, parse_constant=_bad_number)
            return None
        for row in _data_lines(path):
            for cell in row:
                try:
                    value = float(cell)
                except ValueError:
                    continue
                if not math.isfinite(value):
                    return f"non-finite number {cell}"
    except (OSError, ValueError) as exc:
        return str(exc)
    return None


def check_written_numbers(written):
    """Every number in every CSV/JSON a command wrote is finite."""
    problems = []
    for path, command in sorted(written.items()):
        if path.endswith((".csv", ".json")):
            problem = non_finite(path)
            if problem:
                problems.append((command, f"{os.path.basename(path)}: {problem}"))
    return problems


def test_r2(out_dir):
    """Test-split R^2 per variant from metrics_<v>.json (None if unreadable)."""
    scores = {}
    for variant in VARIANTS:
        try:
            with open(os.path.join(out_dir, f"metrics_{variant}.json"), encoding="utf-8") as handle:
                scores[variant] = float(json.load(handle)["r_squared"])
        except (OSError, ValueError, KeyError, TypeError):
            scores[variant] = None
    return scores


def check_test_r2(scores, floor):
    problems = []
    for variant, score in scores.items():
        if score is None or not math.isfinite(score):
            problems.append((f"evaluate {variant}", "test R^2 missing"))
        elif score < floor:
            problems.append((f"evaluate {variant}", f"test R^2 {score:.4f} under the floor {floor}"))
    return problems


def check_shap_matches_ice(out_dir):
    """Efficiency: sum(phi) + BaseValue equals the model's own prediction.

    The raw ICE curve of a binary feature, read at the row's own value of
    that feature, is exactly that prediction, so the two explainers check
    each other without recomputing anything.
    """
    problems = []
    try:
        with open(os.path.join(out_dir, "dataset.json"), encoding="utf-8") as handle:
            dataset = json.load(handle)
        column = dataset["feature_names"].index(CHECK_FEATURE)
        matrix = dataset["X"]
    except (OSError, ValueError, KeyError) as exc:
        return [(f"explain shap {v}", f"dataset unreadable: {exc}") for v in VARIANTS]
    for variant in VARIANTS:
        command = f"explain shap {variant}"
        try:
            shap_rows = _data_lines(os.path.join(out_dir, f"shap_values_{variant}.csv"))
            ice_rows = _data_lines(os.path.join(out_dir, f"ice_{variant}.csv"))
        except OSError as exc:
            problems.append((command, str(exc)))
            continue
        header, shap_rows = shap_rows[0], shap_rows[1:]
        raw_ice = {}
        for feature, kind, row_id, grid_value, prediction in ice_rows[1:]:
            if feature == CHECK_FEATURE and kind == "raw":
                raw_ice[(int(row_id), float(grid_value))] = float(prediction)
        if not shap_rows:
            problems.append((command, "no SHAP rows"))
        base_index = header.index("BaseValue")
        for row in shap_rows:
            row_id = int(row[0])
            total = sum(float(v) for v in row[1:base_index]) + float(row[base_index])
            own = float(matrix[row_id][column])
            prediction = raw_ice.get((row_id, own))
            if prediction is None:
                problems.append((command, f"row {row_id} has no raw ICE point at its own value"))
                break
            if abs(total - prediction) > SHAP_ICE_TOLERANCE * abs(prediction):
                problems.append((command, f"row {row_id}: SHAP sum {total!r} != prediction "
                                          f"{prediction!r}"))
                break
    return problems


def digests(written):
    """sha256 of each deterministic artifact, keyed by file name."""
    result = {}
    for path, command in written.items():
        name = os.path.basename(path)
        if name.startswith(DETERMINISTIC_PREFIXES):
            with open(path, "rb") as handle:
                result[name] = [hashlib.sha256(handle.read()).hexdigest(), command]
    return result
