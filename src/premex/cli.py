"""Command-line pipeline: ingest, train, tune, evaluate, explain, reproduce.

Every command derives all randomness from --seed, writes artifacts
atomically, and embeds {seed, config hash, format version} in each one; a
JSON artifact holds its seed and config hash only in its `meta` block.
Every artifact except `timings.json` is a deterministic function of the
input, the flags and the seed, and `reproduce`'s manifest hashes it.
Each pipeline stage has one implementation (`_ingest`, `_train_one`,
`_tune`, `_evaluate_one`, `_explain_shap`, `_explain_ice`), called both by
its command and by `reproduce`, so the one-shot run writes the same
artifacts as the single commands.  Each figure is one call of its
`report.<figure>_svg` function with the stage's arrays, a title and the
SVG meta line.  A stage that draws figures renders every text it writes
before its first write, so a figure that fails leaves no file of its stage.
Exit codes: 0 success, 2 usage, 3 data validation, 4 I/O, 5 numeric.
"""

import functools
import hashlib
import json
import math
import os
import sys
import time

import click
import numpy as np

from . import data as data_mod
from . import ensemble as ensemble_mod
from . import explain as explain_mod
from . import metrics as metrics_mod
from . import report as report_mod
from . import tuning as tuning_mod
from .artifacts import read_json, svg_meta_line, write_json_artifact, write_text_atomic
from .errors import DataValidationError, NumericError
from .rng import derive_seed, stream

VARIANT_NAMES = {"rf": "RandomForest", "gbm": "GBM", "xgb": "XGBoost"}

EXIT_VALIDATION = 3
EXIT_IO = 4
EXIT_NUMERIC = 5


def guarded(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except DataValidationError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(EXIT_VALIDATION)
        except NumericError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(EXIT_NUMERIC)
        except OSError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(EXIT_IO)

    return wrapper


def _load_config_map(ctx, param, value):
    """--config JSON supplies per-command flag defaults: {"train": {...}}."""
    if not value:
        return None
    try:
        mapping = read_json(value)
    except (OSError, DataValidationError) as exc:
        raise click.UsageError(f"cannot read config file: {exc}")
    if not isinstance(mapping, dict):
        raise click.UsageError("config file must hold an object of command sections")
    normalized = {}
    for command_name, section in mapping.items():
        command = main.commands.get(command_name)
        if command is None:
            raise click.UsageError(f"config section {command_name!r} is not a command")
        if not isinstance(section, dict):
            raise click.UsageError(f"config section {command_name!r} must be an object")
        # accept flag spellings ("--out") as well as parameter names ("out_dir")
        alias, parameters = {}, {}
        for parameter in command.params:
            alias[parameter.name] = parameter.name
            parameters[parameter.name] = parameter
            for opt in parameter.opts:
                alias[opt.lstrip("-").replace("-", "_")] = parameter.name
        normalized[command_name] = {}
        for key, item in section.items():
            name = alias.get(key.replace("-", "_"), key)
            _check_config_value(getattr(parameters.get(name), "type", None),
                                f"{command_name}.{key}", item)
            normalized[command_name][name] = item
    ctx.default_map = normalized
    return value


def _check_config_value(kind, where, item):
    """Reject a config value that is not finite, or that click's type
    `kind` would quietly change or could not convert.

    json reads a literal such as 1e400 as inf.  A string is converted as
    the same text given as a flag.  Of other values, click takes `int(x)`
    of a float and of a bool, and `float(x)` of a bool, where a flag of the
    same value is a usage error; it raises TypeError, OverflowError or
    AttributeError on a list, an object, an int too large for a float and
    a switch's number; and it takes a path's number as a file descriptor.
    """
    if isinstance(item, float) and not math.isfinite(item):
        raise click.UsageError(f"config file holds {where} = {item}, which is not a finite number")
    if kind is None or item is None or isinstance(item, str):
        return
    if isinstance(kind, click.types.IntParamType):
        fits = type(item) is int or type(item) is float and item.is_integer()
        wanted = "an integer"
    elif isinstance(kind, click.types.FloatParamType):
        fits = type(item) in (int, float) and abs(item) <= sys.float_info.max
        wanted = "a finite number"
    elif isinstance(kind, click.types.BoolParamType):
        fits, wanted = type(item) is bool, "true or false"
    else:  # a path, a choice or a name
        fits, wanted = False, "a string"
    if not fits:
        raise click.UsageError(f"config value {where} must be {wanted}, not {json.dumps(item)}")


@click.group()
@click.option(
    "--config",
    type=click.Path(),
    callback=_load_config_map,
    expose_value=False,
    is_eager=True,
    help="JSON file supplying default values for any command flag.",
)
def main():
    """Premium regression pipeline with explainable tree ensembles."""


def _write(out_dir, name, text):
    write_text_atomic(os.path.join(out_dir, name), text)


def _subsample(ids, cap, seed, name):
    """At most `cap` of `ids`, drawn from the (seed, name) stream, in their order."""
    if cap is None or cap >= ids.size:
        return ids
    return ids[np.sort(stream(seed, name).choice(ids.size, size=cap, replace=False))]


# --- ingest ------------------------------------------------------------------

def _ingest(csv_path, out_dir, seed):
    """Load the CSV; write dataset.json and summary_stats.csv.

    Returns the raw 10-input table, the 9-feature dataset and the groups of
    duplicate rows.
    """
    raw = data_mod.load_csv(csv_path)
    derived = data_mod.derive_features(raw)
    names, table = data_mod.summary_statistics(raw)
    data_mod.dataset_to_json(derived, os.path.join(out_dir, "dataset.json"), seed=seed)
    _write(out_dir, "summary_stats.csv", report_mod.summary_stats_csv(names, table, seed=seed))
    return raw, derived, data_mod.detect_duplicates(raw)


@main.command()
@click.argument("csv_path", type=click.Path())
@click.option("--out", "out_dir", required=True, type=click.Path(), help="Output directory.")
@click.option("--seed", default=42, show_default=True, help="Seed recorded in artifacts.")
@guarded
def ingest(csv_path, out_dir, seed):
    """Validate the premium CSV, derive BMI, and write dataset artifacts."""
    _, derived, duplicates = _ingest(csv_path, out_dir, seed)
    click.echo(f"ingested {derived.n} records ({len(duplicates)} duplicate groups)")
    click.echo(f"wrote {os.path.join(out_dir, 'dataset.json')}")


# --- train -------------------------------------------------------------------

def _model_flags(fn):
    options = [
        click.option("--n-estimators", type=int, default=None, help="Trees/stages."),
        click.option("--max-depth", type=int, default=None, help="Tree depth cap."),
        click.option("--min-samples-split", type=int, default=None),
        click.option("--max-features", type=int, default=None, help="Feature subset per split."),
        click.option("--learning-rate", type=float, default=None, help="Boosting shrinkage."),
        click.option("--subsample", type=float, default=None, help="Boosting row fraction."),
        click.option("--reg-lambda", type=float, default=None, help="Leaf L2 penalty (xgb)."),
        click.option("--gamma", type=float, default=None, help="Per-split penalty (xgb)."),
    ]
    for option in reversed(options):
        fn = option(fn)
    return fn


def _collect_params(variant, flag_values):
    """The published parameters with the given flags over them; a bad flag exits 2."""
    params = dict(ensemble_mod.PUBLISHED[variant])
    params.update((key, value) for key, value in flag_values.items() if value is not None)
    try:
        ensemble_mod.variant_config(variant, params, seed=0)
    except DataValidationError as exc:
        raise click.UsageError(str(exc))
    return params


def _train_one(train_data, variant, params, seed, out_dir):
    """Fit one model; write model_{variant}.json and run_report_{variant}.json.
    The fit time is returned, not reported, so the report's bytes follow the seed."""
    model_seed = derive_seed(seed, "train", variant)
    started = time.perf_counter()
    model = tuning_mod.fit_variant(variant, train_data, params, model_seed)
    elapsed = time.perf_counter() - started
    # scored first, so a model whose R^2 is not finite is not written
    train_r2 = metrics_mod.r_squared(train_data.y, model.predict(train_data.X))
    ensemble_mod.save_model(model, os.path.join(out_dir, f"model_{variant}.json"))
    report = {
        "variant": variant,
        "params": params,
        "model_seed": model_seed,
        "train_rows": train_data.n,
        "train_r_squared": train_r2,
        # read off the node table
        "nodes": int(model.trees.feature.size),
        "leaves": int((model.trees.feature < 0).sum()),
        "depth": int(model.trees.depths().max(initial=0)),
    }
    write_json_artifact(
        os.path.join(out_dir, f"run_report_{variant}.json"),
        "run_report",
        report,
        seed=seed,
        config=params,
    )
    return model, train_r2, elapsed


@main.command()
@click.argument("dataset_path", type=click.Path())
@click.option("--model", "variant", required=True, type=click.Choice(list(ensemble_mod.PUBLISHED)))
@click.option("--out", "out_dir", required=True, type=click.Path())
@click.option("--seed", default=42, show_default=True)
@click.option("--split-fraction", default=0.75, show_default=True,
              type=click.FloatRange(0.0, 1.0, min_open=True, max_open=True))
@click.option("--split", "split_path", type=click.Path(), default=None,
              help="Reuse an existing split.json instead of re-splitting.")
@_model_flags
@guarded
def train(dataset_path, variant, out_dir, seed, split_fraction, split_path, **flags):
    """Fit one model on the train split; defaults are the published best parameters."""
    params = _collect_params(variant, flags)
    dataset = data_mod.dataset_from_json(dataset_path)
    if split_path:
        split = data_mod.split_from_json(split_path, dataset.n)
    else:
        split = data_mod.train_test_split(dataset.n, split_fraction, seed)
    _, train_r2, elapsed = _train_one(
        dataset.subset(split.train_rows), variant, params, seed, out_dir
    )
    # written last, so a fit that fails leaves no split without its model
    data_mod.split_to_json(split, os.path.join(out_dir, "split.json"))
    click.echo(f"trained {variant} in {elapsed:.2f}s, train R^2 {100 * train_r2:.3f}%")


# --- tune --------------------------------------------------------------------

def _tune(train_data, variant, grid, folds, seed, out_dir):
    """Grid search with k-fold CV; write cv_{variant}.json and cv_{variant}.csv."""
    result = tuning_mod.grid_search(train_data, variant, grid, folds, seed)
    # hashed as the configs hold its values, as the cells are written
    grid = {key: [getattr(ensemble_mod.variant_config(variant, {key: v}, 0), key) for v in values]
            for key, values in grid.items()}
    write_json_artifact(
        os.path.join(out_dir, f"cv_{variant}.json"),
        "cv_result",
        result,
        seed=seed,
        config={"grid": grid, "k": folds},
    )
    _write(out_dir, f"cv_{variant}.csv", report_mod.cv_cells_csv(result, seed=seed))
    return result


@main.command()
@click.argument("dataset_path", type=click.Path())
@click.option("--model", "variant", required=True, type=click.Choice(list(ensemble_mod.PUBLISHED)))
@click.option("--grid", "grid_path", type=click.Path(), default=None,
              help="JSON grid document; defaults to the shipped grid.")
@click.option("--folds", default=5, show_default=True, type=click.IntRange(min=2))
@click.option("--seed", default=42, show_default=True)
@click.option("--split-fraction", default=0.75, show_default=True,
              type=click.FloatRange(0.0, 1.0, min_open=True, max_open=True))
@click.option("--out", "out_dir", required=True, type=click.Path())
@guarded
def tune(dataset_path, variant, grid_path, folds, seed, split_fraction, out_dir):
    """Exhaustive grid search with k-fold cross-validation on the train split.

    Fits use every CPU in the process's affinity mask, and `taskset -c 0`
    runs them serially.
    """
    dataset = data_mod.dataset_from_json(dataset_path)
    if grid_path:
        grid = read_json(grid_path)
    else:
        grid = tuning_mod.DEFAULT_GRIDS[variant]
    split = data_mod.train_test_split(dataset.n, split_fraction, seed)
    result = _tune(dataset.subset(split.train_rows), variant, grid, folds, seed, out_dir)
    click.echo(
        f"best {variant} params {json.dumps(result['best_params'], sort_keys=True)} "
        f"mean CV R^2 {100 * result['best_mean_score']:.3f}%"
    )


# --- evaluate ----------------------------------------------------------------

def _load_model_and_dataset(model_path, dataset_path):
    """A saved model and a dataset whose columns are the model's features, in order."""
    model = ensemble_mod.load_model(model_path)
    dataset = data_mod.dataset_from_json(dataset_path)
    if model.feature_names != dataset.feature_names:
        raise DataValidationError(
            f"model features {model.feature_names} differ from dataset features "
            f"{dataset.feature_names}"
        )
    return model, dataset


def _evaluate_one(model, dataset, test_ids, seed, out_dir):
    variant = model.variant
    actual = dataset.y[test_ids]
    predicted = model.predict(dataset.X[test_ids])
    report = metrics_mod.evaluate_predictions(VARIANT_NAMES[variant], actual, predicted)
    name = VARIANT_NAMES[variant]
    meta = svg_meta_line(seed=seed, config={"variant": variant})
    texts = {
        f"metrics_{variant}.csv": report_mod.metrics_table_csv([report], seed=seed),
        f"residual_scatter_{variant}.svg": report_mod.residual_scatter_svg(
            predicted, actual - predicted, f"{name} residuals", meta),
    }
    try:
        theoretical, sample = metrics_mod.qq_points(actual, predicted)
    except NumericError as exc:
        click.echo(f"warning: skipping Q-Q figure: {exc}", err=True)
    else:
        texts[f"qq_{variant}.svg"] = report_mod.qq_svg(
            theoretical, sample, f"{name} residual Q-Q", meta)
    texts[f"prediction_error_{variant}.svg"] = report_mod.prediction_error_svg(
        actual, predicted, f"{name} prediction error", meta)
    write_json_artifact(
        os.path.join(out_dir, f"metrics_{variant}.json"),
        "metrics",
        report,
        seed=seed,
        config={"variant": variant},
    )
    for file_name, text in texts.items():
        _write(out_dir, file_name, text)
    return report


@main.command()
@click.argument("model_path", type=click.Path())
@click.argument("dataset_path", type=click.Path())
@click.option("--split", "split_path", required=True, type=click.Path())
@click.option("--out", "out_dir", required=True, type=click.Path())
@click.option("--seed", default=42, show_default=True)
@guarded
def evaluate(model_path, dataset_path, split_path, out_dir, seed):
    """Score a saved model on the test split and render diagnostic figures."""
    model, dataset = _load_model_and_dataset(model_path, dataset_path)
    split = data_mod.split_from_json(split_path, dataset.n)
    report = _evaluate_one(model, dataset, split.test_rows, seed, out_dir)
    click.echo(
        f"{report['model']}: R^2 {100 * report['r_squared']:.3f}% MAE {report['mae']:.3f} "
        f"RMSE {report['rmse']:.3f} MAPE {report['mape']:.3f}%"
    )


# --- explain -----------------------------------------------------------------

def _explain_shap(model, dataset, explain_ids, background_ids, seed, out_dir):
    """Write the SHAP CSVs and figures; return the feature names, most important first."""
    variant = model.variant
    row_ids = [int(i) for i in explain_ids]
    rows, names = dataset.X[explain_ids], dataset.feature_names
    if variant == "rf":
        scale, offset = 1.0 / len(model.trees), 0.0
    else:
        scale, offset = model.config.learning_rate, model.base_score
    base_value, phi = explain_mod.tree_shap(
        model.trees, scale, offset, rows, dataset.X[background_ids]
    )
    totals, order = explain_mod.importance(phi)
    ranked = [names[j] for j in order]
    name = VARIANT_NAMES[variant]
    meta = svg_meta_line(seed=seed, config={"variant": variant, "rows": len(row_ids)})
    texts = {
        f"shap_values_{variant}.csv":
            report_mod.shap_values_csv(names, base_value, phi, row_ids, seed=seed),
        f"shap_importance_{variant}.csv":
            report_mod.importance_csv(names, totals, order, seed=seed),
        f"beeswarm_{variant}.svg": report_mod.beeswarm_svg(
            ranked, phi[:, order], explain_mod.rank_colors(rows[:, order]),
            f"{name} attribution summary", meta),
        f"importance_{variant}.svg": report_mod.importance_bar_svg(
            ranked, totals[order], f"{name} feature importance", meta),
    }
    for file_name, text in texts.items():
        _write(out_dir, file_name, text)
    return ranked


def _explain_ice(model, dataset, ids, features, grid_points, centered, derivative,
                 seed, out_dir):
    """Write the ICE CSV, the raw curves and the chosen kind's, and one panel
    of the chosen kind per feature; return the number of panels."""
    variant = model.variant
    kind = "derivative" if derivative else ("centered" if centered else "raw")
    panels = []
    parts = []  # (name, kind, grid, curves) of the CSV
    sweeps = explain_mod.ice_curves(model.predict, dataset.X[ids],
                                    [dataset.feature_index(name) for name in features],
                                    n_points=grid_points)
    for name, (grid, curves) in zip(features, sweeps):
        if derivative and grid.size < 2:
            click.echo(f"warning: skipping {name}: its grid has one point, "
                       "so it has no derivative", err=True)
            continue
        parts.append((name, "raw", grid, curves))
        if centered:
            curves = explain_mod.center_ice(curves)
        elif derivative:
            curves = explain_mod.derivative_ice(grid, curves)
        panels.append((name, kind, grid, curves))
        if kind != "raw":
            parts.append(panels[-1])
    if not panels:
        raise NumericError("derivative curves need a grid of at least 2 points; "
                           "each feature asked for is constant among the explained rows")
    csv_text = report_mod.ice_long_csv(parts, [int(i) for i in ids], seed=seed)
    svg_text = report_mod.ice_panel_svg(
        panels, f"{VARIANT_NAMES[variant]} {kind} ICE curves",
        svg_meta_line(seed=seed, config={"variant": variant, "kind": kind}))
    _write(out_dir, f"ice_{variant}.csv", csv_text)
    _write(out_dir, f"ice_panel_{variant}.svg", svg_text)
    return len(panels)


@main.command()
@click.argument("model_path", type=click.Path())
@click.argument("dataset_path", type=click.Path())
@click.option("--split", "split_path", type=click.Path(), default=None,
              help="Explain test rows against a train-row background.")
@click.option("--mode", type=click.Choice(["shap", "ice"]), default="shap", show_default=True)
@click.option("--feature", "feature_name", default=None,
              help="Single feature for ICE mode (default: all features).")
@click.option("--centered", is_flag=True, help="Center ICE curves at the left grid edge.")
@click.option("--derivative", is_flag=True, help="Differentiate ICE curves.")
@click.option("--background-size", type=click.IntRange(min=1), default=None,
              help="Subsample the background set (default: all rows).")
@click.option("--rows", "rows_cap", type=click.IntRange(min=1), default=None,
              help="Cap on explained rows (default: all).")
@click.option("--grid-points", default=30, show_default=True, type=click.IntRange(min=1))
@click.option("--seed", default=42, show_default=True)
@click.option("--out", "out_dir", required=True, type=click.Path())
@guarded
def explain(model_path, dataset_path, split_path, mode, feature_name,
            centered, derivative, background_size, rows_cap, grid_points, seed, out_dir):
    """Explain a saved model with exact Shapley values or ICE curves."""
    if centered and derivative:
        raise click.UsageError("--centered and --derivative cannot be combined")
    model, dataset = _load_model_and_dataset(model_path, dataset_path)
    if split_path:
        split = data_mod.split_from_json(split_path, dataset.n)
        explain_ids, background_ids = split.test_rows, split.train_rows
    else:
        explain_ids = background_ids = np.arange(dataset.n)
    explain_ids = _subsample(explain_ids, rows_cap, seed, "explain_rows")
    if mode == "shap":
        background_ids = _subsample(background_ids, background_size, seed, "background")
        ranked = _explain_shap(model, dataset, explain_ids, background_ids, seed, out_dir)
        click.echo(f"top features: {', '.join(ranked[:2])}")
    else:
        features = [feature_name] if feature_name else list(dataset.feature_names)
        written = _explain_ice(model, dataset, explain_ids, features, grid_points,
                               centered, derivative, seed, out_dir)
        click.echo(f"wrote ICE curves for {written} feature(s)")


# --- reproduce ---------------------------------------------------------------

GROUPING_FEATURES = [
    "Diabetes",
    "BloodPressureProblems",
    "AnyTransplants",
    "AnyChronicDiseases",
    "KnownAllergies",
    "HistoryOfCancerInFamily",
    "NumberOfMajorSurgeries",
]

# must end at 1.0: reproduce reports that point's validation score as the
# k-fold CV score
LEARNING_FRACTIONS = [0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0]


@main.command()
@click.argument("csv_path", type=click.Path())
@click.option("--out", "out_dir", required=True, type=click.Path())
@click.option("--seed", default=42, show_default=True)
@click.option("--split-fraction", default=0.75, show_default=True,
              type=click.FloatRange(0.0, 1.0, min_open=True, max_open=True))
@click.option("--folds", default=5, show_default=True, type=click.IntRange(min=2))
@click.option("--full-tune", is_flag=True,
              help="Run the shipped grids instead of the published best parameters.")
@click.option("--background-size", type=click.IntRange(min=1), default=None,
              help="Subsample the attribution background (default: full train split).")
@click.option("--explain-rows", type=click.IntRange(min=1), default=None,
              help="Cap on attributed rows (default: full test split).")
@click.option("--ice-rows", default=60, show_default=True, type=click.IntRange(min=1))
@click.option("--grid-points", default=30, show_default=True, type=click.IntRange(min=1))
@guarded
def reproduce(csv_path, out_dir, seed, split_fraction, folds, full_tune,
              background_size, explain_rows, ice_rows, grid_points):
    """One-shot pipeline: ingest, split, train, evaluate, curves, explain.

    Cross-validation and learning-curve fits use every CPU in the
    process's affinity mask, and `taskset -c 0` runs them serially.
    """
    started = time.perf_counter()
    timings = {}
    earlier = _file_stamps(out_dir)
    raw, derived, duplicates = _ingest(csv_path, out_dir, seed)
    names, matrix = data_mod.pearson_correlation(raw)
    _write(out_dir, "correlation_heatmap.svg", report_mod.correlation_heatmap_svg(
        names, matrix, "Attribute correlation",
        svg_meta_line(seed=seed, config={"figure": "correlation"})))
    group_csv_parts = []
    for feature in GROUPING_FEATURES:
        values, table = data_mod.group_summary(derived, feature)
        group_csv_parts.append((feature, values, table))
        column = derived.X[:, derived.feature_index(feature)]
        _write(out_dir, f"group_boxplot_{feature}.svg", report_mod.group_boxplot_svg(
            feature, [(value, derived.y[column == value]) for value in values.tolist()],
            f"Premium by {feature}",
            svg_meta_line(seed=seed, config={"figure": "group", "feature": feature})))
    _write(out_dir, "group_premium_stats.csv",
           report_mod.group_summary_all_csv(group_csv_parts, seed=seed))
    timings["eda"] = time.perf_counter() - started

    split = data_mod.train_test_split(derived.n, split_fraction, seed)
    data_mod.split_to_json(split, os.path.join(out_dir, "split.json"))
    train_subset = derived.subset(split.train_rows)

    models = []
    scores = []  # per model: train, CV and test R^2 and its parameters
    metrics_reports = []
    for variant in ensemble_mod.PUBLISHED:
        if full_tune:
            stage_start = time.perf_counter()
            params = _tune(train_subset, variant, tuning_mod.DEFAULT_GRIDS[variant],
                           folds, seed, out_dir)["best_params"]
            timings[f"cv_{variant}"] = time.perf_counter() - stage_start
        else:
            params = ensemble_mod.PUBLISHED[variant]

        model, train_r2, fit_seconds = _train_one(train_subset, variant, params, seed, out_dir)
        timings[f"fit_{variant}"] = fit_seconds
        models.append(model)
        report = _evaluate_one(model, derived, split.test_rows, seed, out_dir)
        metrics_reports.append(report)

        stage_start = time.perf_counter()
        n_rows, train_scores, val_scores = tuning_mod.learning_curve(
            train_subset, variant, params, LEARNING_FRACTIONS, folds, seed
        )
        _write(out_dir, f"learning_curve_{variant}.csv", report_mod.learning_curve_csv(
            LEARNING_FRACTIONS, n_rows, train_scores, val_scores, seed=seed))
        _write(out_dir, f"learning_curve_{variant}.svg", report_mod.learning_curve_svg(
            n_rows, train_scores, val_scores, f"{VARIANT_NAMES[variant]} learning curve",
            svg_meta_line(seed=seed, config={"figure": "learning_curve", "variant": variant})))
        timings[f"learning_curve_{variant}"] = time.perf_counter() - stage_start

        # the curve's fraction-1.0 point is k-fold CV of these parameters
        scores.append({"model": VARIANT_NAMES[variant], "train_r2": train_r2,
                       "cv_r2": val_scores[-1], "test_r2": report["r_squared"],
                       "best_params": params})

    _write(out_dir, "test_metrics.csv",
           report_mod.metrics_table_csv(metrics_reports, seed=seed))
    _write(out_dir, "cv_overview.csv", report_mod.cv_table_csv(scores, seed=seed))
    _write(out_dir, "improvement.csv", report_mod.improvement_csv(scores, seed=seed))

    explain_ids = _subsample(split.test_rows, explain_rows, seed, "explain_rows")
    background_ids = _subsample(split.train_rows, background_size, seed, "background")
    ice_ids = _subsample(explain_ids, ice_rows, seed, "ice_rows")
    for model in models:
        variant = model.variant
        stage_start = time.perf_counter()
        _explain_shap(model, derived, explain_ids, background_ids, seed, out_dir)
        timings[f"shap_{variant}"] = time.perf_counter() - stage_start
        stage_start = time.perf_counter()
        _explain_ice(model, derived, ice_ids, list(derived.feature_names), grid_points,
                     True, False, seed, out_dir)
        timings[f"ice_{variant}"] = time.perf_counter() - stage_start

    timings["total"] = time.perf_counter() - started
    write_json_artifact(
        os.path.join(out_dir, "timings.json"),
        "timings",
        {"seconds": timings, "duplicate_groups": len(duplicates)},
        seed=seed,
        config={"command": "reproduce"},
    )
    _write_manifest(out_dir, seed, earlier)
    click.echo(f"reproduce finished in {timings['total']:.1f}s -> {out_dir}")


NONDETERMINISTIC_ARTIFACTS = ("timings.json",)


def _file_stamps(out_dir) -> dict:
    """(inode, mtime) of each file in out_dir by name; a write replaces its file by a new one."""
    if not os.path.isdir(out_dir):
        return {}
    return {entry.name: (entry.inode(), entry.stat().st_mtime_ns)
            for entry in os.scandir(out_dir) if entry.is_file()}


def _write_manifest(out_dir, seed, earlier):
    """Hash each file in out_dir that this run wrote: not one that keeps its `earlier` stamp."""
    entries = []
    for name, stamp in sorted(_file_stamps(out_dir).items()):
        path = os.path.join(out_dir, name)
        if name == "manifest.json" or earlier.get(name) == stamp:
            continue
        entry = {"name": name}
        if name in NONDETERMINISTIC_ARTIFACTS:
            entry["deterministic"] = False
        else:
            with open(path, "rb") as handle:
                entry["sha256"] = hashlib.sha256(handle.read()).hexdigest()
        entries.append(entry)
    write_json_artifact(
        os.path.join(out_dir, "manifest.json"),
        "manifest",
        {"files": entries},
        seed=seed,
        config={"command": "reproduce"},
    )


if __name__ == "__main__":
    main()
