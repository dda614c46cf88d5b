import json
import os
import re

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import premex.data as data_mod
import premex.ensemble as ensemble_mod
import premex.metrics as metrics_mod
import premex.report as report_mod
import premex.tuning as tuning_mod
from premex.artifacts import config_hash
from premex.cli import EXIT_VALIDATION, guarded, main
from premex.errors import NumericError
from premex.explain import shap_exact
from premex.metrics import r_squared
from premex.tree import NodeTable

import golden
import synth
from conftest import FIXTURE20
from reference_tree import five_columns, old_columns, seven_columns, to_dicts


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def workdir(tmp_path, synth_csv, runner):
    """An ingested dataset plus one small trained model of each variant."""
    out = tmp_path / "run"
    result = runner.invoke(main, ["ingest", synth_csv, "--out", str(out)])
    assert result.exit_code == 0, result.output
    dataset = str(out / "dataset.json")
    for variant, extra in (
        ("rf", ["--n-estimators", "15", "--max-depth", "4"]),
        ("gbm", ["--n-estimators", "10"]),
        ("xgb", ["--n-estimators", "10", "--max-depth", "3"]),
    ):
        result = runner.invoke(
            main,
            ["train", dataset, "--model", variant, "--out", str(out), "--seed", "7", *extra],
        )
        assert result.exit_code == 0, result.output
    return out


def _synth_csv_with_cell(tmp_path, line, column, cell):
    """A 20-row synthetic CSV whose `column` on `line` (the header is line 0) holds `cell`."""
    lines = synth.make_csv_text(n=20, seed=3).splitlines()
    row = lines[line].split(",")
    row[synth.HEADER.split(",").index(column)] = cell
    lines[line] = ",".join(row)
    path = tmp_path / "bad.csv"
    path.write_text("\n".join(lines) + "\n")
    return path


class TestIngest:
    def test_writes_dataset_and_stats(self, runner, synth_csv, tmp_path):
        out = tmp_path / "ingest"
        result = runner.invoke(main, ["ingest", synth_csv, "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert "ingested 300 records" in result.output
        document = json.loads((out / "dataset.json").read_text())
        assert len(document["y"]) == 300
        assert len(document["feature_names"]) == 9
        stats_lines = (out / "summary_stats.csv").read_text().strip().splitlines()
        assert len(stats_lines) == 2 + 11  # meta + header + 10 raw inputs + target

    def test_malformed_header_exits_3(self, runner, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("Age,Banana\n1,2\n")
        result = runner.invoke(main, ["ingest", str(bad), "--out", str(tmp_path / "o")])
        assert result.exit_code == 3
        assert "Banana" in result.output

    def test_missing_file_exits_4(self, runner, tmp_path):
        result = runner.invoke(
            main, ["ingest", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "o")]
        )
        assert result.exit_code == 4

    def test_unwritable_out_exits_4(self, runner, synth_csv, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("i am a file")
        result = runner.invoke(main, ["ingest", synth_csv, "--out", str(blocker / "sub")])
        assert result.exit_code == 4

    def test_validation_failure_exits_3(self, runner, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text(synth.HEADER + "\n18,0,0,0,0,155,57,0,0,0,notanumber\n")
        result = runner.invoke(main, ["ingest", str(bad), "--out", str(tmp_path / "o")])
        assert result.exit_code == 3
        assert "PremiumPrice" in result.output

    def test_field_over_csv_limit_exits_3(self, runner, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text(synth.HEADER + "\n" + "x" * 200_000 + "\n")
        out = tmp_path / "o"
        result = runner.invoke(main, ["ingest", str(bad), "--out", str(out)])
        assert result.exit_code == 3, result.output
        assert isinstance(result.exception, SystemExit)
        assert "error:" in result.output and "Traceback" not in result.output
        assert "row 1: field larger than field limit" in result.output and not out.exists()

    @pytest.mark.parametrize("column, cell, message", [
        ("Age", "-1", "Age must be >= 0"),
        ("Height", "0", "Height must be > 0"),
        ("Weight", "0", "Weight must be > 0"),
    ])
    def test_out_of_domain_cell_exits_3(self, runner, tmp_path, column, cell, message):
        bad = _synth_csv_with_cell(tmp_path, 2, column, cell)
        result = runner.invoke(main, ["ingest", str(bad), "--out", str(tmp_path / "o")])
        assert result.exit_code == 3, result.output
        assert f"row 2: {message}" in result.output
        assert isinstance(result.exception, SystemExit)

    @pytest.mark.parametrize("column, cell", [("NumberOfMajorSurgeries", "nan"), ("Age", "inf")])
    def test_non_finite_cell_exits_3(self, runner, tmp_path, column, cell):
        bad = _synth_csv_with_cell(tmp_path, 5, column, cell)
        out = tmp_path / "o"
        result = runner.invoke(main, ["ingest", str(bad), "--out", str(out)])
        assert result.exit_code == 3, result.output
        assert "error:" in result.output and "Traceback" not in result.output
        assert column in result.output and "non-finite" in result.output
        assert not (out / "dataset.json").exists()

    @pytest.mark.parametrize("height", ["1e300", "1e-200", "5e-160"])
    def test_bmi_past_float64_exits_5(self, runner, tmp_path, height):
        # the BMI formula overflows, divides by a height squared to 0, or gives inf
        bad = _synth_csv_with_cell(tmp_path, 2, "Height", height)
        out = tmp_path / "o"
        result = runner.invoke(main, ["ingest", str(bad), "--out", str(out)])
        assert result.exit_code == 5, result.output
        assert "error: row 2: BMI of height" in result.output
        assert isinstance(result.exception, SystemExit)
        assert not (out / "dataset.json").exists()

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_extreme_cells_never_raise(self, runner, tmp_path, data):
        # finite cells at the edges of float64, where BMI and the summary overflow
        lines = synth.make_csv_text(n=12, seed=5).splitlines()
        header = synth.HEADER.split(",")
        for _ in range(data.draw(st.integers(1, 4))):
            line = data.draw(st.integers(1, len(lines) - 1))
            column = data.draw(st.sampled_from(["Age", "Height", "Weight",
                                                "NumberOfMajorSurgeries"]))
            row = lines[line].split(",")
            row[header.index(column)] = data.draw(
                st.sampled_from(["5e-324", "1e-200", "1e300", "1.7e308"]))
            lines[line] = ",".join(row)
        path = tmp_path / "extreme.csv"
        path.write_text("\n".join(lines) + "\n")
        result = runner.invoke(main, ["ingest", str(path), "--out", str(tmp_path / "o")])
        assert result.exit_code in (0, 3, 5), result.output
        assert result.exception is None or isinstance(result.exception, SystemExit)

    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_mutated_csv_never_raises(self, runner, tmp_path, data):
        # one cell of the fixture, header included, is dropped, doubled or replaced
        lines = open(FIXTURE20, encoding="utf-8").read().splitlines()
        line = data.draw(st.integers(0, len(lines) - 1))
        cells = lines[line].split(",")
        cell = data.draw(st.integers(0, len(cells) - 1))
        edit = data.draw(st.sampled_from(
            ["<drop>", "<double>", "", "x", "nan", "inf", "1e400", "-1", "0", "2"]
        ))
        if edit == "<drop>":
            del cells[cell]
        elif edit == "<double>":
            cells.insert(cell, cells[cell])
        else:
            cells[cell] = edit
        lines[line] = ",".join(cells)
        path = tmp_path / "mutated.csv"
        path.write_text("\n".join(lines) + "\n")
        result = runner.invoke(main, ["ingest", str(path), "--out", str(tmp_path / "o")])
        assert result.exit_code in (0, 3), result.output
        assert result.exception is None or isinstance(result.exception, SystemExit)


class TestTrain:
    def test_same_command_twice_identical_bytes(self, runner, synth_csv, tmp_path):
        out = tmp_path / "t"
        runner.invoke(main, ["ingest", synth_csv, "--out", str(out)])
        dataset = str(out / "dataset.json")
        args = ["train", dataset, "--model", "gbm", "--out", str(out),
                "--seed", "3", "--n-estimators", "8"]
        assert runner.invoke(main, args).exit_code == 0
        first = (out / "model_gbm.json").read_bytes()
        assert runner.invoke(main, args).exit_code == 0
        assert (out / "model_gbm.json").read_bytes() == first

    def test_defaults_are_published_best_params(self, workdir):
        report = json.loads((workdir / "run_report_gbm.json").read_text())
        assert report["params"]["learning_rate"] == 0.19
        report = json.loads((workdir / "run_report_xgb.json").read_text())
        assert report["params"]["subsample"] == 0.9
        assert report["params"]["gamma"] == 0.0

    def test_seed_and_hash_in_meta_fit_time_in_output(self, runner, workdir, tmp_path):
        report = json.loads((workdir / "run_report_rf.json").read_text())
        assert report["meta"]["seed"] == 7
        assert report["meta"]["config_hash"] == config_hash(report["params"])
        # the fit time is printed (and kept in reproduce's timings.json), not reported
        result = runner.invoke(main, ["train", str(workdir / "dataset.json"), "--model", "rf",
                                      "--n-estimators", "2", "--out", str(tmp_path / "o")])
        assert result.exit_code == 0, result.output
        assert re.match(r"trained rf in \d+\.\d\ds, train R\^2 ", result.output)

    @pytest.mark.parametrize("variant", ["rf", "gbm", "xgb"])
    def test_run_report_model_statistics_match_the_model(self, workdir, variant):
        report = json.loads((workdir / f"run_report_{variant}.json").read_text())
        trees = json.loads((workdir / f"model_{variant}.json").read_text())["trees"]
        model = ensemble_mod.load_model(str(workdir / f"model_{variant}.json"))
        assert report["nodes"] == len(trees["feature"])
        assert report["leaves"] == trees["feature"].count(-1)
        assert report["depth"] == max(int(tree.depths()[0]) for tree in model.trees)
        assert 1 <= report["depth"] <= {"rf": 4, "gbm": 3, "xgb": 3}[variant]

    def test_unknown_flag_exits_2(self, runner, workdir):
        result = runner.invoke(
            main,
            ["train", str(workdir / "dataset.json"), "--model", "rf",
             "--out", str(workdir), "--frobnicate", "9"],
        )
        assert result.exit_code == 2

    def test_inapplicable_flag_rejected(self, runner, workdir):
        result = runner.invoke(
            main,
            ["train", str(workdir / "dataset.json"), "--model", "rf",
             "--out", str(workdir), "--learning-rate", "0.5"],
        )
        assert result.exit_code == 2
        assert "does not apply" in result.output

    @pytest.mark.parametrize("flag", ["--reg-lambda", "--gamma"])
    def test_xgb_penalty_rejected_for_gbm(self, runner, workdir, flag):
        result = runner.invoke(
            main,
            ["train", str(workdir / "dataset.json"), "--model", "gbm",
             "--out", str(workdir / "gbm_penalty"), flag, "50"],
        )
        assert result.exit_code == 2
        assert "does not apply to gbm" in result.output
        assert not (workdir / "gbm_penalty").exists()

    @pytest.mark.parametrize("variant, flag, value, field", [
        ("rf", "--n-estimators", "0", "n_estimators"),
        ("rf", "--max-depth", "-1", "max_depth"),
        ("rf", "--min-samples-split", "1", "min_samples_split"),
        ("gbm", "--learning-rate", "5", "learning_rate"),
        ("xgb", "--subsample", "0", "subsample"),
        ("xgb", "--gamma", "nan", "gamma"),
    ])
    def test_bad_flag_value_exits_2(self, runner, workdir, variant, flag, value, field):
        out = workdir / "bad_flag"
        result = runner.invoke(
            main,
            ["train", str(workdir / "dataset.json"), "--model", variant,
             "--out", str(out), flag, value],
        )
        assert result.exit_code == 2, result.output
        assert field in result.output and "Traceback" not in result.output
        assert not out.exists()

    def test_max_features_above_feature_count_exits_3(self, runner, workdir, tmp_path):
        # the bound depends on the dataset, so it is a validation error
        result = runner.invoke(
            main,
            ["train", str(workdir / "dataset.json"), "--model", "rf",
             "--out", str(tmp_path / "o"), "--max-features", "20"],
        )
        assert result.exit_code == 3, result.output
        assert "error:" in result.output and "max_features" in result.output

    @pytest.mark.parametrize("reuse_split", [False, True])
    def test_failed_fit_leaves_no_split(self, runner, workdir, tmp_path, reuse_split):
        out = tmp_path / "o"
        split = ["--split", str(workdir / "split.json")] if reuse_split else []
        result = runner.invoke(
            main,
            ["train", str(workdir / "dataset.json"), "--model", "rf",
             "--out", str(out), "--max-features", "20", *split],
        )
        assert result.exit_code == 3, result.output
        assert not (out / "split.json").exists()

    def test_one_row_dataset_exits_3(self, runner, tmp_path):
        csv_path = tmp_path / "one.csv"
        csv_path.write_text(synth.make_csv_text(n=1, seed=1))
        out = tmp_path / "o"
        assert runner.invoke(main, ["ingest", str(csv_path), "--out", str(out)]).exit_code == 0
        result = runner.invoke(
            main, ["train", str(out / "dataset.json"), "--model", "gbm", "--out", str(out)]
        )
        assert result.exit_code == 3, result.output
        assert "error:" in result.output and "Traceback" not in result.output


class TestTune:
    def test_single_cell_grid(self, runner, workdir, tmp_path):
        # a depth bound past int64 is as valid as a small one
        for depth in (2, 99999999999999999999):
            grid = tmp_path / "grid.json"
            grid.write_text(json.dumps({"n_estimators": [6], "max_depth": [depth]}))
            result = runner.invoke(
                main,
                ["tune", str(workdir / "dataset.json"), "--model", "gbm",
                 "--grid", str(grid), "--folds", "3", "--out", str(workdir)],
            )
            assert result.exit_code == 0, result.output
            document = json.loads((workdir / "cv_gbm.json").read_text())
            assert document["best_params"] == {"n_estimators": 6, "max_depth": depth}
            assert len(document["cells"]) == 1

    def test_flag_set_in_one_row_is_accepted(self, runner, tmp_path):
        # AnyTransplants is 1 in a single row, so it is constant on most
        # CV training folds; tree models train on the raw matrix regardless
        rows = [line.split(",") for line in synth.make_csv_text(n=60, seed=5).splitlines()[1:]]
        for i, row in enumerate(rows):
            row[3] = "1" if i == 0 else "0"
        csv_path = tmp_path / "one_transplant.csv"
        csv_path.write_text(synth.HEADER + "\n" + "\n".join(",".join(r) for r in rows) + "\n")
        out = tmp_path / "o"
        assert runner.invoke(main, ["ingest", str(csv_path), "--out", str(out)]).exit_code == 0
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"n_estimators": [5]}))
        result = runner.invoke(
            main,
            ["tune", str(out / "dataset.json"), "--model", "gbm",
             "--grid", str(grid), "--folds", "3", "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        assert (out / "cv_gbm.json").exists()

    @pytest.mark.parametrize("variant, grid", [
        ("gbm", {"reg_lambda": [50]}),  # an xgb penalty gbm does not apply
        ("rf", {"n_estimator": [5]}),  # misspelled
    ])
    def test_unknown_grid_key_exits_3(self, runner, workdir, tmp_path, variant, grid):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(grid))
        result = runner.invoke(
            main,
            ["tune", str(workdir / "dataset.json"), "--model", variant,
             "--grid", str(path), "--folds", "2", "--out", str(tmp_path / "o")],
        )
        assert result.exit_code == 3, result.output
        assert "error:" in result.output and "Traceback" not in result.output
        assert sorted(grid)[0] in result.output

    @pytest.mark.parametrize("grid", [
        {"n_estimators": ["a"]},
        {"n_estimators": [2.5]},
        {"n_estimators": [True]},
        {"learning_rate": [5]},
        {"max_depth": [-2]},
        {"subsample": [0]},
        {"max_features": [20]},
    ])
    def test_bad_grid_value_exits_3(self, runner, workdir, tmp_path, grid):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(grid))
        result = runner.invoke(
            main,
            ["tune", str(workdir / "dataset.json"), "--model", "gbm",
             "--grid", str(path), "--folds", "2", "--out", str(tmp_path / "o")],
        )
        assert result.exit_code == 3, result.output
        assert "error:" in result.output and "Traceback" not in result.output
        assert sorted(grid)[0] in result.output

    @pytest.mark.parametrize("folds, code", [("1", 2), ("500", 3)])
    def test_fold_count_out_of_range(self, runner, workdir, tmp_path, folds, code):
        # 500 folds pass the flag's range but exceed the 225-row train split
        result = runner.invoke(
            main,
            ["tune", str(workdir / "dataset.json"), "--model", "gbm",
             "--folds", folds, "--out", str(tmp_path / "o")],
        )
        assert result.exit_code == code, result.output
        assert "Traceback" not in result.output

    def test_missing_grid_file(self, runner, workdir, tmp_path):
        result = runner.invoke(
            main,
            ["tune", str(workdir / "dataset.json"), "--model", "gbm",
             "--grid", str(tmp_path / "none.json"), "--out", str(workdir)],
        )
        assert result.exit_code == 4


def test_cv_and_metrics_bodies_are_the_returned_dicts(runner, workdir, tmp_path):
    # cv_gbm.json and metrics_gbm.json without kind and meta hold exactly what
    # grid_search and evaluate_predictions return
    dataset_path, model_path = str(workdir / "dataset.json"), str(workdir / "model_gbm.json")
    grid = {"n_estimators": [4, 2], "learning_rate": [0.3, 0.1]}
    (tmp_path / "grid.json").write_text(json.dumps(grid))
    for argv in (["tune", dataset_path, "--model", "gbm", "--grid", str(tmp_path / "grid.json"),
                  "--folds", "3", "--seed", "7", "--out", str(workdir)],
                 ["evaluate", model_path, dataset_path, "--split", str(workdir / "split.json"),
                  "--seed", "7", "--out", str(workdir)]):
        result = runner.invoke(main, argv)
        assert result.exit_code == 0, result.output
    dataset = data_mod.dataset_from_json(dataset_path)
    train_rows = data_mod.train_test_split(dataset.n, 0.75, 7).train_rows
    test_rows = data_mod.split_from_json(str(workdir / "split.json"), dataset.n).test_rows
    predicted = ensemble_mod.load_model(model_path).predict(dataset.X[test_rows])
    returned = {
        "cv_gbm.json": tuning_mod.grid_search(dataset.subset(train_rows), "gbm", grid, 3, 7),
        "metrics_gbm.json": metrics_mod.evaluate_predictions("GBM", dataset.y[test_rows],
                                                             predicted),
    }
    for name, body in returned.items():
        document = json.loads((workdir / name).read_text())
        del document["kind"], document["meta"]
        assert document == body


class TestEvaluate:
    def test_metrics_artifacts(self, runner, workdir):
        result = runner.invoke(
            main,
            ["evaluate", str(workdir / "model_rf.json"), str(workdir / "dataset.json"),
             "--split", str(workdir / "split.json"), "--out", str(workdir)],
        )
        assert result.exit_code == 0, result.output
        metrics = json.loads((workdir / "metrics_rf.json").read_text())
        assert metrics["n"] == 75  # 25% of 300
        assert metrics["rmse"] >= metrics["mae"]
        # the saved model scores the raw feature rows; nothing is transformed
        dataset = data_mod.dataset_from_json(str(workdir / "dataset.json"))
        test_rows = data_mod.split_from_json(str(workdir / "split.json"), dataset.n).test_rows
        model = ensemble_mod.load_model(str(workdir / "model_rf.json"))
        assert metrics["r_squared"] == r_squared(
            dataset.y[test_rows], model.predict(dataset.X[test_rows])
        )
        for name in ("residual_scatter_rf.svg", "qq_rf.svg", "prediction_error_rf.svg",
                     "metrics_rf.csv"):
            assert (workdir / name).exists()

    def test_perfect_model_scores_one(self, runner, tmp_path):
        # every feature is an exact function of a 10-valued age, so rows
        # repeat and an unbounded single-stage fit generalizes exactly
        rng = np.random.default_rng(0)
        ages = rng.integers(1, 11, 200) * 5
        rows = []
        for a in ages:
            rows.append(
                f"{a},{a % 2},{(a // 5) % 2},{(a // 10) % 2},{(a // 15) % 2},"
                f"{150 + a % 20},{50 + a % 25},{(a // 20) % 2},{(a // 25) % 2},"
                f"{(a // 5) % 4},{1000 * (a // 5)}"
            )
        csv_path = tmp_path / "exact.csv"
        csv_path.write_text(synth.HEADER + "\n" + "\n".join(rows) + "\n")
        out = tmp_path / "o"
        assert runner.invoke(main, ["ingest", str(csv_path), "--out", str(out)]).exit_code == 0
        assert runner.invoke(main, [
            "train", str(out / "dataset.json"), "--model", "gbm", "--out", str(out),
            "--n-estimators", "1", "--learning-rate", "1.0", "--max-depth", "20",
        ]).exit_code == 0
        result = runner.invoke(main, [
            "evaluate", str(out / "model_gbm.json"), str(out / "dataset.json"),
            "--split", str(out / "split.json"), "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        metrics = json.loads((out / "metrics_gbm.json").read_text())
        assert metrics["r_squared"] == pytest.approx(1.0, abs=1e-12)
        assert metrics["mae"] == pytest.approx(0.0, abs=1e-9)

    def test_dimension_mismatch_exits_3(self, runner, workdir, tmp_path):
        narrow = {
            "kind": "dataset",
            "meta": {"format_version": 1, "seed": 0, "config_hash": "x"},
            "feature_names": ["a", "b"],
            "X": [[1.0, 2.0], [2.0, 1.0], [0.0, 1.0], [1.0, 0.0]],
            "y": [1.0, 2.0, 3.0, 4.0],
        }
        path = tmp_path / "narrow.json"
        path.write_text(json.dumps(narrow))
        result = runner.invoke(
            main,
            ["evaluate", str(workdir / "model_rf.json"), str(path),
             "--split", str(workdir / "split.json"), "--out", str(workdir)],
        )
        assert result.exit_code == 3


class TestShortSplits:
    """A test split or CV fold too small to score ends in an exit code, not a traceback."""

    @pytest.fixture
    def out50(self, runner, tmp_path):
        csv_path = tmp_path / "premiums50.csv"
        csv_path.write_text(synth.make_csv_text(n=50, seed=3))
        out = tmp_path / "o"
        assert runner.invoke(main, ["ingest", str(csv_path), "--out", str(out)]).exit_code == 0
        return out

    @staticmethod
    def train_and_evaluate(runner, out, fraction):
        result = runner.invoke(main, [
            "train", str(out / "dataset.json"), "--model", "gbm", "--out", str(out),
            "--n-estimators", "5", "--split-fraction", fraction,
        ])
        assert result.exit_code == 0, result.output
        return runner.invoke(main, [
            "evaluate", str(out / "model_gbm.json"), str(out / "dataset.json"),
            "--split", str(out / "split.json"), "--out", str(out),
        ])

    def test_one_row_test_split_exits_5(self, runner, out50):
        result = self.train_and_evaluate(runner, out50, "0.99")  # 49 train rows, 1 test
        assert result.exit_code == 5, result.output
        assert "error:" in result.output and isinstance(result.exception, SystemExit)
        assert not (out50 / "metrics_gbm.json").exists()

    def test_two_row_test_split_skips_qq(self, runner, out50):
        result = self.train_and_evaluate(runner, out50, "0.96")  # 48 train rows, 2 test
        assert result.exit_code == 0, result.output
        assert "skipping Q-Q figure" in result.output
        assert json.loads((out50 / "metrics_gbm.json").read_text())["n"] == 2
        assert not (out50 / "qq_gbm.svg").exists()

    def test_one_row_folds_exit_3(self, runner, out50, tmp_path):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"n_estimators": [5]}))
        result = runner.invoke(main, [  # 38 folds of the 38-row train split
            "tune", str(out50 / "dataset.json"), "--model", "gbm", "--grid", str(grid),
            "--folds", "38", "--out", str(out50),
        ])
        assert result.exit_code == 3, result.output
        assert "error:" in result.output and isinstance(result.exception, SystemExit)


class TestOverflowingPremiums:
    """Premiums 1e150 times the synthetic ones are finite, but their squares
    are not: every command that scores them exits 5 and writes no NaN or
    Infinity into a JSON artifact."""

    @pytest.fixture
    def paths(self, runner, tmp_path):
        csv_path = tmp_path / "premiums.csv"
        csv_path.write_text(synth.make_csv_text(n=60, seed=3))
        fitted = tmp_path / "fitted"
        for args in (["ingest", str(csv_path)],
                     ["train", str(fitted / "dataset.json"), "--model", "gbm",
                      "--n-estimators", "5"]):
            result = runner.invoke(main, [*args, "--out", str(fitted)])
            assert result.exit_code == 0, result.output
        dataset = data_mod.dataset_from_json(str(fitted / "dataset.json"))
        huge = tmp_path / "huge.json"
        data_mod.dataset_to_json(
            data_mod.Dataset(dataset.feature_names, dataset.X, dataset.y * 1e150), str(huge))
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"n_estimators": [5]}))
        return fitted, huge, grid

    @pytest.mark.parametrize("command", ["train", "evaluate", "tune"])
    def test_exits_5(self, runner, paths, tmp_path, command):
        fitted, huge, grid = paths
        args = {
            "train": ["train", str(huge), "--model", "gbm", "--n-estimators", "5"],
            "evaluate": ["evaluate", str(fitted / "model_gbm.json"), str(huge),
                         "--split", str(fitted / "split.json")],
            "tune": ["tune", str(huge), "--model", "gbm", "--grid", str(grid)],
        }[command]
        out = tmp_path / "out"
        result = runner.invoke(main, [*args, "--out", str(out)])
        assert result.exit_code == 5, result.output
        assert "error: r_squared is nan, not a finite number" in result.output
        for path in out.glob("*.json"):
            text = path.read_text()
            assert "NaN" not in text and "Infinity" not in text, path.name

    def test_ingest_exits_5_before_writing(self, runner, tmp_path):
        lines = synth.make_csv_text(n=60, seed=3).splitlines()
        scaled = [line.rsplit(",", 1) for line in lines[1:]]
        csv_path = tmp_path / "huge.csv"
        csv_path.write_text("\n".join(
            [lines[0], *(f"{head},{float(premium) * 1e150!r}" for head, premium in scaled)]) + "\n")
        out = tmp_path / "out"
        result = runner.invoke(main, ["ingest", str(csv_path), "--out", str(out)])
        assert result.exit_code == 5, result.output
        assert "summary statistics of column 'PremiumPrice' are not finite" in result.output
        assert not out.exists() or not list(out.iterdir())


def _set_keys(**changes):
    def edit(doc):
        doc.update(changes)
        for key, value in changes.items():
            if value is None:
                del doc[key]
    return edit


def _edit_x_cell(value):
    def edit(doc):
        doc["X"][3][5] = value
    return edit


def _mutate_one_value(data, doc, depth):
    """Drop or replace one value of a JSON document, at most `depth` levels down."""
    container, key = doc, data.draw(st.sampled_from(sorted(doc)))
    for _ in range(depth):
        inner = container[key]
        if not isinstance(inner, (list, dict)) or not inner or not data.draw(st.booleans()):
            break
        container = inner
        key = data.draw(st.sampled_from(sorted(inner)) if isinstance(inner, dict)
                        else st.integers(0, len(inner) - 1))
    value = data.draw(st.one_of(
        st.just("<drop>"), st.text(max_size=3), st.none(), st.just(float("nan")),
        st.sampled_from([-1, 300, 99999, 10**400]),
    ))
    if value == "<drop>":
        del container[key]
    else:
        container[key] = value


class TestCorruptSplitAndDataset:
    """A malformed split.json or dataset.json exits 3 with a message."""

    @staticmethod
    def evaluate_with(runner, workdir, tmp_path, name, doc):
        """Run evaluate with `doc` in place of the workdir's file `name`."""
        (tmp_path / name).write_text(json.dumps(doc))
        paths = {key: str(workdir / key) for key in ("split.json", "dataset.json")}
        paths[name] = str(tmp_path / name)
        return runner.invoke(
            main,
            ["evaluate", str(workdir / "model_gbm.json"), paths["dataset.json"],
             "--split", paths["split.json"], "--out", str(tmp_path / "o")],
        )

    @pytest.mark.parametrize("name, edit", [
        pytest.param("split.json", _set_keys(test_rows=[99999]), id="row-past-end"),
        pytest.param("split.json", _set_keys(test_rows=[-1, 2]), id="negative-row"),
        pytest.param("split.json", _set_keys(train_rows="abc"), id="rows-string"),
        pytest.param("split.json", _set_keys(train_rows=[]), id="rows-empty"),
        pytest.param("split.json", _set_keys(test_rows=[4, 4, 5]), id="row-repeated"),
        pytest.param("split.json", _set_keys(test_rows=[1.0, 2.0]), id="row-float"),
        pytest.param("split.json", lambda doc: doc["meta"].pop("seed"), id="no-seed"),
        pytest.param("split.json", lambda doc: doc["test_rows"].append(doc["train_rows"][0]),
                     id="lists-overlap"),
        pytest.param("dataset.json", lambda doc: doc.pop("feature_names"), id="no-names"),
        pytest.param("dataset.json", _edit_x_cell("x"), id="cell-string"),
        pytest.param("dataset.json", _edit_x_cell(float("nan")), id="cell-nan"),
        pytest.param("dataset.json", _edit_x_cell(None), id="cell-null"),
        pytest.param("dataset.json", _edit_x_cell(True), id="cell-bool"),
        pytest.param("dataset.json", _edit_x_cell(10**400), id="cell-overflow"),
        pytest.param("dataset.json", lambda doc: doc["X"][7].pop(), id="ragged-row"),
        pytest.param("dataset.json", lambda doc: doc["y"].__setitem__(0, float("inf")),
                     id="target-inf"),
        pytest.param("dataset.json", lambda doc: doc.update(meta="m"), id="meta-string"),
    ])
    def test_malformed_file_exits_3(self, runner, workdir, tmp_path, name, edit):
        doc = json.loads((workdir / name).read_text())
        edit(doc)
        result = self.evaluate_with(runner, workdir, tmp_path, name, doc)
        assert result.exit_code == 3, result.output
        assert "error:" in result.output and isinstance(result.exception, SystemExit)

    def test_split_of_some_rows_exits_3(self, runner, workdir, tmp_path):
        doc = json.loads((workdir / "split.json").read_text())
        doc.update(train_rows=[0, 1, 2], test_rows=[5, 6])
        result = self.evaluate_with(runner, workdir, tmp_path, "split.json", doc)
        assert result.exit_code == 3, result.output
        n = len(json.loads((workdir / "dataset.json").read_text())["y"])
        assert f"cover 5 of the dataset's {n} rows, not every row" in result.output
        assert isinstance(result.exception, SystemExit)

    @pytest.mark.parametrize("command", ["evaluate", "explain"])
    def test_reversed_feature_names_exit_3(self, runner, workdir, tmp_path, command):
        # same matrix, names in another order than the model's features
        doc = json.loads((workdir / "dataset.json").read_text())
        doc["feature_names"].reverse()
        (tmp_path / "dataset.json").write_text(json.dumps(doc))
        out = tmp_path / "o"
        result = runner.invoke(
            main,
            [command, str(workdir / "model_rf.json"), str(tmp_path / "dataset.json"),
             "--split", str(workdir / "split.json"), "--out", str(out)],
        )
        assert result.exit_code == 3, result.output
        assert "differ from dataset features" in result.output
        assert isinstance(result.exception, SystemExit) and not out.exists()

    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_mutated_file_never_raises(self, runner, workdir, tmp_path, data):
        name = data.draw(st.sampled_from(["split.json", "dataset.json"]))
        doc = json.loads((workdir / name).read_text())
        _mutate_one_value(data, doc, depth=2)
        result = self.evaluate_with(runner, workdir, tmp_path, name, doc)
        assert result.exit_code in (0, 2, 3), result.output
        assert result.exception is None or isinstance(result.exception, SystemExit)


def _table(doc) -> NodeTable:
    """The model document's `trees` as a node table."""
    return NodeTable.from_document(doc["trees"], len(doc["feature_names"]))


def _seven_columns(doc) -> dict:
    """The model document's `trees` in the earlier seven-column layout."""
    return seven_columns([old_columns(tree) for tree in to_dicts(_table(doc))])


# what an earlier layout's `trees` is told it must hold
FOUR_KEYS = ("trees must be an object of exactly the columns "
             "['feature', 'first', 'threshold', 'value']")


class TestCorruptModel:
    @staticmethod
    def edit_and_evaluate(runner, workdir, tmp_path, edit, variant="xgb"):
        doc = json.loads((workdir / f"model_{variant}.json").read_text())
        edit(doc)
        path = tmp_path / "corrupt.json"
        path.write_text(json.dumps(doc))
        result = runner.invoke(
            main,
            ["evaluate", str(path), str(workdir / "dataset.json"),
             "--split", str(workdir / "split.json"), "--out", str(tmp_path / "o")],
        )
        assert result.exit_code == 3, result.output
        assert "error:" in result.output and "Traceback" not in result.output
        assert f"{path}:" in result.output
        return result

    def test_extra_config_key(self, runner, workdir, tmp_path):
        self.edit_and_evaluate(runner, workdir, tmp_path,
                               lambda doc: doc["config"].update(colsample=0.5))

    def test_rf_config_with_bootstrap(self, runner, workdir, tmp_path):
        # every forest bootstraps, so rf configs no longer hold the key
        result = self.edit_and_evaluate(runner, workdir, tmp_path,
                                        lambda doc: doc["config"].update(bootstrap=True), "rf")
        assert "model config must hold exactly the keys" in result.output

    def test_feature_out_of_range(self, runner, workdir, tmp_path):
        def edit(doc):
            doc["trees"]["feature"][0] = 99  # tree 0's root
        result = self.edit_and_evaluate(runner, workdir, tmp_path, edit)
        assert "tree 0: tree feature index" in result.output

    def test_child_cycle(self, runner, workdir, tmp_path):
        # the earlier layout, with child ids, and a cycle in them
        def edit(doc):
            doc["trees"] = _seven_columns(doc)
            trees, root = doc["trees"], doc["trees"]["first"][1]
            child = root + trees["left"][root]  # tree 1's root's left child
            trees["left"][child] = 0  # points back to the root
            trees["feature"][child] = 0
        result = self.edit_and_evaluate(runner, workdir, tmp_path, edit)
        assert FOUR_KEYS in result.output

    @pytest.mark.parametrize("fault, message", [
        pytest.param("node-count", "tree 1: a tree of s split nodes must hold 2s + 1 nodes",
                     id="node-count"),
        pytest.param("leaf-root-then-split",
                     "tree 1: a tree's k-th split node must come before node 2k + 1",
                     id="leaf-root-then-split"),
    ])
    def test_growth_order_fault_names_its_tree(self, runner, workdir, tmp_path, fault, message):
        def edit(doc):
            trees = doc["trees"]
            start, stop = trees["first"][1:3]
            if fault == "node-count":
                trees["first"][2] += 1  # tree 1 takes tree 2's root
            else:
                # tree 1's root and its first leaf trade roles: the root takes
                # the leaf's value, the leaf the root's feature and threshold
                feature = trees["feature"]
                leaf = feature.index(-1, start, stop)
                at = sum(f >= 0 for f in feature[:start])  # the root's threshold
                moved_to = at + sum(f >= 0 for f in feature[start + 1:leaf])
                trees["threshold"].insert(moved_to, trees["threshold"].pop(at))
                feature[leaf], feature[start] = feature[start], -1
        result = self.edit_and_evaluate(runner, workdir, tmp_path, edit)
        assert message in result.output

    @pytest.mark.parametrize("column, length", [("threshold", 1), ("threshold", -1),
                                                ("value", 1), ("value", -1)])
    def test_list_of_wrong_length(self, runner, workdir, tmp_path, column, length):
        def edit(doc):
            cells = doc["trees"][column]
            doc["trees"][column] = cells + [1.0] if length > 0 else cells[:-1]
        result = self.edit_and_evaluate(runner, workdir, tmp_path, edit)
        assert "one threshold per split node and one value per leaf" in result.output

    @pytest.mark.parametrize("key, value", [
        ("n_estimators", "x"), ("learning_rate", 7), ("seed", "s"),
    ])
    def test_bad_config_value(self, runner, workdir, tmp_path, key, value):
        result = self.edit_and_evaluate(runner, workdir, tmp_path,
                                        lambda doc: doc["config"].update({key: value}))
        assert key in result.output

    def test_two_malformed_trees_name_the_first(self, runner, workdir, tmp_path):
        def edit(doc):
            trees = doc["trees"]
            trees["first"][2] += 1  # tree 1 takes tree 2's root: the last checks
            root, feature = trees["first"][3], trees["feature"]
            # an early check, in a later tree; its root stays a split or a leaf
            feature[root] = 99 if feature[root] >= 0 else -2
        result = self.edit_and_evaluate(runner, workdir, tmp_path, edit)
        assert "tree 1: a tree of s split nodes" in result.output
        assert "feature index" not in result.output

    @pytest.mark.parametrize("column", ["count", "left", "threshold", "value", "feature"])
    @pytest.mark.parametrize("cell", [True, False])
    def test_boolean_cell_refused(self, runner, workdir, tmp_path, column, cell):
        # json reads true and false as bools, which numpy would take as 1 and 0
        # `left` and `count` exist only in the earlier seven- and
        # five-column layouts, which are refused by their keys
        def edit(doc):
            if column == "left":
                doc["trees"] = _seven_columns(doc)
            elif column == "count":
                doc["trees"] = five_columns(_table(doc))
            doc["trees"][column][doc["trees"]["first"][1]] = cell  # a cell of tree 1 or later
        result = self.edit_and_evaluate(runner, workdir, tmp_path, edit)
        if column in ("left", "count"):
            assert FOUR_KEYS in result.output
        else:
            assert f"tree column '{column}' must be a list of" in result.output

    def test_per_tree_layout_refused(self, runner, workdir, tmp_path):
        # the earlier layout: one object of six columns per tree
        def edit(doc):
            trees = doc["trees"]
            bounds = [*trees.pop("first"), len(trees["feature"])]
            doc["trees"] = [{name: column[a:b] for name, column in trees.items()}
                            for a, b in zip(bounds, bounds[1:])]
        result = self.edit_and_evaluate(runner, workdir, tmp_path, edit)
        assert "trees must be an object of exactly the columns" in result.output

    def test_nested_tree_layout(self, runner, workdir, tmp_path):
        def edit(doc):
            doc["trees"] = [{"feature": 0, "threshold": 40.5,
                             "left": {"value": -10.0, "count": 100},
                             "right": {"value": 10.0, "count": 125}}]
        self.edit_and_evaluate(runner, workdir, tmp_path, edit)

    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_mutated_model_never_raises(self, runner, workdir, tmp_path, data):
        # two levels reach one node cell: trees -> column -> node
        doc = json.loads((workdir / "model_gbm.json").read_text())
        _mutate_one_value(data, doc, depth=2)
        path = tmp_path / "mutated.json"
        path.write_text(json.dumps(doc))
        result = runner.invoke(
            main,
            ["evaluate", str(path), str(workdir / "dataset.json"),
             "--split", str(workdir / "split.json"), "--out", str(tmp_path / "o")],
        )
        assert result.exit_code in (0, 2, 3, 4, 5), result.output
        assert result.exception is None or isinstance(result.exception, SystemExit)


class TestCorruptGrid:
    # no n_estimators key, so no mutation can ask for 99999 stages
    GRID = {"learning_rate": [0.1, 0.2], "max_depth": [2, 3], "subsample": [0.8]}

    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_mutated_grid_never_raises(self, runner, workdir, tmp_path, data):
        # one level down reaches one value of a key's list
        grid = json.loads(json.dumps(self.GRID))
        _mutate_one_value(data, grid, depth=1)
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(grid))
        result = runner.invoke(
            main,
            ["tune", str(workdir / "dataset.json"), "--model", "gbm", "--grid", str(path),
             "--folds", "2", "--out", str(tmp_path / "o")],
        )
        assert result.exit_code in (0, 2, 3, 4, 5), result.output
        assert result.exception is None or isinstance(result.exception, SystemExit)


class TestBadJsonNumbers:
    """A NaN or Infinity token, the literal 1e400 (inf to json) or `true`
    where a number belongs is refused by every JSON input: exit 3, or 2 for
    --config, with an error line and no traceback."""

    HOLE = "<number>"
    FILES = {
        "dataset": ("dataset.json", lambda doc, cell: doc["X"][3].__setitem__(5, cell)),
        "split": ("split.json", lambda doc, cell: doc["test_rows"].__setitem__(0, cell)),
        "model": ("model_xgb.json",
                  lambda doc, cell: doc["trees"]["threshold"].__setitem__(0, cell)),
    }

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "1e400", "true"])
    @pytest.mark.parametrize("role", ["dataset", "split", "model", "grid", "config"])
    def test_refused(self, runner, workdir, tmp_path, role, token):
        if role in self.FILES:
            name, edit = self.FILES[role]
            doc = json.loads((workdir / name).read_text())
            edit(doc, self.HOLE)
        elif role == "grid":
            doc = {"learning_rate": [self.HOLE], "n_estimators": [2]}
        else:
            doc = {"train": {"learning_rate": self.HOLE}}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc).replace(json.dumps(self.HOLE), token))
        dataset, out = str(workdir / "dataset.json"), str(tmp_path / "o")
        argv = {
            "dataset": ["train", str(bad), "--model", "gbm", "--n-estimators", "2", "--out", out],
            "split": ["evaluate", str(workdir / "model_gbm.json"), dataset, "--split", str(bad),
                      "--out", out],
            "model": ["evaluate", str(bad), dataset, "--split", str(workdir / "split.json"),
                      "--out", out],
            "grid": ["tune", dataset, "--model", "gbm", "--grid", str(bad), "--folds", "2",
                     "--out", out],
            "config": ["--config", str(bad), "train", dataset, "--model", "gbm",
                       "--n-estimators", "2", "--out", out],
        }[role]
        result = runner.invoke(main, argv)
        assert result.exit_code == (2 if role == "config" else 3), result.output
        assert isinstance(result.exception, SystemExit)
        assert re.search(r"^(error|Error): ", result.output, re.M), result.output
        assert "Traceback" not in result.output and not os.path.exists(out)


class TestUnreadableFiles:
    """An input file that is not UTF-8, or JSON nested past the parser's
    recursion limit, exits 3 with an error naming the file."""

    @staticmethod
    def invoke(runner, workdir, tmp_path, role, content):
        bad = tmp_path / "bad"
        bad.write_bytes(content)
        dataset, split = str(workdir / "dataset.json"), str(workdir / "split.json")
        out = str(tmp_path / "o")
        argv = {
            "csv": ["ingest", str(bad), "--out", out],
            "dataset": ["train", str(bad), "--model", "gbm", "--out", out],
            "split": ["evaluate", str(workdir / "model_gbm.json"), dataset, "--split", str(bad),
                      "--out", out],
            "model": ["evaluate", str(bad), dataset, "--split", split, "--out", out],
            "grid": ["tune", dataset, "--model", "gbm", "--grid", str(bad), "--folds", "2",
                     "--out", out],
        }[role]
        result = runner.invoke(main, argv)
        assert result.exit_code == 3, result.output
        assert isinstance(result.exception, SystemExit)
        assert f"error: {bad}: " in result.output

    @pytest.mark.parametrize("role", ["csv", "dataset", "split", "model", "grid"])
    def test_leading_0xff_byte_exits_3(self, runner, workdir, tmp_path, role):
        original = {"csv": synth.make_csv_text(n=20, seed=3).encode(),
                    "dataset": (workdir / "dataset.json").read_bytes(),
                    "split": (workdir / "split.json").read_bytes(),
                    "model": (workdir / "model_gbm.json").read_bytes(),
                    "grid": b'{"n_estimators": [2]}'}[role]
        self.invoke(runner, workdir, tmp_path, role, b"\xff" + original)

    @pytest.mark.parametrize("role", ["split", "grid"])
    def test_deeply_nested_json_exits_3(self, runner, workdir, tmp_path, role):
        self.invoke(runner, workdir, tmp_path, role, b"[" * 100_000)


class TestExplain:
    def test_shap_outputs(self, runner, workdir):
        result = runner.invoke(
            main,
            ["explain", str(workdir / "model_gbm.json"), str(workdir / "dataset.json"),
             "--split", str(workdir / "split.json"),
             "--mode", "shap", "--rows", "6", "--background-size", "25",
             "--out", str(workdir)],
        )
        assert result.exit_code == 0, result.output
        lines = (workdir / "shap_values_gbm.csv").read_text().strip().splitlines()
        assert len(lines) == 2 + 6
        assert (workdir / "beeswarm_gbm.svg").exists()
        assert (workdir / "importance_gbm.svg").exists()
        assert (workdir / "shap_importance_gbm.csv").exists()

    def test_shap_efficiency_from_csv(self, runner, workdir):
        result = runner.invoke(
            main,
            ["explain", str(workdir / "model_gbm.json"), str(workdir / "dataset.json"),
             "--split", str(workdir / "split.json"),
             "--mode", "shap", "--rows", "4", "--background-size", "20",
             "--out", str(workdir)],
        )
        assert result.exit_code == 0, result.output
        dataset = data_mod.dataset_from_json(str(workdir / "dataset.json"))
        model = ensemble_mod.load_model(str(workdir / "model_gbm.json"))
        lines = (workdir / "shap_values_gbm.csv").read_text().strip().splitlines()[2:]
        for line in lines:
            cells = line.split(",")
            row_id = int(cells[0])
            phi = np.array([float(v) for v in cells[1:-1]])
            base = float(cells[-1])
            prediction = model.predict(dataset.X[[row_id]])[0]
            assert base + phi.sum() == pytest.approx(prediction, abs=1e-4)

    @pytest.mark.parametrize("variant", ["rf", "gbm", "xgb"])
    def test_shap_csv_equals_exact_shapley_values(self, runner, workdir, tmp_path, variant):
        # on the first 35 rows, split whole: all 30 train rows are the
        # background and all 5 test rows are explained
        dataset = data_mod.dataset_from_json(str(workdir / "dataset.json")).subset(np.arange(35))
        data_mod.dataset_to_json(dataset, str(tmp_path / "dataset.json"), seed=0)
        split = tmp_path / "split.json"
        data_mod.split_to_json(data_mod.SplitIndices(np.arange(30), np.arange(30, 35), 0),
                               str(split))
        model_path = str(workdir / f"model_{variant}.json")
        result = runner.invoke(
            main,
            ["explain", model_path, str(tmp_path / "dataset.json"), "--split", str(split),
             "--mode", "shap", "--out", str(tmp_path)],
        )
        assert result.exit_code == 0, result.output
        model = ensemble_mod.load_model(model_path)
        base_value, phi = shap_exact(model.predict, dataset.X[30:35], dataset.X[:30])
        lines = (tmp_path / f"shap_values_{variant}.csv").read_text().strip().splitlines()[2:]
        assert len(lines) == 5
        for i, line in enumerate(lines):
            values = [*phi[i], base_value]
            assert line.split(",") == [str(30 + i)] + [f"{v:.6f}" for v in values]

    def test_centered_ice_anchors_at_minimum(self, runner, workdir):
        result = runner.invoke(
            main,
            ["explain", str(workdir / "model_rf.json"), str(workdir / "dataset.json"),
             "--mode", "ice", "--feature", "Age", "--centered", "--rows", "10",
             "--out", str(workdir)],
        )
        assert result.exit_code == 0, result.output
        lines = (workdir / "ice_rf.csv").read_text().strip().splitlines()[2:]
        centered = [line.split(",") for line in lines if line.split(",")[1] == "centered"]
        assert centered
        grid_min = min(float(c[3]) for c in centered)
        for cells in centered:
            if float(cells[3]) == grid_min:
                assert float(cells[4]) == 0.0

    def test_derivative_ice_all_features(self, runner, workdir, tmp_path):
        # the binary flags have 2-point grids: one forward difference per curve
        result = runner.invoke(
            main,
            ["explain", str(workdir / "model_gbm.json"), str(workdir / "dataset.json"),
             "--mode", "ice", "--derivative", "--out", str(tmp_path)],
        )
        assert result.exit_code == 0, result.output
        lines = (tmp_path / "ice_gbm.csv").read_text().strip().splitlines()[2:]
        slopes = [line.split(",") for line in lines if line.split(",")[1] == "derivative"]
        assert {cells[0] for cells in slopes} == set(data_mod.MODEL_FEATURES)
        assert sum(cells[0] == "Diabetes" for cells in slopes) == 300 * 2

    def test_derivative_ice_skips_one_point_grid(self, runner, workdir, tmp_path):
        # KnownAllergies is 0 in all 5 explained rows, so its grid has one point
        args = ["explain", str(workdir / "model_gbm.json"), str(workdir / "dataset.json"),
                "--mode", "ice", "--derivative", "--rows", "5"]
        result = runner.invoke(main, [*args, "--out", str(tmp_path / "all")])
        assert result.exit_code == 0, result.output
        assert "skipping KnownAllergies" in result.stderr
        lines = (tmp_path / "all" / "ice_gbm.csv").read_text().strip().splitlines()[2:]
        slopes = {line.split(",")[0] for line in lines if line.split(",")[1] == "derivative"}
        assert slopes == set(data_mod.MODEL_FEATURES) - {"KnownAllergies"}
        # named on its own, the feature still has no derivative
        result = runner.invoke(main, [*args, "--feature", "KnownAllergies",
                                      "--out", str(tmp_path / "one")])
        assert result.exit_code == 5, result.output
        assert "at least 2 points" in result.stderr

    @pytest.mark.parametrize("args", [
        ["--mode", "shap", "--rows", "-3"],
        ["--mode", "shap", "--rows", "0"],
        ["--mode", "shap", "--background-size", "-2"],
        ["--mode", "ice", "--feature", "BMI", "--grid-points", "-1"],
        ["--mode", "ice", "--feature", "BMI", "--grid-points", "0"],
        ["--mode", "ice", "--centered", "--derivative"],
    ])
    def test_usage_errors_exit_2(self, runner, workdir, tmp_path, args):
        out = tmp_path / "o"
        result = runner.invoke(
            main,
            ["explain", str(workdir / "model_gbm.json"), str(workdir / "dataset.json"),
             "--split", str(workdir / "split.json"), "--out", str(out), *args],
        )
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit) and not out.exists()

    def test_constant_model_zero_shap(self, runner, workdir):
        out = workdir
        assert runner.invoke(main, [
            "train", str(out / "dataset.json"), "--model", "gbm", "--out", str(out),
            "--n-estimators", "0", "--seed", "1",
        ]).exit_code == 0
        result = runner.invoke(
            main,
            ["explain", str(out / "model_gbm.json"), str(out / "dataset.json"),
             "--mode", "shap", "--rows", "3", "--background-size", "10",
             "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        lines = (out / "shap_values_gbm.csv").read_text().strip().splitlines()[2:]
        for line in lines:
            phi = [float(v) for v in line.split(",")[1:-1]]
            assert all(v == 0.0 for v in phi)


class TestAxisOverflow:
    def test_ice_span_past_float64_exits_5(self, runner, workdir, tmp_path):
        # BMI alternates -1e308 and 1e308, so the ICE grid's span is inf
        doc = json.loads((workdir / "dataset.json").read_text())
        bmi = doc["feature_names"].index("BMI")
        for i, row in enumerate(doc["X"]):
            row[bmi] = 1e308 if i % 2 else -1e308
        dataset = tmp_path / "dataset.json"
        dataset.write_text(json.dumps(doc))
        out = tmp_path / "o"
        result = runner.invoke(main, ["train", str(dataset), "--model", "rf",
                                      "--n-estimators", "5", "--out", str(out)])
        assert result.exit_code == 0, result.output
        result = runner.invoke(main, ["explain", str(out / "model_rf.json"), str(dataset),
                                      "--split", str(out / "split.json"), "--mode", "ice",
                                      "--rows", "3", "--out", str(out)])
        assert result.exit_code == 5, result.output
        assert "error: figure 'RandomForest raw ICE curves': an axis from" in result.output
        assert isinstance(result.exception, SystemExit)
        assert not (out / "ice_panel_rf.svg").exists()
        assert not (out / "ice_rf.csv").exists()

    @pytest.mark.parametrize("figure, command, stage_files", [
        ("beeswarm_svg", ["explain", "--mode", "shap", "--rows", "4"],
         ["shap_values_rf.csv", "shap_importance_rf.csv", "beeswarm_rf.svg",
          "importance_rf.svg"]),
        ("prediction_error_svg", ["evaluate"],
         ["metrics_rf.json", "metrics_rf.csv", "residual_scatter_rf.svg", "qq_rf.svg",
          "prediction_error_rf.svg"]),
    ])
    def test_failed_figure_leaves_no_file_of_its_stage(self, runner, workdir, tmp_path,
                                                       monkeypatch, figure, command,
                                                       stage_files):
        def fail(*args, **kwargs):
            raise NumericError("figure failed")

        monkeypatch.setattr(report_mod, figure, fail)
        out = tmp_path / "o"
        result = runner.invoke(main, [command[0], str(workdir / "model_rf.json"),
                                      str(workdir / "dataset.json"),
                                      "--split", str(workdir / "split.json"), *command[1:],
                                      "--out", str(out)])
        assert result.exit_code == 5, result.output
        assert "error: figure failed" in result.output
        for name in stage_files:
            assert not (out / name).exists(), name
        assert not out.exists() or not any(out.iterdir())


class TestConfigFile:
    def test_config_supplies_defaults(self, runner, synth_csv, tmp_path):
        out = tmp_path / "cfg_out"
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"ingest": {"out": str(out), "seed": 9}}))
        result = runner.invoke(main, ["--config", str(config), "ingest", synth_csv])
        assert result.exit_code == 0, result.output
        assert (out / "dataset.json").exists()

    def test_bad_config_rejected(self, runner, synth_csv, tmp_path):
        config = tmp_path / "config.json"
        config.write_text("[1,2,3]")
        result = runner.invoke(main, ["--config", str(config), "ingest", synth_csv])
        assert result.exit_code == 2

    @pytest.mark.parametrize("content", [
        pytest.param(b'\xff{"train": {"n_estimators": 2}}', id="not-utf8"),
        pytest.param(b'{"train": {"n_estimators": 2, "seed": 1e400}}', id="seed-overflows"),
        pytest.param(b'{"train": {"n_estimators": 2, "seed": NaN}}', id="seed-nan"),
        pytest.param(b'{"train": {"learning_rate": -Infinity}}', id="rate-minus-infinity"),
        pytest.param(b"[" * 100_000, id="nested-too-deep"),
    ])
    def test_unreadable_or_non_finite_config_exits_2(self, runner, workdir, tmp_path, content):
        config = tmp_path / "config.json"
        config.write_bytes(content)
        result = runner.invoke(main, ["--config", str(config), "train",
                                      str(workdir / "dataset.json"), "--model", "gbm",
                                      "--out", str(tmp_path / "o")])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert "config file" in result.output


    @pytest.mark.parametrize("key, item", [
        pytest.param("n_estimators", 2.7, id="int-fraction"),
        pytest.param("seed", 2.5, id="seed-fraction"),
        pytest.param("max_depth", True, id="int-bool"),
        pytest.param("learning_rate", True, id="float-bool"),
    ])
    def test_number_click_would_change_exits_2(self, runner, workdir, tmp_path, key, item):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"train": {key: item}}))
        out = tmp_path / "o"
        result = runner.invoke(main, ["--config", str(config), "train",
                                      str(workdir / "dataset.json"), "--model", "gbm",
                                      "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert f"train.{key}" in result.output and not out.exists()

    @pytest.mark.parametrize("command, key, item", [
        pytest.param("train", "split_fraction", [1], id="list"),
        pytest.param("train", "seed", {"a": 1}, id="object"),
        pytest.param("train", "learning_rate", 10**310, id="int-past-float"),
        pytest.param("ingest", "out", [], id="path-list"),
        pytest.param("ingest", "out", 5, id="path-number"),
        pytest.param("explain", "centered", {}, id="switch-object"),
    ])
    def test_value_click_cannot_convert_exits_2(self, runner, workdir, synth_csv, tmp_path,
                                                command, key, item):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({command: {key: item}}))
        dataset, out = str(workdir / "dataset.json"), str(tmp_path / "o")
        argv = {
            "train": ["train", dataset, "--model", "gbm", "--out", out],
            "ingest": ["ingest", synth_csv],
            "explain": ["explain", str(workdir / "model_gbm.json"), dataset, "--out", out],
        }[command]
        result = runner.invoke(main, ["--config", str(config), *argv])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert f"config value {command}.{key} must be" in result.output
        assert "Traceback" not in result.output and not os.path.exists(out)

    def test_valid_numbers_apply(self, runner, workdir, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"train": {"n-estimators": 3.0, "learning_rate": 0.25,
                                                "max_depth": 2}}))
        out = tmp_path / "o"
        result = runner.invoke(main, ["--config", str(config), "train",
                                      str(workdir / "dataset.json"), "--model", "gbm",
                                      "--out", str(out)])
        assert result.exit_code == 0, result.output
        model = ensemble_mod.load_model(str(out / "model_gbm.json"))
        assert len(model.trees) == 3 and model.config.learning_rate == 0.25
        assert model.trees.depths().max() <= 2


class TestReproduceSmoke:
    def test_missing_csv_clean_error(self, runner, tmp_path):
        result = runner.invoke(
            main, ["reproduce", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "o")]
        )
        assert result.exit_code == 4
        assert "error" in result.output

    @pytest.mark.parametrize("flag, value", [
        ("--explain-rows", "0"),
        ("--background-size", "-2"),
        ("--ice-rows", "-1"),
        ("--grid-points", "0"),
    ])
    def test_count_below_one_is_a_usage_error(self, runner, synth_csv, tmp_path, flag, value):
        out = tmp_path / "o"
        result = runner.invoke(main, ["reproduce", synth_csv, "--out", str(out), flag, value])
        assert result.exit_code == 2, result.output
        assert flag in result.output and not out.exists()

    def test_one_fold_is_a_usage_error(self, runner, synth_csv, tmp_path):
        out = tmp_path / "o"
        result = runner.invoke(main, ["reproduce", synth_csv, "--out", str(out), "--folds", "1"])
        assert result.exit_code == 2, result.output
        assert "--folds" in result.output and not out.exists()

    def test_manifest_leaves_out_files_of_earlier_commands(self, runner, tmp_path):
        csv_path = tmp_path / "premiums.csv"
        csv_path.write_text(synth.make_csv_text(n=golden.DATA_ROWS, seed=golden.DATA_SEED))
        used, fresh = tmp_path / "used", tmp_path / "fresh"
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"n_estimators": [2], "max_depth": [2]}))
        # ingest writes a dataset.json that reproduce rewrites; tune's files it never writes
        for argv in (["ingest", str(csv_path), "--out", str(used)],
                     ["tune", str(used / "dataset.json"), "--model", "rf", "--grid", str(grid),
                      "--folds", "2", "--out", str(used)]):
            result = runner.invoke(main, argv)
            assert result.exit_code == 0, result.output
        assert (used / "cv_rf.json").is_file() and (used / "cv_rf.csv").is_file()
        manifests = []
        for out in (used, fresh):
            result = runner.invoke(main, ["reproduce", str(csv_path), "--out", str(out),
                                          *golden.GOLDEN_ARGS])
            assert result.exit_code == 0, result.output
            manifests.append(json.loads((out / "manifest.json").read_text()))
        # timings.json is listed unhashed, so the documents are equal as they stand
        assert manifests[0] == manifests[1]
        assert "cv_rf.json" not in {entry["name"] for entry in manifests[0]["files"]}

    def test_full_tune(self, runner, tmp_path, monkeypatch):
        # two cells a variant, with few trees, at the golden run's data and caps
        grids = {
            "rf": {"n_estimators": [3], "max_depth": [2, 3]},
            "gbm": {"n_estimators": [2, 4], "learning_rate": [0.19]},
            "xgb": {"max_depth": [2, 3], "n_estimators": [4]},
        }
        monkeypatch.setattr(tuning_mod, "DEFAULT_GRIDS", grids)
        csv_path = tmp_path / "premiums.csv"
        csv_path.write_text(synth.make_csv_text(n=golden.DATA_ROWS, seed=golden.DATA_SEED))
        out = tmp_path / "o"
        result = runner.invoke(main, ["reproduce", str(csv_path), "--out", str(out), "--full-tune",
                                      *golden.GOLDEN_ARGS])
        assert result.exit_code == 0, result.output
        for variant in grids:
            assert (out / f"cv_{variant}.csv").is_file()
            cv = json.loads((out / f"cv_{variant}.json").read_text())
            assert len(cv["cells"]) == 2 and cv["best_params"] in [c["params"] for c in cv["cells"]]
            report = json.loads((out / f"run_report_{variant}.json").read_text())
            assert report["params"] == cv["best_params"]

    def test_full_tune_writes_an_int_cell_as_its_float(self, runner, tmp_path, monkeypatch):
        # a grid's gamma of 0 writes what 0.0 writes, and what `train --gamma 0` does
        csv_path = tmp_path / "premiums.csv"
        csv_path.write_text(synth.make_csv_text(n=golden.DATA_ROWS, seed=golden.DATA_SEED))
        written = []
        for gamma in (0, 0.0):
            xgb = {key: [value] for key, value in ensemble_mod.PUBLISHED["xgb"].items()}
            monkeypatch.setattr(tuning_mod, "DEFAULT_GRIDS", {
                "rf": {"n_estimators": [3]}, "gbm": {"n_estimators": [2]},
                "xgb": dict(xgb, n_estimators=[4], gamma=[gamma])})
            out = tmp_path / f"gamma_{gamma!r}"
            result = runner.invoke(main, ["reproduce", str(csv_path), "--out", str(out),
                                          "--full-tune", *golden.GOLDEN_ARGS])
            assert result.exit_code == 0, result.output
            written.append([(out / name).read_text()
                            for name in ("cv_xgb.json", "run_report_xgb.json", "cv_overview.csv")])
        assert written[0] == written[1]
        gamma = json.loads(written[0][1])["params"]["gamma"]
        assert gamma == 0.0 and isinstance(gamma, float)
        result = runner.invoke(main, ["train", str(out / "dataset.json"), "--model", "xgb",
                                      "--split", str(out / "split.json"), "--gamma", "0",
                                      "--n-estimators", "4", "--out", str(tmp_path / "flag")])
        assert result.exit_code == 0, result.output
        assert (tmp_path / "flag" / "run_report_xgb.json").read_text() == written[0][1]


class TestGuardedRaises:
    """Every check that no command reaches today still maps to exit 3."""

    @pytest.mark.parametrize("call", [
        pytest.param(lambda data: data_mod.train_test_split(10, 1.5, seed=0),
                     id="split-fraction"),
        pytest.param(lambda data: metrics_mod.mae([1.0], [1.0, 2.0]), id="metric-lengths"),
        pytest.param(lambda data: tuning_mod.learning_curve(data, "gbm", {}, [1.5], 3, 0),
                     id="curve-fraction-range"),
        pytest.param(lambda data: tuning_mod.learning_curve(data, "gbm", {}, [0.5, 0.2], 3, 0),
                     id="curve-fraction-order"),
    ])
    def test_exits_3(self, call, synth_dataset):
        with pytest.raises(SystemExit) as exit_info:
            guarded(call)(synth_dataset)
        assert exit_info.value.code == EXIT_VALIDATION
