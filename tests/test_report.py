import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_report as oracle
from premex import report as report_mod
from premex.data import Dataset, group_summary, pearson_correlation, summary_statistics
from premex.errors import DataValidationError, NumericError
from premex.report import (
    beeswarm_svg,
    correlation_heatmap_svg,
    cv_table_csv,
    group_boxplot_svg,
    group_summary_all_csv,
    ice_panel_svg,
    importance_bar_svg,
    importance_csv,
    improvement_csv,
    learning_curve_csv,
    learning_curve_svg,
    metrics_table_csv,
    prediction_error_svg,
    qq_svg,
    residual_scatter_svg,
    shap_values_csv,
    summary_stats_csv,
)


def sample_reports():
    keys = ("model", "r_squared", "mae", "rmse", "mape", "n")
    return [
        dict(zip(keys, ("XGBoost", 0.8647, 1442.904, 2231.524, 5.906, 246))),
        dict(zip(keys, ("GBM", 0.8472, 1725.859, 2371.412, 7.229, 246))),
        dict(zip(keys, ("RandomForest", 0.84046, 1379.960, 2423.161, 5.831, 246))),
    ]


def scatter_data(n=25, seed=0):
    rng = np.random.default_rng(seed)
    actual = rng.normal(size=n) * 100 + 2000
    return actual, actual + rng.normal(size=n) * 50


def improvement_entry(model, train_r2, cv_r2, test_r2):
    return {"model": model, "train_r2": train_r2, "cv_r2": cv_r2, "test_r2": test_r2}


def improvement_cells(*entry):
    """The body row of improvement.csv for one model's R^2 fractions."""
    return improvement_csv([improvement_entry(*entry)]).strip().splitlines()[2].split(",")


class TestRenderDeterminism:
    def test_identical_inputs_identical_bytes(self):
        actual, predicted = scatter_data()
        assert (prediction_error_svg(actual, predicted, "title", "meta")
                == prediction_error_svg(actual, predicted, "title", "meta"))

    def test_all_kinds_are_wellformed_xml(self, synth_dataset):
        actual, predicted = scatter_data(40)
        residuals = actual - predicted
        column = synth_dataset.X[:, synth_dataset.feature_index("Diabetes")]
        names, matrix = pearson_correlation(synth_dataset)
        rng = np.random.default_rng(3)
        documents = [
            prediction_error_svg(actual, predicted, "pe"),
            residual_scatter_svg(predicted, residuals, "rs"),
            qq_svg(np.sort(residuals), np.sort(residuals), "qq"),
            correlation_heatmap_svg(names, matrix, "corr"),
            group_boxplot_svg(
                "Diabetes",
                [(0.0, synth_dataset.y[column == 0.0]), (1.0, synth_dataset.y[column == 1.0])],
                "groups",
            ),
            learning_curve_svg([10, 20, 40], [0.9, 0.85, 0.8], [0.3, 0.5, 0.6], "lc"),
            beeswarm_svg(
                ["Age", "BMI"],
                np.column_stack([rng.normal(size=30) * 100, rng.normal(size=30) * 50]),
                rng.random((30, 2)),
                "bee",
            ),
            importance_bar_svg(["Age", "BMI"], [300.0, 120.0], "imp"),
            ice_panel_svg([("Age", "centered", np.linspace(18, 66, 12), rng.normal(size=(6, 12)))],
                          "ice"),
        ]
        for document in documents:
            root = ET.fromstring(document)
            assert root.tag.endswith("svg")


class TestPredictionErrorFigure:
    def test_perfect_predictions_sit_on_identity_line(self):
        actual = np.array([1.0, 2.0, 3.0, 4.0])
        document = prediction_error_svg(actual, actual.copy(), "pe")
        root = ET.fromstring(document)
        ns = {"svg": "http://www.w3.org/2000/svg"}
        circles = root.findall(".//svg:circle", ns)
        assert len(circles) == 4
        for circle in circles:
            # identical x/y scales map equal values to cx == cy mirrored
            assert circle.get("cx") is not None
        line_found = any(
            element.get("stroke-dasharray") for element in root.findall(".//svg:line", ns)
        )
        assert line_found  # the identity line is always drawn

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DataValidationError):
            prediction_error_svg([1.0, 2.0], [1.0], "pe")


class TestShapeChecks:
    @pytest.mark.parametrize("draw", [
        pytest.param(lambda: learning_curve_svg([1, 2, 3], [0.5, 0.6], [0.4, 0.5, 0.6], "t"),
                     id="learning-curve-lengths"),
        pytest.param(lambda: learning_curve_svg([1], [0.5], [0.4], "t"), id="learning-curve-short"),
        pytest.param(lambda: residual_scatter_svg([1.0, 2.0], [1.0], "t"), id="residual-lengths"),
        pytest.param(lambda: qq_svg([0.0, 1.0], [0.0, 1.0], "t"), id="qq-short"),
        pytest.param(lambda: correlation_heatmap_svg(["a", "b"], np.eye(3), "t"),
                     id="heatmap-shape"),
        pytest.param(lambda: group_boxplot_svg("f", [], "t"), id="boxplot-no-groups"),
        pytest.param(lambda: group_boxplot_svg("f", [(0.0, [])], "t"), id="boxplot-empty-group"),
        pytest.param(lambda: beeswarm_svg(["a", "b"], [[1.0]], [[0.5]], "t"),
                     id="beeswarm-names"),
        pytest.param(lambda: beeswarm_svg(["a"], np.zeros((0, 1)), np.zeros((0, 1)), "t"),
                     id="beeswarm-no-points"),
        pytest.param(lambda: beeswarm_svg(["a"], [[1.0], [2.0]], [[0.5]], "t"),
                     id="beeswarm-colors"),
        pytest.param(lambda: importance_bar_svg(["a"], [1.0, 2.0], "t"), id="importance-names"),
        pytest.param(lambda: ice_panel_svg([], "t"), id="ice-no-panels"),
        pytest.param(lambda: ice_panel_svg([("a", "raw", np.arange(3.0), np.zeros((2, 4)))], "t"),
                     id="ice-grid-lengths"),
    ])
    def test_bad_shape_rejected(self, draw):
        with pytest.raises(DataValidationError):
            draw()


def test_axis_span_past_float64_names_the_figure():
    panel = ("BMI", "raw", np.array([-1e308, 1e308]), np.zeros((3, 2)))
    with pytest.raises(NumericError, match="figure 'ICE': an axis from -1e[+]308 to 1e[+]308 overflows"):
        ice_panel_svg([panel], "ICE")


class TestMetaEmbedding:
    def test_svg_carries_desc(self):
        actual, predicted = scatter_data()
        document = prediction_error_svg(
            actual, predicted, "pe", "seed=42 config_hash=abc format_version=1"
        )
        assert "<desc>seed=42 config_hash=abc format_version=1</desc>" in document

    def test_csv_meta_comment(self):
        text = metrics_table_csv(sample_reports(), seed=42)
        first = text.splitlines()[0]
        assert first.startswith("# format_version=1 seed=42")


class TestTables:
    def test_metrics_table_shape(self):
        lines = metrics_table_csv(sample_reports(), seed=1).strip().splitlines()
        assert lines[1] == "Model,R2_pct,MAE,RMSE,MAPE_pct"
        assert len(lines) == 5  # meta + header + 3 models
        assert lines[2] == "XGBoost,86.470,1442.904,2231.524,5.906"

    def test_metrics_table_empty_rejected(self):
        with pytest.raises(DataValidationError):
            metrics_table_csv([])

    def test_improvement_csv_values(self):
        text = improvement_csv([improvement_entry("XGBoost", 0.88222, 0.74475, 0.86470)])
        assert "XGBoost,88.222,74.475,86.470,11.995" in text

    def test_learning_curve_csv(self):
        text = learning_curve_csv([0.5, 1.0], np.array([50.0, 100.0]), np.array([0.8, 0.9]),
                                  np.array([0.5, 0.6]))
        lines = text.strip().splitlines()
        assert lines[1] == "Fraction,TrainRows,TrainR2,ValR2"
        assert len(lines) == 4
        assert lines[3] == "1.000,100.0,0.900000,0.600000"

    def test_summary_stats_two_decimals(self, synth_dataset):
        body = summary_stats_csv(*summary_statistics(synth_dataset)).strip().splitlines()[2]
        cells = body.split(",")
        assert all("." in cell and len(cell.split(".")[1]) == 2 for cell in cells[1:])

    def test_group_summary_all(self, synth_dataset):
        parts = [
            (feature, *group_summary(synth_dataset, feature))
            for feature in ("Diabetes", "KnownAllergies")
        ]
        lines = group_summary_all_csv(parts).strip().splitlines()
        assert len(lines) == 2 + 4  # meta + header + 2 groups per feature
        # the count is written as an integer
        count = int((synth_dataset.X[:, synth_dataset.feature_index("Diabetes")] == 0).sum())
        assert lines[2].startswith(f"Diabetes,0,{count},")

    def test_shap_and_importance_csv(self, synth_dataset):
        from premex.explain import importance, shap_exact

        f = lambda X: np.atleast_2d(X)[:, 0] * 2.0
        rows = synth_dataset.X[:3]
        names = synth_dataset.feature_names
        base_value, phi = shap_exact(f, rows, synth_dataset.X[:20])
        shap_text = shap_values_csv(names, base_value, phi, [5, 6, 7], seed=0)
        lines = shap_text.strip().splitlines()
        assert lines[1].startswith("RowId,Age,")
        assert len(lines) == 2 + 3
        importance_text = importance_csv(names, *importance(phi), seed=0)
        assert importance_text.strip().splitlines()[2].split(",")[0] == "Age"

    def test_cv_table(self):
        text = cv_table_csv(
            [{"model": "GBM", "train_r2": 0.798, "cv_r2": 0.729,
              "best_params": {"learning_rate": 0.19, "n_estimators": 19}}],
            seed=9,
        )
        assert '"{""learning_rate"": 0.19, ""n_estimators"": 19}"' in text


class TestImprovementCsv:
    def test_published_example_difference(self):
        assert improvement_cells("XGBoost", 0.88222, 0.74475, 0.86470)[4] == "11.995"

    def test_equal_scores_zero(self):
        assert improvement_cells("RF", 0.9, 0.8, 0.8)[4] == "0.000"

    def test_cv_above_test_is_negative(self):
        assert improvement_cells("GBM", 0.9, 0.85, 0.80)[4] == "-5.000"


# --- whole-array writers against the number-at-a-time oracle ---------------

# Finite values, with -0.0 and values on rounding ties of the 2- and 6-digit
# formats (.xx5 and .xxxxxx5 in binary-exact and inexact forms).
NUMBERS = st.one_of(
    st.floats(min_value=-1e9, max_value=1e9, allow_nan=False),
    st.just(-0.0),
    st.integers(-10**6, 10**6).map(lambda k: (2 * k + 1) / 200),
    st.integers(-10**6, 10**6).map(lambda k: (2 * k + 1) / 2_000_000),
    st.integers(-4096, 4096).map(lambda k: k / 8),
)
# Text cells that csv quotes (delimiter, quote, line ends), "%" of the
# templates, and plain names.
TEXT = st.one_of(
    st.sampled_from(["Age", "BMI", "a,b", 'say "hi"', "two\nlines", "cr\r", "50%", "%s",
                     "%.2f", " lead", ""]),
    st.text(alphabet=st.sampled_from('ab ,"%\n\r;é'), max_size=6),
)
WRITERS = settings(max_examples=60, deadline=None)


def number_arrays(shape):
    return st.lists(NUMBERS, min_size=int(np.prod(shape)), max_size=int(np.prod(shape))).map(
        lambda values: np.array(values, dtype=np.float64).reshape(shape))


@st.composite
def curve_sets(draw):
    rows, points = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    grid = draw(number_arrays((points,)))
    curves = draw(number_arrays((rows, points)))
    return draw(TEXT), draw(st.one_of(st.just("centered"), TEXT)), grid, curves


@st.composite
def beeswarm_points(draw):
    n = draw(st.integers(1, 12))
    features = draw(st.integers(1, 4))
    points = []
    for _ in range(features):
        phi = draw(st.one_of(
            number_arrays((n,)),
            NUMBERS.map(lambda value: np.full(n, value)),  # constant attributions
            st.lists(st.sampled_from([-1.0, -0.0, 0.0, 0.5, 1.0]), min_size=n, max_size=n)
            .map(np.array),  # ties, and the two zeros
        ))
        colors = draw(st.one_of(
            st.just(np.full(n, 0.5)),
            st.lists(st.integers(0, max(n - 1, 1)), min_size=n, max_size=n)
            .map(lambda ranks: np.array(ranks) / max(n - 1, 1)),
            st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n).map(np.array),
        ))
        points.append((phi, colors))
    return [f"f{j}" for j in range(features)], points


class TestWholeArrayWriters:
    """Each whole-array writer gives the oracle's text for the same input."""

    @WRITERS
    @given(sets=st.lists(curve_sets(), min_size=1, max_size=3),
           ids=st.lists(st.integers(-10**12, 10**12), min_size=1, max_size=6))
    def test_ice_long_csv(self, sets, ids):
        assert report_mod.ice_long_csv(sets, ids, seed=3) == oracle.ice_long_csv(sets, ids, seed=3)

    @WRITERS
    @given(data=st.data(), rows=st.integers(0, 5), features=st.integers(1, 4))
    def test_shap_values_and_importance_csv(self, data, rows, features):
        names = data.draw(st.lists(TEXT, min_size=features, max_size=features))
        phi = data.draw(number_arrays((rows, features)))
        base = data.draw(NUMBERS)
        ids = data.draw(st.lists(st.integers(0, 10**6), min_size=rows, max_size=rows + 2))
        assert (report_mod.shap_values_csv(names, base, phi, ids, seed=1)
                == oracle.shap_values_csv(names, base, phi, ids, seed=1))
        totals = data.draw(number_arrays((features,)))
        order = data.draw(st.permutations(range(features)))
        assert (report_mod.importance_csv(names, totals, order)
                == oracle.importance_csv(names, totals, order))

    @WRITERS
    @given(case=beeswarm_points())
    def test_beeswarm_svg(self, case):
        names, points = case
        phi, colors = (np.column_stack(part) for part in zip(*points))
        assert (report_mod.beeswarm_svg(names, phi, colors, "t", "m")
                == oracle.beeswarm_svg(names, points, "t", "m"))

    @WRITERS
    @given(panels=st.lists(curve_sets(), min_size=1, max_size=4))
    def test_ice_panel_svg(self, panels):
        assert report_mod.ice_panel_svg(panels, "t", "m") == oracle.ice_panel_svg(panels, "t", "m")

    @WRITERS
    @given(data=st.data(), n=st.integers(3, 12))
    def test_scatter_and_curve_figures(self, data, n):
        xs, ys = data.draw(number_arrays((n,))), data.draw(number_arrays((n,)))
        for name in ("prediction_error_svg", "residual_scatter_svg", "qq_svg"):
            assert getattr(report_mod, name)(xs, ys, "t") == getattr(oracle, name)(xs, ys, "t")
        val = data.draw(number_arrays((n,)))
        assert (report_mod.learning_curve_svg(xs, ys, val, "t")
                == oracle.learning_curve_svg(xs, ys, val, "t"))
        groups = [(0.0, xs), (1.0, np.concatenate([ys, [1e6, -1e6]]))]
        assert (report_mod.group_boxplot_svg("f", groups, "t")
                == oracle.group_boxplot_svg("f", groups, "t"))

    @WRITERS
    @given(t=st.one_of(st.floats(0.0, 1.0), st.integers(0, 1024).map(lambda k: k / 1024)))
    def test_blend(self, t):
        for low, high in ((report_mod.COLOR_LOW, report_mod.COLOR_HIGH),
                          ((255, 255, 255), report_mod.COLOR_LOW)):
            assert report_mod._blend(low, high, t) == oracle._blend(low, high, t)
