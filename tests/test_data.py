import json
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from premex import data as data_mod
from premex.data import (
    RAW_COLUMNS,
    Dataset,
    derive_features,
    detect_duplicates,
    group_summary,
    load_csv,
    pearson_correlation,
    round_half_up,
    summary_statistics,
    train_test_split,
)
from premex.errors import DataValidationError, FormatVersionError, NumericError

from conftest import FIXTURE20

# Hand-typed copy of tests/data/fixture20.csv, checked against the file by eye.
FIXTURE20_EXPECTED = [
    (18, 0, 0, 0, 0, 155, 57, 0, 0, 0, 16000),
    (23, 1, 0, 0, 0, 160, 61, 0, 0, 0, 17000),
    (25, 0, 1, 0, 0, 162, 64, 1, 0, 0, 18000),
    (28, 0, 0, 0, 0, 158, 70, 0, 0, 1, 17000),
    (31, 1, 1, 0, 0, 170, 72, 0, 0, 0, 21000),
    (34, 0, 0, 1, 0, 165, 68, 0, 0, 0, 27000),
    (36, 0, 1, 0, 1, 172, 80, 0, 0, 1, 24000),
    (39, 1, 0, 0, 0, 168, 75, 1, 0, 0, 23000),
    (41, 0, 0, 0, 0, 175, 82, 0, 1, 0, 25000),
    (44, 1, 1, 0, 0, 180, 95, 0, 0, 1, 26000),
    (46, 0, 0, 0, 1, 166, 74, 0, 0, 2, 27000),
    (49, 0, 1, 0, 0, 171, 88, 1, 0, 1, 28000),
    (51, 1, 0, 0, 0, 159, 63, 0, 0, 0, 27000),
    (53, 0, 0, 1, 1, 174, 91, 0, 1, 1, 35000),
    (56, 0, 1, 0, 0, 169, 77, 0, 0, 2, 30000),
    (58, 1, 1, 0, 0, 163, 69, 1, 0, 1, 31000),
    (60, 0, 0, 0, 0, 177, 85, 0, 0, 0, 32000),
    (62, 1, 0, 0, 1, 181, 102, 0, 1, 2, 38000),
    (64, 0, 1, 0, 0, 167, 73, 0, 0, 3, 33000),
    (66, 1, 1, 1, 1, 170, 90, 1, 1, 2, 40000),
]


def write_csv(tmp_path, body, header=None):
    if header is None:
        header = (
            "Age,Diabetes,BloodPressureProblems,AnyTransplants,AnyChronicDiseases,"
            "Height,Weight,KnownAllergies,HistoryOfCancerInFamily,"
            "NumberOfMajorSurgeries,PremiumPrice"
        )
    path = tmp_path / "input.csv"
    path.write_text(header + "\n" + body, encoding="utf-8")
    return str(path)


def raw_row(height, weight):
    """A one-row raw table: age 40, no flags, premium 20000."""
    return Dataset(RAW_COLUMNS[:-1], [[40, 0, 0, 0, 0, height, weight, 0, 0, 0]], [20000])


class TestLoadCsv:
    def test_fixture_is_field_exact(self):
        raw = load_csv(FIXTURE20)
        assert raw.n == 20
        assert raw.feature_names == RAW_COLUMNS[:-1]
        expected = np.array(FIXTURE20_EXPECTED, dtype=np.float64)
        assert np.array_equal(raw.X, expected[:, :-1])
        assert np.array_equal(raw.y, expected[:, -1])

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_csv(str(tmp_path / "nope.csv"))

    def test_header_mismatch_names_columns(self, tmp_path):
        path = write_csv(tmp_path, "", header="Age,Weight,Bogus")
        with pytest.raises(DataValidationError) as exc:
            load_csv(path)
        assert "Bogus" in str(exc.value)
        assert "PremiumPrice" in str(exc.value)

    def test_header_only_is_no_rows(self, tmp_path):
        path = write_csv(tmp_path, "")
        with pytest.raises(DataValidationError, match="no rows"):
            load_csv(path)

    def test_non_numeric_cell_reports_row_and_column(self, tmp_path):
        path = write_csv(tmp_path, "18,0,0,0,0,abc,57,0,0,0,16000\n")
        with pytest.raises(DataValidationError, match="row 1.*Height"):
            load_csv(path)

    @pytest.mark.parametrize("row, column", [
        ("inf,0,0,0,0,155,57,0,0,0,16000", "Age"),
        ("18,0,0,0,0,155,57,0,0,nan,16000", "NumberOfMajorSurgeries"),
        ("18,0,0,0,0,155,-inf,0,0,0,16000", "Weight"),
    ])
    def test_non_finite_cell_rejected(self, tmp_path, row, column):
        path = write_csv(tmp_path, row + "\n")
        with pytest.raises(DataValidationError, match=f"row 1.*{column}.*non-finite"):
            load_csv(path)

    def test_out_of_domain_binary(self, tmp_path):
        path = write_csv(tmp_path, "18,2,0,0,0,155,57,0,0,0,16000\n")
        with pytest.raises(DataValidationError, match="Diabetes"):
            load_csv(path)

    def test_nonpositive_premium(self, tmp_path):
        path = write_csv(tmp_path, "18,0,0,0,0,155,57,0,0,0,0\n")
        with pytest.raises(DataValidationError, match="PremiumPrice"):
            load_csv(path)

    def test_short_row(self, tmp_path):
        path = write_csv(tmp_path, "18,0,0\n")
        with pytest.raises(DataValidationError, match="row 1"):
            load_csv(path)


class TestDuplicates:
    def test_fixture_has_none(self):
        assert detect_duplicates(load_csv(FIXTURE20)) == []

    def test_constructed_duplicate_group(self):
        raw = load_csv(FIXTURE20)
        X, y = raw.X.copy(), raw.y.copy()
        X[7], y[7] = X[3], y[3]
        assert detect_duplicates(Dataset(raw.feature_names, X, y)) == [[3, 7]]
        y[7] += 1000.0  # same inputs, another premium: not a duplicate
        assert detect_duplicates(Dataset(raw.feature_names, X, y)) == []

    def test_single_row(self):
        raw = load_csv(FIXTURE20).subset([0])
        assert detect_duplicates(raw) == []


class TestDeriveFeatures:
    def test_bmi_from_typical_means(self):
        dataset = derive_features(raw_row(168.18, 76.95))
        bmi = dataset.X[0, dataset.feature_index("BMI")]
        assert bmi == pytest.approx(27.21, abs=0.005)  # 76.95 / 1.6818^2

    def test_bmi_round_numbers(self):
        dataset = derive_features(raw_row(200.0, 100.0))
        assert dataset.X[0, dataset.feature_index("BMI")] == 25.0

    def test_bmi_is_python_float_pow(self):
        # numpy's x * x square gives 25.408938350525194 here
        dataset = derive_features(raw_row(165.98, 70.0))
        assert dataset.X[0, dataset.feature_index("BMI")] == 25.40893835052519

    def test_feature_order_and_shape(self, synth_raw):
        dataset = derive_features(synth_raw)
        assert dataset.feature_names == [
            "Age", "Diabetes", "BloodPressureProblems", "AnyTransplants",
            "AnyChronicDiseases", "BMI", "KnownAllergies",
            "HistoryOfCancerInFamily", "NumberOfMajorSurgeries",
        ]
        assert dataset.m == 9
        assert dataset.n == synth_raw.n
        assert np.all(dataset.X[:, dataset.feature_index("BMI")] > 0)

    def test_nonpositive_height_rejected(self):
        with pytest.raises(DataValidationError):
            derive_features(raw_row(0.0, 70.0))


class TestSplit:
    def test_986_rows_give_740_train(self):
        split = train_test_split(986, 0.75, seed=1)
        assert split.train_rows.size == 740  # round(739.5) rounds half up
        assert split.test_rows.size == 246

    def test_four_rows(self):
        split = train_test_split(4, 0.75, seed=1)
        assert split.train_rows.size == 3
        assert split.test_rows.size == 1

    def test_same_seed_identical(self):
        first = train_test_split(100, 0.75, seed=7)
        second = train_test_split(100, 0.75, seed=7)
        assert np.array_equal(first.train_rows, second.train_rows)
        assert np.array_equal(first.test_rows, second.test_rows)

    def test_different_seed_differs(self):
        first = train_test_split(100, 0.75, seed=7)
        second = train_test_split(100, 0.75, seed=8)
        assert not np.array_equal(first.train_rows, second.train_rows)

    @given(
        n=st.integers(min_value=2, max_value=500),
        fraction=st.floats(min_value=0.05, max_value=0.95),
        seed=st.integers(min_value=0, max_value=2**63 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_partition_property(self, n, fraction, seed):
        split = train_test_split(n, fraction, seed)
        merged = np.concatenate([split.train_rows, split.test_rows])
        assert np.array_equal(np.sort(merged), np.arange(n))
        assert split.train_rows.size == min(max(round_half_up(fraction * n), 1), n - 1)

    def test_fraction_out_of_range(self):
        with pytest.raises(DataValidationError):
            train_test_split(10, 1.5, seed=0)

    def test_one_row_cannot_split(self):
        with pytest.raises(DataValidationError):
            train_test_split(1, 0.75, seed=0)


class TestSummaryStatistics:
    def test_constant_column(self):
        dataset = Dataset(["a"], np.full((3, 1), 5.0), np.full(3, 5.0))
        _, table = summary_statistics(dataset)
        for mean, std, minimum, q1, median, q3, maximum in table:
            assert (mean, minimum, q1, median, q3, maximum) == (5.0,) * 6
            assert std == 0.0

    def test_quartile_ordering(self, synth_dataset):
        _, table = summary_statistics(synth_dataset)
        minimum, q1, median, q3, maximum = table[:, 2:].T
        assert np.all(minimum <= q1)
        assert np.all(q1 <= median)
        assert np.all(median <= q3)
        assert np.all(q3 <= maximum)

    def test_includes_target_row(self, synth_dataset):
        names, table = summary_statistics(synth_dataset)
        assert names[-1] == "PremiumPrice"
        assert len(names) == synth_dataset.m + 1
        assert table.shape == (synth_dataset.m + 1, 7)

    def test_empty_dataset(self):
        dataset = Dataset(["a"], np.empty((0, 1)), np.empty(0))
        with pytest.raises(DataValidationError):
            summary_statistics(dataset)


class TestPearson:
    # the target is always the last column, so it holds each pair's second variable
    def test_self_correlation(self):
        dataset = Dataset(["a"], np.array([[1.0], [2.0], [3.0]]), np.array([1.0, 2.0, 3.0]))
        _, matrix = pearson_correlation(dataset)
        assert matrix[0, 1] == pytest.approx(1.0, abs=1e-12)

    def test_perfect_anticorrelation(self):
        dataset = Dataset(["a"], np.array([[1.0], [2.0], [3.0]]), np.array([3.0, 2.0, 1.0]))
        _, matrix = pearson_correlation(dataset)
        assert matrix[0, 1] == pytest.approx(-1.0, abs=1e-12)

    def test_hand_computed_point_eight(self):
        # x=[1,2,3,4], y=[1,3,2,4]: cov-sum 4, both norms sqrt(5) -> 0.8
        dataset = Dataset(
            ["x"],
            np.array([[1.0], [2.0], [3.0], [4.0]]),
            np.array([1.0, 3.0, 2.0, 4.0]),
        )
        _, matrix = pearson_correlation(dataset)
        assert matrix[0, 1] == pytest.approx(0.8, abs=1e-12)

    def test_matrix_invariants(self, synth_dataset):
        names, matrix = pearson_correlation(synth_dataset)
        assert np.array_equal(matrix, matrix.T)
        assert np.array_equal(np.diag(matrix), np.ones(len(names)))
        assert np.all(np.abs(matrix) <= 1.0 + 1e-12)

    def test_constant_column_rejected(self):
        dataset = Dataset(["a", "b"], np.array([[1.0, 5.0], [2.0, 5.0]]), np.zeros(2))
        with pytest.raises(NumericError):
            pearson_correlation(dataset)


class TestOverflowingColumn:
    """Premiums 1e150 times the synthetic ones are finite, but their squares
    are not: the statistics that square them raise NumericError naming the
    column, with numpy's overflow warnings off, instead of reporting inf
    (the std) or 0.0 (the correlations)."""

    @pytest.mark.parametrize("statistic", [summary_statistics, pearson_correlation])
    def test_names_the_column(self, synth_dataset, statistic):
        huge = Dataset(synth_dataset.feature_names, synth_dataset.X, synth_dataset.y * 1e150)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match="column 'PremiumPrice' are not finite"):
                statistic(huge)


class TestGroupSummary:
    def test_single_group_matches_global(self, synth_dataset):
        flat = Dataset(
            ["flag"], np.zeros((synth_dataset.n, 1)), synth_dataset.y.copy()
        )
        values, table = group_summary(flat, "flag")
        assert values.tolist() == [0.0]
        count, mean, _, median, *_ = table[0]
        assert count == synth_dataset.n
        assert mean == pytest.approx(synth_dataset.y.mean())
        assert median == pytest.approx(np.median(synth_dataset.y))

    def test_group_counts_partition(self, synth_dataset):
        values, table = group_summary(synth_dataset, "Diabetes")
        assert table[:, 0].sum() == synth_dataset.n
        assert len(values) == len(table) == 2

    def test_unknown_feature(self, synth_dataset):
        with pytest.raises(DataValidationError):
            group_summary(synth_dataset, "Nope")


class TestJsonRoundTrips:
    def test_dataset(self, synth_dataset, tmp_path):
        path = str(tmp_path / "d.json")
        data_mod.dataset_to_json(synth_dataset, path, seed=3)
        loaded = data_mod.dataset_from_json(path)
        assert loaded.feature_names == synth_dataset.feature_names
        assert np.array_equal(loaded.X, synth_dataset.X)
        assert np.array_equal(loaded.y, synth_dataset.y)

    def test_split(self, tmp_path):
        split = train_test_split(50, 0.75, seed=11)
        path = str(tmp_path / "split.json")
        data_mod.split_to_json(split, path)
        loaded = data_mod.split_from_json(path, 50)
        assert np.array_equal(loaded.train_rows, split.train_rows)
        assert np.array_equal(loaded.test_rows, split.test_rows)
        assert loaded.seed == 11

    @pytest.mark.parametrize("train, test, message", [
        ([0, 1, 2], [3, 50], "test_rows must be a non-empty list of row ids in 0..49"),
        ([0, 0, 1], [-1], "train_rows repeats a row id"),  # per key: range, then repeats
        ([0, 1, 60, 1], [2], "train_rows must be a non-empty list"),
        ([0, 1, 2], [], "test_rows must be a non-empty list"),
        ([0, 1, 2], [2, 3, 3], "test_rows repeats a row id"),  # before the shared id
        ([0, 1, 2], [3, 2], "train_rows and test_rows share a row id"),
        ([49], [49], "train_rows and test_rows share a row id"),
    ])
    def test_split_rows_checked_in_order(self, tmp_path, train, test, message):
        path = str(tmp_path / "split.json")
        data_mod.split_to_json(train_test_split(50, 0.75, seed=11), path)
        document = json.loads(open(path).read())
        document.update(train_rows=train, test_rows=test)
        with open(path, "w") as handle:
            json.dump(document, handle)
        with pytest.raises(DataValidationError, match=f"^{re.escape(path)}: {message}"):
            data_mod.split_from_json(path, 50)

    def test_split_must_cover_every_row(self, tmp_path):
        path = str(tmp_path / "split.json")
        data_mod.split_to_json(train_test_split(50, 0.75, seed=11), path)
        document = json.loads(open(path).read())
        document.update(train_rows=[0, 1, 2], test_rows=[5, 6])
        with open(path, "w") as handle:
            json.dump(document, handle)
        with pytest.raises(DataValidationError,
                           match="cover 5 of the dataset's 50 rows, not every row"):
            data_mod.split_from_json(path, 50)
        # the same file is whole for a dataset of its own rows only
        with pytest.raises(DataValidationError, match="cover 5 of the dataset's 7 rows"):
            data_mod.split_from_json(path, 7)

    @pytest.mark.parametrize("names", ["abc", [], ["Age", 3], None])
    def test_dataset_feature_names_must_be_names(self, synth_dataset, tmp_path, names):
        path = str(tmp_path / "d.json")
        data_mod.dataset_to_json(synth_dataset, path, seed=3)
        document = json.loads(open(path).read())
        document["feature_names"] = names
        with open(path, "w") as handle:
            json.dump(document, handle)
        with pytest.raises(DataValidationError,
                           match="feature_names must be a non-empty list of strings"):
            data_mod.dataset_from_json(path)

    def test_wrong_version_tag(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"kind": "dataset", "meta": {"format_version": 99}}')
        with pytest.raises(FormatVersionError):
            data_mod.dataset_from_json(str(path))

    def test_corrupt_document(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"kind": "dataset"')
        with pytest.raises(DataValidationError):
            data_mod.dataset_from_json(str(path))
