"""Ingest, validate, transform, and summarize the insurance premium CSV.

The raw file has 11 columns (10 inputs + PremiumPrice).  `load_csv` returns
it as the raw table: a Dataset of the 10 input columns with PremiumPrice as
the target.  `derive_features` folds Height and Weight into BMI, giving the
9-feature model matrix.  `summary_statistics` and `pearson_correlation`
return (column names, array) pairs, the target last; `group_summary`
returns (feature values, array).  All operations here are pure functions;
nothing mutates its inputs.
"""

import csv
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .artifacts import json_array, json_names, read_json_artifact, write_json_artifact
from .errors import DataValidationError, NumericError
from .rng import stream

RAW_COLUMNS = [
    "Age",
    "Diabetes",
    "BloodPressureProblems",
    "AnyTransplants",
    "AnyChronicDiseases",
    "Height",
    "Weight",
    "KnownAllergies",
    "HistoryOfCancerInFamily",
    "NumberOfMajorSurgeries",
    "PremiumPrice",
]

BINARY_COLUMNS = {
    "Diabetes",
    "BloodPressureProblems",
    "AnyTransplants",
    "AnyChronicDiseases",
    "KnownAllergies",
    "HistoryOfCancerInFamily",
}

# Model feature order is fixed; Height and Weight are replaced by BMI.
MODEL_FEATURES = [
    "Age",
    "Diabetes",
    "BloodPressureProblems",
    "AnyTransplants",
    "AnyChronicDiseases",
    "BMI",
    "KnownAllergies",
    "HistoryOfCancerInFamily",
    "NumberOfMajorSurgeries",
]

TARGET_NAME = "PremiumPrice"


def round_half_up(x: float) -> int:
    """round() uses banker's rounding; splits need half-up for determinism."""
    return int(math.floor(x + 0.5))


@dataclass
class Dataset:
    """Feature matrix X (n x m), target y (n), and the m feature names."""

    feature_names: list
    X: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=np.float64)
        self.y = np.asarray(self.y, dtype=np.float64)
        if self.X.ndim != 2:
            raise DataValidationError("X must be a 2-d matrix")
        if self.X.shape[0] != self.y.shape[0]:
            raise DataValidationError(
                f"X has {self.X.shape[0]} rows but y has {self.y.shape[0]}"
            )
        if len(self.feature_names) != self.X.shape[1]:
            raise DataValidationError(
                f"{len(self.feature_names)} feature names for {self.X.shape[1]} columns"
            )
        if len(set(self.feature_names)) != len(self.feature_names):
            raise DataValidationError("feature names must be unique")

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def m(self) -> int:
        return self.X.shape[1]

    def feature_index(self, name: str) -> int:
        try:
            return self.feature_names.index(name)
        except ValueError:
            raise DataValidationError(f"unknown feature {name!r}") from None

    def subset(self, rows) -> "Dataset":
        rows = np.asarray(rows, dtype=np.int64)
        return Dataset(list(self.feature_names), self.X[rows], self.y[rows])


@dataclass
class SplitIndices:
    train_rows: np.ndarray
    test_rows: np.ndarray
    seed: int


def load_csv(path) -> Dataset:
    """Parse the premium CSV into the raw table, validating schema and domains.

    The columns are RAW_COLUMNS[:-1] and the target is PremiumPrice.  A
    failed check raises DataValidationError naming the row (and column).
    """
    with open(path, "r", encoding="utf-8-sig", newline="") as handle:
        try:
            reader = csv.reader(handle.readlines())
        except UnicodeDecodeError as exc:
            raise DataValidationError(f"{path}: not UTF-8 text: {exc}") from exc
        try:
            header = next(reader)
        except StopIteration:
            raise DataValidationError(f"{path}: empty file, expected a header row")
        header = [name.strip() for name in header]
        if header != RAW_COLUMNS:
            missing = [c for c in RAW_COLUMNS if c not in header]
            unexpected = [c for c in header if c not in RAW_COLUMNS]
            raise DataValidationError(
                f"{path}: header mismatch; missing columns {missing}, "
                f"unexpected columns {unexpected}"
            )
        rows = []
        for row_number, row in enumerate(reader, start=1):
            if not row or all(cell.strip() == "" for cell in row):
                raise DataValidationError(f"{path}: row {row_number} is blank")
            if len(row) != len(RAW_COLUMNS):
                raise DataValidationError(
                    f"{path}: row {row_number} has {len(row)} cells, expected "
                    f"{len(RAW_COLUMNS)}"
                )
            values = []
            for column, cell in zip(RAW_COLUMNS, row):
                try:
                    value = float(cell)
                except ValueError:
                    raise DataValidationError(
                        f"{path}: row {row_number}, column {column!r}: "
                        f"non-numeric value {cell.strip()!r}"
                    ) from None
                if not math.isfinite(value):
                    raise DataValidationError(
                        f"{path}: row {row_number}, column {column!r}: "
                        f"non-finite value {cell.strip()!r}"
                    )
                if column in BINARY_COLUMNS and value not in (0.0, 1.0):
                    raise DataValidationError(
                        f"{path}: row {row_number}, column {column!r}: "
                        f"binary flag must be 0 or 1, got {cell.strip()}"
                    )
                values.append(value)
            cells = dict(zip(RAW_COLUMNS, values))
            if cells["Age"] < 0:
                raise DataValidationError(f"{path}: row {row_number}: Age must be >= 0")
            for column in ("Height", "Weight", "PremiumPrice"):
                if cells[column] <= 0:
                    raise DataValidationError(f"{path}: row {row_number}: {column} must be > 0")
            rows.append(values)
    if not rows:
        raise DataValidationError(f"{path}: no rows after the header")
    table = np.array(rows, dtype=np.float64)
    return Dataset(RAW_COLUMNS[:-1], table[:, :-1], table[:, -1])


def detect_duplicates(raw: Dataset) -> list:
    """Groups of row indices whose X row and y are identical, in first-seen order."""
    groups = {}
    for index, row in enumerate(np.column_stack([raw.X, raw.y]).tolist()):
        groups.setdefault(tuple(row), []).append(index)
    return [group for group in groups.values() if len(group) > 1]


def derive_features(raw: Dataset) -> Dataset:
    """Build the model matrix from the raw table: BMI replaces Height/Weight, order is fixed."""
    height, weight = (raw.X[:, raw.feature_index(name)] for name in ("Height", "Weight"))
    bad = np.flatnonzero(~(height > 0))
    if bad.size:
        raise DataValidationError(f"row {bad[0] + 1}: non-positive height")
    # Python's float ** 2 calls pow(); numpy's ** 2 squares, which can differ
    # in the last bit, so BMI stays in Python floats
    bmi = []
    for row, (h, w) in enumerate(zip(height.tolist(), weight.tolist()), start=1):
        try:
            bmi.append(w / (h / 100.0) ** 2)
        except (OverflowError, ZeroDivisionError):  # (h / 100) ** 2 overflows or rounds to 0
            bmi.append(math.inf)
        if not math.isfinite(bmi[-1]):
            raise NumericError(f"row {row}: BMI of height {h} and weight {w} is not finite")
    columns = [np.array(bmi) if name == "BMI" else raw.X[:, raw.feature_index(name)]
               for name in MODEL_FEATURES]
    return Dataset(list(MODEL_FEATURES), np.column_stack(columns), raw.y.copy())


def train_test_split(n: int, fraction: float, seed: int) -> SplitIndices:
    """Seeded shuffle; the first round(fraction*n) rows become the train set."""
    if not 0.0 < fraction < 1.0:
        raise DataValidationError(f"fraction must be in (0, 1), got {fraction}")
    if n < 2:
        raise DataValidationError(f"need at least 2 rows to split, got {n}")
    permutation = stream(seed, "train_test_split").permutation(n)
    n_train = round_half_up(fraction * n)
    n_train = min(max(n_train, 1), n - 1)
    train = np.sort(permutation[:n_train])
    test = np.sort(permutation[n_train:])
    return SplitIndices(train_rows=train, test_rows=test, seed=int(seed))


def summary_statistics(data: Dataset):
    """(names, table): one table row per column and the target, holding its
    mean, std, min, Q1, median, Q3 and max; quartiles by linear interpolation.
    NumericError names the first column whose statistics overflow float64."""
    if data.n < 1:
        raise DataValidationError("empty dataset")
    columns = np.column_stack([data.X, data.y])
    with np.errstate(over="ignore", invalid="ignore"):
        q1, median, q3 = np.percentile(columns, [25, 50, 75], axis=0, method="linear")
        std = columns.std(axis=0, ddof=1) if data.n > 1 else np.zeros(columns.shape[1])
        table = np.column_stack([columns.mean(axis=0), std, columns.min(axis=0), q1, median, q3,
                                 columns.max(axis=0)])
    names = [*data.feature_names, TARGET_NAME]
    for name, row in zip(names, table.tolist()):
        if not all(map(math.isfinite, row)):
            raise NumericError(f"the summary statistics of column {name!r} are not finite: "
                               "its values overflow float64 arithmetic")
    return names, table


def pearson_correlation(data: Dataset):
    """(names, matrix): Pearson correlations between every pair of columns, the target last.
    NumericError names the first column that is constant or whose squares overflow float64."""
    if data.n < 2:
        raise DataValidationError("need at least 2 rows for correlations")
    columns = np.column_stack([data.X, data.y])
    names = [*data.feature_names, TARGET_NAME]
    with np.errstate(over="ignore", invalid="ignore"):
        centered = columns - columns.mean(axis=0)
        norms = np.sqrt((centered**2).sum(axis=0))
    for name, norm in zip(names, norms.tolist()):
        if norm == 0.0:
            raise NumericError(f"column {name!r} is constant; correlation undefined")
        if not math.isfinite(norm):
            raise NumericError(f"the correlations of column {name!r} are not finite: "
                               "its values overflow float64 arithmetic")
    matrix = (centered.T @ centered) / np.outer(norms, norms)
    matrix = (matrix + matrix.T) / 2.0
    np.fill_diagonal(matrix, 1.0)
    return names, matrix


def group_summary(data: Dataset, flag_feature: str):
    """(values, table): the distinct values of a binary/small-cardinality
    feature, ascending, and per value a table row of its premiums' count,
    mean, Q1, median, Q3, min and max; quartiles by linear interpolation."""
    column = data.X[:, data.feature_index(flag_feature)]
    values = np.unique(column)
    rows = []
    for value in values:
        premiums = data.y[column == value]
        q1, median, q3 = np.percentile(premiums, [25, 50, 75], method="linear")
        rows.append([premiums.size, premiums.mean(), q1, median, q3, premiums.min(), premiums.max()])
    return values, np.array(rows, dtype=np.float64)


# --- JSON round-trips -------------------------------------------------------

def dataset_to_json(data: Dataset, path, *, seed=None) -> None:
    payload = {
        "feature_names": list(data.feature_names),
        "X": data.X.tolist(),
        "y": data.y.tolist(),
    }
    write_json_artifact(path, "dataset", payload, seed=seed, config={"columns": data.feature_names})


def dataset_from_json(path) -> Dataset:
    """Load dataset.json: m feature names, a rectangular n x m X and n y
    values, every number as `artifacts.json_array` reads it; else
    DataValidationError."""
    document = read_json_artifact(path, "dataset")
    names = json_names(document.get("feature_names"), f"{path}: feature_names")
    X, y = document.get("X"), document.get("y")
    if not isinstance(X, list) or not X or not all(
        isinstance(row, list) and len(row) == len(names) for row in X
    ):
        raise DataValidationError(f"{path}: X must be a non-empty list of rows of {len(names)} numbers")
    if not isinstance(y, list) or len(y) != len(X):
        raise DataValidationError(f"{path}: y must be a list of {len(X)} numbers, one per X row")
    X = json_array(list(itertools.chain.from_iterable(X)), f"{path}: X's cells")
    return Dataset(names, X.reshape(len(y), len(names)), json_array(y, f"{path}: y"))


def split_to_json(split: SplitIndices, path) -> None:
    """Write split.json: train_rows and test_rows, and the seed in meta.seed."""
    payload = {
        "train_rows": split.train_rows.tolist(),
        "test_rows": split.test_rows.tolist(),
    }
    write_json_artifact(path, "split", payload, seed=split.seed, config={"n": len(payload["train_rows"]) + len(payload["test_rows"])})


def split_from_json(path, n: int) -> SplitIndices:
    """Load split.json for a dataset of n rows.

    train_rows and test_rows must be disjoint, non-empty lists of distinct
    row ids in 0..n-1, meta.seed an integer, and the two lists must cover
    every row, as every split this pipeline writes does; else
    DataValidationError.
    """
    document = read_json_artifact(path, "split")
    rows, used = {}, np.zeros(n, dtype=np.int64)  # how many of the lists hold each row
    for key in ("train_rows", "test_rows"):
        ids = json_array(document.get(key), f"{path}: {key}", integers=True)
        if not ids.size or ids.min() < 0 or ids.max() >= n:
            raise DataValidationError(
                f"{path}: {key} must be a non-empty list of row ids in 0..{n - 1}"
            )
        held = np.bincount(ids, minlength=n)
        if held.max() > 1:
            raise DataValidationError(f"{path}: {key} repeats a row id")
        used += held
        rows[key] = ids
    if used.max() > 1:
        raise DataValidationError(f"{path}: train_rows and test_rows share a row id")
    seed = document["meta"].get("seed")
    if type(seed) is not int:
        raise DataValidationError(f"{path}: meta.seed must be an integer")
    if used.sum() != n:
        raise DataValidationError(f"{path}: train_rows and test_rows cover {used.sum()} of "
                                  f"the dataset's {n} rows, not every row")
    return SplitIndices(rows["train_rows"], rows["test_rows"], seed)
