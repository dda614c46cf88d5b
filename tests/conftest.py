import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(__file__))

import synth  # noqa: E402

from premex import data as data_mod  # noqa: E402

FIXTURE20 = os.path.join(os.path.dirname(__file__), "data", "fixture20.csv")

# The real 986-row premium CSV is not redistributable with this repo.
# Tests that assert published values look for it here and skip otherwise.
REAL_CSV_ENV = "MEDICAL_PREMIUM_CSV"
REAL_CSV_DEFAULT = os.path.join(os.path.dirname(__file__), "..", "data", "Medicalpremium.csv")


def real_csv_path():
    path = os.environ.get(REAL_CSV_ENV, REAL_CSV_DEFAULT)
    return path if os.path.exists(path) else None


requires_real_csv = pytest.mark.skipif(
    real_csv_path() is None,
    reason=(
        "real premium CSV not found: place it at data/Medicalpremium.csv "
        f"or set ${REAL_CSV_ENV}"
    ),
)


@pytest.fixture(scope="session")
def kaggle_csv():
    path = real_csv_path()
    if path is None:
        pytest.skip(f"real premium CSV not found (data/Medicalpremium.csv or ${REAL_CSV_ENV})")
    return path


@pytest.fixture(scope="session")
def synth_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("synth") / "premiums.csv"
    path.write_text(synth.make_csv_text(n=300, seed=2024), encoding="utf-8")
    return str(path)


@pytest.fixture(scope="session")
def synth_raw(synth_csv):
    return data_mod.load_csv(synth_csv)


@pytest.fixture(scope="session")
def synth_dataset(synth_raw):
    return data_mod.derive_features(synth_raw)


@pytest.fixture
def small_regression():
    """A 120-row, 4-feature regression task with signal on features 0 and 2."""
    rng = np.random.default_rng(17)
    X = rng.normal(size=(120, 4))
    y = 3.0 * X[:, 0] - 2.0 * X[:, 2] ** 2 + rng.normal(scale=0.2, size=120)
    return data_mod.Dataset(["a", "b", "c", "d"], X, y)
