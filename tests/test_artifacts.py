"""canonical_json is json.dumps(doc, sort_keys=True, separators=(",", ":")),
and refuses NaN and ±inf.  A JSON artifact is that one line and a newline,
and files in the earlier indented layout load and predict as before."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from premex import data as data_mod
from premex.artifacts import canonical_json, meta_block, read_json, write_json_artifact
from premex.ensemble import load_model, save_model
from premex.errors import NumericError
from premex.tree import COLUMNS
from premex.tuning import fit_variant

EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 1e16, 1e-7, 1e22, 1.7976931348623157e308, 0.1]
EDGE_INTS = [2**63, 2**64 + 1, -(2**63) - 1, 10**30]
EDGE_TEXT = ['"', "\\", "a,b", "[1]", "\x00", "\x1f\n\t", "é", "☃", "\U0001f600", "NaN", ""]


def lists(items):
    return st.lists(items, max_size=5) | st.lists(items, max_size=5).map(tuple)


def documents(floats):
    numbers = st.sampled_from(EDGE_FLOATS) | floats | st.sampled_from(EDGE_INTS) | st.integers(
        -(2**70), 2**70)
    scalars = numbers | st.booleans() | st.none()
    text = st.sampled_from(EDGE_TEXT) | st.text(max_size=6)
    leaves = (scalars | text | lists(numbers) | lists(scalars)
              | lists(lists(numbers)))  # ragged and empty rows included
    keys = st.sampled_from(EDGE_TEXT) | st.text(max_size=4)
    # non-str keys are numbers only, which sort_keys can order together
    other_keys = st.integers(-5, 5) | st.floats(allow_nan=False, allow_infinity=False)
    return st.recursive(leaves, lambda children: (
        lists(children)
        | st.dictionaries(keys, children, max_size=5)
        | st.dictionaries(other_keys, children, max_size=3)
    ), max_leaves=25)


@settings(max_examples=400, deadline=None)
@given(documents(st.floats(allow_nan=False, allow_infinity=False)))
def test_finite_documents_equal_the_stdlib_text(doc):
    assert canonical_json(doc) == json.dumps(doc, sort_keys=True, separators=(",", ":"))


@settings(max_examples=400, deadline=None)
@given(documents(st.sampled_from([math.nan, -math.nan, math.inf, -math.inf]) | st.floats()))
def test_numeric_error_exactly_when_a_number_is_not_finite(doc):  # about half the documents
    try:
        expected = json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=False)
    except ValueError:  # NaN or ±inf somewhere, as a value or a key
        with pytest.raises(NumericError):
            canonical_json(doc)
    else:
        assert canonical_json(doc) == expected


@pytest.mark.parametrize("doc", [
    {"trees": [{"value": [1.0, float("nan")]}]},
    {"X": [[1.0, 2.0], [float("inf"), 4.0]]},
    {"rmse": -float("inf")},
    {"mixed": ["a", float("nan")]},
    {"numpy": np.float64("nan")},
], ids=["column", "rows", "scalar", "mixed-list", "numpy-scalar"])
def test_non_finite_refused(doc):
    with pytest.raises(NumericError):
        canonical_json(doc)


def test_numpy_scalars_and_non_str_keys_match_the_stdlib():
    doc = {"a": np.float64(0.1), "b": {2: [1, 2], 1: "x"}, "c": [np.float64(3.0), 1]}
    assert canonical_json(doc) == json.dumps(doc, sort_keys=True, separators=(",", ":"))


def json_documents():
    """Documents json reads back as they are: str keys, lists, finite numbers."""
    numbers = (st.sampled_from(EDGE_FLOATS + EDGE_INTS) | st.integers(-(2**70), 2**70)
               | st.floats(allow_nan=False, allow_infinity=False))
    text = st.sampled_from(EDGE_TEXT) | st.text(max_size=6)
    return st.recursive(numbers | st.booleans() | st.none() | text, lambda children: (
        st.lists(children, max_size=5) | st.dictionaries(text, children, max_size=5)
    ), max_leaves=25)


@pytest.fixture(scope="module")
def artifact_path(tmp_path_factory):
    return tmp_path_factory.mktemp("artifact") / "artifact.json"


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.sampled_from(EDGE_TEXT) | st.text(max_size=4), json_documents(),
                       max_size=5))
def test_artifact_is_one_canonical_line_that_reads_back(artifact_path, payload):
    write_json_artifact(artifact_path, "test", payload)
    document = {"kind": "test", "meta": meta_block(None, {}), **payload}
    text = artifact_path.read_text(encoding="utf-8")
    assert text == canonical_json(document) + "\n"
    assert text.count("\n") == 1 and text.isascii()
    assert read_json(artifact_path) == document


def indent(path):
    """Rewrite the JSON file at `path` in the earlier layout."""
    document = json.loads(path.read_text(encoding="utf-8"))
    path.write_text(json.dumps(document, sort_keys=True, indent=1) + "\n", encoding="utf-8")
    assert path.read_text(encoding="utf-8").count("\n") > 1


class TestIndentedLayout:
    @pytest.mark.parametrize("variant", ["rf", "gbm", "xgb"])
    def test_model_loads_and_predicts_the_same(self, small_regression, tmp_path, variant):
        model = fit_variant(variant, small_regression, {"n_estimators": 4, "max_depth": 3}, 5)
        compact, indented = tmp_path / "compact.json", tmp_path / "indented.json"
        save_model(model, compact)
        save_model(model, indented)
        indent(indented)
        new, old = load_model(compact), load_model(indented)
        assert (old.config, old.feature_names, getattr(old, "base_score", None)) == (
            new.config, new.feature_names, getattr(new, "base_score", None))
        for name in ("first", *COLUMNS):
            a, b = getattr(old.trees, name), getattr(new.trees, name)
            assert a.dtype == b.dtype and np.array_equal(a, b)
        X = small_regression.X
        assert old.predict(X).tobytes() == new.predict(X).tobytes() == model.predict(X).tobytes()

    def test_dataset_and_split_load_the_same(self, synth_dataset, tmp_path):
        split = data_mod.train_test_split(synth_dataset.n, 0.75, seed=11)
        loaded = []
        for layout in ("compact", "indented"):
            dataset = tmp_path / f"{layout}_dataset.json"
            split_path = tmp_path / f"{layout}_split.json"
            data_mod.dataset_to_json(synth_dataset, dataset, seed=3)
            data_mod.split_to_json(split, split_path)
            if layout == "indented":
                indent(dataset)
                indent(split_path)
            loaded.append((data_mod.dataset_from_json(dataset),
                           data_mod.split_from_json(split_path, synth_dataset.n)))
        (new_data, new_split), (old_data, old_split) = loaded
        assert old_data.feature_names == new_data.feature_names
        for a, b in ((old_data.X, new_data.X), (old_data.y, new_data.y),
                     (old_split.train_rows, new_split.train_rows),
                     (old_split.test_rows, new_split.test_rows)):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        assert old_split.seed == new_split.seed == 11
