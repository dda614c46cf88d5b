"""canonical_json is json.dumps(doc, sort_keys=True, indent=1), and refuses NaN and ±inf."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from premex.artifacts import canonical_json
from premex.errors import NumericError

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
    assert canonical_json(doc) == json.dumps(doc, sort_keys=True, indent=1)


@settings(max_examples=400, deadline=None)
@given(documents(st.sampled_from([math.nan, -math.nan, math.inf, -math.inf]) | st.floats()))
def test_numeric_error_exactly_when_a_number_is_not_finite(doc):  # about half the documents
    try:
        expected = json.dumps(doc, sort_keys=True, indent=1, allow_nan=False)
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
    assert canonical_json(doc) == json.dumps(doc, sort_keys=True, indent=1)
