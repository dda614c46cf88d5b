"""The suite's warning filters let hypothesis report a failing example.

When a hypothesis test fails, its pytest plugin imports
`hypothesis.extra._patching`, which imports `libcst`.  If that import
raised under `pyproject.toml`'s `filterwarnings`, a failing property test
would end the run in INTERNALERROR instead of printing its falsifying
example.  The import runs in a child interpreter because this process may
have imported `libcst` already, with other filters.
"""

import importlib.util
import subprocess
import sys

import pytest


@pytest.mark.skipif(importlib.util.find_spec("libcst") is None, reason="libcst is not installed")
def test_hypothesis_patching_imports_under_the_suite_filters(pytestconfig):
    # as with pytest's filterwarnings, the last matching -W option wins
    options = [f"-W{entry}" for entry in pytestconfig.getini("filterwarnings")]
    done = subprocess.run([sys.executable, *options, "-c", "import hypothesis.extra._patching"],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
