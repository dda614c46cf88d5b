"""Every artifact of a capped `reproduce` keeps its bytes (see golden.py)."""

import numpy as np
import pytest

import golden


@pytest.fixture(scope="module")
def manifests(tmp_path_factory):
    return golden.load_golden(), golden.run_manifest(str(tmp_path_factory.mktemp("golden")))


def test_artifact_hashes_match_golden(manifests):
    expected, actual = manifests
    differing = sorted(
        name for name, digest in expected["files"].items()
        if name in actual and actual[name] != digest
    )
    assert not differing, (
        f"artifacts whose bytes moved: {differing} (golden made with numpy "
        f"{expected['numpy']}, this run numpy {np.__version__}); if intended, "
        "regenerate with `PYTHONPATH=src python tests/golden.py --write`"
    )


def test_artifact_names_match_golden(manifests):
    expected, actual = manifests
    assert sorted(actual) == sorted(expected["files"]), (
        f"new: {sorted(set(actual) - set(expected['files']))}, "
        f"missing: {sorted(set(expected['files']) - set(actual))}"
    )
