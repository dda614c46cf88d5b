"""Every artifact of a capped `reproduce` keeps its bytes (see golden.py)."""

import json

import numpy as np
import pytest

import golden


@pytest.fixture(scope="module")
def golden_run(tmp_path_factory):
    """(work dir, name -> sha256) of the golden runs."""
    work_dir = tmp_path_factory.mktemp("golden")
    return work_dir, golden.run_manifest(str(work_dir))


@pytest.fixture(scope="module")
def manifests(golden_run):
    return golden.load_golden(), golden_run[1]


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


def test_only_timings_unhashed(golden_run):
    work_dir, files = golden_run
    assert [name for name, digest in files.items() if digest is None] == ["timings.json"]
    seconds = json.loads((work_dir / "out" / "timings.json").read_text())["seconds"]
    assert all(seconds[f"fit_{variant}"] > 0.0 for variant in golden.VARIANTS)


def test_json_artifacts_hold_each_fact_once(golden_run):
    # the seed and config hash live in meta alone, a boosted model's
    # learning rate in its config alone
    work_dir, _ = golden_run
    documents = {path: json.loads(path.read_text()) for path in sorted(work_dir.rglob("*.json"))}
    artifacts = {path: document for path, document in documents.items() if "meta" in document}
    assert {path.parent.name for path in artifacts} == {"out", *(
        f"tune_{variant}" for variant in golden.VARIANTS)}
    for path, document in artifacts.items():
        repeated = {"seed", "split_seed", "config_hash", "learning_rate"} & set(document)
        assert not repeated, f"{path.name} repeats {sorted(repeated)} outside meta"


def test_manifest_changes_name_each_entry():
    old = {"a": "1", "b": "2", "c": None}
    assert golden.manifest_changes(old, {"a": "1", "c": "3", "d": "4"}) == [
        "added d", "removed b", "changed c"]
