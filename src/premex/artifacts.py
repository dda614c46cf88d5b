"""Serialization helpers shared by every artifact writer.

All JSON artifacts carry a `meta` block with the format version, the
seed, and a hash of the generating configuration.  CSV artifacts carry
the same information in a leading `#` comment line, SVG artifacts in a
`<desc>` element.  Writes are atomic (temp file + rename) so a failed
command never leaves a partial artifact behind.
"""

import hashlib
import json
import os
import tempfile

from .errors import DataValidationError, FormatVersionError

FORMAT_VERSION = 1


def canonical_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=1)


def config_hash(config) -> str:
    """Short stable hash of any JSON-serializable configuration."""
    blob = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:12]


def meta_block(seed, config) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "seed": None if seed is None else int(seed),
        "config_hash": config_hash(config),
    }


def write_text_atomic(path, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json_artifact(path, kind: str, payload: dict, *, seed=None, config=None) -> None:
    document = {"kind": kind, "meta": meta_block(seed, config if config is not None else {})}
    document.update(payload)
    write_text_atomic(path, canonical_json(document) + "\n")


def read_json(path):
    """The JSON document in the UTF-8 file at `path`; DataValidationError
    naming the file if it is not UTF-8 JSON or nests too deeply to parse."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    # JSONDecodeError, UnicodeDecodeError, or an int of too many digits
    except ValueError as exc:
        raise DataValidationError(f"{path}: not valid JSON: {exc}") from exc
    except RecursionError:
        raise DataValidationError(f"{path}: JSON nested too deeply to read") from None


def read_json_artifact(path, kind: str) -> dict:
    document = read_json(path)
    if not isinstance(document, dict) or not isinstance(document.get("meta"), dict):
        raise DataValidationError(f"{path}: missing meta block")
    version = document["meta"].get("format_version")
    if version != FORMAT_VERSION:
        raise FormatVersionError(
            f"{path}: format version {version!r}, expected {FORMAT_VERSION}"
        )
    if document.get("kind") != kind:
        raise DataValidationError(
            f"{path}: kind {document.get('kind')!r}, expected {kind!r}"
        )
    return document


def csv_meta_line(*, seed=None, config=None) -> str:
    meta = meta_block(seed, config if config is not None else {})
    return (
        f"# format_version={meta['format_version']}"
        f" seed={meta['seed']}"
        f" config_hash={meta['config_hash']}"
    )
