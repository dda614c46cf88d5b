"""Serialization helpers shared by every artifact writer.

All JSON artifacts carry a `meta` block with the format version, the
seed, and a hash of the generating configuration.  CSV artifacts carry
it in a leading `#` comment line, SVG artifacts in a `<desc>` element;
this module renders all three.  Writes are atomic (temp file + rename)
so a failed command never leaves a partial artifact behind.

A JSON artifact's text is the canonical form
`json.dumps(document, sort_keys=True, indent=1)`: keys sorted, one value
per line, each level indented one space, non-ASCII text escaped.  Its
numbers must be finite.  Standard JSON has no NaN or Infinity, so a
document holding NaN or ±inf raises NumericError and no file is written.

Every JSON input is read here, and this module alone decides what a number
read from JSON may be.  `read_json` refuses the NaN and ±Infinity tokens
as it parses.  `json_array` turns each list of numbers into an int64 or
float64 array, refusing a bool, a string, null, a nested list, a number
too large for the dtype, and a non-finite float such as 1e400 (json's inf).
"""

import hashlib
import itertools
import json
import os
import tempfile

import numpy as np

from .errors import DataValidationError, FormatVersionError, NumericError

FORMAT_VERSION = 1


# A scalar of these types, and a list of them or of non-empty lists of
# them, is formatted by one call of the C encoder.  It writes numbers as
# the pure-Python encoder does (the repr of the float or int), and no
# scalar's text holds a comma or a bracket, so str.replace can put in the
# layout afterwards.
_SCALARS = frozenset((int, float, bool, type(None)))
_compact = json.JSONEncoder(separators=(",", ":"), check_circular=False).encode
_string = json.encoder.encode_basestring_ascii


class _Unhandled(Exception):
    """A value the layout writer leaves to json.dumps: a non-str key or another type."""


def canonical_json(payload) -> str:
    """json.dumps(payload, sort_keys=True, indent=1); NumericError if it holds NaN or ±inf.

    CPython formats with its C encoder only when indent is None, so each
    list of numbers (a node-table column, a split's row ids, a dataset's
    rows) is formatted compactly in one C call, and only dicts, strings
    and mixed lists go through the short writer below.  A document holding
    anything else (a numpy scalar, a non-str key, ...) is left whole to
    json.dumps.
    """
    chunks = []
    try:
        _lay_out(payload, "\n", chunks)
    except _Unhandled:
        try:
            return json.dumps(payload, sort_keys=True, indent=1, allow_nan=False)
        except ValueError as exc:  # NaN or ±inf (or a circular reference)
            raise NumericError(f"cannot write JSON: {exc}") from None
    return "".join(chunks)


def _compact_numbers(value) -> str:
    text = _compact(value)
    if "N" in text or "I" in text:  # NaN, Infinity: no other token holds a capital
        raise NumericError("cannot write NaN or infinity to a JSON artifact")
    return text


def _lay_out(value, newline, chunks) -> None:
    """Append the canonical text of `value`, whose lines start with `newline`."""
    kind = type(value)
    inner = newline + " "
    if kind is str:
        chunks.append(_string(value))
    elif kind in _SCALARS:
        chunks.append(_compact_numbers(value))
    elif kind is dict:
        if not value:
            chunks.append("{}")
            return
        opening = "{"
        for key, item in sorted(value.items()):
            if type(key) is not str:
                raise _Unhandled
            chunks.append(f"{opening}{inner}{_string(key)}: ")
            _lay_out(item, inner, chunks)
            opening = ","
        chunks.append(newline + "}")
    elif kind is list or kind is tuple:
        kinds = set(map(type, value))
        if not value:
            chunks.append("[]")
        elif kinds <= _SCALARS:
            text = _compact_numbers(value)[1:-1]  # "1,2"
            chunks.append(f"[{inner}{text.replace(',', ',' + inner)}{newline}]")
        elif kinds <= {list, tuple} and all(value) and set(
                map(type, itertools.chain.from_iterable(value))) <= _SCALARS:
            text = _compact_numbers(value)[2:-2]  # "1,2],[3"
            cells = inner + " "
            text = text.replace(",", "," + cells).replace(f"],{cells}[", f"{inner}],{inner}[{cells}")
            chunks.append(f"[{inner}[{cells}{text}{inner}]{newline}]")
        else:
            opening = "["
            for item in value:
                chunks.append(opening + inner)
                _lay_out(item, inner, chunks)
                opening = ","
            chunks.append(newline + "]")
    else:
        raise _Unhandled


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


def _refuse_constant(token):
    raise ValueError(f"{token} is not a finite number")


def read_json(path):
    """The JSON document in the UTF-8 file at `path`; DataValidationError
    naming the file if it is not UTF-8 JSON, holds NaN or ±Infinity, or
    nests too deeply to parse."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle, parse_constant=_refuse_constant)
    # JSONDecodeError, UnicodeDecodeError, or an int of too many digits
    except ValueError as exc:
        raise DataValidationError(f"{path}: not valid JSON: {exc}") from exc
    except RecursionError:
        raise DataValidationError(f"{path}: JSON nested too deeply to read") from None


def json_array(values, what: str, integers: bool = False) -> np.ndarray:
    """The JSON list `values` as a float64 array, or int64 if `integers`;
    DataValidationError naming `what` unless every item is a finite number
    (an int if `integers`) that fits the dtype."""
    if isinstance(values, list) and set(map(type, values)) <= ({int} if integers else {int, float}):
        try:
            array = np.array(values, dtype=np.int64 if integers else np.float64)
        except OverflowError:  # an int beyond int64, or beyond float64 for a number
            pass
        else:
            if integers or np.isfinite(array).all():
                return array
    raise DataValidationError(
        f"{what} must be a list of {'integers' if integers else 'finite numbers'}")


def json_names(values, what: str) -> list:
    """The JSON list `values`; DataValidationError naming `what` unless it
    is a non-empty list of strings."""
    if isinstance(values, list) and values and all(isinstance(v, str) for v in values):
        return values
    raise DataValidationError(f"{what} must be a non-empty list of strings")


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


def svg_meta_line(*, seed, config) -> str:
    return f"seed={seed} config_hash={config_hash(config)} format_version={FORMAT_VERSION}"
