"""The one home of the versioned text-file idiom used by the motion, music,
latent-code, loss-log and report files: a ``#format <name> v<n>`` line,
further ``#key value`` header lines, then one record per line. Readers
share one header check and one style of line-numbered ``FormatError``.
The JSON documents (config, data manifest) share one reader, and every
JSON object that configures a stage (a pipeline config section, a checkpoint
header's config) one typed reader, ``dataclass_from_json``. Every artifact,
binary checkpoints included, is written through ``atomic_write``.
"""

from __future__ import annotations

import contextlib
import json
import os
import re
from dataclasses import fields

import numpy as np

from .errors import ConfigError, FormatError


@contextlib.contextmanager
def atomic_write(path, mode: str = "w"):
    """A file handle, text or (``mode="wb"``) binary, whose contents replace
    ``path`` (``os.replace``) only when the block ends cleanly; on an
    exception the old ``path`` stays as it was. The temp file sits beside
    ``path`` and is made by a plain ``open``, so the result gets the usual
    mode rather than mkstemp's 0600."""
    path = os.fspath(path)
    tmp = os.path.join(os.path.dirname(path), f".{os.path.basename(path)}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode) as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def write_text_file(path, fmt: str, version: int, header: dict, rows) -> None:
    """The format line, a ``#key value`` line per header entry, then the rows."""
    with atomic_write(path) as fh:
        fh.write(f"#format {fmt} v{version}\n")
        for key, value in header.items():
            fh.write(f"#{key} {value}\n")
        for row in rows:
            fh.write(row + "\n")


def float_row(values) -> str:
    """Floats written by ``repr``, so they read back exactly."""
    return " ".join(map(repr, np.asarray(values, dtype=np.float64).tolist()))


def _read_text(path) -> str:
    """The file's text; bytes that do not decode are a FormatError naming
    ``path``."""
    with open(path) as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as e:
            raise FormatError(f"{path}: not a text file: {e.reason} at byte {e.start}") from None


def read_text_file(path, fmt: str, version: int, ints=(), fixed=None):
    """Check the format line and that each ``fixed`` integer header field
    has its one supported value; return (the ``ints`` header fields as
    integers, the body lines, the index of the first body line). The
    header ends at the first line without '#'."""
    lines = _read_text(path).splitlines()
    header = {}  # key -> (line number, value)
    body_start = len(lines)
    for i, line in enumerate(lines):
        if not line.startswith("#"):
            body_start = i
            break
        parts = line[1:].split(maxsplit=1)
        if len(parts) != 2:
            raise FormatError(f"{path}: line {i + 1}: malformed header entry {line!r}")
        header[parts[0]] = (i + 1, parts[1])
    found = header.get("format", (0, "<missing>"))[1]
    expected = f"{fmt} v{version}"
    if found.split()[0] != fmt:
        raise FormatError(f"{path}: expected a {fmt!r} file, found {found!r}")
    if found != expected:
        raise FormatError(f"{path}: unsupported version {found!r}; this reader handles {expected!r}")
    fixed = fixed or {}
    values = {}
    for key in (*fixed, *ints):
        if key not in header:
            raise FormatError(f"{path}: missing header field {key!r}")
        line_no, text = header[key]
        values[key] = parse_value(path, line_no, int, text)
    for key, supported in fixed.items():
        if values[key] != supported:
            raise FormatError(f"{path}: {key} {values[key]} unsupported, expected {supported}")
    return [values[key] for key in ints], lines[body_start:], body_start


def _loadtxt(rows) -> np.ndarray:
    """The one float converter of the motion and music bodies: numpy's C
    reader, fields split on whitespace, ``#`` an ordinary (bad) character."""
    return np.loadtxt(rows, dtype=np.float64, comments=None, ndmin=2)


def parse_float_rows(path, rows, body_start: int, width: int, count: int) -> np.ndarray:
    """Exactly ``count`` rows of ``width`` floats as a [count, width] array,
    parsed in one ``np.loadtxt`` call. If that fails, or skips a blank line,
    a diagnostic pass converts the rows one at a time the same way and names
    the first bad line. A blank first row goes straight to that pass, so
    ``np.loadtxt``, which warns on an input with no data, never sees one."""
    if len(rows) != count:
        raise FormatError(f"{path}: header promises {count} rows, file has {len(rows)}")
    if count == 0:
        return np.empty((0, width))
    if rows[0].strip():
        with contextlib.suppress(ValueError):
            data = _loadtxt(rows)
            if data.shape == (count, width):
                return data
    for i, row in enumerate(rows):
        where = f"{path}: line {body_start + i + 1}"
        got = len(row.split())
        if got != width:
            raise FormatError(f"{where}: expected {width} fields, got {got}")
        try:
            _loadtxt([row])
        except ValueError as e:
            # numpy counts the row within the one line it was given
            message = re.sub(r" at row 0, column (\d+)\.$", r" (field \1)", str(e))
            raise FormatError(f"{where}: {message}") from None
    raise FormatError(f"{path}: body does not read as {count} rows of {width} floats")


def keyed_rows(path, rows, body_start: int):
    """(line number, first field, rest of the line) per non-blank body line;
    a first field that repeats an earlier line's is a FormatError."""
    seen = set()
    for i, row in enumerate(rows):
        parts = row.split(maxsplit=1)
        if parts:
            if parts[0] in seen:
                raise FormatError(f"{path}: line {body_start + i + 1}: repeated key {parts[0]!r}")
            seen.add(parts[0])
            yield body_start + i + 1, parts[0], parts[1] if len(parts) > 1 else ""


# An integer field: ASCII digits with an optional sign. Python's int() also
# takes underscores ('1_0' is 10) and any Unicode digit (fullwidth '１' is 1).
_INTEGER = re.compile(r"\s*[+-]?[0-9]+\s*", re.ASCII)


def parse_value(path, line_no: int, kind, text: str):
    """``kind(text)``; a ValueError becomes a FormatError naming the line,
    and so does an int that is not ASCII digits with an optional sign."""
    if kind is int and not _INTEGER.fullmatch(text):
        raise FormatError(f"{path}: line {line_no}: invalid integer {text!r}")
    try:
        return kind(text)
    except ValueError as e:
        raise FormatError(f"{path}: line {line_no}: {e}") from None


def read_json_object(path, what: str) -> dict:
    """A JSON document whose root is an object; anything else is a FormatError."""
    try:
        doc = json.loads(_read_text(path))
    except json.JSONDecodeError as e:
        raise FormatError(f"{path}: not valid JSON: {e}") from None
    if not isinstance(doc, dict):
        raise FormatError(f"{path}: {what} root must be a JSON object")
    return doc


# The JSON values each declared field type takes; ``type(v) is int`` refuses booleans.
_VALUE_CHECKS = {
    "int": ("an integer", lambda v: type(v) is int),
    "float": ("a number", lambda v: type(v) in (int, float)),
    "tuple": ("a list of integers", lambda v: type(v) is list and all(type(i) is int for i in v)),
}


def dataclass_from_json(cls, raw, where: str, complete: bool):
    """``cls(**raw)``, lists as tuples, where ``raw`` must be a JSON object
    whose keys are fields of the dataclass ``cls`` (all of them if ``complete``)
    and whose values have their field's declared type. Each fault is a
    ConfigError naming ``where`` and the key."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{where} must be a JSON object, got {type(raw).__name__}")
    types = {f.name: f.type for f in fields(cls)}
    for key in types:
        if complete and key not in raw:
            raise ConfigError(f"{where} has no key {key!r}")
    for key, value in raw.items():
        if key not in types:
            raise ConfigError(f"unknown key {key!r} in {where}")
        expected, ok = _VALUE_CHECKS[types[key]]
        if not ok(value):
            raise ConfigError(f"{where}: {key} must be {expected}, got {value!r}")
    return cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in raw.items()})
