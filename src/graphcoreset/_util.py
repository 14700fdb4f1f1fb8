"""Shared helpers: deterministic serialization, atomic writes, type checks."""

import hashlib
import json
import os
import tempfile
import types


def has_type(value, kind) -> bool:
    """isinstance(value, kind) for JSON-like values, except that a bool is no
    int and an int is also a float; a kind list[item] also checks each item."""
    if isinstance(kind, types.GenericAlias):  # list[item]
        return isinstance(value, list) and all(has_type(v, kind.__args__[0]) for v in value)
    if isinstance(value, bool):
        return kind is bool
    return isinstance(value, kind) or (isinstance(value, int) and isinstance(0.0, kind))


def fmt_float(x) -> str:
    """Format a real with 17 significant digits, '.' decimal separator."""
    return "%.17g" % float(x)


def atomic_write_text(path: str, text: str) -> None:
    """Write text to path via a temp file and rename, never a partial file."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def dump_json(obj, path: str) -> None:
    """Serialize to JSON with stable layout and write atomically."""
    atomic_write_text(path, json.dumps(obj, indent=2) + "\n")


def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()
