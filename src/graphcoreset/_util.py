"""Shared helpers: deterministic serialization, atomic writes, JSON input checks."""

import hashlib
import json
import os
import tempfile
import types


def has_type(value, kind) -> bool:
    """isinstance(value, kind) for JSON-like values, except that a bool is no
    int and an int is also a float when a float can hold it; a kind list[item]
    takes a list or tuple and also checks each item."""
    if isinstance(kind, types.GenericAlias):  # list[item]
        return isinstance(value, (list, tuple)) and all(has_type(v, kind.__args__[0])
                                                        for v in value)
    if isinstance(value, bool):
        return kind is bool
    if isinstance(value, kind):
        return True
    try:
        return isinstance(value, int) and isinstance(float(value), kind)
    except OverflowError:
        return False


def check_fields(data, fields: dict, what: str, optional=()):
    """data when it is a JSON object holding each key of fields with the type
    has_type reads for it; a key in optional may be absent. Otherwise
    ValueError naming what, the key and the type, e.g. "coreset weights must
    be list[float]". Keys that fields does not name are not looked at."""
    if not isinstance(data, dict):
        raise ValueError(f"{what} must be a JSON object")
    missing = [key for key in fields if key not in data and key not in optional]
    if missing:
        raise ValueError(f"{what} has no {', '.join(missing)}")
    for key, kind in fields.items():
        if key in data and not has_type(data[key], kind):
            name = kind.__name__ if isinstance(kind, type) else str(kind)
            shown = repr(data[key])
            if len(shown) > 80:
                shown = shown[:77] + "..."
            raise ValueError(f"{what} {key} must be {name}, got {shown}")
    return data


def read_json(path: str):
    """The JSON value of the file at path; ValueError, naming the path, unless
    the file is UTF-8 JSON."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None


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
