"""Parameter checkpoints as JSON containers.

Layout:

    {
      "format_version": 1,
      "kind": "<tagger|parser|...>",
      "params": {"<name>": {"shape": [r, c], "values": [flat row-major floats]}},
      "meta": {...}          # vocabularies, config echoes, anything JSON
    }

JSON floats are written with Python's shortest-repr, which round-trips
float64 exactly, so identical parameters produce byte-identical files.
Keys are sorted for the same reason.
"""

from __future__ import annotations

import json
from typing import Dict, Sequence, Tuple

import numpy as np

from .autodiff import Tensor

__all__ = ["FORMAT_VERSION", "CheckpointError", "save_checkpoint", "load_checkpoint",
           "config_from_fields", "config_from_meta", "restore_parameters"]

FORMAT_VERSION = 1


class CheckpointError(ValueError):
    """Raised for unsupported format versions, malformed containers, or
    parameters that do not match the model being restored."""


def save_checkpoint(path, params: Sequence[Tensor], kind: str,
                    meta: dict | None = None) -> None:
    """Write named parameters plus metadata to `path`."""
    named = {}
    for p in params:
        if not p.name:
            raise CheckpointError("cannot checkpoint an unnamed parameter")
        if p.name in named:
            raise CheckpointError(f"duplicate parameter name '{p.name}'")
        named[p.name] = p.data
    doc = {
        "format_version": FORMAT_VERSION,
        "kind": kind,
        "params": {
            name: {"shape": list(arr.shape), "values": np.asarray(arr, dtype=np.float64).ravel().tolist()}
            for name, arr in named.items()
        },
        "meta": meta or {},
    }
    with open(path, "w") as f:
        json.dump(doc, f, sort_keys=True, separators=(",", ":"))


def load_checkpoint(path, expect_kind: str | None = None,
                    meta_keys: Sequence[str] = ()) -> Tuple[Dict[str, np.ndarray], dict]:
    """Read a checkpoint; returns ({name: float64 array}, meta).

    A malformed container, or a `meta` that lacks one of `meta_keys`,
    raises CheckpointError naming the fault.
    """
    with open(path) as f:
        doc = json.load(f)
    if not isinstance(doc, dict):
        raise CheckpointError(f"checkpoint is a JSON {type(doc).__name__}, not an object")
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint format_version {version!r} (expected {FORMAT_VERSION})")
    if expect_kind is not None and doc.get("kind") != expect_kind:
        raise CheckpointError(f"checkpoint kind {doc.get('kind')!r}, expected {expect_kind!r}")
    entries, meta = doc.get("params"), doc.get("meta", {})
    if not isinstance(entries, dict):
        raise CheckpointError("checkpoint has no 'params' object")
    if not isinstance(meta, dict):
        raise CheckpointError("checkpoint 'meta' is not an object")
    for key in meta_keys:
        if key not in meta:
            raise CheckpointError(f"checkpoint meta lacks '{key}'")
    params = {}
    for name, entry in entries.items():
        if not isinstance(entry, dict) or "shape" not in entry or "values" not in entry:
            raise CheckpointError(f"parameter '{name}' lacks 'shape' or 'values'")
        try:
            shape = tuple(int(d) for d in entry["shape"])
            values = np.asarray(entry["values"], dtype=np.float64)
        except (TypeError, ValueError):
            raise CheckpointError(f"parameter '{name}': malformed 'shape' or 'values'")
        expected = int(np.prod(shape)) if shape else 1
        if values.size != expected:
            raise CheckpointError(f"parameter '{name}': {values.size} values for shape {shape}")
        params[name] = values.reshape(shape)
    return params, meta


# each annotation's JSON values as exact Python types (true is a bool, not an int)
_JSON_KINDS = {"int": ((int,), "integer"), "float": ((int, float), "number"),
               "bool": ((bool,), "boolean"), "str": ((str,), "string"),
               "list": ((list, tuple), "list"), "dict": ((dict,), "object")}


def config_from_fields(cls, fields, source: str, error=ValueError):
    """The dataclass `cls` from a decoded JSON object; a non-object, an unknown key, a
    value whose JSON type does not fit its field's annotation (see `_JSON_KINDS`) or
    a value `cls` rejects raises `error`, its message starting with `source`."""
    if not isinstance(fields, dict):
        raise error(f"{source} is a JSON {type(fields).__name__}, not an object")
    for key, value in fields.items():
        if key not in cls.__dataclass_fields__:
            raise error(f"{source} has unknown field '{key}'")
        kinds, name = _JSON_KINDS.get(cls.__dataclass_fields__[key].type, ((), None))
        if name and type(value) not in kinds:
            raise error(f"{source} field '{key}' must be a JSON {name}, "
                        f"not {type(value).__name__}")
    try:
        return cls(**fields)
    except (TypeError, ValueError) as e:
        raise error(f"{source}: {e}") from e


def config_from_meta(cls, fields):
    """Rebuild the config dataclass `cls` from a checkpoint's meta echo."""
    return config_from_fields(cls, fields, "checkpoint config", CheckpointError)


def restore_parameters(params: Sequence[Tensor], values: Dict[str, np.ndarray]) -> None:
    """Load checkpoint arrays into a freshly built model's parameters.

    The checkpoint must hold exactly the model's parameter names, each at
    the shape the model gives it; the first difference raises
    CheckpointError naming the parameter.
    """
    expected = {p.name: p for p in params}
    for name in expected:
        if name not in values:
            raise CheckpointError(f"checkpoint lacks parameter '{name}'")
    for name in sorted(values):
        if name not in expected:
            raise CheckpointError(f"checkpoint has unexpected parameter '{name}'")
    for p in params:
        if values[p.name].shape != p.data.shape:
            raise CheckpointError(
                f"parameter '{p.name}': checkpoint shape {values[p.name].shape}, "
                f"model expects {p.data.shape}")
        p.data = values[p.name]
