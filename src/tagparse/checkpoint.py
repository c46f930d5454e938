"""Parameter checkpoints: a JSON header plus a raw float64 payload.

Byte layout (format_version 2):

    b"TAGPARSE"                  8-byte magic
    <header length>              8-byte little-endian unsigned integer
    <header>                     UTF-8 JSON, keys sorted, no spaces:
        {"format_version": 2,
         "kind": "<tagger|parser|...>",
         "meta": {...},          # vocabularies, config echoes, anything JSON
         "params": {"<name>": {"shape": [r, c]}}}
    <payload>                    each parameter's row-major values as
                                 little-endian float64, in sorted-name order

Offsets follow from the sorted names and shapes, so the header stores
none and blocks can neither overlap nor leave gaps; the payload must end
exactly at the end of the file.  Raw bytes round-trip every float64
exactly (NaN payloads, -0.0 and subnormals included), and with sorted
keys equal parameters and meta give byte-identical files.  Only this
format is read: a format_version 1 JSON checkpoint fails on its magic.
"""

from __future__ import annotations

import json
import math
import os
from contextlib import contextmanager
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .autodiff import Tensor, parameter

__all__ = ["CheckpointError", "save_checkpoint", "load_checkpoint", "meta_vocab",
           "config_from_fields", "stored"]

FORMAT_VERSION = 2
_MAGIC = b"TAGPARSE"
_PREAMBLE = len(_MAGIC) + 8      # magic plus the header length
_FLOAT = np.dtype("<f8")


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
    header = json.dumps({
        "format_version": FORMAT_VERSION,
        "kind": kind,
        "meta": meta or {},
        "params": {name: {"shape": list(arr.shape)} for name, arr in named.items()},
    }, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as f:
        f.write(_MAGIC + len(header).to_bytes(8, "little") + header)
        for name in sorted(named):
            f.write(np.ascontiguousarray(named[name], dtype=_FLOAT))


def load_checkpoint(path, expect_kind: str | None = None,
                    meta_keys: Sequence[str] = ()) -> Tuple[Dict[str, np.ndarray], dict]:
    """Read a checkpoint; returns ({name: float64 array}, meta).

    Every array is a fresh, writable, native-order float64 array.  A
    malformed container, or a `meta` that lacks one of `meta_keys`,
    raises CheckpointError naming the fault.
    """
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        if size < _PREAMBLE:
            raise CheckpointError(
                f"checkpoint is {size} bytes, shorter than its {_PREAMBLE}-byte preamble")
        preamble = f.read(_PREAMBLE)
        if preamble[:len(_MAGIC)] != _MAGIC:
            raise CheckpointError(f"checkpoint does not start with {_MAGIC!r}, so it is not "
                                  f"format_version {FORMAT_VERSION}")
        header_size = int.from_bytes(preamble[len(_MAGIC):], "little")
        if header_size > size - _PREAMBLE:
            raise CheckpointError(f"checkpoint header of {header_size} bytes runs past "
                                  f"the end of the {size}-byte file")
        try:
            doc = json.loads(f.read(header_size).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as e:
            raise CheckpointError(f"checkpoint header is not UTF-8 JSON: {e}") from None
        shapes, meta = _check_header(doc, expect_kind, meta_keys)
        end = _PREAMBLE + header_size
        for name, shape in shapes.items():
            end += math.prod(shape) * _FLOAT.itemsize
            if end > size:
                raise CheckpointError(
                    f"parameter '{name}': malformed payload, the file ends inside its values")
        if end < size:
            raise CheckpointError(f"checkpoint has {size - end} bytes after its last parameter")
        params = {}
        for name, shape in shapes.items():
            values = np.empty(shape, dtype=_FLOAT)
            f.readinto(values)
            params[name] = values.astype(np.float64, copy=False)
    return params, meta


def _check_header(doc, expect_kind, meta_keys) -> Tuple[Dict[str, tuple], dict]:
    """The header's {name: shape} in payload (sorted-name) order, and its meta."""
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
    shapes = {}
    for name in sorted(entries):
        entry = entries[name]
        if not isinstance(entry, dict) or "shape" not in entry:
            raise CheckpointError(f"parameter '{name}' lacks 'shape'")
        shape = entry["shape"]
        if not isinstance(shape, list) or any(type(d) is not int or d < 0 for d in shape):
            raise CheckpointError(f"parameter '{name}': malformed 'shape'")
        shapes[name] = tuple(shape)
    return shapes, meta


def meta_vocab(meta: dict, key: str, lead: Sequence[str],
               holds: Sequence[str] = ()) -> List[str]:
    """The tokens, in id order, of the vocabulary stored as `meta[key]`: a list of
    distinct strings that starts with the reserved entries `lead` and holds each
    of `holds`.  Any other value raises CheckpointError."""
    tokens = meta[key]
    if (not isinstance(tokens, list) or not all(isinstance(t, str) for t in tokens)
            or len(set(tokens)) != len(tokens)):
        raise CheckpointError(f"checkpoint meta '{key}' is not a list of distinct strings")
    if tokens[:len(lead)] != list(lead):
        raise CheckpointError(f"checkpoint meta '{key}' does not start with {list(lead)}")
    for token in holds:
        if token not in tokens:
            raise CheckpointError(f"checkpoint meta '{key}' lacks {token!r}")
    return tokens


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


@contextmanager
def stored(values: Dict[str, np.ndarray]):
    """The parameter source of a loaded model: hands each checkpoint array over as-is.

    A name the checkpoint lacks, or an array of the wrong shape, raises
    CheckpointError at the `make` call, so faults show in model order; on
    a clean exit, the first name (sorted) that no call took raises too.
    """
    left = dict(values)

    def make(name: str, shape: tuple) -> Tensor:
        if name not in left:
            raise CheckpointError(f"checkpoint lacks parameter '{name}'")
        if left[name].shape != shape:
            raise CheckpointError(f"parameter '{name}': checkpoint shape {left[name].shape}, "
                                  f"model expects {shape}")
        return parameter(left.pop(name), name)

    yield make
    if left:
        raise CheckpointError(f"checkpoint has unexpected parameter '{min(left)}'")
