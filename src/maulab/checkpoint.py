"""Versioned flat checkpoint files.

Layout: magic "MAUL" | version u32 LE | header length u32 LE | header JSON
(UTF-8) | named float64 little-endian row-major arrays in header order |
SHA-256 over everything before it. Round trips are bit-exact.
"""

from __future__ import annotations

import hashlib
import json
import struct
from pathlib import Path

import numpy as np

from maulab.metrics import atomic_open

MAGIC = b"MAUL"
VERSION = 1


class CheckpointError(IOError):
    """Raised on corrupt, truncated, or version-mismatched checkpoint files."""


class MissingCheckpointError(FileNotFoundError):
    """Raised when a checkpoint named for a run does not exist."""


def save_checkpoint(path, kind: str, meta: dict, arrays: dict[str, np.ndarray]) -> None:
    header = {
        "kind": kind,
        "meta": meta,
        "arrays": [{"name": k, "shape": list(np.asarray(v).shape)} for k, v in arrays.items()],
    }
    hbytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    body = bytearray()
    body += MAGIC
    body += struct.pack("<II", VERSION, len(hbytes))
    body += hbytes
    for v in arrays.values():
        body += np.ascontiguousarray(v, dtype="<f8").tobytes()
    body += hashlib.sha256(bytes(body)).digest()
    with atomic_open(path, "wb") as fh:
        fh.write(body)


def _well_formed(header) -> bool:
    """Whether a header has the form save_checkpoint writes: a str kind, an
    object meta and a list of {name, shape} specs with non-negative int dims."""
    if not (isinstance(header, dict) and isinstance(header.get("kind"), str) and isinstance(header.get("meta"), dict)):
        return False
    specs = header.get("arrays")
    return isinstance(specs, list) and all(
        isinstance(spec, dict) and isinstance(spec.get("name"), str) and isinstance(spec.get("shape"), list)
        and all(type(d) is int and d >= 0 for d in spec["shape"]) for spec in specs
    )


def load_checkpoint(path) -> tuple[str, dict, dict[str, np.ndarray]]:
    raw = Path(path).read_bytes()
    if len(raw) < 12 + 32 or raw[:4] != MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file")
    digest = raw[-32:]
    payload = raw[:-32]
    if hashlib.sha256(payload).digest() != digest:
        raise CheckpointError(f"{path}: checksum mismatch (corrupt file)")
    version, hlen = struct.unpack("<II", raw[4:12])
    if version != VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
    try:
        header = json.loads(raw[12 : 12 + hlen].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise CheckpointError(f"{path}: corrupt header: {e}") from e
    if not _well_formed(header):
        raise CheckpointError(f"{path}: corrupt header: not an object of kind, meta and array specs")
    off = 12 + hlen
    arrays = {}
    for spec in header["arrays"]:
        shape = tuple(spec["shape"])
        nbytes = int(np.prod(shape, dtype=int)) * 8
        if off + nbytes > len(payload):
            raise CheckpointError(f"{path}: truncated array payload")
        arrays[spec["name"]] = (
            np.frombuffer(payload[off : off + nbytes], dtype="<f8").reshape(shape).copy()
        )
        off += nbytes
    if off != len(payload):
        raise CheckpointError(f"{path}: trailing bytes in payload")
    return header["kind"], header["meta"], arrays
