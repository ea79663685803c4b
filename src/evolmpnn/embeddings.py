"""The position table's initialization and the sidecar embedding files.

Positions modulate residue embeddings multiplicatively through a learned
N x d table, initialized near 1 so the input survives at initialization;
``model._encode_rows`` applies it. Sidecar files hold precomputed protein
(M x d) or residue (M x N x d) embeddings keyed by record id, which
``load_protein_sidecar`` and ``load_residue_sidecar`` align to a family's
record order.
"""

from __future__ import annotations

import base64
import struct

import numpy as np

from .data import Family, _is_int, decode_json

SIDECAR_MAGIC = b"EVSC"
PHI_POS_INIT_MEAN = 1.0
PHI_POS_INIT_STD = 0.02


class SidecarError(ValueError):
    """Raised when a precomputed-embedding file is malformed."""


def init_positional_table(n: int, d: int, rng: np.random.Generator) -> np.ndarray:
    """Multiplicative position table, centered at the identity."""
    return rng.normal(PHI_POS_INIT_MEAN, PHI_POS_INIT_STD, size=(n, d))


# ---------------------------------------------------------------------------
# Sidecar files: precomputed embeddings keyed by record id
# ---------------------------------------------------------------------------
#
# Binary layout: 16-byte header (magic "EVSC", u32 count, u32 dim, u32
# reserved), then per record a u16 id length, the UTF-8 id, and the float32
# little-endian payload (dim floats for protein files, n*dim for residue
# files). A JSON variant with base64 payloads (fields checked in
# ``_read_sidecar_json``) is accepted interchangeably. Every id appears once,
# and a binary file ends with its last declared record.

_HEADER = struct.Struct("<4sIII")
_IDLEN = struct.Struct("<H")


def _read_sidecar_binary(path, values_per_record: int) -> tuple[dict[str, np.ndarray], int]:
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _HEADER.size:
        raise SidecarError(f"{path}: truncated header")
    magic, count, dim, _ = _HEADER.unpack_from(raw, 0)
    if magic != SIDECAR_MAGIC:
        raise SidecarError(f"{path}: bad magic {magic!r}")
    offset = _HEADER.size
    table: dict[str, np.ndarray] = {}
    payload_bytes = values_per_record * dim * 4
    for _ in range(count):
        if offset + _IDLEN.size > len(raw):
            raise SidecarError(f"{path}: truncated at offset {offset}")
        (id_len,) = _IDLEN.unpack_from(raw, offset)
        offset += _IDLEN.size
        try:
            rid = raw[offset : offset + id_len].decode("utf-8")
        except UnicodeDecodeError:
            raise SidecarError(f"{path}: id at offset {offset} is not valid UTF-8") from None
        offset += id_len
        if rid in table:
            raise SidecarError(f"{path}: repeated id {rid!r}")
        if offset + payload_bytes > len(raw):
            raise SidecarError(f"{path}: truncated payload for id {rid!r}")
        row = np.frombuffer(raw, dtype="<f4", count=values_per_record * dim, offset=offset)
        bad = np.flatnonzero(~np.isfinite(row))
        if bad.size:
            raise SidecarError(
                f"{path}: non-finite value at byte offset {offset + 4 * int(bad[0])}"
            )
        table[rid] = row.astype(np.float32)
        offset += payload_bytes
    if offset != len(raw):
        raise SidecarError(
            f"{path}: {len(raw) - offset} bytes after the last of {count} records, "
            f"at offset {offset}"
        )
    return table, dim


def _read_sidecar_json(path, values_per_record: int) -> tuple[dict[str, np.ndarray], int]:
    with open(path, "rb") as fh:
        doc = decode_json(fh.read(), path, SidecarError)
    if not isinstance(doc, dict):
        raise SidecarError(f"{path}: a JSON sidecar must be an object")
    if doc.get("magic") != "EVSC":
        raise SidecarError(f"{path}: bad magic in JSON sidecar")
    dim, records, count = (doc.get(key) for key in ("dim", "records", "count"))
    if not _is_int(dim) or dim < 1:
        raise SidecarError(f"{path}: 'dim' must be a positive integer, got {dim!r}")
    if not isinstance(records, list):
        raise SidecarError(f"{path}: 'records' must be a list, got {type(records).__name__}")
    if not _is_int(count) or count != len(records):
        raise SidecarError(f"{path}: 'count' is {count!r}, but there are {len(records)} records")
    table: dict[str, np.ndarray] = {}
    for idx, rec in enumerate(records):
        if not isinstance(rec, dict) or not all(
            isinstance(rec.get(key), str) for key in ("id", "data")
        ):
            raise SidecarError(
                f"{path}: record {idx} must be an object with string 'id' and 'data'"
            )
        rid = rec["id"]
        if rid in table:
            raise SidecarError(f"{path}: repeated id {rid!r} in record {idx}")
        payload = base64.b64decode(rec["data"])
        if len(payload) != 4 * values_per_record * dim:
            raise SidecarError(
                f"{path}: record {rid!r} has {len(payload) / 4:g} values, "
                f"expected {values_per_record * dim}"
            )
        row = np.frombuffer(payload, dtype="<f4")
        bad = np.flatnonzero(~np.isfinite(row))
        if bad.size:
            raise SidecarError(
                f"{path}: non-finite value in record {idx} (id {rid!r})"
            )
        table[rid] = row.astype(np.float32)
    return table, dim


def _read_sidecar(path, values_per_record: int) -> tuple[dict[str, np.ndarray], int]:
    with open(path, "rb") as fh:
        first = fh.read(4)
    if first == SIDECAR_MAGIC:
        return _read_sidecar_binary(path, values_per_record)
    return _read_sidecar_json(path, values_per_record)


def _load_aligned(path, family: Family, expected_dim: int, per_record: int) -> np.ndarray:
    """Sidecar payloads stacked in family record order: M x (per_record * dim)."""
    table, dim = _read_sidecar(path, values_per_record=per_record)
    if dim != expected_dim:
        raise SidecarError(f"{path}: dimension {dim} != model dimension {expected_dim}")
    for rid in family.ids:
        if rid not in table:
            raise SidecarError(f"{path}: missing id {rid!r}")
    return np.stack([table[rid] for rid in family.ids]).astype(np.float64)


def load_protein_sidecar(path, family: Family, expected_dim: int) -> np.ndarray:
    """Load per-protein embeddings (M x d) aligned to the family record order."""
    return _load_aligned(path, family, expected_dim, per_record=1)


def load_residue_sidecar(path, family: Family, expected_dim: int) -> np.ndarray:
    """Load per-residue embeddings (M x N x d) aligned to the family order."""
    flat = _load_aligned(path, family, expected_dim, per_record=family.n)
    return flat.reshape(family.m, family.n, expected_dim)
