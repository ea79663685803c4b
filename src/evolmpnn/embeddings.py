"""Initial protein- and residue-level embeddings, plus the sidecar loaders.

Residues are embedded by a learned 20 x d projection of their indicator
vector; positions modulate embeddings multiplicatively via a learned N x d
table initialized near 1 so the input survives at initialization. Protein
embeddings come either from a separate learned projection averaged over
positions or from precomputed sidecar files.
"""

from __future__ import annotations

import base64
import json
import struct

import numpy as np

from . import autodiff as ad
from .data import ALPHABET, Family

SIDECAR_MAGIC = b"EVSC"
PHI_POS_INIT_MEAN = 1.0
PHI_POS_INIT_STD = 0.02


class SidecarError(ValueError):
    """Raised when a precomputed-embedding file is malformed."""


def init_positional_table(n: int, d: int, rng: np.random.Generator) -> np.ndarray:
    """Multiplicative position table, centered at the identity."""
    return rng.normal(PHI_POS_INIT_MEAN, PHI_POS_INIT_STD, size=(n, d))


def onehot_residues(encoded: np.ndarray, projection: ad.Tensor) -> ad.Tensor:
    """Project each residue's 20-dim indicator through a learned map.

    ``encoded`` is a rows x N uint8 matrix of alphabet indices; returns a
    rows x N x d tensor. Equal residues at any positions map to identical
    vectors before positional encoding.
    """
    if projection.shape[0] != len(ALPHABET):
        raise ValueError(
            f"projection must have {len(ALPHABET)} rows, got {projection.shape[0]}"
        )
    return ad.take_rows(projection, encoded)


def apply_positional(x: ad.Tensor, phi_pos: ad.Tensor) -> ad.Tensor:
    """Elementwise product with the position table, broadcast over proteins."""
    if x.shape[-2:] != phi_pos.shape:
        raise ValueError(
            f"positional table {phi_pos.shape} does not match residues {x.shape[-2:]}"
        )
    return ad.mul(x, phi_pos)


def init_protein_embeddings(
    encoded: np.ndarray,
    mode: str,
    projection: ad.Tensor | None = None,
    precomputed: np.ndarray | None = None,
) -> ad.Tensor:
    """Initial rows x d protein embeddings for a rows x N encoded matrix.

    ``onehot-mean`` averages a learned per-residue projection over positions;
    ``sidecar`` uses a precomputed matrix with one row per encoded row.
    """
    if mode == "onehot-mean":
        if projection is None:
            raise ValueError("protein_mode=onehot-mean requires a projection")
        return ad.mean_over(onehot_residues(encoded, projection), axis=1)
    if mode == "sidecar":
        if precomputed is None:
            raise ValueError("protein_mode=sidecar requires protein features")
        if precomputed.shape[0] != encoded.shape[0]:
            raise SidecarError(
                f"sidecar has {precomputed.shape[0]} rows, "
                f"expected {encoded.shape[0]}"
            )
        return ad.constant(precomputed)
    raise ValueError(f"unknown protein embedding mode {mode!r}")


# ---------------------------------------------------------------------------
# Sidecar files: precomputed embeddings keyed by record id
# ---------------------------------------------------------------------------
#
# Binary layout: 16-byte header (magic "EVSC", u32 count, u32 dim, u32
# reserved), then per record a u16 id length, the UTF-8 id, and the float32
# little-endian payload (dim floats for protein files, n*dim for residue
# files). A JSON variant with base64 payloads is accepted interchangeably.

_HEADER = struct.Struct("<4sIII")
_IDLEN = struct.Struct("<H")


def write_sidecar(path, ids, payloads: np.ndarray, fmt: str = "binary") -> None:
    """Write embeddings for ``ids``; payloads is (count, ...) float data."""
    payloads = np.asarray(payloads, dtype=np.float32)
    if payloads.shape[0] != len(ids):
        raise SidecarError("one payload row per id required")
    dim = payloads.shape[-1]
    flat = payloads.reshape(len(ids), -1)
    if fmt == "binary":
        with open(path, "wb") as fh:
            fh.write(_HEADER.pack(SIDECAR_MAGIC, len(ids), dim, 0))
            for rid, row in zip(ids, flat):
                encoded = rid.encode("utf-8")
                fh.write(_IDLEN.pack(len(encoded)))
                fh.write(encoded)
                fh.write(row.astype("<f4").tobytes())
    elif fmt == "json":
        doc = {
            "magic": "EVSC",
            "count": len(ids),
            "dim": int(dim),
            "records": [
                {
                    "id": rid,
                    "data": base64.b64encode(row.astype("<f4").tobytes()).decode("ascii"),
                }
                for rid, row in zip(ids, flat)
            ],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
    else:
        raise ValueError(f"unknown sidecar format {fmt!r}")


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
        rid = raw[offset : offset + id_len].decode("utf-8")
        offset += id_len
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
    return table, dim


def _read_sidecar_json(path, values_per_record: int) -> tuple[dict[str, np.ndarray], int]:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("magic") != "EVSC":
        raise SidecarError(f"{path}: bad magic in JSON sidecar")
    dim = int(doc["dim"])
    table: dict[str, np.ndarray] = {}
    for idx, rec in enumerate(doc["records"]):
        rid = rec["id"]
        row = np.frombuffer(base64.b64decode(rec["data"]), dtype="<f4")
        if row.size != values_per_record * dim:
            raise SidecarError(
                f"{path}: record {rid!r} has {row.size} values, "
                f"expected {values_per_record * dim}"
            )
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
