"""Anchor sampling and the evolution-encoding layers.

Anchor sets are random subsets of the training proteins; each protein
receives messages built from its residue-level difference to the set's
pooled residues, elementwise-modulated by the set's protein embedding.
Set membership is decided by a keyed hash, so sampling is reproducible,
independent of record order, and refreshable per training step while
staying frozen at evaluation:

- each protein id is hashed once per call to a 64-bit key, the
  little-endian value of ``blake2b(id.encode("utf-8"), digest_size=8)``;
- the parts (seed, draw, layer) fold into a base salt, starting from 0,
  via ``base = mix((base ^ part) + G)``, and set j gets the salt
  ``salt_j = mix(base + j * G)``, where G = 0x9E3779B97F4A7C15, ``mix`` is
  the splitmix64 finalizer and all arithmetic wraps modulo 2^64;
- with inclusion probability p_j = 2^-e_j, a protein joins set j iff the
  top e_j bits of ``mix(key ^ salt_j)`` are all zero, the exact integer
  form of a uniform draw falling below p_j.

Inclusion probabilities follow 1/2^j but cycle once j exceeds log2(M),
since deeper sets would otherwise be empty almost surely; every set that
still comes out empty falls back to the wild type.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .residue_encoder import attention_layer


@dataclass(frozen=True)
class AnchorSet:
    """One sampled landmark: set index, member ids, inclusion probability.

    ``fallback_used`` marks sets whose Bernoulli draw came out empty and
    were replaced; statistics over raw draw sizes should treat these as 0.
    """

    index: int
    member_ids: tuple[str, ...]
    inclusion_prob: float
    fallback_used: bool = False

    def __post_init__(self):
        if not self.member_ids:
            raise ValueError("anchor sets must be non-empty")
        if not 0 < self.inclusion_prob <= 1:
            raise ValueError("inclusion probability must be in (0, 1]")

    @property
    def raw_size(self) -> int:
        return 0 if self.fallback_used else len(self.member_ids)


@dataclass(frozen=True)
class AnchorPolicy:
    """How many sets to draw and how to key the hash."""

    k: int | None = None  # None: ceil(log2 M)^2
    seed: int = 0
    resample_per_layer: bool = True


def anchor_count(m_train: int) -> int:
    """Number of anchor sets for a training pool of size m_train."""
    if m_train < 1:
        raise ValueError("need at least one training protein")
    log_m = math.ceil(math.log2(m_train)) if m_train > 1 else 0
    return max(1, log_m * log_m)


def _inclusion_exponent(j: int, m_train: int) -> int:
    """Exponent e with inclusion probability 2^-e for set j (1-based)."""
    cycle = max(1, math.ceil(math.log2(m_train)) if m_train > 1 else 0)
    return 1 + (j - 1) % cycle


def inclusion_probability(j: int, m_train: int) -> float:
    """Probability that a training protein joins set j (1-based)."""
    return 2.0 ** -_inclusion_exponent(j, m_train)


_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MASK64 = (1 << 64) - 1


def _mix(x: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer on a uint64 array; callers silence overflow."""
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def _id_keys(ids: list[str]) -> np.ndarray:
    digests = b"".join(
        hashlib.blake2b(rid.encode("utf-8"), digest_size=8).digest() for rid in ids
    )
    return np.frombuffer(digests, dtype="<u8").astype(np.uint64)


def sample_anchor_sets(
    train_ids,
    policy: AnchorPolicy,
    layer_index: int,
    draw: int = 0,
    fallback_id: str | None = None,
) -> list[AnchorSet]:
    """Draw the anchor sets for one evolution layer.

    Membership is keyed on protein ids, so any reordering of ``train_ids``
    yields the same sets. ``draw`` distinguishes training steps; evaluation
    uses draw 0. Sets are drawn one at a time, so memory stays O(M).
    """
    pool = sorted(train_ids)
    if not pool:
        raise ValueError("cannot sample anchors from an empty training pool")
    m = len(pool)
    k = policy.k if policy.k is not None else anchor_count(m)
    if k < 1:
        raise ValueError("anchor count must be >= 1")
    layer_key = layer_index if policy.resample_per_layer else 0
    fallback = fallback_id if fallback_id in set(pool) else pool[0]
    keys = _id_keys(pool)
    pool_ids = np.array(pool, dtype=object)
    with np.errstate(over="ignore"):
        base = np.zeros(1, dtype=np.uint64)
        for part in (policy.seed, draw, layer_key):
            base = _mix((base ^ np.uint64(int(part) & _MASK64)) + _GOLDEN)
        salts = _mix(base + np.arange(1, k + 1, dtype=np.uint64) * _GOLDEN)
        sets = []
        for j in range(1, k + 1):
            e = _inclusion_exponent(j, m)
            hit = (_mix(keys ^ salts[j - 1]) >> np.uint64(64 - e)) == 0
            members = tuple(pool_ids[hit].tolist())
            fell_back = not members
            if fell_back:
                members = (fallback,)
            sets.append(
                AnchorSet(
                    index=j,
                    member_ids=members,
                    inclusion_prob=2.0**-e,
                    fallback_used=fell_back,
                )
            )
    return sets


def membership_matrix(
    anchor_sets: list[AnchorSet], row_of: dict[str, int], n_rows: int, dtype=np.float64
) -> np.ndarray:
    """(k, n_rows) matrix whose row j averages over set j's members."""
    mat = np.zeros((len(anchor_sets), n_rows), dtype=dtype)
    for r, s in enumerate(anchor_sets):
        for rid in s.member_ids:
            mat[r, row_of[rid]] = 1.0
        mat[r] /= len(s.member_ids)
    return mat


# ---------------------------------------------------------------------------
# Differentiable layers
# ---------------------------------------------------------------------------


def evolmpnn_layer(
    h: ad.Tensor,
    r_bar: ad.Tensor,
    members: np.ndarray,
    w_combine: ad.Tensor,
) -> ad.Tensor:
    """Anchor-set message passing: mean message, concat, combine.

    ``members`` is the (k, M) normalized membership matrix. The mean over
    anchor messages H_j * (r_i - a_j) distributes into two rank-1 terms,
    which avoids materializing the (M, k, d) message block; tests pin this
    against the literal per-anchor loop.
    """
    member_const = ad.constant(members.astype(h.data.dtype))
    anchor_h = ad.matmul(member_const, h)
    anchor_r = ad.matmul(member_const, r_bar)
    mean_h = ad.mean_over(anchor_h, axis=0)
    mean_cross = ad.mean_over(ad.mul(anchor_h, anchor_r), axis=0)
    h_hat = ad.sub(ad.mul(r_bar, mean_h), mean_cross)
    return ad.matmul(ad.concat_last([h, h_hat]), w_combine)


def evolgnn_layer(
    h: ad.Tensor,
    r_bar: ad.Tensor,
    adjacency: np.ndarray,
    w_neighbor: ad.Tensor,
    w_gate: ad.Tensor,
    w_combine: ad.Tensor,
) -> ad.Tensor:
    """Graph message passing with residue-difference structure coefficients.

    Neighbor messages sum A_ij * (H_j * (r_i - r_j)) W_n; the self path is
    gated by sigmoid of the mean A_ij-weighted projected difference.
    Isolated nodes get a zero neighbor message and a sigmoid(0) gate.
    """
    dtype = h.data.dtype
    a = ad.constant(adjacency.astype(dtype))
    degree = (adjacency > 0).sum(axis=1).astype(dtype)
    inv_degree = np.divide(1.0, degree, out=np.zeros_like(degree), where=degree > 0)
    row_weight = adjacency.sum(axis=1).astype(dtype)

    neighbor = ad.sub(ad.mul(ad.matmul(a, h), r_bar), ad.matmul(a, ad.mul(h, r_bar)))
    m_neighbor = ad.matmul(neighbor, w_neighbor)

    projected = ad.matmul(r_bar, w_gate)
    gate_sum = ad.sub(ad.mul(projected, row_weight[:, None]), ad.matmul(a, projected))
    gate = ad.sigmoid(ad.mul(gate_sum, inv_degree[:, None]))
    m_self = ad.mul(gate, h)
    return ad.matmul(ad.concat_last([m_neighbor, m_self]), w_combine)


def evolformer_layer(
    h: ad.Tensor,
    r_bar: ad.Tensor,
    params: dict[str, ad.Tensor],
    prefix: str,
    n_heads: int,
) -> ad.Tensor:
    """Protein-level attention with a bilinear residue-summary logit bias."""
    d = h.shape[-1]
    projected = ad.matmul(r_bar, params[f"{prefix}.bias_proj"])
    bias = ad.mul(ad.matmul(projected, ad.transpose_last(projected)), 1.0 / math.sqrt(d))
    return attention_layer(
        h, params, prefix, n_heads, logit_bias=bias, label=f"evolution layer {prefix}"
    )
