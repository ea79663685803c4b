"""Anchor sampling and the evolution-encoding layers.

Anchor sets are random subsets of the training proteins; each protein
receives messages built from its residue-level difference to the set's
pooled residues, elementwise-modulated by the set's protein embedding.
The sampler has two settings, the number of sets k and a seed. Set
membership is decided by a keyed hash, so sampling is reproducible,
independent of record order, and refreshable per training step and layer
while staying frozen at evaluation:

- each protein id is hashed to a 64-bit key, the little-endian value of
  ``blake2b(id.encode("utf-8"), digest_size=8)``; the keys of the last few
  pools are kept, so the steps of a training run hash their pool once;
- the parts (seed, draw, layer) fold into a base salt, starting from 0,
  via ``base = mix((base ^ part) + G)``, and set j gets the salt
  ``salt_j = mix(base + j * G)``, where G = 0x9E3779B97F4A7C15, ``mix`` is
  the splitmix64 finalizer and all arithmetic wraps modulo 2^64;
- with inclusion probability p_j = 2^-e_j, a protein joins set j iff the
  top e_j bits of ``mix(key ^ salt_j)`` are all zero, the exact integer
  form of a uniform draw falling below p_j;
- a training step's gradient rows (``sample_gradient_rows``) use the salt
  of set 1 under the parts (seed, draw, 2^64 - 1), a layer index that no
  layer uses: a protein carries gradients iff the top 53 bits of
  ``mix(key ^ salt)``, read as a fraction of 1, fall below the rate q.

Inclusion probabilities follow 1/2^j but cycle once j exceeds log2(M),
since deeper sets would otherwise be empty almost surely. A set that still
comes out empty falls back to one protein: the wild type when it is in the
pool, and otherwise the pool's smallest id.

The caller picks the draw and layer keys; ``model.build_forward`` passes
draw 0 and layer 0 to every layer when ``resample_anchors`` is off, and
the step's draw to the gradient rows either way. Sets
hold positions into the pool as passed. evolmpnn sums each set's
members, and evolgnn each node's neighbours, with the one edge-list op
``autodiff.neighbor_sum``.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .data import Graph
from .residue_encoder import attention_layer


@dataclass(frozen=True)
class AnchorSet:
    """One sampled landmark set.

    ``member_ids`` is an ascending int64 array of positions into the pool
    the set was sampled from, never empty. ``fallback_used`` marks sets
    whose Bernoulli draw came out empty and were replaced by one protein;
    statistics over raw draw sizes should count these as 0.
    """

    member_ids: np.ndarray
    fallback_used: bool = False

    def __post_init__(self):
        if len(self.member_ids) == 0:
            raise ValueError("anchor sets must be non-empty")


def _log2_ceil(m: int) -> int:
    """ceil(log2(m)) for an integer m >= 1, in exact integer arithmetic."""
    return (m - 1).bit_length()


def anchor_count(m_train: int) -> int:
    """Number of anchor sets for a training pool of size m_train."""
    if m_train < 1:
        raise ValueError("need at least one training protein")
    return max(1, _log2_ceil(m_train) ** 2)


def _inclusion_exponent(j: int, m_train: int) -> int:
    """Exponent e with inclusion probability 2^-e for set j (1-based)."""
    return 1 + (j - 1) % max(1, _log2_ceil(m_train))


_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MASK64 = (1 << 64) - 1


def _mix(x: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer on a uint64 array; callers silence overflow."""
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


@functools.lru_cache(maxsize=8)
def _id_keys(ids: tuple[str, ...]) -> np.ndarray:
    """The 64-bit keys of ``ids``, read-only, since calls share them."""
    digests = b"".join(
        hashlib.blake2b(rid.encode("utf-8"), digest_size=8).digest() for rid in ids
    )
    keys = np.frombuffer(digests, dtype="<u8").astype(np.uint64)
    keys.flags.writeable = False
    return keys


def _salts(parts, k: int) -> np.ndarray:
    """The salts of sets 1..k under the key ``parts``; callers silence overflow."""
    base = np.zeros(1, dtype=np.uint64)
    for part in parts:
        base = _mix((base ^ np.uint64(int(part) & _MASK64)) + _GOLDEN)
    return _mix(base + np.arange(1, k + 1, dtype=np.uint64) * _GOLDEN)


def sample_anchor_sets(
    train_ids,
    layer_index: int,
    draw: int = 0,
    fallback_id: str | None = None,
    *,
    k: int | None = None,
    seed: int = 0,
) -> list[AnchorSet]:
    """Draw the ``k`` anchor sets (default ``anchor_count(M)``) for one
    evolution layer.

    Each set's ``member_ids`` are positions into ``train_ids`` as passed.
    Membership is keyed on protein ids, so any reordering of ``train_ids``
    yields the same sets of ids. ``seed``, ``draw`` and ``layer_index`` key
    the hash; ``draw`` distinguishes training steps, and evaluation uses
    draw 0. Sets are drawn one at a time, so memory stays O(M). An empty set
    falls back to ``fallback_id`` when it is in the pool, and otherwise to
    the pool's smallest id.
    """
    pool = list(train_ids)
    if not pool:
        raise ValueError("cannot sample anchors from an empty training pool")
    m = len(pool)
    k = k if k is not None else anchor_count(m)
    if k < 1:
        raise ValueError("anchor count must be >= 1")
    fallback = np.array([pool.index(fallback_id if fallback_id in pool else min(pool))])
    keys = _id_keys(tuple(pool))
    with np.errstate(over="ignore"):
        salts = _salts((seed, draw, layer_index), k)
        sets = []
        for j in range(1, k + 1):
            e = _inclusion_exponent(j, m)
            hit = (_mix(keys ^ salts[j - 1]) >> np.uint64(64 - e)) == 0
            members = np.flatnonzero(hit)
            fell_back = len(members) == 0
            if fell_back:
                members = fallback
            sets.append(AnchorSet(members, fell_back))
    return sets


# The layer key of the gradient-row draw: 2^64 - 1, which no layer uses.
_GRADIENT_ROWS = -1


def sample_gradient_rows(ids, q: float, draw: int, *, seed: int = 0) -> np.ndarray:
    """Which of the proteins ``ids`` carry gradients in training step
    ``draw``: a boolean array in the order of ``ids``, each protein True
    with probability ``q`` (all of them at q >= 1).

    Like anchor membership, the draw is keyed on protein ids, so it does not
    depend on their order; ``seed`` and ``draw`` key it with a layer index
    that no layer uses, so it is independent of every anchor set.
    """
    keys = _id_keys(tuple(ids))
    with np.errstate(over="ignore"):
        hashed = _mix(keys ^ _salts((seed, draw, _GRADIENT_ROWS), 1)[0])
    # The top 53 bits, read as a fraction of 1, are a uniform draw on [0, 1).
    return (hashed >> np.uint64(11)).astype(np.float64) < q * 2.0**53


# ---------------------------------------------------------------------------
# Differentiable layers
# ---------------------------------------------------------------------------


def evolmpnn_layer(
    h: ad.Tensor,
    r_bar: ad.Tensor,
    members: list[np.ndarray],
    w_combine: ad.Tensor,
) -> ad.Tensor:
    """Anchor-set message passing: mean message, concat, combine.

    ``members`` holds one index array per anchor set, into the rows of ``h``
    and ``r_bar``; each set's sums run over its members in that order. Each
    set's mean embedding and mean residue summary is a weighted edge sum
    (set j <- member i, weight 1/|S_j| in the model dtype), so it costs
    O(sum |S_j| * d) with no k x M matrix; with ascending members the sums
    are bitwise equal to ``np.einsum``'s sequential product with the dense
    membership matrix. The mean over anchor messages H_j * (r_i - a_j)
    distributes into two rank-1 terms, which avoids materializing the
    (M, k, d) message block; tests pin this against the literal per-anchor
    loop. Rows whose encodings carry no gradients enter the sums as they
    are; ``model.build_forward`` weights the gradients of the sampled rows.
    """
    k, dtype = len(members), h.data.dtype
    sizes = np.array([len(rows) for rows in members])
    dst = np.repeat(np.arange(k), sizes)
    src = np.concatenate(members)
    weight = np.repeat((1.0 / sizes).astype(dtype), sizes)
    anchor_h = ad.neighbor_sum(h, dst, src, k, weight)
    anchor_r = ad.neighbor_sum(r_bar, dst, src, k, weight)
    mean_h = ad.mean_over(anchor_h, axis=0)
    mean_cross = ad.mean_over(ad.mul(anchor_h, anchor_r), axis=0)
    h_hat = ad.sub(ad.mul(r_bar, mean_h), mean_cross)
    return ad.matmul(ad.concat_last([h, h_hat]), w_combine)


def evolgnn_layer(
    h: ad.Tensor,
    r_bar: ad.Tensor,
    graph: Graph,
    w_neighbor: ad.Tensor,
    w_gate: ad.Tensor,
    w_combine: ad.Tensor,
) -> ad.Tensor:
    """Graph message passing with residue-difference structure coefficients.

    Neighbor messages sum H_j * (r_i - r_j) W_n over the edges (i, j); the
    self path is gated by sigmoid of the mean projected difference over the
    same edges. Isolated nodes get a zero neighbor message and a sigmoid(0)
    gate. Every sum runs over the edge list, so time and memory are
    O(E * d) for E edges, with no M x M matrix.
    """
    dst, src = graph.edges[:, 0], graph.edges[:, 1]
    degree = np.bincount(dst, minlength=graph.n_nodes).astype(h.data.dtype)
    inv_degree = np.divide(1.0, degree, out=np.zeros_like(degree), where=degree > 0)

    neighbor = ad.sub(
        ad.mul(ad.neighbor_sum(h, dst, src), r_bar),
        ad.neighbor_sum(ad.mul(h, r_bar), dst, src),
    )
    m_neighbor = ad.matmul(neighbor, w_neighbor)

    projected = ad.matmul(r_bar, w_gate)
    gate_sum = ad.sub(
        ad.mul(projected, degree[:, None]), ad.neighbor_sum(projected, dst, src)
    )
    gate = ad.sigmoid(ad.mul(gate_sum, inv_degree[:, None]))
    m_self = ad.mul(gate, h)
    return ad.matmul(ad.concat_last([m_neighbor, m_self]), w_combine)


def evolformer_layer(
    h: ad.Tensor,
    r_bar: ad.Tensor,
    params: dict[str, ad.Tensor],
    prefix: str,
    n_heads: int,
    rows=None,
) -> ad.Tensor:
    """Protein-level attention with a bilinear residue-summary logit bias.

    The bias between proteins i and j is ``p_i . p_j / sqrt(d)`` with
    ``p = r_bar @ bias_proj`` and d the width of ``h``; the attention layer
    takes p and scales the bias as it scales its logits, so no M x M bias is
    formed. ``rows`` selects the query rows to output (default: all), and
    only those rows attend.
    """
    projected = ad.matmul(r_bar, params[f"{prefix}.bias_proj"])
    return attention_layer(
        h,
        params,
        prefix,
        n_heads,
        rows=rows,
        bias=projected,
        label=f"evolution layer {prefix}",
    )
