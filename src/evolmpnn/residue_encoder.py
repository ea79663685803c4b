"""Multi-head self-attention stack that updates residue embeddings.

Each layer computes per-head softmax attention scaled by sqrt(d) (the full
embedding width, not the head width), adds the attended values back through
a residual, applies an ELU feed-forward block, and finishes with one
LayerNorm over the whole layer. The same layer implementation serves the
protein-level attention variant, which asks for a subset of query rows and
passes a bilinear logit bias as its two factors, so neither an M x M bias
nor, without gradients, an M x M attention matrix is ever formed.
"""

from __future__ import annotations

import math

import numpy as np

from . import autodiff as ad
from .data import map_blocks

LAYERNORM_EPS = 1e-8

# Inference works in blocks of about this many bytes of float64 attention
# logits per head: 64 proteins at N = 32 in the residue stack, which ran
# faster than larger blocks whose activations no longer stay in cache, and
# 64 query rows at M = 1,024 in the protein-level layer. Each worker thread
# of ``data.map_blocks`` holds one block.
_ENCODE_BLOCK_BYTES = 512 << 10


def block_rows(logits_per_row: int) -> int:
    """Rows per inference block when each row has ``logits_per_row`` logits."""
    return max(1, _ENCODE_BLOCK_BYTES // (8 * logits_per_row))


class NumericsError(FloatingPointError):
    """Raised when a forward pass produces non-finite activations."""


def attention_layer(
    x: ad.Tensor,
    params: dict[str, ad.Tensor],
    prefix: str,
    n_heads: int,
    *,
    rows=None,
    bias_factors: tuple[ad.Tensor, ad.Tensor, float] | None = None,
    label: str = "residue layer",
) -> ad.Tensor:
    """One attention + feed-forward + LayerNorm block over the last two axes.

    ``x`` is (..., N, d); any leading batch axes are carried through, and
    the output has x's shape. For a 2-D ``x`` of M rows, ``rows`` picks the
    query rows to output, in order and possibly repeated (default: all M),
    and ``bias_factors = (left, right, scale)`` adds
    ``left[rows] @ right.T * scale`` to every head's logits.

    Each head's keys and values are computed once over all M rows; queries,
    logits, softmax, residual, feed-forward and LayerNorm run only for the
    query rows. When no input requires a gradient, a 2-D ``x`` is processed
    in blocks of query rows on the worker pool, so memory is
    O(W * block * M + M * d) for W workers.
    """
    d = x.shape[-1]
    scale = 1.0 / math.sqrt(d)
    keys, values = [], []
    for h in range(n_heads):
        keys.append(ad.transpose_last(ad.matmul(x, params[f"{prefix}.h{h}.wk"])))
        v = ad.matmul(ad.matmul(x, params[f"{prefix}.h{h}.wv"]), params[f"{prefix}.h{h}.wo"])
        values.append(v)
    right_t = None if bias_factors is None else ad.transpose_last(bias_factors[1])

    def attend(index) -> ad.Tensor:
        """The layer's output for query rows ``index`` (None: every row of x)."""
        xq = x if index is None else ad.take_rows(x, index)
        bias = None
        if bias_factors is not None:
            left = bias_factors[0] if index is None else ad.take_rows(bias_factors[0], index)
            bias = ad.mul(ad.matmul(left, right_t), bias_factors[2])
        attended = None
        for h in range(n_heads):
            q = ad.matmul(xq, params[f"{prefix}.h{h}.wq"])
            logits = ad.mul(ad.matmul(q, keys[h]), scale)
            if bias is not None:
                logits = ad.add(logits, bias)
            if not np.all(np.isfinite(logits.data)):
                raise NumericsError(f"non-finite attention logits in {label}, head {h}")
            head = ad.matmul(ad.softmax_last(logits), values[h])
            attended = head if attended is None else ad.add(attended, head)
        residual = ad.add(xq, attended)
        ffn = ad.matmul(
            ad.elu(ad.matmul(residual, params[f"{prefix}.ffn_w1"])), params[f"{prefix}.ffn_w2"]
        )
        pre_norm = ad.add(residual, ffn)
        normed = ad.normalize_last(pre_norm, eps=LAYERNORM_EPS)
        out = ad.add(ad.mul(normed, params[f"{prefix}.ln_gain"]), params[f"{prefix}.ln_bias"])
        if not np.all(np.isfinite(out.data)):
            raise NumericsError(f"non-finite output in {label}")
        return out

    index = None if rows is None else np.asarray(rows, dtype=np.intp)
    inputs = [x, *(t for name, t in params.items() if name.startswith(f"{prefix}."))]
    if bias_factors is not None:
        inputs += bias_factors[:2]
    if len(x.shape) > 2 or any(t.requires_grad for t in inputs):
        return attend(index)
    index = np.arange(x.shape[0]) if index is None else index
    step = block_rows(x.shape[0])
    # An empty query set still runs one empty block, giving a (0, d) output.
    blocks = map_blocks(
        lambda lo: attend(index[lo : lo + step]), range(0, len(index), step) or [0]
    )
    if len(blocks) == 1:
        return blocks[0]
    return ad.constant(np.concatenate([block.data for block in blocks]))
