"""Multi-head self-attention stack that updates residue embeddings.

Each layer computes per-head softmax attention scaled by sqrt(d) (the full
embedding width, not the head width), adds the attended values back through
a residual, applies an ELU feed-forward block, and finishes with one
LayerNorm over the whole layer. The same layer implementation serves the
protein-level attention variant, which asks for a subset of query rows and
passes the factor p of a bilinear logit bias p p^T / sqrt(d), so no M x M
bias is formed. Its query rows run in ``autodiff.map_rows`` blocks, charged
``LOGIT_BYTES`` per attention logit, in training as in inference: without
gradients no M x M attention matrix is formed, and with them each block
keeps only each head's softmax and the other arrays its backward reads until
its backward, which then frees them.
"""

from __future__ import annotations

import math

import numpy as np

from . import autodiff as ad

LAYERNORM_EPS = 1e-8
# Row-block bytes charged per attention logit: the logits, their scaled
# and biased copies and their softmax while a block runs and, in training,
# the gradients around them in its backward. Between forward and backward a
# block keeps only the softmax.
LOGIT_BYTES = 64

class NumericsError(FloatingPointError):
    """Raised when a forward pass produces non-finite activations."""


def attention_layer(
    x: ad.Tensor,
    params: dict[str, ad.Tensor],
    prefix: str,
    n_heads: int,
    *,
    rows=None,
    bias: ad.Tensor | None = None,
    label: str = "residue layer",
) -> ad.Tensor:
    """One attention + feed-forward + LayerNorm block over the last two axes.

    ``x`` is (..., N, d); any leading batch axes are carried through, and
    the output has x's shape. For a 2-D ``x`` of M rows, ``rows`` picks the
    query rows to output, in order and possibly repeated (default: all M),
    and ``bias = p``, an (M, k) tensor, adds ``p[rows] @ p.T / sqrt(d)`` to
    every head's logits, scaled as they are.

    Each head's keys and values are computed once over all M rows; queries,
    logits, softmax, residual, feed-forward and LayerNorm run only for the
    query rows. A 2-D ``x`` maps its query rows through ``autodiff.map_rows``
    in blocks of 65,536 // M rows on the worker pool, with or without
    gradients; each block reads x, the layer's weights, each head's keys and
    values and the bias through its own handles. Without gradients
    memory is O(W * block * M + M * d) for W workers. With gradients every
    block keeps the arrays its backward reads until backward, so the forward
    still holds each head's softmax over all query rows, though not the raw,
    scaled or biased logits; backward runs per block and frees each block's
    arrays. A 3-D ``x`` (the residue stack, which runs inside the encode
    blocks) is processed in one call.
    """
    d = x.shape[-1]
    scale = 1.0 / math.sqrt(d)
    inputs = {name: t for name, t in params.items() if name.startswith(f"{prefix}.")}
    inputs["x"] = x
    for h in range(n_heads):
        inputs[f"keys{h}"] = ad.transpose_last(ad.matmul(x, params[f"{prefix}.h{h}.wk"]))
        v = ad.matmul(ad.matmul(x, params[f"{prefix}.h{h}.wv"]), params[f"{prefix}.h{h}.wo"])
        inputs[f"values{h}"] = v
    if bias is not None:
        inputs.update(left=bias, right_t=ad.transpose_last(bias))

    def attend(index, t: dict[str, ad.Tensor]) -> ad.Tensor:
        """Output rows ``index`` (None: every row of x), read from ``t``."""
        xq = t["x"] if index is None else ad.take_rows(t["x"], index)
        logit_bias = None
        if bias is not None:
            left = t["left"] if index is None else ad.take_rows(t["left"], index)
            logit_bias = ad.mul(ad.matmul(left, t["right_t"]), scale)
        attended = None
        for h in range(n_heads):
            q = ad.matmul(xq, t[f"{prefix}.h{h}.wq"])
            logits = ad.mul(ad.matmul(q, t[f"keys{h}"]), scale)
            if logit_bias is not None:
                logits = ad.add(logits, logit_bias)
            if not np.all(np.isfinite(logits.data)):
                raise NumericsError(f"non-finite attention logits in {label}, head {h}")
            head = ad.matmul(ad.softmax_last(logits), t[f"values{h}"])
            attended = head if attended is None else ad.add(attended, head)
        residual = ad.add(xq, attended)
        ffn = ad.matmul(ad.elu(ad.matmul(residual, t[f"{prefix}.ffn_w1"])), t[f"{prefix}.ffn_w2"])
        pre_norm = ad.add(residual, ffn)
        normed = ad.normalize_last(pre_norm, eps=LAYERNORM_EPS)
        out = ad.add(ad.mul(normed, t[f"{prefix}.ln_gain"]), t[f"{prefix}.ln_bias"])
        if not np.all(np.isfinite(out.data)):
            raise NumericsError(f"non-finite output in {label}")
        return out

    index = None if rows is None else np.asarray(rows, dtype=np.intp)
    if len(x.shape) > 2:
        return attend(index, inputs)
    index = np.arange(x.shape[0]) if index is None else index
    return ad.map_rows(
        lambda lo, hi, t: attend(index[lo:hi], t), len(index), LOGIT_BYTES * x.shape[0], inputs
    )
