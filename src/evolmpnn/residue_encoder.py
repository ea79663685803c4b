"""Multi-head self-attention stack that updates residue embeddings.

Each layer computes per-head softmax attention scaled by sqrt(d) (the full
embedding width, not the head width), adds the attended values back through
a residual, applies an ELU feed-forward block, and finishes with one
LayerNorm over the whole layer. The same layer implementation serves the
protein-level attention variant, which passes an additive logit bias.
"""

from __future__ import annotations

import math

import numpy as np

from . import autodiff as ad

LAYERNORM_EPS = 1e-8


class NumericsError(FloatingPointError):
    """Raised when a forward pass produces non-finite activations."""


def attention_layer(
    x: ad.Tensor,
    params: dict[str, ad.Tensor],
    prefix: str,
    n_heads: int,
    logit_bias: ad.Tensor | None = None,
    label: str = "residue layer",
) -> ad.Tensor:
    """One attention + feed-forward + LayerNorm block over the last two axes.

    ``x`` is (..., N, d); any leading batch axes are carried through. The
    optional ``logit_bias`` is added to every head's attention logits.
    """
    d = x.shape[-1]
    scale = 1.0 / math.sqrt(d)
    attended = None
    for h in range(n_heads):
        q = ad.matmul(x, params[f"{prefix}.h{h}.wq"])
        k = ad.matmul(x, params[f"{prefix}.h{h}.wk"])
        logits = ad.mul(ad.matmul(q, ad.transpose_last(k)), scale)
        if logit_bias is not None:
            logits = ad.add(logits, logit_bias)
        if not np.all(np.isfinite(logits.data)):
            raise NumericsError(f"non-finite attention logits in {label}, head {h}")
        att = ad.softmax_last(logits)
        v = ad.matmul(ad.matmul(x, params[f"{prefix}.h{h}.wv"]), params[f"{prefix}.h{h}.wo"])
        head = ad.matmul(att, v)
        attended = head if attended is None else ad.add(attended, head)
    residual = ad.add(x, attended)
    ffn = ad.matmul(ad.elu(ad.matmul(residual, params[f"{prefix}.ffn_w1"])), params[f"{prefix}.ffn_w2"])
    pre_norm = ad.add(residual, ffn)
    normed = ad.normalize_last(pre_norm, eps=LAYERNORM_EPS)
    out = ad.add(ad.mul(normed, params[f"{prefix}.ln_gain"]), params[f"{prefix}.ln_bias"])
    if not np.all(np.isfinite(out.data)):
        raise NumericsError(f"non-finite output in {label}")
    return out
