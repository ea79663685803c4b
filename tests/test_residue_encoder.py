"""Attention layer behavior against straight-line recomputation."""

from __future__ import annotations

import math

import numpy as np
import pytest

from evolmpnn import autodiff as ad
from evolmpnn.residue_encoder import (
    LAYERNORM_EPS,
    NumericsError,
    attention_layer,
)


def layer_params(d, n_heads, d_head, ffn, rng, prefix="res0", identity=False):
    params = {}
    for h in range(n_heads):
        for name, shape in [
            ("wq", (d, d_head)),
            ("wk", (d, d_head)),
            ("wv", (d, d_head)),
            ("wo", (d_head, d)),
        ]:
            value = np.zeros(shape) if identity else rng.normal(size=shape) * 0.3
            params[f"{prefix}.h{h}.{name}"] = ad.Tensor(value, requires_grad=True)
    params[f"{prefix}.ffn_w1"] = ad.Tensor(
        np.zeros((d, ffn)) if identity else rng.normal(size=(d, ffn)) * 0.3,
        requires_grad=True,
    )
    params[f"{prefix}.ffn_w2"] = ad.Tensor(
        np.zeros((ffn, d)) if identity else rng.normal(size=(ffn, d)) * 0.3,
        requires_grad=True,
    )
    params[f"{prefix}.ln_gain"] = ad.Tensor(np.ones(d), requires_grad=True)
    params[f"{prefix}.ln_bias"] = ad.Tensor(np.zeros(d), requires_grad=True)
    return params


def reference_layer(x, params, prefix, n_heads):
    """Plain-numpy recomputation of one layer, kept independent of autodiff."""

    def softmax(z):
        e = np.exp(z - z.max(axis=-1, keepdims=True))
        return e / e.sum(axis=-1, keepdims=True)

    d = x.shape[-1]
    total = np.zeros_like(x)
    for h in range(n_heads):
        wq = params[f"{prefix}.h{h}.wq"].data
        wk = params[f"{prefix}.h{h}.wk"].data
        wv = params[f"{prefix}.h{h}.wv"].data
        wo = params[f"{prefix}.h{h}.wo"].data
        att = softmax((x @ wq) @ np.swapaxes(x @ wk, -1, -2) / math.sqrt(d))
        total = total + att @ (x @ wv @ wo)
    r_hat = x + total
    z = r_hat @ params[f"{prefix}.ffn_w1"].data
    elu = np.where(z > 0, z, np.expm1(z))
    pre = r_hat + elu @ params[f"{prefix}.ffn_w2"].data
    mu = pre.mean(axis=-1, keepdims=True)
    var = ((pre - mu) ** 2).mean(axis=-1, keepdims=True)
    norm = (pre - mu) / np.sqrt(var + LAYERNORM_EPS)
    return norm * params[f"{prefix}.ln_gain"].data + params[f"{prefix}.ln_bias"].data


class TestAttentionLayer:
    def test_matches_straight_line_recomputation(self):
        rng = np.random.default_rng(3)
        params = layer_params(2, 1, 2, 4, rng)
        x = rng.normal(size=(2, 2))
        out = attention_layer(ad.constant(x), params, "res0", 1)
        np.testing.assert_allclose(
            out.data, reference_layer(x, params, "res0", 1), atol=1e-12
        )

    def test_matches_reference_batched_multihead(self):
        rng = np.random.default_rng(4)
        params = layer_params(6, 3, 2, 12, rng)
        x = rng.normal(size=(4, 5, 6))
        out = attention_layer(ad.constant(x), params, "res0", 3)
        np.testing.assert_allclose(
            out.data, reference_layer(x, params, "res0", 3), atol=1e-11
        )

    def test_identity_parameters_reduce_to_layernorm(self):
        rng = np.random.default_rng(5)
        params = layer_params(4, 2, 2, 8, rng, identity=True)
        x = rng.normal(size=(3, 4))
        out = attention_layer(ad.constant(x), params, "res0", 2).data
        mu = x.mean(axis=-1, keepdims=True)
        var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
        np.testing.assert_allclose(out, (x - mu) / np.sqrt(var + LAYERNORM_EPS), atol=1e-12)

    def test_layernorm_moments_before_gain_bias(self):
        rng = np.random.default_rng(6)
        params = layer_params(32, 2, 8, 64, rng)
        x = rng.normal(size=(5, 32))
        out = attention_layer(ad.constant(x), params, "res0", 2).data
        np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-5)
        np.testing.assert_allclose(out.var(axis=-1), 1.0, atol=1e-5)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_reported_with_layer(self):
        rng = np.random.default_rng(7)
        params = layer_params(2, 1, 2, 4, rng)
        params["res0.h0.wq"] = ad.constant(np.full((2, 2), np.inf))
        with pytest.raises(NumericsError, match="residue layer.*head 0"):
            attention_layer(ad.constant(rng.normal(size=(3, 2))), params, "res0", 1)


class TestEncodeResidues:
    """Each protein of a batch passes through the layer independently."""

    def test_identical_proteins_get_identical_rows(self):
        rng = np.random.default_rng(8)
        params = layer_params(4, 2, 2, 8, rng)
        x = rng.normal(size=(3, 5, 4))
        x[1] = x[0]
        out = attention_layer(ad.constant(x), params, "res0", 2).data
        np.testing.assert_array_equal(out[0], out[1])
        assert not np.allclose(out[0], out[2])

    def test_protein_permutation_permutes_rows(self):
        rng = np.random.default_rng(9)
        params = layer_params(4, 2, 2, 8, rng)
        x = rng.normal(size=(4, 3, 4))
        perm = np.array([2, 0, 3, 1])
        out = attention_layer(ad.constant(x), params, "res0", 2).data
        out_perm = attention_layer(ad.constant(x[perm]), params, "res0", 2).data
        np.testing.assert_allclose(out_perm, out[perm], atol=1e-12)
