"""End-to-end forward pass, loss, and gradient verification."""

from __future__ import annotations

import numpy as np
import pytest

from evolmpnn import autodiff as ad
from evolmpnn.data import Family, ProteinRecord, knn_graph
from evolmpnn.evolution import AnchorPolicy, sample_anchor_sets
from evolmpnn.model import (
    ModelConfig,
    Prediction,
    build_forward,
    forward,
    gradient_check,
    init_params,
    mse_loss,
)
from test_evolution import naive_evolmpnn
from test_residue_encoder import reference_layer


def tiny_family(seqs=("ACD", "ACE", "GCD", "AAD"), targets=(0.0, 1.0, -1.0, 0.5)):
    return Family(
        [
            ProteinRecord(f"p{i}", s, (float(t),), is_wild_type=i == 0)
            for i, (s, t) in enumerate(zip(seqs, targets))
        ]
    )


def tiny_config(variant="evolmpnn", **kw):
    base = dict(
        variant=variant,
        d=4,
        heads=2,
        d_head=2,
        ffn_dim=8,
        l_r=1,
        l_p=1,
        theta=1,
        anchor_seed=0,
        dtype="float64",
    )
    base.update(kw)
    return ModelConfig(**base)


def leaf_dict(params):
    return {k: ad.constant(v) for k, v in params.tensors.items()}


class TestForwardShapes:
    @pytest.mark.parametrize("variant", ["evolmpnn", "evolgnn", "evolformer"])
    def test_shape_contract(self, variant):
        fam = tiny_family()
        config = tiny_config(variant)
        params = init_params(config, fam.n, seed=1)
        graph = knn_graph(fam, k=2) if variant == "evolgnn" else None
        pred = forward(fam, params, config, graph=graph)
        assert pred.y_hat.shape == (fam.m, 1)
        assert pred.z.shape == (fam.m, 2 * config.d)
        assert pred.z_p.shape == (fam.m, config.d)
        assert pred.z_r.shape == (fam.m, config.d)

    def test_zero_head_gives_zero_predictions(self):
        fam = tiny_family()
        config = tiny_config()
        params = init_params(config, fam.n, seed=2)
        params.tensors["w_final"][:] = 0.0
        pred = forward(fam, params, config)
        np.testing.assert_array_equal(pred.y_hat, 0.0)

    def test_duplicate_sequences_predict_identically(self):
        fam = tiny_family(seqs=("ACD", "ACD", "GCD", "ACD"))
        config = tiny_config()
        params = init_params(config, fam.n, seed=3)
        pred = forward(fam, params, config)
        np.testing.assert_allclose(pred.y_hat[0], pred.y_hat[1], atol=1e-12)
        np.testing.assert_allclose(pred.y_hat[0], pred.y_hat[3], atol=1e-12)
        assert abs(pred.y_hat[0, 0] - pred.y_hat[2, 0]) > 1e-9

    def test_at_least_one_residue_layer(self):
        with pytest.raises(ValueError, match="l_r must be positive"):
            tiny_config(l_r=0)

    def test_evolgnn_requires_graph(self):
        fam = tiny_family()
        config = tiny_config("evolgnn")
        params = init_params(config, fam.n, seed=0)
        with pytest.raises(ValueError, match="requires a graph"):
            forward(fam, params, config)


class TestAgainstStraightLineOracle:
    def oracle(self, fam, params, config):
        """Plain numpy recomputation of the whole pipeline (anchor variant)."""
        t = params.tensors
        enc = fam.encoded
        r = t["residue_embed"][enc] * t["phi_pos"]
        for layer in range(config.l_r):
            r = reference_layer(r, leaf_dict(params), f"res{layer}", config.heads)
        r_bar = r.mean(axis=1)
        h = t["protein_embed"][enc].mean(axis=1)
        sets = sample_anchor_sets(
            fam.ids, config.anchor_policy(), 0, draw=0, fallback_id=fam.wild_type.id
        )
        row_of = {rid: i for i, rid in enumerate(fam.ids)}
        h = naive_evolmpnn(h, r, sets, row_of, t["evo0.combine"])
        z = np.concatenate([h, r_bar], axis=1)
        return z @ t["w_final"], z

    def test_forward_matches_oracle(self):
        fam = tiny_family()
        config = tiny_config()
        params = init_params(config, fam.n, seed=7)
        pred = forward(fam, params, config)
        y_expected, z_expected = self.oracle(fam, params, config)
        np.testing.assert_allclose(pred.y_hat, y_expected, atol=1e-11)
        np.testing.assert_allclose(pred.z, z_expected, atol=1e-11)

    def test_two_residue_layers_match_oracle(self):
        fam = tiny_family()
        config = tiny_config(l_r=2)
        params = init_params(config, fam.n, seed=7)
        pred = forward(fam, params, config)
        y_expected, z_expected = self.oracle(fam, params, config)
        np.testing.assert_allclose(pred.y_hat, y_expected, atol=1e-11)
        np.testing.assert_allclose(pred.z, z_expected, atol=1e-11)

    def test_frozen_regression_fixture(self):
        # Values computed once from the independent oracle above (seed 7).
        fam = tiny_family()
        config = tiny_config()
        params = init_params(config, fam.n, seed=7)
        pred = forward(fam, params, config)
        np.testing.assert_allclose(pred.y_hat[:, 0], FROZEN_Y_HAT, atol=1e-9)


class TestSubsetsAndEquivariance:
    def test_row_subset_matches_full_forward(self):
        fam = tiny_family()
        config = tiny_config()
        params = init_params(config, fam.n, seed=4)
        full = forward(fam, params, config)
        sub = forward(fam, params, config, rows=[2, 0])
        np.testing.assert_allclose(sub.y_hat[0], full.y_hat[2], atol=1e-12)
        np.testing.assert_allclose(sub.y_hat[1], full.y_hat[0], atol=1e-12)

    def test_anchors_restricted_to_train_ids(self):
        fam = tiny_family()
        config = tiny_config()
        params = init_params(config, fam.n, seed=5)
        a = forward(fam, params, config, train_ids=["p0", "p1"])
        b = forward(fam, params, config, train_ids=["p0", "p1"])
        np.testing.assert_array_equal(a.y_hat, b.y_hat)
        c = forward(fam, params, config, train_ids=["p0", "p2"])
        assert not np.allclose(a.y_hat, c.y_hat)

    def test_permutation_equivariance(self):
        fam = tiny_family()
        config = tiny_config()
        params = init_params(config, fam.n, seed=6)
        perm = [2, 0, 3, 1]
        permuted = Family([fam.records[i] for i in perm])
        out = forward(fam, params, config)
        out_perm = forward(permuted, params, config)
        np.testing.assert_allclose(out_perm.y_hat, out.y_hat[perm], atol=1e-10)

    def test_fixed_draw_forward_is_bitwise_stable(self):
        fam = tiny_family()
        config = tiny_config(resample_anchors=False)
        params = init_params(config, fam.n, seed=8)
        a = forward(fam, params, config, anchor_draw=0)
        b = forward(fam, params, config, anchor_draw=0)
        assert np.array_equal(a.y_hat, b.y_hat)

    @pytest.mark.parametrize("variant", ["evolmpnn", "evolgnn", "evolformer"])
    def test_float32_stays_float32(self, variant):
        fam = tiny_family()
        config = tiny_config(variant, dtype="float32")
        params = init_params(config, fam.n, seed=8)
        graph = knn_graph(fam, k=2) if variant == "evolgnn" else None
        pred = forward(fam, params, config, graph=graph)
        assert pred.y_hat.dtype == np.float32
        assert pred.z.dtype == np.float32


class TestSidecarModes:
    def test_sidecar_features_flow_through(self):
        fam = tiny_family()
        config = tiny_config(residue_mode="sidecar", protein_mode="sidecar")
        params = init_params(config, fam.n, seed=9)
        rng = np.random.default_rng(10)
        prot = rng.normal(size=(fam.m, config.d))
        res = rng.normal(size=(fam.m, fam.n, config.d))
        pred = forward(fam, params, config, protein_feats=prot, residue_feats=res)
        assert pred.y_hat.shape == (fam.m, 1)
        with pytest.raises(ValueError, match="sidecar requires"):
            forward(fam, params, config, protein_feats=prot)

    def test_sidecar_params_have_no_embeddings(self):
        config = tiny_config(residue_mode="sidecar", protein_mode="sidecar")
        params = init_params(config, 3, seed=0)
        assert "residue_embed" not in params.tensors
        assert "protein_embed" not in params.tensors


class TestMseLoss:
    def test_perfect_fit(self):
        y = np.array([[1.0], [2.0]])
        assert float(mse_loss(ad.constant(y), y).data) == 0.0

    def test_unit_residual(self):
        y = np.zeros((3, 2))
        assert float(mse_loss(ad.constant(y + 1.0), y).data) == 1.0

    def test_hand_value(self):
        pred = np.array([[0.0], [2.0]])
        target = np.array([[1.0], [0.0]])
        assert float(mse_loss(ad.constant(pred), target).data) == 2.5

    def test_mask_selects_rows(self):
        pred = np.array([[0.0], [2.0], [5.0]])
        target = np.array([[1.0], [0.0], [0.0]])
        out = mse_loss(ad.constant(pred), target, mask=[0, 1])
        assert float(out.data) == 2.5

    def test_mask_order_irrelevant(self):
        rng = np.random.default_rng(11)
        pred, target = rng.normal(size=(6, 1)), rng.normal(size=(6, 1))
        a = mse_loss(ad.constant(pred), target, mask=[0, 3, 5])
        b = mse_loss(ad.constant(pred), target, mask=[5, 0, 3])
        np.testing.assert_allclose(a.data, b.data, atol=1e-15)

    def test_empty_mask_rejected(self):
        with pytest.raises(ValueError, match="mask is empty"):
            mse_loss(ad.constant(np.ones((2, 1))), np.ones((2, 1)), mask=[])


class TestGradientCheck:
    def test_linear_head_is_exact_to_roundoff(self):
        fam = tiny_family()
        report = gradient_check(fam, tiny_config(), seed=0, only=["w_final"])
        assert report.max_relative_error <= 1e-8

    @pytest.mark.parametrize("variant", ["evolmpnn", "evolgnn", "evolformer"])
    def test_small_model_gradients(self, variant):
        fam = tiny_family()
        graph = knn_graph(fam, k=2) if variant == "evolgnn" else None
        report = gradient_check(
            fam, tiny_config(variant), seed=1, graph=graph, coords_per_tensor=4
        )
        assert report.max_relative_error <= 1e-4, report.per_tensor

    def test_eps_sweep_is_u_shaped(self):
        fam = tiny_family()
        config = tiny_config()
        errors = [
            gradient_check(
                fam, config, seed=2, eps=eps, coords_per_tensor=4, only=["res0.ffn_w1"]
            ).max_relative_error
            for eps in (1e-2, 1e-5, 1e-8)
        ]
        # Truncation dominates at large eps, roundoff at small eps.
        assert errors[1] <= errors[0]
        assert errors[1] <= errors[2]


# Computed once by running the straight-line oracle above (seed 7).
FROZEN_Y_HAT = np.array([0.18655515, 0.61563723, 0.41692227, -0.36243702])
