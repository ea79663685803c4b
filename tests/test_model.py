"""End-to-end forward pass, loss, and gradient verification."""

from __future__ import annotations

import numpy as np
import pytest

from evolmpnn import autodiff as ad
from evolmpnn import data
from evolmpnn import model as model_module
from evolmpnn import training
from evolmpnn.data import (
    Family,
    LandscapeSpec,
    ProteinRecord,
    SplitAssignment,
    knn_graph,
    split_lambda_vs_rest,
    synth_family,
)
from evolmpnn.evolution import sample_anchor_sets
from evolmpnn.model import (
    History,
    ModelConfig,
    Prediction,
    build_forward,
    forward,
    init_params,
    mse_loss,
)
from evolmpnn.training import TrainConfig, train
from gradcheck import gradient_check
from test_evaluation import paper_scale_family, traced_peak
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

    def test_evolgnn_graph_must_cover_family(self):
        fam = tiny_family()
        other = tiny_family(seqs=("ACD", "ACE", "GCD", "AAD", "AAE"), targets=(0.0,) * 5)
        config = tiny_config("evolgnn")
        params = init_params(config, fam.n, seed=0)
        with pytest.raises(ValueError, match="graph has 5 nodes but the family has 4"):
            forward(fam, params, config, graph=knn_graph(other, k=2))


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
            fam.ids, 0, 0, fam.wild_type.id, k=config.anchor_k, seed=config.anchor_seed
        )
        h = naive_evolmpnn(h, r, sets, t["evo0.combine"])
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
        a = forward(fam, params, config)
        b = forward(fam, params, config)
        assert np.array_equal(a.y_hat, b.y_hat)

    def test_frozen_anchors_ignore_layer_and_draw(self, monkeypatch):
        # With resample_anchors off, build_forward hands every layer and
        # every anchor_draw the draw-0, layer-0 sets.
        spec = LandscapeSpec(n=6, m=64, max_mutations=3, additive=np.zeros((6, 20)), seed=3)
        fam = synth_family(spec)
        calls = []
        sample = model_module.sample_anchor_sets

        def spying(*args, **kwargs):
            sets = sample(*args, **kwargs)
            calls.append(tuple((tuple(s.member_ids), s.fallback_used) for s in sets))
            return sets

        monkeypatch.setattr(model_module, "sample_anchor_sets", spying)
        for resample in (True, False):
            config = tiny_config(resample_anchors=resample, l_p=2)
            params = init_params(config, fam.n, seed=8)
            calls.clear()
            draw0, draw5 = (
                build_forward(fam, params, config, grad=False, anchor_draw=d) for d in (0, 5)
            )
            assert len(calls) == 4  # two layers, two draws
            if resample:
                assert len(set(calls)) == 4
            else:
                assert len(set(calls)) == 1
                assert draw5.y_hat.data.tobytes() == draw0.y_hat.data.tobytes()
                assert draw5.z.data.tobytes() == draw0.z.data.tobytes()

    def test_anchor_seed_is_non_negative_and_wraps_modulo_2_64(self):
        with pytest.raises(ValueError, match="anchor_seed must be >= 0, got -3"):
            tiny_config(anchor_seed=-3)
        fam = tiny_family()
        params = init_params(tiny_config(), fam.n, seed=8)
        big = forward(fam, params, tiny_config(anchor_seed=2**64 + 3))
        wrapped = forward(fam, params, tiny_config(anchor_seed=3))
        zero = forward(fam, params, tiny_config(anchor_seed=0))
        assert big.y_hat.tobytes() == wrapped.y_hat.tobytes()
        assert big.y_hat.tobytes() != zero.y_hat.tobytes()

    @pytest.mark.parametrize("variant", ["evolmpnn", "evolgnn", "evolformer"])
    def test_float32_stays_float32(self, variant):
        fam = tiny_family()
        config = tiny_config(variant, dtype="float32")
        params = init_params(config, fam.n, seed=8)
        graph = knn_graph(fam, k=2) if variant == "evolgnn" else None
        pred = forward(fam, params, config, graph=graph)
        assert pred.y_hat.dtype == np.float32
        assert pred.z.dtype == np.float32


class TestRequestedRows:
    def setup_case(self, variant):
        fam = tiny_family()
        config = tiny_config(variant)
        params = init_params(config, fam.n, seed=1)
        graph = knn_graph(fam, k=2) if variant == "evolgnn" else None
        return fam, config, params, graph

    @pytest.mark.parametrize("variant", ["evolmpnn", "evolgnn", "evolformer"])
    @pytest.mark.parametrize(
        "rows,bad", [([0, -1], "-1"), ([2.7], "2.7"), ([1, 4, 5], "4"), ([True], "True")]
    )
    def test_rows_outside_the_family_rejected(self, variant, rows, bad):
        fam, config, params, graph = self.setup_case(variant)
        with pytest.raises(ValueError, match=rf"row {bad} is not an integer in \[0, 4\)"):
            forward(fam, params, config, rows=rows, graph=graph)

    @pytest.mark.parametrize("variant", ["evolmpnn", "evolgnn", "evolformer"])
    def test_no_rows_give_empty_outputs(self, variant):
        fam, config, params, graph = self.setup_case(variant)
        pred = forward(fam, params, config, rows=[], graph=graph)
        assert pred.y_hat.shape == (0, 1) and pred.z.shape == (0, 2 * config.d)

    @pytest.mark.parametrize("variant", ["evolmpnn", "evolgnn", "evolformer"])
    def test_numpy_integer_rows_accepted(self, variant):
        fam, config, params, graph = self.setup_case(variant)
        pred = forward(fam, params, config, rows=np.array([3, 1]), graph=graph)
        full = forward(fam, params, config, graph=graph)
        fg = build_forward(fam, params, config, rows=np.array([3, 1]), graph=graph, grad=False)
        assert fg.rows == [3, 1]
        np.testing.assert_allclose(pred.y_hat, full.y_hat[[3, 1]], atol=1e-12)


class TestTrainIds:
    """The anchor pool must be unique family ids, in any order."""

    def setup_case(self):
        fam = tiny_family()
        config = tiny_config()
        return fam, config, init_params(config, fam.n, seed=1)

    @pytest.mark.parametrize(
        "train_ids,message",
        [
            (["p1", "p2", "p1", "p3"], "train_ids repeats the id 'p1'"),
            (["p1", "p1", "zz"], "train_ids repeats the id 'p1'"),
            (["p1", "zz", "p1"], "train_ids holds 'zz', which is not a family id"),
        ],
    )
    def test_first_bad_id_named(self, train_ids, message):
        fam, config, params = self.setup_case()
        with pytest.raises(ValueError, match=message):
            forward(fam, params, config, train_ids=train_ids)

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_order_of_pool_does_not_change_outputs(self, dtype):
        # Anchor means add their members in row order, whatever the pool order.
        rng = np.random.default_rng(15)
        spec = LandscapeSpec(
            n=6, m=200, max_mutations=3, additive=rng.normal(size=(6, 20)), epistasis=[], seed=15
        )
        fam = synth_family(spec)
        config = tiny_config(dtype=dtype, d=8, l_p=2)
        params = init_params(config, fam.n, seed=16)
        pool = [fam.ids[i] for i in rng.permutation(fam.m)[:150]]
        a = forward(fam, params, config, train_ids=pool)
        b = forward(fam, params, config, train_ids=sorted(pool, key=fam.index_of))
        assert a.y_hat.tobytes() == b.y_hat.tobytes()
        assert a.z.tobytes() == b.z.tobytes()


class TestEvolformerQueryRows:
    """The last evolformer layer attends only from the requested rows."""

    ROWS = [9, 2, 30, 2, 17]

    def setup_case(self, dtype, l_p):
        rng = np.random.default_rng(13)
        spec = LandscapeSpec(
            n=6, m=32, max_mutations=3, additive=rng.normal(size=(6, 20)), epistasis=[], seed=13
        )
        fam = synth_family(spec)
        config = tiny_config("evolformer", dtype=dtype, l_r=1, l_p=l_p)
        return fam, config, init_params(config, fam.n, seed=14)

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("l_p", [1, 2])
    def test_requested_rows_are_bitwise_rows_of_the_full_forward(self, dtype, l_p):
        fam, config, params = self.setup_case(dtype, l_p)
        full = build_forward(fam, params, config)
        subset = build_forward(fam, params, config, rows=self.ROWS)
        for name in ("y_hat", "z"):
            got, expected = getattr(subset, name).data, getattr(full, name).data
            assert got.dtype == expected.dtype
            assert got.tobytes() == expected[self.ROWS].tobytes(), name

    @pytest.mark.parametrize("l_p", [1, 2])
    def test_gradients_match_the_full_forward(self, l_p):
        fam, config, params = self.setup_case("float64", l_p)
        targets = fam.targets[self.ROWS]
        subset = build_forward(fam, params, config, rows=self.ROWS)
        mse_loss(subset.y_hat, targets).backward()
        full = build_forward(fam, params, config)
        mse_loss(ad.take_rows(full.y_hat, self.ROWS), targets).backward()
        expected = full.grads()
        assert subset.grads().keys() == expected.keys()
        for name, grad in subset.grads().items():
            np.testing.assert_allclose(grad, expected[name], rtol=1e-12, err_msg=name)


class TestEvolformerMemory:
    @pytest.mark.usefixtures("fixed_workers")
    def test_inference_forms_no_m_by_m_array(self):
        # One float64 M x M array alone would take 537 MB here.
        fam = paper_scale_family(8192, n=8)
        config = ModelConfig(variant="evolformer", d=8, heads=1, l_r=1, l_p=1)
        params = init_params(config, fam.n, seed=0)
        pred, peak = traced_peak(lambda: forward(fam, params, config))
        assert peak < 64e6
        assert pred.y_hat.shape == (fam.m, 1) and np.all(np.isfinite(pred.y_hat))

    def test_training_step_last_layer_attends_from_the_batch(self):
        # Before the last layer attended only from the batch, this step
        # peaked at about 440 MB; it peaked at 17 MB traced, and at 11 MB
        # since it backpropagates only a sample of about half the rows.
        fam = paper_scale_family(2048, n=8)
        config = ModelConfig(variant="evolformer", d=8, heads=1, l_r=1, l_p=1)
        params = init_params(config, fam.n, seed=0)
        batch = list(range(0, fam.m, 64))

        def step():
            fg = build_forward(fam, params, config, rows=batch)
            mse_loss(fg.y_hat, fam.targets[batch]).backward()
            return fg.grads()

        grads, peak = traced_peak(step)
        assert peak < 128e6
        assert len(batch) == 32 and all(np.all(np.isfinite(g)) for g in grads.values())

    @pytest.mark.usefixtures("fixed_workers")
    @pytest.mark.parametrize(
        "m,d,heads,bound", [(2048, 8, 1, 290e6), (512, 128, 4, 320e6)], ids=["d8", "default-d"]
    )
    def test_training_step_backpropagates_query_blocks_one_at_a_time(self, m, d, heads, bound):
        # The first of two layers attends from all M rows, in blocks of
        # 65,536 // M query rows. After the forward each block holds only
        # the arrays its backward reads, each head's M-wide softmax among
        # them, and backward frees each block's in turn. With one graph over
        # all M query rows these steps peaked at 366 MB and 342 MB traced;
        # with the blocks, 234 MB and 295 MB; with every op keeping only
        # what its backward reads, 53 MB and 223 MB; with about half the
        # rows backpropagated at M = 2,048 (all of them at M = 512, where
        # q = 1), 47 MB and 223 MB.
        spec = LandscapeSpec(n=8, m=m, max_mutations=4, additive=np.zeros((8, 20)), seed=0)
        fam = synth_family(spec)
        config = ModelConfig(variant="evolformer", d=d, heads=heads, l_r=1, l_p=2)
        params = init_params(config, fam.n, seed=0)
        batch = list(range(0, fam.m, 64))

        def step():
            fg = build_forward(fam, params, config, rows=batch)
            mse_loss(fg.y_hat, fam.targets[batch]).backward()
            return fg.grads()

        grads, peak = traced_peak(step)
        assert peak < bound
        assert "evo0.h0.wq" in grads and all(np.all(np.isfinite(g)) for g in grads.values())


def default_width_step(pool: int):
    """Traced peak of one default-width evolmpnn training step (M = 8,192,
    N = 32, 32 batch rows) over a pool of ``pool`` proteins, whose
    gradients must be finite."""
    fam = paper_scale_family(8192)
    config = ModelConfig(variant="evolmpnn")
    assert (config.d, config.heads, config.l_r, config.l_p) == (128, 4, 2, 2)
    params = init_params(config, fam.n, seed=0)
    batch = list(range(32))

    def step():
        fg = build_forward(
            fam, params, config, rows=batch, train_ids=fam.ids[:pool], anchor_draw=1
        )
        mse_loss(fg.y_hat, fam.targets[batch]).backward()
        return fg.grads()

    grads, peak = traced_peak(step)
    assert all(np.all(np.isfinite(g)) for g in grads.values())
    return peak


class TestEvolmpnnMemory:
    @pytest.mark.usefixtures("fixed_workers")
    def test_default_width_training_step(self):
        # The step keeps only the arrays backward reads, and only for the
        # batch and about one encode block (64 proteins) of the rest of the
        # pool: about 134 MB traced. Backpropagating the whole pool, it took
        # 266 MB, and while every op's output stayed alive until backward,
        # 521 MB.
        assert default_width_step(256) < 350e6

    @pytest.mark.usefixtures("fixed_workers")
    def test_training_step_memory_barely_grows_with_the_pool(self):
        # Rows outside the batch and the drawn block are encoded without a
        # graph. Backpropagating the whole pool, the peak grew from 266 MB
        # to 991 MB over the same pools.
        small, large = default_width_step(256), default_width_step(1024)
        assert large < 1.5 * small and large < 250e6, (small, large)


class TestSampledAnchorGradients:
    @pytest.mark.parametrize("l_p", [1, 2])
    @pytest.mark.parametrize("variant", ["evolmpnn", "evolgnn", "evolformer"])
    def test_gradient_over_draws_averages_to_the_exact_one(self, monkeypatch, variant, l_p):
        rng = np.random.default_rng(21)
        spec = LandscapeSpec(
            n=6, m=48, max_mutations=3, additive=rng.normal(size=(6, 20)), epistasis=[], seed=21
        )
        fam = synth_family(spec)
        # Frozen anchor sets, so only the gradient-row draw varies with the step.
        config = tiny_config(variant, l_p=l_p, heads=1, d_head=4, resample_anchors=False)
        params = init_params(config, fam.n, seed=22)
        graph = knn_graph(fam, k=3) if variant == "evolgnn" else None
        batch = list(range(0, fam.m, 6))

        def step(draw):
            fg = build_forward(fam, params, config, rows=batch, anchor_draw=draw, graph=graph)
            loss = mse_loss(fg.y_hat, fam.targets[batch])
            loss.backward()
            grads = fg.grads()
            return loss.data.tobytes(), np.concatenate([grads[k].ravel() for k in sorted(grads)])

        # One encode block holds the 40 rows outside the batch: q = 1.
        exact_loss, exact = step(1)
        # Blocks of 2 proteins: b = max(8 batch rows, 2), so q = 8 / 40.
        monkeypatch.setattr(data, "_BLOCK_BYTES", 2 * 64 * fam.n**2)
        losses, grads = zip(*(step(draw) for draw in range(1, 401)))
        assert set(losses) == {exact_loss}
        errors = np.linalg.norm(np.array(grads) - exact, axis=1) / np.linalg.norm(exact)
        mean_error = np.linalg.norm(np.mean(grads, axis=0) - exact) / np.linalg.norm(exact)
        assert np.median(errors) > 0
        assert mean_error < 0.25 * np.median(errors), (mean_error, np.median(errors))


def history_case(dtype="float64", l_p=1, variant="evolmpnn"):
    """A 48-protein family, its 40-protein anchor pool, a batch of 8 pool
    rows, the 8 rows outside the pool, a config and parameters."""
    rng = np.random.default_rng(31)
    spec = LandscapeSpec(
        n=6, m=48, max_mutations=3, additive=rng.normal(size=(6, 20)), epistasis=[], seed=31
    )
    fam = synth_family(spec)
    pool_ids = [rid for i, rid in enumerate(fam.ids) if i % 6]
    config = tiny_config(variant, l_p=l_p, heads=1, d_head=4, dtype=dtype)
    params = init_params(config, fam.n, seed=32)
    batch = [i for i in range(fam.m) if i % 6][::5]
    outside = list(range(0, fam.m, 6))
    return fam, pool_ids, batch, outside, config, params


class TestHistory:
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("l_p", [1, 2])
    def test_step_reading_current_encodings_matches_a_step_without_it(
        self, monkeypatch, dtype, l_p
    ):
        # Blocks of 2 proteins: q = 8 / 32 for evolmpnn's pool and 8 / 40
        # for the whole family, so most other rows carry no gradients.
        monkeypatch.setattr(data, "_BLOCK_BYTES", 2 * 64 * 6**2)
        for variant in model_module.VARIANTS:
            fam, pool_ids, batch, outside, config, params = history_case(dtype, l_p, variant)
            kw = dict(train_ids=pool_ids, graph=knn_graph(fam, k=3))
            history = History.empty(fam.m, config)
            # Validation at the same parameters writes every row it encodes.
            build_forward(fam, params, config, rows=outside, grad=False, history=history, **kw)
            assert history.held.all()

            def step(**more):
                fg = build_forward(fam, params, config, rows=batch, anchor_draw=3, **kw, **more)
                loss = mse_loss(fg.y_hat, fam.targets[batch])
                loss.backward()
                return fg, loss.data.tobytes(), {k: g.tobytes() for k, g in fg.grads().items()}

            plain, plain_loss, plain_grads = step()
            read, read_loss, read_grads = step(history=history)
            assert plain.cached_rows == 0 and read.cached_rows > 16, variant
            assert read.encoded_rows + read.cached_rows == plain.encoded_rows
            assert read.carried_rows == plain.carried_rows < plain.encoded_rows - 16
            assert read_loss == plain_loss, variant
            assert read_grads == plain_grads, variant

    def test_validation_and_forward_never_read_it(self):
        fam, pool_ids, batch, outside, config, params = history_case()
        kw = dict(rows=outside, train_ids=pool_ids)
        history = History.empty(fam.m, config)
        history.values[:] = np.nan
        history.held[:] = True
        expected = build_forward(fam, params, config, grad=False, **kw)
        got = build_forward(fam, params, config, grad=False, history=history, **kw)
        pred = forward(fam, params, config, **kw)
        assert got.cached_rows == 0
        for z, y_hat in ((got.z.data, got.y_hat.data), (pred.z, pred.y_hat)):
            assert z.tobytes() == expected.z.data.tobytes()
            assert y_hat.tobytes() == expected.y_hat.data.tobytes()
        # What validation encodes, it writes.
        assert np.isfinite(history.values).all()

    @pytest.mark.parametrize("variant", ["evolmpnn", "evolgnn", "evolformer"])
    def test_a_history_of_another_shape_is_rejected(self, variant):
        fam, pool_ids, batch, outside, config, params = history_case(variant=variant)
        kw = dict(rows=batch, train_ids=pool_ids, graph=knn_graph(fam, k=3))
        other = ModelConfig(**{**config.to_json(), "dtype": "float32"})
        for history in (
            History.empty(len(pool_ids), config),
            History.empty(fam.m - 1, config),
            History.empty(fam.m, other),
        ):
            with pytest.raises(ValueError, match="history holds"):
                build_forward(fam, params, config, history=history, **kw)
        build_forward(fam, params, config, history=History.empty(fam.m, config), **kw)

    def test_rows_encoded_per_step_do_not_grow_with_the_pool(self, monkeypatch):
        # M = 1,056, N = 32: encode blocks of 64 proteins, 32-row batches.
        fam = paper_scale_family(1056)
        config = ModelConfig(variant="evolmpnn", d=8, heads=1, l_r=1, l_p=1, dtype="float32")
        block = data._block_rows(64 * fam.n**2)
        assert block == 64
        encoded = []
        encode = model_module._encode_rows

        def counting(family, active, leaves, config):
            encoded.append(len(active))
            return encode(family, active, leaves, config)

        monkeypatch.setattr(model_module, "_encode_rows", counting)

        def rows_per_step(pool):
            tags = {rid: "train" if i < pool else "test" for i, rid in enumerate(fam.ids)}
            for rid in fam.ids[pool : pool + 16]:
                tags[rid] = "valid"
            steps, counted = [], training.build_forward

            def per_step(*args, **kwargs):
                before = sum(encoded)
                fg = counted(*args, **kwargs)
                if kwargs.get("grad", True):
                    steps.append(sum(encoded) - before)
                    assert steps[-1] == fg.encoded_rows
                return fg

            monkeypatch.setattr(training, "build_forward", per_step)
            _, report = train(
                fam, SplitAssignment(tags), config, TrainConfig(epochs=1, batch_size=32)
            )
            assert report.epochs[0].encoded_rows == np.mean(steps)
            assert steps[0] >= pool  # the first step encodes the whole pool
            return np.array(steps[1:])

        small, large = rows_per_step(256), rows_per_step(1024)
        # The batch plus about one block, drawn; without the history each
        # step encoded the whole pool.
        assert abs(large.mean() - small.mean()) <= block, (small, large)
        assert large.max() < 32 + 3 * block, large


class TestSidecarModes:
    def test_sidecar_features_flow_through(self):
        fam = tiny_family()
        config = tiny_config(residue_mode="sidecar", protein_mode="sidecar")
        params = init_params(config, fam.n, seed=9)
        rng = np.random.default_rng(10)
        prot = rng.normal(size=(fam.m, config.d))
        res = rng.normal(size=(fam.m, fam.n, config.d))
        pred = forward(Family(fam.records, prot, res), params, config)
        assert pred.y_hat.shape == (fam.m, 1)
        with pytest.raises(ValueError, match="sidecar requires"):
            forward(Family(fam.records, prot), params, config)

    @pytest.mark.parametrize(
        "protein_width,residue_width,field",
        [(5, 4, "protein_feats"), (4, 5, "residue_feats")],
    )
    def test_sidecar_features_of_the_wrong_width_are_named(
        self, protein_width, residue_width, field
    ):
        fam = tiny_family()
        config = tiny_config(residue_mode="sidecar", protein_mode="sidecar")
        params = init_params(config, fam.n, seed=9)
        protein, residue = np.ones((4, protein_width)), np.ones((4, 3, residue_width))
        with pytest.raises(ValueError, match=f"family.{field} are 5 wide, expected d = 4"):
            forward(Family(fam.records, protein, residue), params, config)

    @pytest.mark.parametrize(
        "modes,protein,n_positions,message",
        [
            ({"residue_mode": "sidecar"}, None, 3, "sidecar requires residue features"),
            ({"protein_mode": "sidecar"}, None, 3, "sidecar requires protein features"),
            ({"protein_mode": "sidecar"}, np.ones((4, 5)), 3, "protein_feats are 5 wide"),
            ({}, None, 4, r"table \(4, 4\) does not match residues \(3, 4\)"),
        ],
        ids=["residue-missing", "protein-missing", "protein-width", "positions"],
    )
    def test_inputs_are_checked_before_any_block(
        self, monkeypatch, modes, protein, n_positions, message
    ):
        fam = tiny_family()
        config = tiny_config(**modes)
        params = init_params(config, n_positions, seed=9)
        calls = []
        encode = model_module._encode_rows

        def counting(*args):
            calls.append(len(args[1]))
            return encode(*args)

        monkeypatch.setattr(model_module, "_encode_rows", counting)
        with pytest.raises(ValueError, match=message):
            build_forward(Family(fam.records, protein), params, config)
        assert calls == []

    def test_sidecar_params_have_no_embeddings(self):
        config = tiny_config(residue_mode="sidecar", protein_mode="sidecar")
        params = init_params(config, 3, seed=0)
        assert "residue_embed" not in params.tensors
        assert "protein_embed" not in params.tensors


class TestGradientFreeInference:
    @pytest.mark.parametrize("variant", ["evolmpnn", "evolgnn", "evolformer"])
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("l_r,l_p", [(1, 1), (2, 2)])
    def test_blocked_inference_is_bitwise_equal_to_training_graph(
        self, monkeypatch, variant, dtype, l_r, l_p
    ):
        rng = np.random.default_rng(11)
        spec = LandscapeSpec(
            n=6, m=32, max_mutations=3, additive=rng.normal(size=(6, 20)), epistasis=[], seed=11
        )
        fam = synth_family(spec)
        split = split_lambda_vs_rest(fam, lam=2, valid_frac=0.2, seed=0)
        train_ids = [fam.ids[i] for i in split.rows(fam, "train")]
        rows = split.rows(fam, "test")
        config = tiny_config(variant, dtype=dtype, l_r=l_r, l_p=l_p, knn_k=3)
        params = init_params(config, fam.n, seed=12)
        graph = knn_graph(fam, k=3) if variant == "evolgnn" else None
        kw = dict(rows=rows, train_ids=train_ids, graph=graph)

        # Blocks of 5 proteins, which divides no active row count here, and
        # of 5 evolformer query rows, which divides neither M nor the rows.
        monkeypatch.setattr(data, "_BLOCK_BYTES", 5 * 64 * fam.n**2)
        assert data._block_rows(64 * fam.m) == 5 and fam.m % 5 and len(rows) % 5
        encoded_rows = []
        attention = model_module.attention_layer

        def counting(x, *args, **kwargs):
            encoded_rows.append(x.shape[0])
            return attention(x, *args, **kwargs)

        query_rows = []
        softmax = ad.softmax_last

        def spying(logits):
            if logits.shape[-1] == fam.m:
                query_rows.append(logits.shape[0])
            return softmax(logits)

        monkeypatch.setattr(model_module, "attention_layer", counting)
        monkeypatch.setattr(ad, "softmax_last", spying)
        pred = forward(fam, params, config, **kw)
        monkeypatch.setattr(ad, "softmax_last", softmax)
        assert max(encoded_rows) == 5 and min(encoded_rows) < 5
        if variant == "evolformer":
            assert max(query_rows) == 5 and min(query_rows) < 5

        fg = build_forward(fam, params, config, **kw)
        for got, expected in zip((pred.y_hat, pred.z), (fg.y_hat, fg.z)):
            assert got.dtype == expected.data.dtype
            assert got.tobytes() == expected.data.tobytes()

        inference = build_forward(fam, params, config, grad=False, **kw)
        assert not inference.y_hat.requires_grad
        assert inference.y_hat._node is None
        assert inference.grads() == {}


class TestMseLoss:
    def test_perfect_fit(self):
        y = np.array([1.0, 2.0])
        assert float(mse_loss(ad.constant(y[:, None]), y).data) == 0.0

    def test_unit_residual(self):
        y = np.zeros(3)
        assert float(mse_loss(ad.constant(y[:, None] + 1.0), y).data) == 1.0

    def test_hand_value(self):
        pred = np.array([[0.0], [2.0]])
        target = np.array([1.0, 0.0])
        assert float(mse_loss(ad.constant(pred), target).data) == 2.5

    @pytest.mark.parametrize("target", [np.zeros((2, 1)), np.zeros(3)], ids=["column", "length"])
    def test_target_must_be_one_value_per_row(self, target):
        with pytest.raises(ValueError, match="shape mismatch"):
            mse_loss(ad.constant(np.zeros((2, 1))), target)


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

    @pytest.mark.parametrize("per_block", [1, 2, 3])
    @pytest.mark.parametrize("variant", ["evolmpnn", "evolgnn", "evolformer"])
    def test_gradients_summed_over_encode_blocks(self, monkeypatch, variant, per_block):
        fam = tiny_family(
            ("ACD", "ACE", "GCD", "AAD", "CCD", "ACG", "GAD"),
            (0.0, 1.0, -1.0, 0.5, 2.0, -0.5, 0.25),
        )
        config = tiny_config(variant, l_p=2)
        graph = knn_graph(fam, k=2) if variant == "evolgnn" else None
        params = init_params(config, fam.n, seed=1)

        def grads():
            fg = build_forward(fam, params, config, graph=graph)
            mse_loss(fg.y_hat, fam.targets).backward()
            return fg.grads()

        whole = grads()
        monkeypatch.setattr(data, "_BLOCK_BYTES", per_block * 64 * fam.n**2)
        encoded = []
        encode = model_module._encode_rows

        def counting(family, active, leaves, config):
            encoded.append(len(active))
            return encode(family, active, leaves, config)

        monkeypatch.setattr(model_module, "_encode_rows", counting)
        query_rows = []
        softmax = ad.softmax_last

        def spying(logits):
            if logits.shape[-1] == fam.m:  # evolformer's; the residue stack's are N wide
                query_rows.append(logits.shape[0])
            return softmax(logits)

        monkeypatch.setattr(ad, "softmax_last", spying)
        blocked = grads()
        monkeypatch.setattr(ad, "softmax_last", softmax)
        # Blocks may finish in any order on the worker pool.
        expected = [per_block] * (7 // per_block) + [7 % per_block] * (7 % per_block > 0)
        assert sorted(encoded, reverse=True) == expected
        if variant == "evolformer":
            # Per layer and head, blocks of 65,536 // M query rows under this
            # budget, which here has as many rows as an encode block.
            per_head = sorted(config.l_p * config.heads * expected, reverse=True)
            assert sorted(query_rows, reverse=True) == per_head
        assert blocked.keys() == whole.keys()
        for name, grad in blocked.items():
            np.testing.assert_allclose(grad, whole[name], rtol=1e-12, atol=0, err_msg=name)

        report = gradient_check(fam, config, seed=1, graph=graph, coords_per_tensor=4)
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
