"""Optimisation loop behavior: standardization, determinism, early stopping."""

from __future__ import annotations

import json

import numpy as np
import pytest

from evolmpnn.data import LandscapeSpec, knn_graph, split_lambda_vs_rest, synth_family
from evolmpnn.evaluation import evaluate, spearman
from evolmpnn.model import ModelConfig, build_forward, init_params, mse_loss
from evolmpnn.training import (
    Adam,
    TrainConfig,
    TrainingError,
    standardize_targets,
    train,
)

from test_acceptance import epistatic_benchmark_family
from test_evaluation import traced_peak


def small_problem(seed=7, m=48, n=8, max_mut=4, lam=2):
    rng = np.random.default_rng(seed)
    spec = LandscapeSpec(
        n=n,
        m=m,
        max_mutations=max_mut,
        additive=rng.normal(size=(n, 20)),
        epistasis=[],
        noise_std=0.0,
        seed=seed,
    )
    fam = synth_family(spec)
    split = split_lambda_vs_rest(fam, lam=lam, valid_frac=0.15, seed=0)
    return fam, split


def small_config(**kw):
    base = dict(variant="evolmpnn", d=8, heads=2, l_r=1, l_p=1, dtype="float64")
    base.update(kw)
    return ModelConfig(**base)


class TestStandardize:
    def test_degenerate_variance_keeps_targets(self):
        y = np.zeros(3)
        out, mu, sigma = standardize_targets(y, y)
        np.testing.assert_array_equal(out, y)
        assert mu == 0.0 and sigma == 1.0

    def test_symmetric_pair_uses_population_std(self):
        y = np.array([-1.0, 1.0])
        out, mu, sigma = standardize_targets(y, y)
        assert mu == 0.0 and sigma == 1.0
        np.testing.assert_array_equal(out, y)

    def test_affine_rescaling_cancels(self):
        rng = np.random.default_rng(0)
        y = rng.normal(size=20)
        base, _, _ = standardize_targets(y, y)
        scaled, _, _ = standardize_targets(3.5 * y + 2.0, 3.5 * y + 2.0)
        np.testing.assert_allclose(base, scaled, atol=1e-12)

    def test_statistics_come_from_train_only(self):
        y_train = np.array([0.0, 2.0])
        y_all = np.array([0.0, 2.0, 100.0])
        out, mu, sigma = standardize_targets(y_train, y_all)
        assert mu == 1.0 and sigma == 1.0
        np.testing.assert_allclose(out, [-1.0, 1.0, 99.0])


class TestAdam:
    def test_zero_lr_keeps_parameters(self):
        opt = Adam(lr=0.0)
        tensors = {"w": np.ones(3)}
        opt.step(tensors, {"w": np.full(3, 5.0)})
        np.testing.assert_array_equal(tensors["w"], 1.0)

    def test_descends_a_quadratic(self):
        opt = Adam(lr=0.1)
        tensors = {"w": np.array([4.0])}
        for _ in range(200):
            opt.step(tensors, {"w": 2 * tensors["w"]})
        assert abs(tensors["w"][0]) < 1e-3

    def test_missing_grad_is_skipped(self):
        opt = Adam(lr=0.1)
        tensors = {"w": np.ones(2), "frozen": np.ones(2)}
        opt.step(tensors, {"w": np.ones(2)})
        np.testing.assert_array_equal(tensors["frozen"], 1.0)


class TestTrainConfig:
    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            TrainConfig(seed=-1)


class TestTrainLoop:
    def test_zero_lr_leaves_parameters_and_loss_flat(self):
        fam, split = small_problem()
        # Frozen anchors isolate the null optimizer: loss is exactly constant.
        config = small_config(resample_anchors=False)
        params, report = train(
            fam, split, config, TrainConfig(lr=0.0, epochs=3, batch_size=64, seed=1)
        )
        losses = [e.train_loss for e in report.epochs]
        assert losses == [losses[0]] * len(losses)
        from evolmpnn.model import init_params

        fresh = init_params(config, fam.n, seed=1)
        for name in fresh.tensors:
            np.testing.assert_array_equal(params.tensors[name], fresh.tensors[name])

    def test_same_seed_reproduces_report_and_params(self):
        fam, split = small_problem()
        config = small_config()
        tc = TrainConfig(lr=3e-3, epochs=4, batch_size=16, seed=3)
        params_a, report_a = train(fam, split, config, tc)
        params_b, report_b = train(fam, split, config, tc)
        assert report_a.signature() == report_b.signature()
        for name in params_a.tensors:
            np.testing.assert_array_equal(params_a.tensors[name], params_b.tensors[name])

    def test_different_seed_changes_course(self):
        fam, split = small_problem()
        config = small_config()
        r1 = train(fam, split, config, TrainConfig(lr=3e-3, epochs=3, seed=0))[1]
        r2 = train(fam, split, config, TrainConfig(lr=3e-3, epochs=3, seed=9))[1]
        assert r1.signature() != r2.signature()

    def test_best_epoch_parameters_are_returned(self):
        fam, split = small_problem()
        config = small_config()
        tc = TrainConfig(lr=5e-3, epochs=12, batch_size=64, patience=30, seed=2)
        params, report = train(fam, split, config, tc)
        assert report.best_epoch >= 0
        best = max(
            (e for e in report.epochs if e.valid_rho is not None),
            key=lambda e: e.valid_rho,
        )
        assert report.best_epoch == best.epoch
        # Re-evaluating the returned parameters reproduces the recorded best.
        metrics = evaluate(fam, split, params, config, tag="valid")
        assert metrics.spearman == pytest.approx(report.best_valid_rho, abs=1e-9)

    def test_early_stopping_halts(self):
        fam, split = small_problem()
        config = small_config()
        tc = TrainConfig(lr=0.0, epochs=60, patience=3, seed=0)
        _, report = train(fam, split, config, tc)
        # lr=0 cannot improve after the first epoch; patience cuts the run.
        assert len(report.epochs) <= 6

    def test_loss_decreases_with_training(self):
        fam, split = small_problem()
        config = small_config()
        tc = TrainConfig(lr=5e-3, epochs=25, batch_size=64, seed=4)
        _, report = train(fam, split, config, tc)
        assert report.epochs[-1].train_loss < report.epochs[0].train_loss * 0.7

    def test_jsonl_log_emitted(self, tmp_path):
        fam, split = small_problem()
        config = small_config()
        log = tmp_path / "train.jsonl"
        _, report = train(
            fam, split, config, TrainConfig(lr=1e-3, epochs=3, seed=0), log_path=log
        )
        lines = [json.loads(line) for line in log.read_text().splitlines()]
        assert len(lines) == len(report.epochs)
        assert {
            "epoch",
            "train_loss",
            "valid_rho",
            "seconds",
            "encoded_rows",
            "cached_rows",
            "carried_rows",
        } <= set(lines[0])
        # The other pool rows fit one encode block, so every step encodes
        # its batch and the whole pool, backpropagates them all and reads
        # nothing from the history.
        pool = len(split.rows(fam, "train"))
        assert all(line["cached_rows"] == 0 for line in lines)
        assert all(line["encoded_rows"] == line["carried_rows"] == pool for line in lines)

    def test_missing_validation_rows_rejected(self):
        fam, split = small_problem()
        tags = dict(split.tags)
        for k, v in tags.items():
            if v == "valid":
                tags[k] = "train"
        from evolmpnn.data import SplitAssignment

        no_valid = SplitAssignment(tags)
        with pytest.raises(TrainingError, match="validation"):
            train(fam, no_valid, small_config(), TrainConfig(epochs=1))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_reports_location(self):
        fam, split = small_problem()
        # float32 overflows under an absurd learning rate; the loop must
        # abort and name the epoch/batch rather than keep optimising junk.
        config = small_config(dtype="float32")
        with pytest.raises(TrainingError, match="epoch"):
            train(fam, split, config, TrainConfig(lr=1e6, epochs=10, seed=0))

    @pytest.mark.usefixtures("fixed_workers")
    def test_spent_step_graphs_are_freed(self):
        # evolformer encodes every protein in every step, so each step's graph
        # has about the same size. While the previous step's graph stayed
        # alive, this epoch of 6 steps peaked at 1.6 times one step.
        fam, split = small_problem(m=200, n=16)
        config = ModelConfig(variant="evolformer", d=8, heads=2, l_r=1, l_p=1)
        train_rows = split.rows(fam, "train")
        batch = sorted(train_rows[:16])
        params = init_params(config, fam.n, seed=0)

        def step():
            fg = build_forward(fam, params, config, rows=batch, anchor_draw=1)
            mse_loss(fg.y_hat, fam.targets[batch]).backward()
            return fg.grads()

        _, one_step = traced_peak(step)
        (_, report), epoch = traced_peak(
            lambda: train(fam, split, config, TrainConfig(epochs=1, batch_size=16))
        )
        assert len(train_rows) > 5 * 16 and np.isfinite(report.epochs[0].train_loss)
        assert epoch < 1.25 * one_step

    def test_spearman_invariant_to_standardization_choice(self):
        fam, split = small_problem()
        config = small_config()
        on = train(fam, split, config, TrainConfig(lr=2e-3, epochs=5, seed=5))[0]
        rho_on = evaluate(fam, split, on, config, tag="test").spearman
        assert rho_on is not None  # de-standardized predictions rank correctly

    def test_metrics_on_raw_scale_and_affine_invariance(self):
        from evolmpnn.model import forward

        fam, split = small_problem()
        config = small_config()
        params, _ = train(fam, split, config, TrainConfig(lr=2e-3, epochs=4, seed=6))
        rows = split.rows(fam, "test")
        train_ids = [fam.ids[i] for i in split.rows(fam, "train")]
        raw_head = forward(fam, params, config, rows=rows, train_ids=train_ids).y_hat[:, 0]
        metrics = evaluate(fam, split, params, config, tag="test")
        # De-standardization is affine, so ranks (and rho) match the raw head.
        assert metrics.spearman == pytest.approx(
            spearman(raw_head, fam.targets[rows]), abs=1e-12
        )
        # MSE is reported on the raw target scale, not the standardized one.
        mu = params.buffers["target_mean"][0]
        sigma = params.buffers["target_std"][0]
        expected_mse = np.mean((raw_head * sigma + mu - fam.targets[rows]) ** 2)
        assert metrics.mse == pytest.approx(expected_mse, rel=1e-12)


@pytest.mark.slow
@pytest.mark.parametrize("variant", ["evolgnn", "evolformer"])
def test_transductive_variants_learn_the_epistatic_benchmark(variant):
    # A3's family, protocol and absolute bound. Here every step
    # backpropagates its batch and a sample of the rest of the family.
    fam = epistatic_benchmark_family()
    rhos = []
    for seed in (0, 1, 2):
        split = split_lambda_vs_rest(fam, lam=2, valid_frac=0.15, seed=seed)
        config = ModelConfig(variant=variant, d=24, heads=2, l_r=1, l_p=1, dtype="float64")
        graph = knn_graph(fam, config.knn_k) if variant == "evolgnn" else None
        tc = TrainConfig(lr=7e-3, epochs=300, batch_size=32, patience=80, seed=seed)
        params, _ = train(fam, split, config, tc, graph=graph)
        rhos.append(evaluate(fam, split, params, config, tag="test", graph=graph).spearman)
    assert np.mean(rhos) >= 0.60, rhos
