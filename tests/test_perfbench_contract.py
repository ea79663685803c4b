"""The benchmark's tracer still finds and times the package's layers.

``perfbench/tracer.py`` wraps functions by module attribute name from
outside the package; a rename inside the package would silently zero its
per-layer counters. This runs its ``Tracer`` around one training epoch of
each variant, and around evaluation.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from evolmpnn import data, evaluation, training
from evolmpnn.data import LandscapeSpec, split_lambda_vs_rest, synth_family
from evolmpnn.model import ModelConfig, init_params

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve the module through sys.modules.
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def small_task():
    rng = np.random.default_rng(5)
    spec = LandscapeSpec(
        n=6, m=32, max_mutations=3, additive=rng.normal(size=(6, 20)), epistasis=[], seed=5
    )
    fam = synth_family(spec)
    return fam, split_lambda_vs_rest(fam, lam=2, valid_frac=0.2, seed=0)


def test_tracer_counts_training_layers(monkeypatch):
    fam, split = small_task()
    config = ModelConfig(variant="evolmpnn", d=8, heads=2, l_r=1, l_p=1)
    original = training.train
    tracer = load_tracer(monkeypatch).Tracer()
    tracer.install()
    try:
        training.train(fam, split, config, training.TrainConfig(epochs=1, batch_size=8))
    finally:
        tracer.uninstall()
    assert training.train is original
    metrics = tracer.per_layer()
    for name in (
        "model.forward_calls",
        "residue_encoder.attention_calls",
        "evolution.sample_calls",
        "evolution.anchor_set_size_mean",
        "evolution.evolmpnn_layer_s",
    ):
        assert metrics[name] > 0, name


def test_tracer_times_graph_layers(monkeypatch):
    fam, split = small_task()
    config = ModelConfig(variant="evolgnn", d=8, heads=2, l_r=1, l_p=1, knn_k=3)
    tracer = load_tracer(monkeypatch).Tracer()
    tracer.install()
    try:
        # Looked up on the module after install(), as the benchmark does.
        graph = data.knn_graph(fam, config.knn_k)
        training.train(
            fam, split, config, training.TrainConfig(epochs=1, batch_size=8), graph=graph
        )
    finally:
        tracer.uninstall()
    metrics = tracer.per_layer()
    for name in ("data.knn_edges", "evolution.evolgnn_layer_s"):
        assert metrics[name] > 0, name


def test_tracer_times_evolformer_apart_from_residue_layers(monkeypatch):
    fam, split = small_task()
    config = ModelConfig(variant="evolformer", d=8, heads=2, l_r=2, l_p=2)
    tracer = load_tracer(monkeypatch).Tracer()
    tracer.install()
    try:
        params, _ = training.train(
            fam, split, config, training.TrainConfig(epochs=1, batch_size=8)
        )
        evaluation.evaluate(fam, split, params, config)
    finally:
        tracer.uninstall()
    metrics = tracer.per_layer()
    assert metrics["evolution.evolformer_layer_s"] > 0
    # Every forward encodes this family in one block of l_r residue layers;
    # the evolformer's own attention stays inside its layer's span.
    forwards = metrics["model.forward_calls"]
    assert forwards > 0
    assert metrics["residue_encoder.attention_calls"] == config.l_r * forwards


@pytest.mark.parametrize("variant", ["evolgnn", "evolformer"])
def test_tracer_counts_sampled_transductive_steps(monkeypatch, variant):
    fam, split = small_task()
    config = ModelConfig(variant=variant, d=8, heads=2, l_r=1, l_p=1, knn_k=3)
    # Blocks of 2 proteins: each step backpropagates its batch and a sample
    # of the other rows, and after the first it reads the rest from the
    # history.
    monkeypatch.setattr(data, "_BLOCK_BYTES", 2 * 64 * fam.n**2)
    tracer = load_tracer(monkeypatch).Tracer()
    tracer.install()
    try:
        graph = data.knn_graph(fam, config.knn_k) if variant == "evolgnn" else None
        _, report = training.train(
            fam, split, config, training.TrainConfig(epochs=1, batch_size=8), graph=graph
        )
    finally:
        tracer.uninstall()
    stats = report.epochs[0]
    assert stats.cached_rows > 0 and stats.carried_rows < fam.m
    metrics = tracer.per_layer()
    for name in (
        f"evolution.{variant}_layer_s",
        "model.forward_calls",
        "residue_encoder.attention_calls",
    ):
        assert metrics[name] > 0, name


def test_tracer_times_blocked_inference(monkeypatch):
    fam, split = small_task()
    config = ModelConfig(variant="evolmpnn", d=8, heads=2, l_r=1, l_p=1)
    params = init_params(config, fam.n)
    # Several row blocks, each of which must reach the patched residue layer.
    monkeypatch.setattr(data, "_BLOCK_BYTES", 5 * 64 * fam.n**2)
    tracer = load_tracer(monkeypatch).Tracer()
    tracer.install()
    try:
        evaluation.evaluate(fam, split, params, config)
    finally:
        tracer.uninstall()
    by_id = {s.id: s for s in tracer.spans}

    def in_predict(span):
        while span.parent is not None:
            span = by_id[span.parent]
            if span.name == "evaluation.predict":
                return True
        return False

    calls = [
        s
        for s in tracer.spans
        if s.name == "residue_encoder.attention_layer" and in_predict(s)
    ]
    assert len(calls) > 1
    assert tracer.per_layer()["residue_encoder.attention_calls"] == len(calls)
