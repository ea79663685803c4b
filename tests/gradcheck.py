"""Finite-difference gradient check of the training loss, for the tests."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from evolmpnn import autodiff as ad
from evolmpnn.data import Family, Graph
from evolmpnn.model import ForwardGraph, ModelConfig, build_forward, init_params, mse_loss


@dataclass
class GradientCheckReport:
    max_relative_error: float
    per_tensor: dict[str, float]


def gradient_check(
    family: Family,
    config: ModelConfig,
    *,
    seed: int = 0,
    eps: float = 1e-5,
    coords_per_tensor: int = 8,
    train_ids=None,
    graph: Graph | None = None,
    only: list[str] | None = None,
) -> GradientCheckReport:
    """Compare analytic gradients with central finite differences.

    Runs in double precision with a frozen anchor draw; samples
    ``coords_per_tensor`` coordinates per tensor (all coordinates for
    smaller tensors).
    """
    if config.dtype != "float64":
        config = replace(config, dtype="float64")
    params = init_params(config, family.n, seed)
    targets = family.targets

    def build_loss() -> tuple[ad.Tensor, ForwardGraph]:
        fg = build_forward(
            family,
            params,
            config,
            train_ids=train_ids,
            anchor_draw=0,
            graph=graph,
        )
        return mse_loss(fg.y_hat, targets), fg

    loss, fg = build_loss()
    loss.backward()
    analytic = fg.grads()

    rng = np.random.default_rng(seed + 1)
    per_tensor: dict[str, float] = {}
    names = list(params.tensors) if only is None else [n for n in params.tensors if n in only]
    for name in names:
        tensor = params.tensors[name]
        flat = tensor.reshape(-1)
        n_coords = min(coords_per_tensor, flat.size)
        coords = rng.choice(flat.size, size=n_coords, replace=False)
        worst = 0.0
        for c in coords:
            original = flat[c]
            flat[c] = original + eps
            hi = float(build_loss()[0].data)
            flat[c] = original - eps
            lo = float(build_loss()[0].data)
            flat[c] = original
            numeric = (hi - lo) / (2 * eps)
            exact = analytic[name].reshape(-1)[c]
            denom = max(abs(exact), abs(numeric), 1e-8)
            worst = max(worst, abs(exact - numeric) / denom)
        per_tensor[name] = worst
    return GradientCheckReport(
        max_relative_error=max(per_tensor.values()) if per_tensor else 0.0,
        per_tensor=per_tensor,
    )
