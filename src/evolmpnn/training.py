"""Optimisation loop: Adam, target standardization, early stopping.

Training shuffles the train rows into mini-batches; for the anchor-based
variant each batch forward also encodes the current anchor members, which
in practice cover the whole training pool. A step encodes and
backpropagates its proteins in row blocks on the worker pool, and each
step's graph is freed before the next one is built. Validation runs the
forward pass without the autodiff graph, in row blocks, and its Spearman
drives model selection: the returned parameters are the ones from the best
validation epoch. Everything is reproducible from (seed, config, data),
whatever the number of worker threads.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .data import Family, Graph, SplitAssignment, check_field_types, check_known_keys
from .evaluation import spearman_or_none
from .model import ModelConfig, ModelParams, build_forward, init_params, mse_loss
from .residue_encoder import NumericsError


class TrainingError(RuntimeError):
    """Raised when optimisation cannot proceed (e.g. divergence)."""


@dataclass
class TrainConfig:
    lr: float = 5e-4
    epochs: int = 300
    batch_size: int = 64
    patience: int = 30
    seed: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def __post_init__(self):
        check_field_types(self)
        if self.lr < 0:
            raise ValueError("learning rate must be >= 0")
        for name in ("epochs", "batch_size", "patience"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        for name in ("beta1", "beta2"):
            if not 0 <= getattr(self, name) < 1:
                raise ValueError(f"{name} must be in [0, 1)")
        if self.eps <= 0:
            raise ValueError("eps must be positive")

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, doc: dict) -> "TrainConfig":
        check_known_keys(cls, doc, "train config keys")
        return cls(**doc)


class Adam:
    """Adaptive-moment optimiser over a dict of named arrays."""

    def __init__(self, lr: float, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}

    def step(self, tensors: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        self.t += 1
        correction1 = 1.0 - self.beta1**self.t
        correction2 = 1.0 - self.beta2**self.t
        for name, value in tensors.items():
            g = grads.get(name)
            if g is None:
                continue
            if name not in self._m:
                self._m[name] = np.zeros_like(value)
                self._v[name] = np.zeros_like(value)
            m, v = self._m[name], self._v[name]
            m *= self.beta1
            m += (1 - self.beta1) * g
            v *= self.beta2
            v += (1 - self.beta2) * (g * g)
            m_hat = m / correction1
            v_hat = v / correction2
            value -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def standardize_targets(
    y_train: np.ndarray, y_all: np.ndarray
) -> tuple[np.ndarray, float, float]:
    """Standardize a target vector with train-only statistics (population std).

    Returns the standardized ``y_all`` with the mean and std used. A
    zero-variance train set keeps sigma = 1, so the transform degrades to
    centering.
    """
    y_train = np.asarray(y_train, dtype=np.float64)
    mu = float(y_train.mean())
    sigma = float(y_train.std())
    sigma = sigma if sigma > 0 else 1.0
    return (np.asarray(y_all, dtype=np.float64) - mu) / sigma, mu, sigma


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    valid_rho: float | None
    seconds: float

    def to_json(self) -> dict:
        return {
            "epoch": self.epoch,
            "train_loss": self.train_loss,
            "valid_rho": self.valid_rho,
            "seconds": round(self.seconds, 6),
        }


@dataclass
class TrainReport:
    epochs: list[EpochStats] = field(default_factory=list)
    best_epoch: int = -1
    best_valid_rho: float | None = None

    def signature(self) -> dict:
        """Deterministic content (wall-clock excluded) for equality checks."""
        return {
            "best_epoch": self.best_epoch,
            "best_valid_rho": self.best_valid_rho,
            "train_loss": [e.train_loss for e in self.epochs],
            "valid_rho": [e.valid_rho for e in self.epochs],
        }


def train(
    family: Family,
    split: SplitAssignment,
    model_config: ModelConfig,
    train_config: TrainConfig,
    *,
    graph: Graph | None = None,
    log_path=None,
) -> tuple[ModelParams, TrainReport]:
    """Fit the model, returning the best-validation-epoch parameters."""
    train_rows = split.rows(family, "train")
    valid_rows = split.rows(family, "valid")
    if not train_rows:
        raise TrainingError("split has no training rows")
    if not valid_rows:
        raise TrainingError("split has no validation rows")
    train_ids = [family.ids[i] for i in train_rows]

    params = init_params(model_config, family.n, seed=train_config.seed)
    y_std, mu, sigma = standardize_targets(family.targets[train_rows], family.targets)
    # Buffers follow the model dtype so float32 checkpoints round-trip bitwise.
    mu = np.full(1, mu, dtype=model_config.np_dtype)
    sigma = np.full(1, sigma, dtype=model_config.np_dtype)
    params.buffers["target_mean"] = mu
    params.buffers["target_std"] = sigma
    y_raw_valid = family.targets[valid_rows]

    rng = np.random.default_rng(train_config.seed)
    optimiser = Adam(
        train_config.lr, train_config.beta1, train_config.beta2, train_config.eps
    )
    report = TrainReport()
    best_params = params.copy()
    best_rho = -np.inf
    stall = 0
    step = 0
    log_fh = open(log_path, "w", encoding="utf-8") if log_path else None
    try:
        for epoch in range(train_config.epochs):
            started = time.perf_counter()
            order = rng.permutation(len(train_rows))
            losses = []
            for lo in range(0, len(order), train_config.batch_size):
                # Sorting keeps the loss independent of shuffle order within
                # a batch; membership is what the shuffle decides.
                batch = sorted(train_rows[i] for i in order[lo : lo + train_config.batch_size])
                step += 1
                try:
                    fg = build_forward(
                        family,
                        params,
                        model_config,
                        rows=batch,
                        train_ids=train_ids,
                        anchor_draw=step,
                        graph=graph,
                    )
                    loss = mse_loss(fg.y_hat, y_std[batch])
                except NumericsError as err:
                    raise TrainingError(
                        f"diverged at epoch {epoch}, "
                        f"batch {lo // train_config.batch_size}: {err}"
                    ) from err
                loss_value = float(loss.data)
                if not np.isfinite(loss_value):
                    raise TrainingError(
                        f"non-finite loss at epoch {epoch}, batch {lo // train_config.batch_size}"
                    )
                loss.backward()
                optimiser.step(params.tensors, fg.grads())
                # The spent graph would otherwise live through the next
                # step's forward, doubling its peak.
                del fg, loss
                losses.append(loss_value)

            try:
                valid_fg = build_forward(
                    family,
                    params,
                    model_config,
                    rows=valid_rows,
                    train_ids=train_ids,
                    anchor_draw=0,
                    graph=graph,
                    grad=False,
                )
            except NumericsError as err:
                raise TrainingError(
                    f"diverged at epoch {epoch} during validation: {err}"
                ) from err
            pred_valid = valid_fg.y_hat.data[:, 0] * sigma + mu
            rho = spearman_or_none(pred_valid, y_raw_valid)
            stats = EpochStats(
                epoch=epoch,
                train_loss=float(np.mean(losses)),
                valid_rho=rho,
                seconds=time.perf_counter() - started,
            )
            report.epochs.append(stats)
            if log_fh:
                log_fh.write(json.dumps(stats.to_json()) + "\n")
            if rho is not None and rho > best_rho:
                best_rho = rho
                best_params = params.copy()
                report.best_epoch = epoch
                report.best_valid_rho = rho
                stall = 0
            else:
                stall += 1
                if stall > train_config.patience:
                    break
    finally:
        if log_fh:
            log_fh.close()
    if report.best_epoch < 0:
        # Validation rho never became defined; fall back to the last state.
        best_params = params.copy()
    return best_params, report
