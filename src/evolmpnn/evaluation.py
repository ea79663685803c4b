"""Metrics, mutation-count diagnostics, distortion, and the ridge baseline."""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .data import ALPHABET, Family, Graph, SplitAssignment, _hamming_rows, map_blocks
from .evolution import anchor_count, sample_anchor_sets
from .model import ModelConfig, ModelParams, forward


def rank_average(values: np.ndarray) -> np.ndarray:
    """1-based ranks with ties sharing their average rank."""
    a = np.asarray(values, dtype=np.float64).reshape(-1)
    order = np.argsort(a, kind="mergesort")
    ordered = a[order]
    # Runs of equal sorted values span [first, last]; NaN never equals, so
    # each NaN is a run of its own.
    first = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    last = np.r_[first[1:], a.size] - 1
    ranks = np.empty(a.size, dtype=np.float64)
    ranks[order] = np.repeat(0.5 * (first + last) + 1.0, last - first + 1)
    return ranks


def spearman(pred, target) -> float:
    """Pearson correlation of average ranks."""
    x = np.asarray(pred, dtype=np.float64).reshape(-1)
    y = np.asarray(target, dtype=np.float64).reshape(-1)
    if x.size != y.size:
        raise ValueError(f"length mismatch: {x.size} vs {y.size}")
    if x.size < 2:
        raise ValueError("need at least two observations")
    if np.all(x == x[0]) or np.all(y == y[0]):
        raise ValueError("correlation undefined for constant input")
    rx, ry = rank_average(x), rank_average(y)
    rx -= rx.mean()
    ry -= ry.mean()
    return float((rx * ry).sum() / np.sqrt((rx * rx).sum() * (ry * ry).sum()))


def spearman_or_none(pred, target) -> float | None:
    """Spearman's rho, or None where it is undefined (fewer than two
    observations, or a constant input)."""
    try:
        return spearman(pred, target)
    except ValueError:
        return None


@dataclass
class Metrics:
    spearman: float | None
    mse: float
    by_mutation_count: dict[str, dict] | None = None
    runtime_s: float = 0.0

    def to_json(self, include_runtime: bool = True) -> dict:
        doc = {
            "spearman": self.spearman,
            "mse": self.mse,
            "by_mutation_count": self.by_mutation_count,
        }
        if include_runtime:
            doc["runtime_s"] = round(self.runtime_s, 6)
        return doc


def _metrics(preds, targets, runtime: float, groups=None) -> Metrics:
    """Spearman and MSE of predictions against raw-scale targets."""
    return Metrics(
        spearman=spearman_or_none(preds, targets),
        mse=float(np.mean((preds - targets) ** 2)),
        by_mutation_count=groups,
        runtime_s=runtime,
    )


def predict(
    family: Family,
    params: ModelParams,
    config: ModelConfig,
    *,
    rows=None,
    train_ids=None,
    graph: Graph | None = None,
) -> np.ndarray:
    """Predictions for the requested rows, as a vector on the raw target scale."""
    pred = forward(family, params, config, rows=rows, train_ids=train_ids, graph=graph)
    return pred.y_hat[:, 0] * params.buffers["target_std"] + params.buffers["target_mean"]


DEFAULT_GROUP_EDGES = (1, 3, 5, 8)


def group_by_mutation_count(
    counts: np.ndarray, edges=DEFAULT_GROUP_EDGES
) -> dict[str, np.ndarray]:
    """Bucket indices by mutation count into [e0,e1), ..., [elast, inf).

    ``edges`` must be non-empty and strictly ascending.
    """
    edges = list(edges)
    if not edges or any(lo >= hi for lo, hi in zip(edges, edges[1:])):
        raise ValueError(f"group edges must be strictly ascending and non-empty, got {edges}")
    groups: dict[str, np.ndarray] = {}
    for g, lo in enumerate(edges):
        if g + 1 < len(edges):
            hi = edges[g + 1]
            label = f"{lo}" if hi == lo + 1 else f"{lo}-{hi - 1}"
            mask = (counts >= lo) & (counts < hi)
        else:
            label = f"{lo}+"
            mask = counts >= lo
        groups[label] = np.flatnonzero(mask)
    return groups


def eval_by_mutation_count(
    predictions: np.ndarray,
    targets: np.ndarray,
    counts: np.ndarray,
    edges=DEFAULT_GROUP_EDGES,
) -> dict[str, dict]:
    """Per-group Spearman; groups too small or constant report rho as None."""
    out: dict[str, dict] = {}
    for label, idx in group_by_mutation_count(counts, edges).items():
        out[label] = {
            "n": int(idx.size),
            "rho": spearman_or_none(predictions[idx], targets[idx]),
        }
    return out


def evaluate(
    family: Family,
    split: SplitAssignment,
    params: ModelParams,
    config: ModelConfig,
    tag: str = "test",
    *,
    group_edges=None,
    graph: Graph | None = None,
) -> Metrics:
    """Model metrics on one split tag, on the raw target scale."""
    rows = split.rows(family, tag)
    if not rows:
        raise ValueError(f"split tag {tag!r} selects no rows")
    train_ids = [family.ids[i] for i in split.rows(family, "train")]
    started = time.perf_counter()
    preds = predict(
        family,
        params,
        config,
        rows=rows,
        train_ids=train_ids,
        graph=graph,
    )
    runtime = time.perf_counter() - started
    targets = family.targets[rows]
    groups = None
    if group_edges is not None:
        counts = family.mutation_counts()[rows]
        groups = eval_by_mutation_count(preds, targets, counts, group_edges)
    return _metrics(preds, targets, runtime, groups)


# ---------------------------------------------------------------------------
# Distortion diagnostics
# ---------------------------------------------------------------------------


@dataclass
class DistortionReport:
    alpha: float
    pairs: int
    metric: str

    def to_json(self) -> dict:
        return {
            "alpha": self.alpha if np.isfinite(self.alpha) else "inf",
            "pairs": self.pairs,
            "metric": self.metric,
        }


def _check_base_matrix(base_matrix) -> np.ndarray:
    """The base metric as float64, rejecting a matrix that is not square or
    has non-finite or negative distances."""
    base = np.asarray(base_matrix, dtype=np.float64)
    if base.ndim != 2 or base.shape[0] != base.shape[1]:
        raise ValueError(f"base matrix must be square, got shape {base.shape}")
    if not np.all(np.isfinite(base)):
        raise ValueError("base matrix has non-finite values")
    if np.any(base < 0):
        raise ValueError("base matrix has negative distances")
    return base


def distortion(
    embedded: np.ndarray,
    family: Family | None = None,
    *,
    base_matrix: np.ndarray | None = None,
    metric: str = "hamming",
) -> DistortionReport:
    """Scale-optimal distortion of a Euclidean embedding against a base metric.

    alpha is the product of the worst expansion and the worst contraction
    over all pairs with positive base distance, which makes the measure
    invariant to a global rescaling of the embedding. A zero embedded
    distance for a separated pair reports alpha as infinity.

    Pairs i < j are measured in ``data.map_blocks`` blocks of rows i, one
    per worker thread at a time, so memory stays O(W * block * M * D) for W
    workers; a family's Hamming distances are computed per block. Each block
    reports its own worst ratios, and the maxima over blocks are exact, so
    alpha does not depend on the blocks or workers.
    """
    emb = np.atleast_2d(np.asarray(embedded, dtype=np.float64))
    if not np.all(np.isfinite(emb)):
        raise ValueError("embedding has non-finite values")
    if family is not None:
        m = family.m
    elif base_matrix is not None:
        base_matrix = _check_base_matrix(base_matrix)
        m = base_matrix.shape[0]
        metric = metric if metric != "hamming" else "precomputed"
    else:
        raise ValueError("distortion needs a family or a base matrix")
    if emb.shape[0] != m:
        raise ValueError("embedding rows must match the metric space size")

    def measure(lo, hi):
        """(worst expansion, worst contraction, pairs, collapsed) of one block."""
        # Row r of the block is record lo + r; column c is record lo + c.
        diffs = emb[lo:hi, None, :] - emb[None, lo:, :]
        emb_dist = np.sqrt(np.square(diffs, out=diffs).sum(axis=2))
        if family is not None:
            base = _hamming_rows(family.encoded[lo:], 0, hi - lo).astype(np.float64)
        else:
            base = base_matrix[lo:hi, lo:]
        keep = (base > 0) & (np.arange(m - lo) > np.arange(hi - lo)[:, None])
        f_base = base[keep]
        f_emb = emb_dist[keep]
        collapsed = bool(np.any(f_emb == 0))
        if not f_base.size or collapsed:
            return 0.0, 0.0, f_base.size, collapsed
        return float(np.max(f_emb / f_base)), float(np.max(f_base / f_emb)), f_base.size, False

    # Per row: an M x D float64 difference block and a few M-long rows.
    blocks = map_blocks(measure, m, m * 8 * (emb.shape[1] + 8))
    expansion, contraction, pairs, collapsed = zip(*blocks)
    n_pairs = sum(pairs)
    if n_pairs == 0:
        raise ValueError("no separated pairs to measure")
    if any(collapsed):
        return DistortionReport(alpha=float("inf"), pairs=n_pairs, metric=metric)
    return DistortionReport(alpha=max(expansion) * max(contraction), pairs=n_pairs, metric=metric)


def bourgain_embedding(
    base_matrix: np.ndarray, k: int | None = None, seed: int = 0
) -> np.ndarray:
    """Reference landmark embedding: min distance to each sampled set, over k.

    Uses the same cycling Bernoulli sampler as the evolution layers, so the
    anchor-count policy and set statistics are shared. ``seed`` must be >= 0.
    """
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    base = _check_base_matrix(base_matrix)
    m = base.shape[0]
    ids = [str(i) for i in range(m)]
    k = k if k is not None else anchor_count(m)
    sets = sample_anchor_sets(ids, 0, fallback_id="0", k=k, seed=seed)
    out = np.empty((m, k), dtype=np.float64)
    for j, s in enumerate(sets):
        # Positions into ``ids``, which are the base matrix's columns.
        out[:, j] = base[:, s.member_ids].min(axis=1) / k
    return out


# ---------------------------------------------------------------------------
# Linear one-hot baseline
# ---------------------------------------------------------------------------


def onehot_features(family: Family) -> np.ndarray:
    """Flattened one-hot sequence features, M x (N * 20)."""
    m, n = family.encoded.shape
    out = np.zeros((m, n * len(ALPHABET)), dtype=np.float64)
    cols = family.encoded.astype(np.int64) + np.arange(n) * len(ALPHABET)
    out[np.arange(m)[:, None], cols] = 1.0
    return out


def linear_baseline(
    family: Family, split: SplitAssignment, l2: float = 1e-3, tag: str = "test"
) -> Metrics:
    """Closed-form ridge regression on one-hot features, evaluated like the model."""
    x = onehot_features(family)
    train_rows = split.rows(family, "train")
    eval_rows = split.rows(family, tag)
    if not eval_rows:
        raise ValueError(f"split tag {tag!r} selects no rows")
    y = family.targets
    y_mean = y[train_rows].mean()
    started = time.perf_counter()
    xt = x[train_rows]
    gram = xt.T @ xt + l2 * np.eye(x.shape[1])
    weights = np.linalg.solve(gram, xt.T @ (y[train_rows] - y_mean))
    preds = x[eval_rows] @ weights + y_mean
    return _metrics(preds, y[eval_rows], time.perf_counter() - started)
