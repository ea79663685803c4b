"""End-to-end model assembly: forward pass, loss, and gradient verification.

The forward pass initializes protein and residue embeddings, runs the
residue attention stack, applies the configured evolution layers, and
reads predictions off a linear head over the concatenation of the final
protein embedding and the mean-pooled residues.

The anchor-based variant encodes the rows it is asked about plus the union
of every layer's anchor members. Every cycle of inclusion probabilities has
a p = 1/2 set, so that union is in practice the whole training pool: a
training batch encodes the batch plus the pool. The graph and all-pairs
variants are transductive and always compute over every record.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from . import autodiff as ad
from .data import ALPHABET, Family, Graph
from .embeddings import (
    apply_positional,
    init_positional_table,
    init_protein_embeddings,
    onehot_residues,
)
from .evolution import (
    AnchorPolicy,
    membership_matrix,
    evolgnn_layer,
    evolformer_layer,
    evolmpnn_layer,
    sample_anchor_sets,
)
from .residue_encoder import NumericsError, attention_layer

VARIANTS = ("evolmpnn", "evolgnn", "evolformer")
DTYPES = {"float32": np.float32, "float64": np.float64}


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


_FIELD_KINDS = {
    "int": ("an integer", _is_int),
    "float": (
        "a finite number",
        lambda v: (_is_int(v) or isinstance(v, float)) and math.isfinite(v),
    ),
    "bool": ("true or false", lambda v: isinstance(v, bool)),
    "str": ("a string", lambda v: isinstance(v, str)),
}


def check_field_types(config) -> None:
    """Reject config values that do not match their field's annotation.

    Annotations are read as written (``int``, ``float``, ``bool`` or
    ``str``, optionally ``| None``): ints pass as floats, bools pass only as
    bools, and floats must be finite.
    """
    for f in fields(config):
        value = getattr(config, f.name)
        kind, _, optional = f.type.partition(" | ")
        if value is None and optional:
            continue
        description, accepts = _FIELD_KINDS[kind]
        if not accepts(value):
            raise ValueError(f"{f.name} must be {description}, got {value!r}")


@dataclass
class ModelConfig:
    """Every architectural choice; training settings live in TrainConfig."""

    variant: str = "evolmpnn"
    d: int = 128
    heads: int = 4
    d_head: int | None = None
    ffn_dim: int | None = None
    l_r: int = 2
    l_p: int = 2
    theta: int = 1
    anchor_k: int | None = None
    anchor_seed: int = 0
    resample_anchors: bool = True
    knn_k: int = 10
    residue_mode: str = "onehot"
    protein_mode: str = "onehot-mean"
    dtype: str = "float64"

    def __post_init__(self):
        check_field_types(self)
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if self.d_head is None:
            self.d_head = max(1, self.d // self.heads)
        if self.ffn_dim is None:
            self.ffn_dim = 2 * self.d
        for name in ("d", "heads", "d_head", "ffn_dim", "l_r", "l_p", "theta", "knn_k"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if self.anchor_k is not None and self.anchor_k < 1:
            raise ValueError("anchor_k must be positive when set")
        if self.residue_mode not in ("onehot", "sidecar"):
            raise ValueError(f"unknown residue_mode {self.residue_mode!r}")
        if self.protein_mode not in ("onehot-mean", "sidecar"):
            raise ValueError(f"unknown protein_mode {self.protein_mode!r}")
        if self.dtype not in DTYPES:
            raise ValueError(f"dtype must be one of {sorted(DTYPES)}")

    @property
    def np_dtype(self):
        return DTYPES[self.dtype]

    def anchor_policy(self) -> AnchorPolicy:
        return AnchorPolicy(
            k=self.anchor_k, seed=self.anchor_seed, resample_per_layer=self.resample_anchors
        )

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, doc: dict) -> "ModelConfig":
        known = set(cls.__dataclass_fields__)
        unknown = set(doc) - known
        if unknown:
            raise ValueError(f"unknown model config keys: {sorted(unknown)}")
        return cls(**doc)


@dataclass
class ModelParams:
    """Named trainable tensors plus non-trainable buffers."""

    tensors: dict[str, np.ndarray]
    buffers: dict[str, np.ndarray] = field(default_factory=dict)

    def copy(self) -> "ModelParams":
        return ModelParams(
            {k: v.copy() for k, v in self.tensors.items()},
            {k: v.copy() for k, v in self.buffers.items()},
        )

    def check_finite(self) -> None:
        for name, value in self.tensors.items():
            if not np.all(np.isfinite(value)):
                raise ValueError(f"non-finite values in parameter {name!r}")


def _xavier(rng, shape, dtype):
    return (rng.standard_normal(shape) / math.sqrt(shape[0])).astype(dtype)


def _attention_block(params, prefix, d, heads, d_head, ffn_dim, rng, dtype):
    for h in range(heads):
        params[f"{prefix}.h{h}.wq"] = _xavier(rng, (d, d_head), dtype)
        params[f"{prefix}.h{h}.wk"] = _xavier(rng, (d, d_head), dtype)
        params[f"{prefix}.h{h}.wv"] = _xavier(rng, (d, d_head), dtype)
        params[f"{prefix}.h{h}.wo"] = _xavier(rng, (d_head, d), dtype)
    params[f"{prefix}.ffn_w1"] = _xavier(rng, (d, ffn_dim), dtype)
    params[f"{prefix}.ffn_w2"] = _xavier(rng, (ffn_dim, d), dtype)
    params[f"{prefix}.ln_gain"] = np.ones(d, dtype=dtype)
    params[f"{prefix}.ln_bias"] = np.zeros(d, dtype=dtype)


def init_params(config: ModelConfig, n_positions: int, seed: int = 0) -> ModelParams:
    """Fresh parameters for a family of the given sequence length."""
    rng = np.random.default_rng(seed)
    dtype = config.np_dtype
    d = config.d
    params: dict[str, np.ndarray] = {}
    if config.residue_mode == "onehot":
        params["residue_embed"] = rng.standard_normal((len(ALPHABET), d)).astype(dtype)
    if config.protein_mode == "onehot-mean":
        params["protein_embed"] = rng.standard_normal((len(ALPHABET), d)).astype(dtype)
    params["phi_pos"] = init_positional_table(n_positions, d, rng).astype(dtype)
    for layer in range(config.l_r):
        _attention_block(
            params, f"res{layer}", d, config.heads, config.d_head, config.ffn_dim, rng, dtype
        )
    block_identity = np.vstack([np.eye(d), np.zeros((d, d))])
    for layer in range(config.l_p):
        prefix = f"evo{layer}"
        if config.variant == "evolmpnn":
            params[f"{prefix}.combine"] = (
                block_identity + 0.02 * rng.standard_normal((2 * d, d))
            ).astype(dtype)
        elif config.variant == "evolgnn":
            params[f"{prefix}.neighbor"] = _xavier(rng, (d, d), dtype)
            params[f"{prefix}.gate"] = _xavier(rng, (d, d), dtype)
            params[f"{prefix}.combine"] = (
                block_identity + 0.02 * rng.standard_normal((2 * d, d))
            ).astype(dtype)
        else:  # evolformer
            _attention_block(
                params, prefix, d, config.heads, config.d_head, config.ffn_dim, rng, dtype
            )
            params[f"{prefix}.bias_proj"] = _xavier(rng, (d, config.d_head), dtype)
    params["w_final"] = _xavier(rng, (2 * d, config.theta), dtype)
    buffers = {
        "target_mean": np.zeros(config.theta, dtype=np.float64),
        "target_std": np.ones(config.theta, dtype=np.float64),
    }
    return ModelParams(params, buffers)


@dataclass
class Prediction:
    """Head outputs (in the model's internal target scale) plus embeddings."""

    y_hat: np.ndarray  # (rows, theta)
    z: np.ndarray  # (rows, 2d)
    z_p: np.ndarray  # (rows, d)
    z_r: np.ndarray  # (rows, d)
    rows: list[int]  # family row index of each output row


@dataclass
class ForwardGraph:
    """Differentiable forward pass with leaf handles for the optimizer."""

    y_hat: ad.Tensor
    z: ad.Tensor
    z_p: ad.Tensor
    z_r: ad.Tensor
    rows: list[int]
    leaves: dict[str, ad.Tensor]

    def grads(self) -> dict[str, np.ndarray]:
        return {
            name: leaf.grad
            for name, leaf in self.leaves.items()
            if leaf.grad is not None
        }


def build_forward(
    family: Family,
    params: ModelParams,
    config: ModelConfig,
    *,
    rows=None,
    train_ids=None,
    anchor_draw: int = 0,
    graph: Graph | None = None,
    protein_feats: np.ndarray | None = None,
    residue_feats: np.ndarray | None = None,
) -> ForwardGraph:
    """Run the full pipeline, returning tensors for the requested rows."""
    dtype = config.np_dtype
    leaves = {
        name: ad.Tensor(value.astype(dtype, copy=False), requires_grad=True)
        for name, value in params.tensors.items()
    }
    requested = list(range(family.m)) if rows is None else [int(r) for r in rows]

    if config.variant == "evolmpnn":
        pool_ids = list(train_ids) if train_ids is not None else list(family.ids)
        policy = config.anchor_policy()
        anchor_sets_per_layer = [
            sample_anchor_sets(
                pool_ids, policy, layer, draw=anchor_draw, fallback_id=family.wild_type.id
            )
            for layer in range(config.l_p)
        ]
        member_rows = {
            family.index_of(rid)
            for sets in anchor_sets_per_layer
            for s in sets
            for rid in s.member_ids
        }
        active = sorted(set(requested) | member_rows)
        position_of = {family.ids[row]: i for i, row in enumerate(active)}
    else:
        if config.variant == "evolgnn" and graph is None:
            raise ValueError("evolgnn requires a graph over the family")
        active = list(range(family.m))
    encoded = family.encoded[active]

    # Residue embeddings, positionally modulated, then the attention stack.
    if config.residue_mode == "onehot":
        x = onehot_residues(encoded, leaves["residue_embed"])
    else:
        if residue_feats is None:
            raise ValueError("residue_mode=sidecar requires residue features")
        x = ad.constant(residue_feats[active].astype(dtype, copy=False))
    r = apply_positional(x, leaves["phi_pos"])
    for layer in range(config.l_r):
        r = attention_layer(
            r, leaves, f"res{layer}", config.heads, label=f"residue layer {layer}"
        )
    r_bar = ad.mean_over(r, axis=1)

    h = init_protein_embeddings(
        encoded,
        config.protein_mode,
        projection=leaves.get("protein_embed"),
        precomputed=(
            None if protein_feats is None else protein_feats[active].astype(dtype, copy=False)
        ),
    )

    for layer in range(config.l_p):
        prefix = f"evo{layer}"
        if config.variant == "evolmpnn":
            members = membership_matrix(
                anchor_sets_per_layer[layer], position_of, len(active), dtype=dtype
            )
            h = evolmpnn_layer(h, r_bar, members, leaves[f"{prefix}.combine"])
        elif config.variant == "evolgnn":
            h = evolgnn_layer(
                h,
                r_bar,
                graph.dense(dtype=dtype),
                leaves[f"{prefix}.neighbor"],
                leaves[f"{prefix}.gate"],
                leaves[f"{prefix}.combine"],
            )
        else:
            h = evolformer_layer(h, r_bar, leaves, prefix, config.heads)
        if not np.all(np.isfinite(h.data)):
            raise NumericsError(f"non-finite activations after evolution layer {layer}")

    # ``active`` is sorted, so a requested row's position is its insertion point.
    keep = np.searchsorted(active, requested)
    z_p = ad.take_rows(h, keep)
    z_r = ad.take_rows(r_bar, keep)
    z = ad.concat_last([z_p, z_r])
    y_hat = ad.matmul(z, leaves["w_final"])
    if not np.all(np.isfinite(y_hat.data)):
        raise NumericsError("non-finite predictions at the output head")
    return ForwardGraph(y_hat=y_hat, z=z, z_p=z_p, z_r=z_r, rows=requested, leaves=leaves)


def forward(
    family: Family,
    params: ModelParams,
    config: ModelConfig,
    *,
    rows=None,
    train_ids=None,
    anchor_draw: int = 0,
    graph: Graph | None = None,
    protein_feats: np.ndarray | None = None,
    residue_feats: np.ndarray | None = None,
) -> Prediction:
    """Inference-only forward pass returning plain arrays."""
    fg = build_forward(
        family,
        params,
        config,
        rows=rows,
        train_ids=train_ids,
        anchor_draw=anchor_draw,
        graph=graph,
        protein_feats=protein_feats,
        residue_feats=residue_feats,
    )
    return Prediction(
        y_hat=fg.y_hat.data,
        z=fg.z.data,
        z_p=fg.z_p.data,
        z_r=fg.z_r.data,
        rows=fg.rows,
    )


def mse_loss(y_hat: ad.Tensor, targets: np.ndarray, mask=None) -> ad.Tensor:
    """Mean squared error over (optionally masked) rows."""
    targets = np.asarray(targets, dtype=y_hat.data.dtype)
    if mask is not None:
        mask = np.asarray(mask, dtype=np.int64)
        if mask.size == 0:
            raise ValueError("loss mask is empty")
        y_hat = ad.take_rows(y_hat, mask)
        targets = targets[mask]
    if y_hat.data.shape != targets.shape:
        raise ValueError(f"shape mismatch: {y_hat.data.shape} vs {targets.shape}")
    diff = ad.sub(y_hat, ad.constant(targets))
    return ad.mean_over(ad.mul(diff, diff))


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
    protein_feats: np.ndarray | None = None,
    residue_feats: np.ndarray | None = None,
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
            protein_feats=protein_feats,
            residue_feats=residue_feats,
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
