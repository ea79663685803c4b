"""End-to-end model assembly: the forward pass and the loss.

The forward pass initializes protein and residue embeddings, runs the
residue attention stack, applies the configured evolution layers, and
reads predictions off a linear head over the concatenation of the final
protein embedding and the mean-pooled residues.

The anchor-based variant needs the rows it is asked about plus the union
of every layer's anchor members. Every cycle of inclusion probabilities has
a p = 1/2 set, so that union is in practice the whole training pool. Anchor
sets come back as positions into the pool, which ``build_forward`` maps to
family rows once; the layer sums each set's rows with the edge-list op
``autodiff.neighbor_sum``, in edge blocks, so no k x M membership matrix
is formed. The graph and all-pairs variants are transductive and always
compute over every record.

In every variant a training step backpropagates only the batch and a keyed
random sample of about one encode block of the other rows, drawn anew each
step (``_gradient_rows``). A sampled row's encoding keeps its value while
its gradient is weighted by the inverse of its draw probability, so the
step's gradient is unbiased; the other rows carry no gradient.
``training.train`` keeps a ``History`` of each protein's latest encoding:
its first step encodes the other rows without a graph, and every later step
reads them from the history, refreshed by the rows that steps and
validation encode, so a step encodes about its batch plus one block,
whatever the family or pool size. Inference never reads the history.

The all-pairs variant's last evolution layer attends only from the rows it
is asked about, so a training step's last layer is O(B * M).

Every forward pass runs two kinds of independent row blocks through
``autodiff.map_rows``, spread over the W worker threads of
``data.map_blocks``, one per usable CPU: the per-protein encoding, in blocks
of 65,536 // N^2 proteins, and the all-pairs variant's query rows, in
blocks of 65,536 // M rows. Only training steps build the autodiff graph:
each block keeps, until its backward, only the arrays its ops' backward
reads, not every intermediate; backward runs per block on the pool, and
the blocks' gradients are added in block order, so trained parameters do
not depend on W. A step's forward memory is that of those saved arrays over
every row it backpropagates (about 1 MB per protein for a default-width
evolmpnn in float64, whose step at M = 8,192, N = 32 and 32 batch rows
peaks at about 134 MB traced with a 256- or a 1,024-protein pool), and
over every query row of a non-final all-pairs layer (one M-wide softmax per
head, O(M^2)); backward frees each block's saved arrays as it goes. Inference
and validation run with constant leaves, so no op keeps its inputs or a
backward closure: their memory is O(W * block * N^2 + W * block * M +
M * d), and their outputs do not depend on W.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from . import autodiff as ad
from .data import (
    ALPHABET,
    Family,
    Graph,
    _block_rows,
    _is_int,
    check_field_types,
    check_known_keys,
)
from .embeddings import init_positional_table
from .evolution import (
    evolgnn_layer,
    evolformer_layer,
    evolmpnn_layer,
    sample_anchor_sets,
    sample_gradient_rows,
)
from .residue_encoder import LOGIT_BYTES, NumericsError, attention_layer

VARIANTS = ("evolmpnn", "evolgnn", "evolformer")
DTYPES = {"float32": np.float32, "float64": np.float64}


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
        for name in ("d", "heads", "d_head", "ffn_dim", "l_r", "l_p", "knn_k"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if self.anchor_k is not None and self.anchor_k < 1:
            raise ValueError("anchor_k must be positive when set")
        if self.anchor_seed < 0:
            raise ValueError(f"anchor_seed must be >= 0, got {self.anchor_seed}")
        if self.residue_mode not in ("onehot", "sidecar"):
            raise ValueError(f"unknown residue_mode {self.residue_mode!r}")
        if self.protein_mode not in ("onehot-mean", "sidecar"):
            raise ValueError(f"unknown protein_mode {self.protein_mode!r}")
        if self.dtype not in DTYPES:
            raise ValueError(f"dtype must be one of {sorted(DTYPES)}")

    @property
    def np_dtype(self):
        return DTYPES[self.dtype]

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, doc: dict) -> "ModelConfig":
        """Build from a JSON object. Configs written before targets became
        scalar carry ``"theta": 1``, which is dropped; any other value is
        an unknown key."""
        if _is_int(doc.get("theta")) and doc["theta"] == 1:
            doc = {k: v for k, v in doc.items() if k != "theta"}
        check_known_keys(cls, doc, "model config keys")
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
        for kind, table in (("parameter", self.tensors), ("buffer", self.buffers)):
            for name, value in table.items():
                if not np.all(np.isfinite(value)):
                    raise ValueError(f"non-finite values in {kind} {name!r}")


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
    params["w_final"] = _xavier(rng, (2 * d, 1), dtype)
    buffers = {
        "target_mean": np.zeros(1, dtype=np.float64),
        "target_std": np.ones(1, dtype=np.float64),
    }
    return ModelParams(params, buffers)


@dataclass
class Prediction:
    """Head outputs (in the model's internal target scale) plus embeddings."""

    y_hat: np.ndarray  # (rows, 1)
    z: np.ndarray  # (rows, 2d): final protein embedding, then pooled residues


@dataclass
class ForwardGraph:
    """Forward-pass tensors with leaf handles; differentiable when built with grad."""

    y_hat: ad.Tensor
    z: ad.Tensor
    rows: list[int]  # family row index of each output row
    leaves: dict[str, ad.Tensor]
    encoded_rows: int  # proteins passed to the encoder
    cached_rows: int  # proteins read from a History instead
    carried_rows: int  # proteins whose encoding carries gradients

    def grads(self) -> dict[str, np.ndarray]:
        return {
            name: leaf.grad
            for name, leaf in self.leaves.items()
            if leaf.grad is not None
        }


@dataclass
class History:
    """The (r_bar, h) each protein of a family was last encoded to.

    ``values`` holds one row per family row, 2d wide ([r_bar, h]) in the
    model dtype; ``held`` marks the rows written so far. ``training.train``
    keeps one for the length of a call.
    """

    values: np.ndarray
    held: np.ndarray

    @classmethod
    def empty(cls, m: int, config: ModelConfig) -> "History":
        values = np.zeros((m, 2 * config.d), dtype=config.np_dtype)
        return cls(values, np.zeros(m, dtype=bool))


def _check_inputs(family: Family, params: ModelParams, config: ModelConfig) -> None:
    """Reject a family that the parameters cannot encode, before any block runs."""
    for kind, mode in (("residue", config.residue_mode), ("protein", config.protein_mode)):
        feats = getattr(family, f"{kind}_feats")
        if mode == "sidecar" and feats is None:
            raise ValueError(f"{kind}_mode=sidecar requires {kind} features")
        if mode == "sidecar" and feats.shape[-1] != config.d:
            width = feats.shape[-1]
            raise ValueError(f"family.{kind}_feats are {width} wide, expected d = {config.d}")
    table, expected = params.tensors["phi_pos"].shape, (family.n, config.d)
    if table != expected:
        raise ValueError(f"positional table {table} does not match residues {expected}")


def _encode_rows(
    family: Family, active: list[int], leaves: dict[str, ad.Tensor], config: ModelConfig
) -> tuple[ad.Tensor, ad.Tensor]:
    """Per-protein encoding of the ``active`` rows: (r_bar, h), each rows x d.

    Residues are embedded (a learned 20 x d projection, or sidecar rows),
    scaled by the position table, run through the attention stack and
    mean-pooled into r_bar; h is a second projection averaged over
    positions, or the protein sidecar rows. Inputs are checked beforehand.
    """
    dtype = config.np_dtype
    encoded = family.encoded[active]
    if config.residue_mode == "onehot":
        x = ad.take_rows(leaves["residue_embed"], encoded)
    else:
        x = ad.constant(family.residue_feats[active].astype(dtype, copy=False))
    r = ad.mul(x, leaves["phi_pos"])
    for layer in range(config.l_r):
        r = attention_layer(
            r, leaves, f"res{layer}", config.heads, label=f"residue layer {layer}"
        )
    r_bar = ad.mean_over(r, axis=1)
    if config.protein_mode == "onehot-mean":
        h = ad.mean_over(ad.take_rows(leaves["protein_embed"], encoded), axis=1)
    else:
        h = ad.constant(family.protein_feats[active].astype(dtype, copy=False))
    return r_bar, h


def _check_rows(rows, m: int) -> list[int]:
    """Requested rows as ints, rejecting any that is not an integer in [0, m)."""
    checked = []
    for r in rows:
        if not (_is_int(r) or isinstance(r, np.integer)) or not 0 <= r < m:
            raise ValueError(f"row {r!r} is not an integer in [0, {m})")
        checked.append(int(r))
    return checked


def _pool_rows(family: Family, train_ids) -> np.ndarray:
    """Ascending family rows of the anchor pool, whose ids must be unique
    family ids."""
    rows: dict[str, int] = {}
    for rid in train_ids:
        if rid in rows:
            raise ValueError(f"train_ids repeats the id {rid!r}")
        try:
            rows[rid] = family.index_of(rid)
        except KeyError:
            raise ValueError(f"train_ids holds {rid!r}, which is not a family id") from None
    return np.sort(np.fromiter(rows.values(), dtype=np.int64, count=len(rows)))


def _gradient_rows(
    family: Family, active: np.ndarray, requested: list[int], draw: int, seed: int
) -> np.ndarray:
    """Per ``active`` row, the probability with which it carries gradients in
    training step ``draw``, or 0 where the draw left it out.

    Every requested row carries them. Each of the r other rows does with
    probability q = min(1, b / r), b being the larger of the requested row
    count and the rows of one encode block, so a step backpropagates the
    batch plus about one block, and a step whose other rows fit one block
    keeps every row (q = 1). The draw runs over every family id, whose keys
    are kept between calls, and is read at the others.
    """
    batch = np.isin(active, requested)
    others = active[~batch]
    b = max(int(batch.sum()), _block_rows(LOGIT_BYTES * family.n**2))
    q = min(1.0, b / len(others)) if len(others) else 1.0
    prob = np.ones(len(active))
    drawn = sample_gradient_rows(family.ids, q, draw, seed=seed)
    prob[~batch] = np.where(drawn[others], q, 0.0)
    return prob


def build_forward(
    family: Family,
    params: ModelParams,
    config: ModelConfig,
    *,
    rows=None,
    train_ids=None,
    anchor_draw: int = 0,
    graph: Graph | None = None,
    grad: bool = True,
    history: History | None = None,
) -> ForwardGraph:
    """Run the full pipeline, returning tensors for the requested rows.

    The per-protein encoding runs in ``autodiff.map_rows`` blocks of
    65,536 // N^2 proteins, and evolformer's query rows in blocks of
    65,536 // M rows, on W worker threads, one per usable CPU. Training
    passes ``grad=True``: the leaves require gradients, every op records a
    backward closure that keeps only the arrays it reads, and each block
    keeps its graph until backward, which also runs per block. A step
    encodes with such leaves only the requested rows and the rows that
    ``anchor_draw`` samples (``_gradient_rows``), and the other active rows
    with constant leaves. The encoder output is a constant table, one row
    per active row (read from the history, encoded with constant leaves, or
    the value e of a row encoded with the step's leaves), plus the sampled
    term ``(e - constant(e.data)) / pi`` that ``autodiff.neighbor_sum``
    scatters to the carried rows, pi being each one's draw probability (1
    for the requested rows, and for every row when q = 1). The term is
    exactly 0, so the values are bitwise the table's, and the gradient
    reaching the parameters through the encoder is that of a step that
    backpropagates every row, in expectation over the draw, for every
    variant and any ``l_p``: the control variate of VR-GCN (Chen, Zhu &
    Song, 2018) over the historical embeddings of GNNAutoScale (Fey et al.,
    2021). Inference and validation pass ``grad=False``: the leaves are
    constants, so no graph is kept, and memory is O(W * block * N^2 +
    W * block * M + M * d).

    ``history``, which only ``training.train`` passes, is the family's
    ``History``. A step with ``grad=True`` reads from it every row that
    carries no gradients and that it holds, instead of encoding the row,
    and every call writes the rows it encodes, so validation refreshes it
    too but never reads it. In ``train`` each pool row is encoded at least
    once an epoch, in its own batch, and each validation encodes every
    evolgnn and evolformer row, so the values read are about an epoch old
    at most. A step that reads nothing, as in one whose other rows fit one
    block, is bitwise one without a history.

    ``rows`` are family row indices, in any order and possibly repeated;
    each must be an integer in [0, M). ``train_ids``, the anchor pool
    (default: every record), must be unique family ids. ``anchor_draw``
    keys a training step's anchor sets, and evaluation uses 0; with
    ``config.resample_anchors`` off the sets ignore it, but the sampled
    gradient rows do not. Sidecar features that the
    config reads must be ``config.d`` wide.
    """
    _check_inputs(family, params, config)
    dtype = config.np_dtype
    leaves = {
        name: ad.Tensor(value.astype(dtype, copy=False), requires_grad=grad)
        for name, value in params.tensors.items()
    }
    requested = list(range(family.m)) if rows is None else _check_rows(rows, family.m)
    if history is not None and (
        history.values.shape != (family.m, 2 * config.d) or history.values.dtype != dtype
    ):
        raise ValueError(
            f"history holds {history.values.shape} {history.values.dtype} values, "
            f"expected {(family.m, 2 * config.d)} {np.dtype(dtype)}"
        )

    if config.variant == "evolmpnn":
        pool_rows = _pool_rows(family, family.ids if train_ids is None else train_ids)
        # Sampled in row order, each set's positions map to ascending rows.
        pool_ids = [family.ids[row] for row in pool_rows]
        resample = config.resample_anchors
        anchor_sets_per_layer = [
            sample_anchor_sets(
                pool_ids,
                layer if resample else 0,
                anchor_draw if resample else 0,
                family.wild_type.id,
                k=config.anchor_k,
                seed=config.anchor_seed,
            )
            for layer in range(config.l_p)
        ]
        used = np.concatenate([s.member_ids for sets in anchor_sets_per_layer for s in sets])
        active = np.union1d(np.array(requested, dtype=np.int64), pool_rows[used])
        # Only members are looked up, and every member row is active.
        active_of_pool = np.searchsorted(active, pool_rows)
    else:
        if config.variant == "evolgnn":
            if graph is None:
                raise ValueError("evolgnn requires a graph over the family")
            if graph.n_nodes != family.m:
                raise ValueError(
                    f"graph has {graph.n_nodes} nodes but the family has {family.m} records"
                )
        active = np.arange(family.m)
    if grad:
        carried = _gradient_rows(family, active, requested, anchor_draw, config.anchor_seed)
    else:
        carried = np.zeros(len(active))
    cached = np.zeros(len(active), dtype=bool)
    if history is not None and grad:
        cached = (carried == 0) & history.held[active]
    read = np.flatnonzero(cached)
    frozen_at = np.flatnonzero(~cached & (carried == 0))
    carried_at = np.flatnonzero(carried)

    def encode(at, own_leaves) -> ad.Tensor:
        return ad.map_rows(
            lambda lo, hi, own: ad.concat_last(
                _encode_rows(family, active[at[lo:hi]], own, config)
            ),
            len(at),
            LOGIT_BYTES * family.n**2,
            own_leaves,
        )

    # Row i of the table is ``active[i]``, as the graph's edge list and the
    # anchor positions expect. Every row is encoded alone, so its values do not
    # depend on its block or on whether its leaves require gradients. Rows
    # encoded with constant leaves go first: they keep no graph, so their
    # blocks are freed before the carried rows' graph is built.
    values = np.empty((len(active), 2 * config.d), dtype=dtype)
    if len(read):
        values[read] = history.values[active[read]]
    if len(frozen_at):
        frozen = {name: ad.constant(leaf.data) for name, leaf in leaves.items()}
        values[frozen_at] = encode(frozen_at, frozen).data
    # The table plus the sampled term (e - constant(e.data)) / pi, scattered
    # to the carried rows: its value is 0, its gradient that of e / pi.
    if len(carried_at):
        e = encode(carried_at, leaves)
        values[carried_at] = e.data
        weight = (1.0 / carried[carried_at]).astype(dtype)
        sampled = ad.sub(e, ad.constant(e.data))
        index = np.arange(len(carried_at))
        term = ad.neighbor_sum(sampled, carried_at, index, len(active), weight)
        encoded = ad.add(ad.constant(values), term)
    else:
        encoded = ad.constant(values)
    if history is not None:
        history.values[active[~cached]] = values[~cached]
        history.held[active[~cached]] = True
    r_bar, h = ad.split_last(encoded, [config.d, config.d])

    # ``active`` is sorted, so a requested row's index is its insertion point.
    keep = np.searchsorted(active, requested)
    for layer in range(config.l_p):
        prefix = f"evo{layer}"
        if config.variant == "evolmpnn":
            # Members keep their ascending row order, which fixes each set's sums.
            members = [active_of_pool[s.member_ids] for s in anchor_sets_per_layer[layer]]
            h = evolmpnn_layer(h, r_bar, members, leaves[f"{prefix}.combine"])
        elif config.variant == "evolgnn":
            h = evolgnn_layer(
                h,
                r_bar,
                graph,
                leaves[f"{prefix}.neighbor"],
                leaves[f"{prefix}.gate"],
                leaves[f"{prefix}.combine"],
            )
        else:
            # Only the last layer's output is read, and only at ``keep``.
            last = keep if layer == config.l_p - 1 else None
            h = evolformer_layer(h, r_bar, leaves, prefix, config.heads, rows=last)
        if not np.all(np.isfinite(h.data)):
            raise NumericsError(f"non-finite activations after evolution layer {layer}")

    z_p = h if config.variant == "evolformer" else ad.take_rows(h, keep)
    z_r = ad.take_rows(r_bar, keep)
    z = ad.concat_last([z_p, z_r])
    y_hat = ad.matmul(z, leaves["w_final"])
    if not np.all(np.isfinite(y_hat.data)):
        raise NumericsError("non-finite predictions at the output head")
    return ForwardGraph(
        y_hat=y_hat,
        z=z,
        rows=requested,
        leaves=leaves,
        encoded_rows=len(active) - len(read),
        cached_rows=len(read),
        carried_rows=len(carried_at),
    )


def forward(
    family: Family,
    params: ModelParams,
    config: ModelConfig,
    *,
    rows=None,
    train_ids=None,
    graph: Graph | None = None,
) -> Prediction:
    """Inference-only forward pass with the evaluation anchor draw, returning
    plain arrays; keeps no graph."""
    fg = build_forward(
        family, params, config, rows=rows, train_ids=train_ids, graph=graph, grad=False
    )
    return Prediction(y_hat=fg.y_hat.data, z=fg.z.data)


def mse_loss(y_hat: ad.Tensor, targets: np.ndarray) -> ad.Tensor:
    """Mean squared error of the (rows, 1) head against a rows-long target vector."""
    targets = np.asarray(targets, dtype=y_hat.data.dtype)
    if targets.ndim != 1 or y_hat.data.shape != (targets.size, 1):
        raise ValueError(f"shape mismatch: {y_hat.data.shape} vs {targets.shape}")
    diff = ad.sub(y_hat, ad.constant(targets[:, None]))
    return ad.mean_over(ad.mul(diff, diff))
