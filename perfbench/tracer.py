"""In-memory span tracer that wraps evolmpnn's public functions from outside.

Spans are recorded around calls into each module, at the name the caller
looks up (``evolmpnn.model.sample_anchor_sets``, not the defining module's
name, because ``model`` imported it by value). Nothing inside the package
changes: ``install`` patches module and class attributes and ``uninstall``
puts the originals back.

A span's self time is its duration minus the durations of its direct
children; calls are single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import math
import os
import time
from dataclasses import asdict, dataclass, field

# Phase spans report inclusive time; every other span reports self time.
PHASES = ("training.train", "training.validation", "evaluation.predict")

TIMED_LAYERS = (
    "data.load_family",
    "data.load_split",
    "data.knn_graph",
    "evolution.sample_anchor_sets",
    "evolution.evolmpnn_layer",
    "evolution.evolgnn_layer",
    "evolution.evolformer_layer",
    "model.build_forward",
    "residue_encoder.attention_layer",
    "autodiff.backward",
    "autodiff.matmul",
    "training.adam_step",
    "evaluation.distortion",
    "evaluation.bourgain_embedding",
    "cli.save_checkpoint",
    "cli.load_checkpoint",
)

# name -> unit, in the order the benchmark reports them.
PER_LAYER_UNITS = {
    "data.load_family_s": "s",
    "data.load_split_s": "s",
    "data.knn_graph_s": "s",
    "data.knn_edges": "count",
    "evolution.sample_anchor_sets_s": "s",
    "evolution.sample_calls": "count",
    "evolution.hash_draws": "count",
    "evolution.anchor_set_size_mean": "rows",
    "evolution.fallback_sets": "count",
    "evolution.evolmpnn_layer_s": "s",
    "evolution.evolgnn_layer_s": "s",
    "evolution.evolformer_layer_s": "s",
    "model.build_forward_s": "s",
    "model.forward_calls": "count",
    "model.active_rows_mean": "rows",
    "model.useful_row_frac": "fraction",
    "residue_encoder.attention_layer_s": "s",
    "residue_encoder.attention_calls": "count",
    "autodiff.backward_s": "s",
    "autodiff.matmul_s": "s",
    "autodiff.matmul_calls": "count",
    "autodiff.matmul_gflop": "GFLOP",
    "autodiff.matmul_gflops": "GFLOP/s",
    "training.train_s": "s",
    "training.steps": "count",
    "training.adam_step_s": "s",
    "training.validation_s": "s",
    "evaluation.predict_s": "s",
    "evaluation.distortion_s": "s",
    "evaluation.bourgain_embedding_s": "s",
    "cli.save_checkpoint_s": "s",
    "cli.load_checkpoint_s": "s",
    "cli.checkpoint_bytes": "bytes",
}


@dataclass
class Span:
    id: int
    parent: int | None
    root: int
    name: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans in memory; ``install`` wires it into evolmpnn."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._patched: list[tuple[object, str, object]] = []

    def traced(self, fn, name, annotate=None):
        """Wrap ``fn`` so every call records a span named ``name``.

        ``annotate(attrs, args, kwargs, result)`` stores counters on the span.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(
                id=len(self.spans),
                parent=parent.id if parent else None,
                root=parent.root if parent else len(self.spans),
                name=name,
                start=time.perf_counter(),
            )
            self.spans.append(span)
            self._stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if annotate is not None:
                annotate(span.attrs, args, kwargs, result)
            return result

        return wrapper

    def _patch(self, owner, attr, replacement) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        from evolmpnn import autodiff, cli, data, evaluation, model, training

        t = self.traced
        self._patch(data, "load_family", t(data.load_family, "data.load_family"))
        self._patch(data, "load_split", t(data.load_split, "data.load_split"))
        self._patch(data, "knn_graph", t(data.knn_graph, "data.knn_graph", _note_edges))
        self._patch(
            model,
            "sample_anchor_sets",
            t(model.sample_anchor_sets, "evolution.sample_anchor_sets", _note_anchor_sets),
        )
        for layer in ("evolmpnn_layer", "evolgnn_layer", "evolformer_layer"):
            self._patch(model, layer, t(getattr(model, layer), f"evolution.{layer}"))
        # model's attention_layer is the residue encoder; evolformer_layer
        # reaches its own copy through evolmpnn.evolution and stays in its span.
        self._patch(
            model,
            "attention_layer",
            t(model.attention_layer, "residue_encoder.attention_layer", _note_rows),
        )
        self._patch(autodiff, "matmul", t(autodiff.matmul, "autodiff.matmul", _note_flop))
        self._patch(autodiff.Tensor, "backward", t(autodiff.Tensor.backward, "autodiff.backward"))
        self._patch(training.Adam, "step", t(training.Adam.step, "training.adam_step"))
        self._patch(training, "train", t(training.train, "training.train"))

        build_forward = t(model.build_forward, "model.build_forward", _note_requested)
        validation = t(build_forward, "training.validation")

        def training_build_forward(*args, **kwargs):
            # train() validates with the frozen draw 0; steps use draw >= 1.
            if kwargs.get("anchor_draw", 0) == 0:
                return validation(*args, **kwargs)
            return build_forward(*args, **kwargs)

        self._patch(model, "build_forward", build_forward)
        self._patch(training, "build_forward", training_build_forward)
        self._patch(evaluation, "predict", t(evaluation.predict, "evaluation.predict"))
        self._patch(evaluation, "distortion", t(evaluation.distortion, "evaluation.distortion"))
        self._patch(
            evaluation,
            "bourgain_embedding",
            t(evaluation.bourgain_embedding, "evaluation.bourgain_embedding"),
        )
        self._patch(
            cli, "save_checkpoint", t(cli.save_checkpoint, "cli.save_checkpoint", _note_bytes)
        )
        self._patch(cli, "load_checkpoint", t(cli.load_checkpoint, "cli.load_checkpoint"))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def self_seconds(self) -> dict[int, float]:
        """Span id -> duration minus the durations of its direct children."""
        out = {s.id: s.seconds for s in self.spans}
        for s in self.spans:
            if s.parent is not None:
                out[s.parent] -= s.seconds
        return out

    def per_layer(self) -> dict[str, float]:
        """The benchmark's per-layer metrics, from the recorded spans."""
        own = self.self_seconds()
        seconds = {name: 0.0 for name in TIMED_LAYERS + PHASES}
        calls = {name: 0 for name in seconds}
        attrs: dict[str, list[dict]] = {name: [] for name in seconds}
        for s in self.spans:
            seconds[s.name] += s.seconds if s.name in PHASES else own[s.id]
            calls[s.name] += 1
            attrs[s.name].append(s.attrs)

        def total(name, key):
            return sum(a.get(key, 0) for a in attrs[name])

        # Training steps are the build_forward calls made directly by train().
        by_id = {s.id: s for s in self.spans}
        first_rows = {}
        for s in self.spans:
            if s.name == "residue_encoder.attention_layer" and s.parent is not None:
                first_rows.setdefault(s.parent, s.attrs["rows"])
        steps = [
            s
            for s in self.spans
            if s.name == "model.build_forward"
            and s.parent is not None
            and by_id[s.parent].name == "training.train"
        ]
        active = sum(first_rows.get(s.id, 0) for s in steps)
        requested = sum(s.attrs.get("requested", 0) for s in steps)
        sets = total("evolution.sample_anchor_sets", "sets")
        gflop = total("autodiff.matmul", "flop") / 1e9
        metrics = {
            "data.knn_edges": total("data.knn_graph", "edges"),
            "evolution.sample_calls": calls["evolution.sample_anchor_sets"],
            "evolution.hash_draws": total("evolution.sample_anchor_sets", "hash_draws"),
            "evolution.anchor_set_size_mean": (
                total("evolution.sample_anchor_sets", "members") / sets if sets else 0.0
            ),
            "evolution.fallback_sets": total("evolution.sample_anchor_sets", "fallbacks"),
            "model.forward_calls": calls["model.build_forward"],
            "model.active_rows_mean": active / len(steps) if steps else 0.0,
            "model.useful_row_frac": requested / active if active else 0.0,
            "residue_encoder.attention_calls": calls["residue_encoder.attention_layer"],
            "autodiff.matmul_calls": calls["autodiff.matmul"],
            "autodiff.matmul_gflop": gflop,
            "autodiff.matmul_gflops": (
                gflop / seconds["autodiff.matmul"] if seconds["autodiff.matmul"] else 0.0
            ),
            "training.steps": calls["training.adam_step"],
            "cli.checkpoint_bytes": total("cli.save_checkpoint", "bytes"),
        }
        for name, value in seconds.items():
            metrics[f"{name}_s"] = value
        return {name: metrics[name] for name in PER_LAYER_UNITS}

    def train_shares(self) -> dict[str, float]:
        """Self time of each layer inside train(), as a share of train()'s wall time."""
        own = self.self_seconds()
        roots = {s.id: s.seconds for s in self.spans if s.name == "training.train"}
        total = sum(roots.values())
        shares: dict[str, float] = {}
        for s in self.spans:
            if s.root in roots and s.name not in PHASES:
                shares[s.name] = shares.get(s.name, 0.0) + own[s.id] / total
        return dict(sorted(shares.items(), key=lambda kv: -kv[1]))

    def dump(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def _note_edges(attrs, args, kwargs, graph):
    attrs["edges"] = int(len(graph.edges))


def _note_anchor_sets(attrs, args, kwargs, sets):
    pool = len(args[0])
    attrs["sets"] = len(sets)
    attrs["hash_draws"] = len(sets) * pool  # computed: one keyed hash per (set, protein)
    attrs["members"] = sum(len(s.member_ids) for s in sets)
    attrs["fallbacks"] = sum(s.fallback_used for s in sets)


def _note_rows(attrs, args, kwargs, out):
    attrs["rows"] = int(out.shape[0])


def _note_flop(attrs, args, kwargs, out):
    # computed: 2 * (output elements) * (contracted length)
    inner = args[0].shape[-1] if hasattr(args[0], "shape") else 1
    attrs["flop"] = 2 * math.prod(out.shape) * inner


def _note_requested(attrs, args, kwargs, fg):
    attrs["requested"] = len(fg.rows)


def _note_bytes(attrs, args, kwargs, result):
    attrs["bytes"] = os.path.getsize(args[2])
