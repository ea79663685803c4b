"""Command-line surface: synth, split, train, eval, distortion.

Exit codes: 0 success, 1 validation/runtime failure (single-line JSON on
stderr), 2 usage errors (argparse text). Runs are reproducible: identical
inputs and seeds write identical output files.
"""

from __future__ import annotations

import os

from . import worker_threads

# With EVOLMPNN_THREADS set, the package's row blocks run on that many Python
# threads, and each block's small GEMMs stay on one BLAS thread: BLAS threads
# on top of the workers only contend for the same cores. This must land
# before numpy binds its BLAS thread pool.
if worker_threads() is not None:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, "1")

import argparse
import hashlib
import json
import struct
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .data import (
    knn_graph,
    load_family,
    load_landscape_spec,
    load_split,
    save_family,
    save_split,
    split_lambda_vs_rest,
    split_low_vs_high,
    synth_family,
)
from .embeddings import load_protein_sidecar, load_residue_sidecar
from .evaluation import bourgain_embedding, distortion, evaluate
from .model import ModelConfig, ModelParams, forward, init_params
from .training import TrainConfig, train

CHECKPOINT_MAGIC = b"EVCK"
# Version 2: anchor sets come from the splitmix64 sampler. Anchors are
# recomputed at load time, so a version-1 model would see different ones.
CHECKPOINT_VERSION = 2


class ConfigError(ValueError):
    """Raised for malformed run configuration documents."""


class CheckpointError(ValueError):
    """Raised when a checkpoint fails validation."""


# ---------------------------------------------------------------------------
# Run configuration
# ---------------------------------------------------------------------------


def load_run_config(path) -> dict:
    """Parse and validate a run config; paths resolve relative to the file."""
    path = Path(path)
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ConfigError("run config must be a JSON object")
    unknown = set(doc) - {"model", "train", "data"}
    if unknown:
        raise ConfigError(f"unknown run config sections: {sorted(unknown)}")
    for section in ("model", "train", "data"):
        if not isinstance(doc.get(section, {}), dict):
            raise ConfigError(f"run config section {section!r} must be a JSON object")
    model = ModelConfig.from_json(doc.get("model", {}))
    train_cfg = TrainConfig.from_json(doc.get("train", {}))
    data = dict(doc.get("data", {}))
    known_data = {"family", "split", "protein_sidecar", "residue_sidecar"}
    unknown = set(data) - known_data
    if unknown:
        raise ConfigError(f"unknown data keys: {sorted(unknown)}")
    base = path.parent
    for key, value in data.items():
        if value is None:
            continue
        if not isinstance(value, str):
            raise ConfigError(f"data.{key} must be a path string or null, got {value!r}")
        data[key] = str((base / value).resolve())
    return {"model": model, "train": train_cfg, "data": data}


def run_config_json(model: ModelConfig, train_cfg: TrainConfig, data: dict) -> dict:
    return {"model": model.to_json(), "train": train_cfg.to_json(), "data": data}


# ---------------------------------------------------------------------------
# Checkpoints: manifest JSON + one float32 little-endian blob
# ---------------------------------------------------------------------------


def save_checkpoint(params: ModelParams, run_config: dict, path) -> None:
    """Write tensors (float32 LE) with a checksummed manifest."""
    entries = []
    chunks = []
    offset = 0
    for kind, table in (("param", params.tensors), ("buffer", params.buffers)):
        for name, value in table.items():
            payload = np.ascontiguousarray(value, dtype="<f4").tobytes()
            entries.append(
                {
                    "name": name,
                    "kind": kind,
                    "shape": list(value.shape),
                    "dtype": "float32",
                    "offset": offset,
                }
            )
            chunks.append(payload)
            offset += len(payload)
    blob = b"".join(chunks)
    manifest = {
        "format_version": CHECKPOINT_VERSION,
        "config": run_config,
        "tensors": entries,
        "blob_bytes": len(blob),
        "checksum": "sha256:" + hashlib.sha256(blob).hexdigest(),
    }
    manifest_bytes = json.dumps(manifest, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", len(manifest_bytes)))
        fh.write(manifest_bytes)
        fh.write(blob)


def load_checkpoint(path) -> tuple[ModelParams, dict]:
    """Read a checkpoint, verifying checksum and per-tensor extents."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 8 or raw[:4] != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file")
    (manifest_len,) = struct.unpack_from("<I", raw, 4)
    manifest_end = 8 + manifest_len
    if manifest_end > len(raw):
        raise CheckpointError(f"{path}: truncated manifest")
    manifest = json.loads(raw[8:manifest_end].decode("utf-8"))
    if not isinstance(manifest, dict):
        raise CheckpointError(f"{path}: manifest is not a JSON object")
    if manifest.get("format_version") == 1:
        raise CheckpointError(
            f"{path}: format version 1 was written by the old anchor sampler, "
            "whose anchor sets this version no longer reproduces; retrain the model"
        )
    if manifest.get("format_version") != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"{path}: unsupported format version {manifest.get('format_version')}"
        )
    for key in ("blob_bytes", "checksum", "tensors", "config"):
        if key not in manifest:
            raise CheckpointError(f"{path}: manifest has no {key!r}")
    if not isinstance(manifest["config"], dict) or not isinstance(
        manifest["config"].get("model"), dict
    ):
        raise CheckpointError(f"{path}: manifest has no 'config.model' object")
    if not isinstance(manifest["tensors"], list):
        raise CheckpointError(f"{path}: manifest 'tensors' is not a list")
    blob = raw[manifest_end:]
    if len(blob) != manifest["blob_bytes"]:
        raise CheckpointError(
            f"{path}: blob is {len(blob)} bytes, manifest says {manifest['blob_bytes']}"
        )
    digest = "sha256:" + hashlib.sha256(blob).hexdigest()
    if digest != manifest["checksum"]:
        raise CheckpointError(f"{path}: checksum mismatch")
    entries = manifest["tensors"]
    model_doc = manifest["config"]["model"]
    config = ModelConfig.from_json(model_doc)
    tensors: dict[str, np.ndarray] = {}
    buffers: dict[str, np.ndarray] = {}
    for i, entry in enumerate(entries):
        _check_entry(path, i, entry)
    for i, entry in enumerate(entries):
        start = entry["offset"]
        end = entries[i + 1]["offset"] if i + 1 < len(entries) else len(blob)
        expected = int(np.prod(entry["shape"])) * 4
        if end - start != expected:
            raise CheckpointError(
                f"{path}: tensor {entry['name']!r} declares shape {entry['shape']} "
                f"({expected} bytes) but occupies {end - start}"
            )
        value = np.frombuffer(blob, dtype="<f4", count=expected // 4, offset=start)
        value = value.reshape(entry["shape"]).astype(config.np_dtype)
        (tensors if entry["kind"] == "param" else buffers)[entry["name"]] = value
    _check_against_config(path, config, tensors, buffers)
    params = ModelParams(tensors, buffers)
    try:
        params.check_finite()
    except ValueError as err:
        raise CheckpointError(f"{path}: {err}") from err
    return params, manifest["config"]


def _is_count(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


_ENTRY_FIELDS = {
    "name": lambda v: isinstance(v, str),
    "kind": lambda v: v in ("param", "buffer"),
    "shape": lambda v: isinstance(v, list) and all(_is_count(s) for s in v),
    "offset": _is_count,
}


def _check_entry(path, i: int, entry) -> None:
    """A tensor entry gives its name, kind, shape and offset into the blob."""
    if not isinstance(entry, dict):
        raise CheckpointError(f"{path}: tensor entry {i} is not a JSON object")
    label = f"tensor entry {i}"
    if isinstance(entry.get("name"), str):
        label += f" ({entry['name']!r})"
    for key, valid in _ENTRY_FIELDS.items():
        if key not in entry:
            raise CheckpointError(f"{path}: {label} has no {key!r}")
        if not valid(entry[key]):
            raise CheckpointError(f"{path}: {label} has an invalid {key!r}: {entry[key]!r}")


def _check_against_config(path, config: ModelConfig, tensors: dict, buffers: dict) -> None:
    """Stored names and shapes must be those ``init_params`` gives the config.

    The sequence length comes from the stored position table.
    """
    phi_pos = tensors.get("phi_pos")
    n = phi_pos.shape[0] if phi_pos is not None and phi_pos.ndim else 1
    fresh = init_params(config, n)
    for kind, stored, expected in (
        ("tensor", tensors, fresh.tensors),
        ("buffer", buffers, fresh.buffers),
    ):
        for name in sorted(expected.keys() - stored.keys()):
            raise CheckpointError(f"{path}: missing {kind} {name!r}")
        for name, value in stored.items():
            if name not in expected:
                raise CheckpointError(f"{path}: unexpected {kind} {name!r}")
            if value.shape != expected[name].shape:
                raise CheckpointError(
                    f"{path}: {kind} {name!r} has shape {list(value.shape)}, "
                    f"the model config needs {list(expected[name].shape)}"
                )


# ---------------------------------------------------------------------------
# Data loading shared by train/eval/distortion
# ---------------------------------------------------------------------------


def _load_inputs(config: ModelConfig, data: dict):
    family = load_family(data["family"])
    split = load_split(data["split"], family) if data.get("split") else None
    graph = knn_graph(family, config.knn_k) if config.variant == "evolgnn" else None
    if config.protein_mode == "sidecar":
        if not data.get("protein_sidecar"):
            raise ConfigError("protein_mode=sidecar needs data.protein_sidecar")
        family.protein_feats = load_protein_sidecar(data["protein_sidecar"], family, config.d)
    if config.residue_mode == "sidecar":
        if not data.get("residue_sidecar"):
            raise ConfigError("residue_mode=sidecar needs data.residue_sidecar")
        family.residue_feats = load_residue_sidecar(data["residue_sidecar"], family, config.d)
    return family, split, graph


def _write_json(doc: dict, out_path=None) -> None:
    text = json.dumps(doc, sort_keys=True)
    if out_path:
        Path(out_path).write_text(text + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_synth(args) -> int:
    spec = load_landscape_spec(args.config)
    if args.seed is not None:
        try:
            spec = replace(spec, seed=args.seed)
        except ValueError as err:
            raise ConfigError(f"invalid override: {err}") from err
    family = synth_family(spec)
    save_family(family, args.out)
    print(json.dumps({"written": str(args.out), "m": family.m, "n": family.n}))
    return 0


def cmd_split(args) -> int:
    family = load_family(args.family)
    if args.mode == "lambda":
        if args.lam is None:
            raise ConfigError("--mode lambda requires --lambda")
        split = split_lambda_vs_rest(family, args.lam, args.valid_frac, args.seed)
    else:
        split = split_low_vs_high(family, args.valid_frac, args.seed)
    save_split(split, args.out)
    print(json.dumps({"written": str(args.out), **split.counts()}))
    return 0


def cmd_train(args) -> int:
    run = load_run_config(args.config)
    model_config: ModelConfig = run["model"]
    train_config: TrainConfig = run["train"]
    overrides = {"variant": args.variant, "knn_k": args.knn_k}
    try:
        if args.seed is not None:
            train_config = replace(train_config, seed=args.seed)
        model_config = replace(
            model_config, **{k: v for k, v in overrides.items() if v is not None}
        )
    except ValueError as err:
        raise ConfigError(f"invalid override: {err}") from err
    if not run["data"].get("family") or not run["data"].get("split"):
        raise ConfigError("train requires data.family and data.split")
    family, split, graph = _load_inputs(model_config, run["data"])
    log_path = args.log or str(args.out) + ".log.jsonl"
    params, report = train(
        family, split, model_config, train_config, graph=graph, log_path=log_path
    )
    save_checkpoint(params, run_config_json(model_config, train_config, run["data"]), args.out)
    print(
        json.dumps(
            {
                "written": str(args.out),
                "best_epoch": report.best_epoch,
                "best_valid_rho": report.best_valid_rho,
                "epochs_run": len(report.epochs),
            },
            sort_keys=True,
        )
    )
    return 0


def _parse_group_edges(text: str | None):
    if text is None:
        return None
    try:
        edges = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ConfigError(f"--group-edges must be comma-separated integers, got {text!r}")
    if not edges or any(lo >= hi for lo, hi in zip(edges, edges[1:])):
        raise ConfigError("--group-edges must be strictly ascending and non-empty")
    return edges


def cmd_eval(args) -> int:
    params, run_config = load_checkpoint(args.ckpt)
    model_config = ModelConfig.from_json(run_config["model"])
    data = dict(run_config.get("data", {}))
    if args.family:
        data["family"] = args.family
    if args.split:
        data["split"] = args.split
    if not data.get("family") or not data.get("split"):
        raise ConfigError("eval needs --family/--split or paths in the checkpoint")
    family, split, graph = _load_inputs(model_config, data)
    metrics = evaluate(
        family,
        split,
        params,
        model_config,
        tag=args.tag,
        group_edges=_parse_group_edges(args.group_edges),
        graph=graph,
    )
    print(json.dumps(metrics.to_json(), sort_keys=True))
    # File artifacts omit wall-clock so identical runs hash identically.
    _write_json(metrics.to_json(include_runtime=False), args.out)
    return 0


def cmd_distortion(args) -> int:
    if args.ckpt:
        params, run_config = load_checkpoint(args.ckpt)
        model_config = ModelConfig.from_json(run_config["model"])
        data = dict(run_config.get("data", {}))
        if args.family:
            data["family"] = args.family
        if not data.get("family"):
            raise ConfigError("distortion needs --family or a checkpoint data path")
        if model_config.variant == "evolmpnn" and not data.get("split"):
            # Without a split every protein, test rows included, would be an anchor.
            raise ConfigError(
                "distortion of an evolmpnn checkpoint needs data.split in its run config"
            )
        family, split, graph = _load_inputs(model_config, data)
        train_ids = [family.ids[i] for i in split.rows(family, "train")] if split else None
        pred = forward(family, params, model_config, train_ids=train_ids, graph=graph)
        report = distortion(pred.z, family)
    else:
        if not args.family:
            raise ConfigError("distortion needs --ckpt or --family")
        family = load_family(args.family)
        from .data import pairwise_hamming

        base = pairwise_hamming(family.encoded).astype(float)
        emb = bourgain_embedding(base, seed=args.seed)
        report = distortion(emb, family, metric="hamming")
    print(json.dumps(report.to_json(), sort_keys=True))
    _write_json(report.to_json(), args.out)
    return 0


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="evolmpnn",
        description="Evolution-aware message passing for protein property prediction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic family CSV")
    p.add_argument("--config", required=True, help="LandscapeSpec JSON")
    p.add_argument("--out", required=True, help="family CSV destination")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("split", help="write a train/valid/test split CSV")
    p.add_argument("--family", required=True)
    p.add_argument("--mode", choices=["lambda", "low-high"], required=True)
    p.add_argument("--lambda", dest="lam", type=int, default=None)
    p.add_argument("--valid-frac", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("train", help="train a model and write a checkpoint")
    p.add_argument("--config", required=True, help="run config JSON")
    p.add_argument("--out", required=True, help="checkpoint destination")
    p.add_argument("--seed", type=int, default=None, help="override train.seed")
    p.add_argument("--variant", choices=["evolmpnn", "evolgnn", "evolformer"], default=None)
    p.add_argument("--knn-k", type=int, default=None)
    p.add_argument("--log", default=None, help="TrainReport JSONL path")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint; metrics JSON on stdout")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--family", default=None)
    p.add_argument("--split", default=None)
    p.add_argument("--tag", choices=["train", "valid", "test"], default="test")
    p.add_argument("--group-edges", default=None, help="e.g. 1,3,5,8")
    p.add_argument("--out", default=None, help="also write metrics JSON here")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("distortion", help="embedding distortion diagnostic")
    p.add_argument("--ckpt", default=None, help="use a trained model's embeddings")
    p.add_argument("--family", default=None)
    p.add_argument("--seed", type=int, default=0, help="reference embedder seed")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_distortion)
    return parser


def dispatch(argv) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, KeyError, FloatingPointError, RuntimeError) as err:
        sys.stderr.write(json.dumps({"error": str(err)}) + "\n")
        return 1


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
