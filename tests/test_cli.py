"""CLI surface, run configs, and checkpoint persistence."""

from __future__ import annotations

import json
import re
import struct
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from evolmpnn.cli import (
    CheckpointError,
    ConfigError,
    dispatch,
    load_checkpoint,
    load_run_config,
    save_checkpoint,
)
from evolmpnn.data import LandscapeSpec, load_family, load_split, synth_family
from evolmpnn.evaluation import predict
from evolmpnn.model import ModelConfig, init_params
from evolmpnn.training import TrainConfig
from test_embeddings import write_sidecar


def landscape_json(tmp_path, n=8, m=40, max_mutations=4, seed=3, scale=1.0):
    rng = np.random.default_rng(seed)
    doc = {
        "n": n,
        "m": m,
        "max_mutations": max_mutations,
        "additive": (scale * rng.normal(size=(n, 20))).tolist(),
        "epistasis": [],
        "noise_std": 0.0,
        "seed": seed,
    }
    path = tmp_path / "landscape.json"
    path.write_text(json.dumps(doc))
    return path


def run_config_json(tmp_path, family, split, **model_kw):
    model = dict(variant="evolmpnn", d=8, heads=2, l_r=1, l_p=1, dtype="float64")
    model.update(model_kw)
    doc = {
        "model": model,
        "train": {"lr": 3e-3, "epochs": 4, "batch_size": 64, "patience": 10, "seed": 0},
        "data": {"family": str(family), "split": str(split)},
    }
    path = tmp_path / "run.json"
    path.write_text(json.dumps(doc))
    return path


def make_dataset(tmp_path, n=8):
    spec_path = landscape_json(tmp_path, n=n)
    family_path = tmp_path / "family.csv"
    assert dispatch(["synth", "--config", str(spec_path), "--out", str(family_path)]) == 0
    split_path = tmp_path / "split.csv"
    code = dispatch(
        [
            "split",
            "--family",
            str(family_path),
            "--mode",
            "lambda",
            "--lambda",
            "2",
            "--valid-frac",
            "0.2",
            "--out",
            str(split_path),
        ]
    )
    assert code == 0
    return family_path, split_path


class TestPackageSurface:
    def test_lazy_submodule_access(self):
        import evolmpnn

        assert callable(evolmpnn.evaluation.spearman)
        assert evolmpnn.__version__
        with pytest.raises(AttributeError):
            evolmpnn.nonexistent_module


class TestSynthAndSplit:
    def test_synth_writes_loadable_family(self, tmp_path, capsys):
        spec = landscape_json(tmp_path)
        out = tmp_path / "fam.csv"
        assert dispatch(["synth", "--config", str(spec), "--out", str(out)]) == 0
        fam = load_family(out)
        assert fam.m == 40 and fam.n == 8
        info = json.loads(capsys.readouterr().out)
        assert info["m"] == 40

    @pytest.mark.parametrize(
        "key,value,message",
        [
            ("n", 4.9, "n must be an integer, got 4.9"),
            ("m", 10.5, "m must be an integer, got 10.5"),
            (
                "epistasis",
                [[1.7, 2, "A", "C", 1.0]],
                "epistasis[0] must be [int, int, str, str, number]: 1.7 is not an integer",
            ),
            ("seed", True, "seed must be an integer, got True"),
            ("noise_std", "0.1", "noise_std must be a finite number, got '0.1'"),
            ("m", None, "landscape spec has no 'm'"),  # None: the key is removed
        ],
    )
    def test_bad_landscape_exits_1_naming_the_field(
        self, tmp_path, capsys, key, value, message
    ):
        spec = landscape_json(tmp_path)
        doc = json.loads(spec.read_text())
        if value is None:
            del doc[key]
        else:
            doc[key] = value
        spec.write_text(json.dumps(doc))
        out = tmp_path / "fam.csv"
        assert dispatch(["synth", "--config", str(spec), "--out", str(out)]) == 1
        assert json.loads(capsys.readouterr().err)["error"] == message
        assert not out.exists()

    def test_synth_negative_seed_is_a_config_error(self, tmp_path, capsys):
        spec = landscape_json(tmp_path)
        out = tmp_path / "fam.csv"
        code = dispatch(["synth", "--config", str(spec), "--out", str(out), "--seed", "-3"])
        assert code == 1
        error = json.loads(capsys.readouterr().err)["error"]
        assert error == "invalid override: seed must be >= 0, got -3"
        assert not out.exists()

    def test_synth_seed_override_applies(self, tmp_path):
        spec = landscape_json(tmp_path, seed=3)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert dispatch(["synth", "--config", str(spec), "--out", str(a), "--seed", "4"]) == 0
        doc = json.loads(spec.read_text())
        spec.write_text(json.dumps({**doc, "seed": 4}))
        assert dispatch(["synth", "--config", str(spec), "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_synth_is_deterministic(self, tmp_path):
        spec = landscape_json(tmp_path)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        dispatch(["synth", "--config", str(spec), "--out", str(a)])
        dispatch(["synth", "--config", str(spec), "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_split_partitions_family(self, tmp_path):
        family_path, split_path = make_dataset(tmp_path)
        fam = load_family(family_path)
        split = load_split(split_path, fam)
        counts = fam.mutation_counts()
        for i, rid in enumerate(fam.ids):
            in_pool = counts[i] <= 2
            assert (split.tags[rid] in ("train", "valid")) == in_pool

    def test_low_high_mode(self, tmp_path):
        family_path, _ = make_dataset(tmp_path)
        out = tmp_path / "lh.csv"
        code = dispatch(
            ["split", "--family", str(family_path), "--mode", "low-high", "--out", str(out)]
        )
        assert code == 0
        fam = load_family(family_path)
        split = load_split(out, fam)
        assert split.counts()["train"] > 0

    def test_lambda_mode_requires_lambda(self, tmp_path, capsys):
        family_path, _ = make_dataset(tmp_path)
        code = dispatch(
            [
                "split",
                "--family",
                str(family_path),
                "--mode",
                "lambda",
                "--out",
                str(tmp_path / "x.csv"),
            ]
        )
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert "lambda" in err["error"]

    @pytest.mark.parametrize(
        "mode", [["--mode", "lambda", "--lambda", "2"], ["--mode", "low-high"]]
    )
    def test_split_negative_seed_names_the_field(self, tmp_path, capsys, mode):
        family_path, _ = make_dataset(tmp_path)
        out = tmp_path / "s.csv"
        capsys.readouterr()
        code = dispatch(
            ["split", "--family", str(family_path), *mode, "--seed", "-1", "--out", str(out)]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert json.loads(err) == {"error": "seed must be an integer >= 0, got -1"}
        assert not out.exists()

    @pytest.mark.parametrize("payload", [b"\xff\xfe{", b"{\"n\": "], ids=["utf8", "json"])
    @pytest.mark.parametrize("reader", ["landscape", "run_config", "checkpoint", "sidecar"])
    def test_undecodable_json_names_the_file(self, tmp_path, capsys, reader, payload):
        bad = tmp_path / "bad.json"
        if reader == "landscape":
            argv = ["synth", "--config", str(bad), "--out", str(tmp_path / "f.csv")]
        elif reader == "run_config":
            argv = ["train", "--config", str(bad), "--out", str(tmp_path / "m.ckpt")]
        elif reader == "checkpoint":
            bad = tmp_path / "bad.ckpt"
            argv = ["eval", "--ckpt", str(bad)]
            payload = b"EVCK" + struct.pack("<I", len(payload)) + payload
        else:
            family_path, split_path = make_dataset(tmp_path)
            cfg = run_config_json(tmp_path, family_path, split_path, protein_mode="sidecar")
            run = json.loads(cfg.read_text())
            run["data"]["protein_sidecar"] = bad.name
            cfg.write_text(json.dumps(run))
            argv = ["train", "--config", str(cfg), "--out", str(tmp_path / "m.ckpt")]
        bad.write_bytes(payload)
        capsys.readouterr()
        assert dispatch(argv) == 1
        message = json.loads(capsys.readouterr().err)["error"]
        assert message.startswith(f"{bad}: not a UTF-8 JSON document")

    def test_unknown_flag_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            dispatch(["split", "--bogus", "x"])
        assert exc.value.code == 2

    def test_missing_file_exits_1(self, tmp_path, capsys):
        code = dispatch(
            [
                "split",
                "--family",
                str(tmp_path / "absent.csv"),
                "--mode",
                "low-high",
                "--out",
                str(tmp_path / "s.csv"),
            ]
        )
        assert code == 1
        assert "error" in json.loads(capsys.readouterr().err)


class TestRunConfig:
    def test_paths_resolve_relative_to_config(self, tmp_path):
        (tmp_path / "family.csv").write_text("id,sequence,target,is_wild_type\n")
        doc = {"model": {}, "train": {}, "data": {"family": "family.csv"}}
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(doc))
        run = load_run_config(cfg)
        assert run["data"]["family"] == str((tmp_path / "family.csv").resolve())

    def test_unknown_section_rejected(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"model": {}, "extra": {}}))
        with pytest.raises(ConfigError, match="unknown run config sections"):
            load_run_config(cfg)

    def test_unknown_model_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"model": {"depth": 3}}))
        with pytest.raises(ValueError, match="unknown model config keys"):
            load_run_config(cfg)

    def test_readme_lists_every_config_field(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        for label, config in (("Model fields:", ModelConfig), ("Train fields:", TrainConfig)):
            listed = re.search(re.escape(label) + r"\s*`([^`]*)`", readme).group(1)
            assert [name.strip() for name in listed.split(",")] == [
                f.name for f in fields(config)
            ], label

    def test_unknown_data_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"data": {"families": "x.csv"}}))
        with pytest.raises(ConfigError, match="unknown data keys"):
            load_run_config(cfg)

    @pytest.mark.parametrize(
        "doc,message",
        [
            ([1], "run config must be a JSON object"),
            ({"model": ["d"]}, "section 'model' must be a JSON object"),
            ({"train": 3}, "section 'train' must be a JSON object"),
            ({"data": ["family"]}, "section 'data' must be a JSON object"),
            ({"model": None}, "section 'model' must be a JSON object"),
            ({"data": {"family": 3}}, "data.family must be a path string or null"),
            ({"data": {"split": ["s.csv"]}}, "data.split must be a path string or null"),
        ],
    )
    def test_malformed_document_is_a_config_error(self, tmp_path, capsys, doc, message):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(doc))
        ckpt = tmp_path / "model.ckpt"
        capsys.readouterr()
        assert dispatch(["train", "--config", str(cfg), "--out", str(ckpt)]) == 1
        assert message in json.loads(capsys.readouterr().err)["error"]
        assert not ckpt.exists()


class TestCheckpoints:
    def make_params(self, dtype="float32"):
        config = ModelConfig(variant="evolmpnn", d=4, heads=2, l_r=1, l_p=1, dtype=dtype)
        params = init_params(config, n_positions=5, seed=0)
        run = {"model": config.to_json(), "train": {}, "data": {}}
        return params, run

    def test_round_trip_is_bitwise_for_float32(self, tmp_path):
        params, run = self.make_params()
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, run, path)
        loaded, run_back = load_checkpoint(path)
        assert run_back["model"] == run["model"]
        assert set(loaded.tensors) == set(params.tensors)
        for name, value in params.tensors.items():
            assert loaded.tensors[name].dtype == np.float32
            np.testing.assert_array_equal(loaded.tensors[name], value)
        for name, value in params.buffers.items():
            np.testing.assert_array_equal(
                loaded.buffers[name], value.astype(np.float32)
            )

    def test_save_is_deterministic(self, tmp_path):
        params, run = self.make_params()
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(params, run, a)
        save_checkpoint(params, run, b)
        assert a.read_bytes() == b.read_bytes()

    def test_truncated_blob_fails_checksum(self, tmp_path):
        params, run = self.make_params()
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, run, path)
        path.write_bytes(path.read_bytes()[:-1])
        with pytest.raises(CheckpointError, match="blob is|checksum"):
            load_checkpoint(path)

    def test_shape_edit_names_tensor(self, tmp_path):
        params, run = self.make_params()
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, run, path)
        raw = path.read_bytes()
        (mlen,) = struct.unpack_from("<I", raw, 4)
        manifest = json.loads(raw[8 : 8 + mlen])
        manifest["tensors"][0]["shape"] = [1, 1]
        edited = json.dumps(manifest, sort_keys=True).encode()
        path.write_bytes(raw[:4] + struct.pack("<I", len(edited)) + edited + raw[8 + mlen :])
        name = manifest["tensors"][0]["name"]
        with pytest.raises(CheckpointError, match=name):
            load_checkpoint(path)

    def test_not_a_checkpoint(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"hello world")
        with pytest.raises(CheckpointError, match="not a checkpoint"):
            load_checkpoint(path)

    def write_edited(self, path, edit):
        """Save a checkpoint, then rewrite its manifest through ``edit``,
        which changes it in place or returns a replacement."""
        params, run = self.make_params()
        save_checkpoint(params, run, path)
        raw = path.read_bytes()
        (mlen,) = struct.unpack_from("<I", raw, 4)
        manifest = json.loads(raw[8 : 8 + mlen])
        replaced = edit(manifest)
        if replaced is not None:
            manifest = replaced
        edited = json.dumps(manifest, sort_keys=True).encode()
        path.write_bytes(raw[:4] + struct.pack("<I", len(edited)) + edited + raw[8 + mlen :])

    def test_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        self.write_edited(path, lambda m: m.update(format_version=99))
        with pytest.raises(CheckpointError, match="unsupported format version"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "key", ["blob_bytes", "checksum", "tensors", "config", "config.model"]
    )
    def test_missing_manifest_key_is_named(self, tmp_path, key):
        def drop(manifest):
            owner = manifest["config"] if key == "config.model" else manifest
            del owner[key.rpartition(".")[2]]

        path = tmp_path / "model.ckpt"
        self.write_edited(path, drop)
        with pytest.raises(CheckpointError, match=f"manifest has no '{key}'"):
            load_checkpoint(path)

    def test_non_finite_buffer_is_named(self, tmp_path):
        params, run = self.make_params()
        params.buffers["target_std"][:] = np.nan
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, run, path)
        with pytest.raises(CheckpointError, match="non-finite values in buffer 'target_std'"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "edit,message",
        [
            (lambda t: t.pop("evo0.combine"), "missing tensor 'evo0.combine'"),
            (lambda t: t.update(extra=np.zeros(3, np.float32)), "unexpected tensor 'extra'"),
            (
                lambda t: t.update(w_final=t["w_final"].reshape(1, -1)),
                r"tensor 'w_final' has shape \[1, 8\], the model config needs \[8, 1\]",
            ),
        ],
        ids=["missing", "extra", "wrong-shape"],
    )
    def test_tensors_checked_against_config(self, tmp_path, edit, message):
        params, run = self.make_params()
        edit(params.tensors)
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, run, path)
        with pytest.raises(CheckpointError, match=message):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "key,value,message",
        [
            (None, None, "manifest is not a JSON object"),
            ("name", None, "tensor entry 0 has no 'name'"),
            ("kind", None, r"tensor entry 0 \('residue_embed'\) has no 'kind'"),
            ("shape", None, r"tensor entry 0 \('residue_embed'\) has no 'shape'"),
            ("offset", None, r"tensor entry 0 \('residue_embed'\) has no 'offset'"),
            ("name", 3, "tensor entry 0 has an invalid 'name': 3"),
            ("kind", "weights", "has an invalid 'kind': 'weights'"),
            ("shape", "20x4", "has an invalid 'shape': '20x4'"),
            ("shape", [20, -4], r"has an invalid 'shape': \[20, -4\]"),
            ("offset", 0.5, "has an invalid 'offset': 0.5"),
            ("offset", True, "has an invalid 'offset': True"),
        ],
        ids=["list", "no-name", "no-kind", "no-shape", "no-offset", "name", "kind",
             "shape", "shape-entry", "offset", "offset-bool"],
    )
    def test_malformed_manifest_is_an_eval_error(self, tmp_path, capsys, key, value, message):
        def edit(manifest):
            if key is None:
                return [manifest]
            entry = manifest["tensors"][0]
            if value is None:
                del entry[key]
            else:
                entry[key] = value

        path = tmp_path / "model.ckpt"
        self.write_edited(path, edit)
        assert dispatch(["eval", "--ckpt", str(path)]) == 1
        assert re.search(message, json.loads(capsys.readouterr().err)["error"])

    def test_negative_anchor_seed_is_an_eval_error(self, tmp_path, capsys):
        path = tmp_path / "model.ckpt"
        self.write_edited(path, lambda m: m["config"]["model"].update(anchor_seed=-3))
        assert dispatch(["eval", "--ckpt", str(path)]) == 1
        error = json.loads(capsys.readouterr().err)["error"]
        assert error == "anchor_seed must be >= 0, got -3"

    @pytest.mark.parametrize("config", [["model"], {"model": ["d"]}], ids=["config", "model"])
    def test_model_config_must_be_an_object(self, tmp_path, capsys, config):
        path = tmp_path / "model.ckpt"
        self.write_edited(path, lambda m: m.update(config=config))
        assert dispatch(["eval", "--ckpt", str(path)]) == 1
        error = json.loads(capsys.readouterr().err)["error"]
        assert "manifest has no 'config.model' object" in error

    def test_legacy_theta_1_loads_and_predicts_equal(self, tmp_path):
        # Model configs written before targets became scalar carry "theta": 1.
        params, run = self.make_params()
        fresh, legacy = tmp_path / "fresh.ckpt", tmp_path / "legacy.ckpt"
        save_checkpoint(params, run, fresh)
        self.write_edited(legacy, lambda m: m["config"]["model"].update(theta=1))
        fresh_params, fresh_run = load_checkpoint(fresh)
        legacy_params, legacy_run = load_checkpoint(legacy)
        assert "theta" not in fresh_run["model"] and legacy_run["model"]["theta"] == 1
        spec = LandscapeSpec(
            n=5, m=12, max_mutations=3, additive=np.zeros((5, 20)), epistasis=[]
        )
        fam = synth_family(spec)
        config = ModelConfig.from_json(legacy_run["model"])
        assert config == ModelConfig.from_json(fresh_run["model"])
        expected = predict(fam, fresh_params, config)
        assert predict(fam, legacy_params, config).tobytes() == expected.tobytes()

    def test_version_1_asks_for_retraining(self, tmp_path):
        # Anchors are recomputed at load time, so a model trained against the
        # old sampler's anchors must not silently evaluate against new ones.
        path = tmp_path / "model.ckpt"
        self.write_edited(path, lambda m: m.update(format_version=1))
        with pytest.raises(CheckpointError, match="old anchor sampler.*retrain"):
            load_checkpoint(path)


class TestTrainEvalPipeline:
    def test_end_to_end_train_eval(self, tmp_path, capsys):
        family_path, split_path = make_dataset(tmp_path)
        cfg = run_config_json(tmp_path, family_path, split_path)
        ckpt = tmp_path / "model.ckpt"
        assert dispatch(["train", "--config", str(cfg), "--out", str(ckpt)]) == 0
        assert ckpt.exists()
        assert (tmp_path / (ckpt.name + ".log.jsonl")).exists()
        capsys.readouterr()
        metrics_out = tmp_path / "metrics.json"
        code = dispatch(
            ["eval", "--ckpt", str(ckpt), "--out", str(metrics_out), "--group-edges", "1,3"]
        )
        assert code == 0
        stdout_doc = json.loads(capsys.readouterr().out)
        assert {"spearman", "mse", "by_mutation_count", "runtime_s"} <= set(stdout_doc)
        file_doc = json.loads(metrics_out.read_text())
        assert "runtime_s" not in file_doc
        assert file_doc["spearman"] == stdout_doc["spearman"]
        assert set(file_doc["by_mutation_count"]) == {"1-2", "3+"}
        for edges in ("1,1,3", "3,1"):
            assert dispatch(["eval", "--ckpt", str(ckpt), "--group-edges", edges]) == 1
            error = json.loads(capsys.readouterr().err)["error"]
            assert error == "--group-edges must be strictly ascending and non-empty"

    def test_eval_file_artifacts_are_reproducible(self, tmp_path, capsys):
        family_path, split_path = make_dataset(tmp_path)
        cfg = run_config_json(tmp_path, family_path, split_path)
        ckpt_a, ckpt_b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        dispatch(["train", "--config", str(cfg), "--out", str(ckpt_a)])
        dispatch(["train", "--config", str(cfg), "--out", str(ckpt_b)])
        assert ckpt_a.read_bytes() == ckpt_b.read_bytes()
        out_a, out_b = tmp_path / "ma.json", tmp_path / "mb.json"
        dispatch(["eval", "--ckpt", str(ckpt_a), "--out", str(out_a)])
        dispatch(["eval", "--ckpt", str(ckpt_b), "--out", str(out_b)])
        capsys.readouterr()
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_variant_override_flows_to_checkpoint(self, tmp_path, capsys):
        family_path, split_path = make_dataset(tmp_path)
        cfg = run_config_json(tmp_path, family_path, split_path)
        ckpt = tmp_path / "g.ckpt"
        code = dispatch(
            [
                "train",
                "--config",
                str(cfg),
                "--out",
                str(ckpt),
                "--variant",
                "evolgnn",
                "--knn-k",
                "3",
            ]
        )
        assert code == 0
        _, run_back = load_checkpoint(ckpt)
        assert run_back["model"]["variant"] == "evolgnn"
        assert run_back["model"]["knn_k"] == 3
        capsys.readouterr()
        assert dispatch(["eval", "--ckpt", str(ckpt)]) == 0

    def test_invalid_override_is_a_config_error(self, tmp_path, capsys):
        family_path, split_path = make_dataset(tmp_path)
        cfg = run_config_json(tmp_path, family_path, split_path)
        ckpt = tmp_path / "g.ckpt"
        capsys.readouterr()
        code = dispatch(
            ["train", "--config", str(cfg), "--out", str(ckpt), "--knn-k", "0"]
        )
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert "knn_k must be positive" in err["error"]
        assert not ckpt.exists()

    def test_negative_seed_override_is_a_config_error(self, tmp_path, capsys):
        # Rejected with the config, before the data files are opened.
        cfg = run_config_json(tmp_path, tmp_path / "family.csv", tmp_path / "split.csv")
        ckpt = tmp_path / "model.ckpt"
        code = dispatch(["train", "--config", str(cfg), "--out", str(ckpt), "--seed", "-1"])
        assert code == 1
        error = json.loads(capsys.readouterr().err)["error"]
        assert error == "invalid override: seed must be >= 0, got -1"
        assert not ckpt.exists()

    @pytest.mark.parametrize(
        "section,key,value",
        [
            ("model", "d", "32"),
            ("model", "heads", True),
            ("model", "resample_anchors", "false"),
            ("model", "anchor_k", 0),
            ("model", "anchor_seed", -3),
            ("train", "epochs", 2.5),
            ("train", "lr", float("inf")),
            ("train", "beta1", 1.0),
            ("train", "eps", 0.0),
            ("train", "seed", -1),
        ],
    )
    def test_invalid_config_value_is_a_json_error(
        self, tmp_path, capsys, section, key, value
    ):
        error = self.config_error(tmp_path, capsys, section, key, value)
        assert error.startswith(f"{key} must be")

    @pytest.mark.parametrize(
        "section,key,value",
        [
            ("model", "theta", 2),
            ("model", "theta", True),
            ("model", "theta", 1.0),
            ("train", "standardize_targets", False),
        ],
    )
    def test_removed_field_is_an_unknown_key(self, tmp_path, capsys, section, key, value):
        # Targets are scalar and always standardized; only a legacy integer
        # "theta": 1 is accepted, and dropped.
        error = self.config_error(tmp_path, capsys, section, key, value)
        assert error == f"unknown {section} config keys: ['{key}']"

    @staticmethod
    def config_error(tmp_path, capsys, section, key, value) -> str:
        """The error of ``train`` on a run config with one value set; config
        validation fails before the data files are opened."""
        cfg = run_config_json(tmp_path, tmp_path / "family.csv", tmp_path / "split.csv")
        doc = json.loads(cfg.read_text())
        doc[section][key] = value
        cfg.write_text(json.dumps(doc))
        ckpt = tmp_path / "model.ckpt"
        capsys.readouterr()
        assert dispatch(["train", "--config", str(cfg), "--out", str(ckpt)]) == 1
        assert not ckpt.exists()
        return json.loads(capsys.readouterr().err)["error"]

    def test_eval_on_family_of_other_length(self, tmp_path, capsys):
        family_path, split_path = make_dataset(tmp_path)
        cfg = run_config_json(tmp_path, family_path, split_path)
        ckpt = tmp_path / "model.ckpt"
        assert dispatch(["train", "--config", str(cfg), "--out", str(ckpt)]) == 0
        other = tmp_path / "other"
        other.mkdir()
        other_family, other_split = make_dataset(other, n=6)
        capsys.readouterr()
        code = dispatch(
            ["eval", "--ckpt", str(ckpt), "--family", str(other_family)]
            + ["--split", str(other_split)]
        )
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert "positional table (8, 8) does not match residues (6, 8)" in err["error"]

    def test_distortion_reference(self, tmp_path, capsys):
        family_path, _ = make_dataset(tmp_path)
        capsys.readouterr()
        code = dispatch(["distortion", "--family", str(family_path)])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["metric"] == "hamming"
        assert doc["pairs"] > 0

    def test_distortion_from_checkpoint(self, tmp_path, capsys):
        family_path, split_path = make_dataset(tmp_path)
        cfg = run_config_json(tmp_path, family_path, split_path)
        ckpt = tmp_path / "model.ckpt"
        dispatch(["train", "--config", str(cfg), "--out", str(ckpt)])
        capsys.readouterr()
        assert dispatch(["distortion", "--ckpt", str(ckpt)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["pairs"] > 0

    def test_distortion_negative_seed_names_the_field(self, tmp_path, capsys):
        family_path, _ = make_dataset(tmp_path)
        out = tmp_path / "d.json"
        capsys.readouterr()
        code = dispatch(
            ["distortion", "--family", str(family_path), "--seed", "-1", "--out", str(out)]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert json.loads(err) == {"error": "seed must be >= 0, got -1"}
        assert not out.exists()

    @pytest.mark.parametrize("variant,code", [("evolmpnn", 1), ("evolformer", 0)])
    def test_distortion_without_split(self, tmp_path, capsys, variant, code):
        # Anchors come from the training rows; the transductive variants use none.
        family_path, _ = make_dataset(tmp_path)
        config = ModelConfig(variant=variant, d=8, heads=2, l_r=1, l_p=1)
        run = {"model": config.to_json(), "train": {}, "data": {"family": str(family_path)}}
        ckpt = tmp_path / "model.ckpt"
        save_checkpoint(init_params(config, n_positions=8), run, ckpt)
        capsys.readouterr()
        assert dispatch(["distortion", "--ckpt", str(ckpt)]) == code
        if code:
            err = json.loads(capsys.readouterr().err)
            assert "needs data.split" in err["error"]

    def test_sidecar_modes_train_eval_and_distortion(self, tmp_path, capsys):
        family_path, split_path = make_dataset(tmp_path)
        fam = load_family(family_path)
        rng = np.random.default_rng(4)
        write_sidecar(tmp_path / "protein.evsc", fam.ids, rng.normal(size=(fam.m, 8)))
        write_sidecar(
            tmp_path / "residue.json", fam.ids, rng.normal(size=(fam.m, fam.n, 8)), fmt="json"
        )
        cfg = run_config_json(
            tmp_path, family_path, split_path, protein_mode="sidecar", residue_mode="sidecar"
        )
        doc = json.loads(cfg.read_text())
        doc["data"].update(protein_sidecar="protein.evsc", residue_sidecar="residue.json")
        cfg.write_text(json.dumps(doc))
        ckpt = tmp_path / "model.ckpt"
        assert dispatch(["train", "--config", str(cfg), "--out", str(ckpt)]) == 0
        capsys.readouterr()
        assert dispatch(["eval", "--ckpt", str(ckpt)]) == 0
        metrics = json.loads(capsys.readouterr().out)
        assert np.isfinite(metrics["spearman"]) and np.isfinite(metrics["mse"])
        assert dispatch(["distortion", "--ckpt", str(ckpt)]) == 0
        assert json.loads(capsys.readouterr().out)["pairs"] > 0

    @pytest.mark.parametrize(
        "doc,message",
        [
            ([], "a JSON sidecar must be an object"),
            ({"magic": "EVSC", "count": 0, "records": []}, "'dim' must be a positive integer"),
            ({"magic": "EVSC", "count": 1, "dim": 8, "records": [5]}, "record 0 must be an object"),
        ],
    )
    def test_malformed_json_sidecar_is_a_train_error(self, tmp_path, capsys, doc, message):
        family_path, split_path = make_dataset(tmp_path)
        cfg = run_config_json(tmp_path, family_path, split_path, protein_mode="sidecar")
        run = json.loads(cfg.read_text())
        run["data"]["protein_sidecar"] = "protein.json"
        cfg.write_text(json.dumps(run))
        (tmp_path / "protein.json").write_text(json.dumps(doc))
        capsys.readouterr()
        assert dispatch(["train", "--config", str(cfg), "--out", str(tmp_path / "m.ckpt")]) == 1
        assert message in json.loads(capsys.readouterr().err)["error"]
