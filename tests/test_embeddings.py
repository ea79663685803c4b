"""The encoder's embedding ops, the position table and the sidecar files."""

from __future__ import annotations

import base64
import json

import numpy as np
import pytest

from evolmpnn import autodiff as ad
from evolmpnn import model
from evolmpnn.data import AA_INDEX, Family, ProteinRecord
from evolmpnn.embeddings import (
    SidecarError,
    init_positional_table,
    load_protein_sidecar,
    load_residue_sidecar,
    write_sidecar,
)
from evolmpnn.model import ModelConfig, forward, init_params


def make_family(seqs):
    return Family(
        [
            ProteinRecord(f"p{i}", s, (0.0,), is_wild_type=i == 0)
            for i, s in enumerate(seqs)
        ]
    )


def record(rid):
    """A JSON sidecar record holding the float32 values (1, 1)."""
    return {"id": rid, "data": base64.b64encode(np.ones(2, dtype="<f4").tobytes()).decode()}


def sidecar_doc(**changes):
    """A JSON sidecar of records p0 and p1 with d = 2, with ``changes``
    applied; a key changed to None is left out."""
    doc = {"magic": "EVSC", "count": 2, "dim": 2, "records": [record("p0"), record("p1")]}
    doc.update(changes)
    return {key: value for key, value in doc.items() if value is not None}


def encode(fam, protein_embed=None, **config):
    """``model._encode_rows`` over every row of ``fam`` with constant leaves,
    d = 4 and, if given, the protein projection ``protein_embed``."""
    config = ModelConfig(d=4, heads=2, l_r=1, l_p=1, **config)
    tensors = init_params(config, fam.n, seed=0).tensors
    if protein_embed is not None:
        tensors["protein_embed"] = protein_embed
    leaves = {name: ad.constant(value) for name, value in tensors.items()}
    return model._encode_rows(fam, np.arange(fam.m), leaves, config)


class TestOnehotResidues:
    """The residue embedding is ``ad.take_rows`` of the projection."""

    def test_zero_projection_gives_zero(self):
        fam = make_family(["AC", "CA"])
        out = ad.take_rows(ad.constant(np.zeros((20, 8))), fam.encoded)
        np.testing.assert_array_equal(out.data, 0.0)

    def test_identity_projection_recovers_indicator(self):
        fam = make_family(["AC", "CA"])
        out = ad.take_rows(ad.constant(np.eye(20)), fam.encoded).data
        for i, rec in enumerate(fam.records):
            for j, ch in enumerate(rec.sequence):
                expected = np.zeros(20)
                expected[AA_INDEX[ch]] = 1.0
                np.testing.assert_array_equal(out[i, j], expected)

    def test_swapped_sequences_swap_rows(self):
        fam = make_family(["AC", "CA"])
        rng = np.random.default_rng(0)
        out = ad.take_rows(ad.constant(rng.normal(size=(20, 4))), fam.encoded).data
        np.testing.assert_array_equal(out[0], out[1][::-1])

    def test_gradient_flows_to_projection(self):
        fam = make_family(["AC", "CA"])
        proj = ad.Tensor(np.zeros((20, 3)), requires_grad=True)
        ad.sum_over(ad.take_rows(proj, fam.encoded)).backward()
        # A and C each appear twice across the family.
        assert proj.grad[AA_INDEX["A"]].sum() == 2 * 3
        assert proj.grad[AA_INDEX["D"]].sum() == 0

    def test_encoder_pools_the_positioned_projection(self, monkeypatch):
        # With the attention stack skipped, r_bar is the positional product
        # of the projected residues, averaged over positions.
        monkeypatch.setattr(model, "attention_layer", lambda r, *args, **kwargs: r)
        fam = make_family(["ACD", "DCA", "AAG"])
        params = init_params(ModelConfig(d=4, heads=2, l_r=1, l_p=1), fam.n, seed=0).tensors
        r_bar, _ = encode(fam)
        expected = (params["residue_embed"][fam.encoded] * params["phi_pos"]).mean(axis=1)
        np.testing.assert_allclose(r_bar.data, expected, rtol=1e-12)


class TestApplyPositional:
    """Positions scale residues through ``ad.mul`` with the N x d table."""

    def test_all_ones_is_identity(self):
        rng = np.random.default_rng(1)
        x = ad.constant(rng.normal(size=(3, 4, 5)))
        out = ad.mul(x, ad.constant(np.ones((4, 5))))
        np.testing.assert_array_equal(out.data, x.data)

    def test_zero_row_annihilates_position(self):
        rng = np.random.default_rng(2)
        x = ad.constant(rng.normal(size=(3, 4, 5)))
        phi = np.ones((4, 5))
        phi[2] = 0.0
        out = ad.mul(x, ad.constant(phi)).data
        np.testing.assert_array_equal(out[:, 2], 0.0)
        np.testing.assert_array_equal(out[:, 1], x.data[:, 1])

    def test_disambiguates_repeated_residues(self):
        fam = make_family(["AAC", "ACA"])
        rng = np.random.default_rng(3)
        phi = rng.normal(size=(3, 6))
        x = ad.take_rows(ad.constant(rng.normal(size=(20, 6))), fam.encoded)
        out = ad.mul(x, ad.constant(phi)).data
        # Same residue A at positions 0 and 1 now differs.
        assert not np.allclose(out[0, 0], out[0, 1])

    def test_homogeneous_scaling(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(2, 3, 4))
        phi = ad.constant(rng.normal(size=(3, 4)))
        a = ad.mul(ad.constant(2.5 * x), phi).data
        b = 2.5 * ad.mul(ad.constant(x), phi).data
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_shape_mismatch(self):
        fam = make_family(["ACD", "DCA"])
        config = ModelConfig(d=4, heads=2, l_r=1, l_p=1)
        params = init_params(config, 4, seed=0)
        with pytest.raises(ValueError, match=r"table \(4, 4\) does not match residues \(3, 4\)"):
            forward(fam, params, config)

    def test_init_centered_at_identity(self):
        rng = np.random.default_rng(5)
        phi = init_positional_table(2000, 4, rng)
        assert abs(phi.mean() - 1.0) < 0.01
        assert abs(phi.std() - 0.02) < 0.005


class TestProteinEmbeddings:
    """h, the initial protein embedding that ``model._encode_rows`` returns."""

    def test_identical_sequences_share_rows(self):
        fam = make_family(["ACD", "ACD", "DDA"])
        _, h = encode(fam)
        np.testing.assert_array_equal(h.data[0], h.data[1])
        # Different residue composition separates; the mean pools away order.
        assert not np.allclose(h.data[0], h.data[2])

    def test_zero_projection(self):
        fam = make_family(["ACD", "DCA"])
        _, h = encode(fam, protein_embed=np.zeros((20, 4)))
        np.testing.assert_array_equal(h.data, 0.0)

    def test_mean_of_projected_indicators(self):
        fam = make_family(["AC", "CC"])
        rng = np.random.default_rng(7)
        proj = rng.normal(size=(20, 4))
        _, h = encode(fam, protein_embed=proj)
        np.testing.assert_allclose(
            h.data[0], (proj[AA_INDEX["A"]] + proj[AA_INDEX["C"]]) / 2, atol=1e-12
        )

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_sidecar_mode_reads_the_family_rows(self, dtype):
        fam = make_family(["AC", "CA", "CC"])
        feats = np.random.default_rng(8).normal(size=(3, 4))
        _, h = encode(Family(fam.records, feats), protein_mode="sidecar", dtype=dtype)
        np.testing.assert_array_equal(h.data, feats.astype(dtype))

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="unknown protein_mode 'plm'"):
            ModelConfig(protein_mode="plm")


class TestSidecarIO:
    @pytest.mark.parametrize("fmt", ["binary", "json"])
    def test_protein_round_trip(self, tmp_path, fmt):
        fam = make_family(["AC", "CA", "CC"])
        rng = np.random.default_rng(8)
        values = rng.normal(size=(3, 6)).astype(np.float32)
        path = tmp_path / f"prot.{fmt}"
        write_sidecar(path, fam.ids, values, fmt=fmt)
        loaded = load_protein_sidecar(path, fam, expected_dim=6)
        np.testing.assert_array_equal(loaded.astype(np.float32), values)

    @pytest.mark.parametrize("fmt", ["binary", "json"])
    def test_residue_round_trip(self, tmp_path, fmt):
        fam = make_family(["AC", "CA", "CC"])
        rng = np.random.default_rng(9)
        values = rng.normal(size=(3, 2, 4)).astype(np.float32)
        path = tmp_path / f"res.{fmt}"
        write_sidecar(path, fam.ids, values, fmt=fmt)
        loaded = load_residue_sidecar(path, fam, expected_dim=4)
        np.testing.assert_array_equal(loaded.astype(np.float32), values)

    def test_alignment_follows_family_order(self, tmp_path):
        fam = make_family(["AC", "CA"])
        values = np.array([[1.0, 1.0], [2.0, 2.0]], dtype=np.float32)
        path = tmp_path / "prot.bin"
        # Write ids in reversed order; loader must realign.
        write_sidecar(path, ["p1", "p0"], values, fmt="binary")
        loaded = load_protein_sidecar(path, fam, expected_dim=2)
        np.testing.assert_array_equal(loaded[0], [2.0, 2.0])
        np.testing.assert_array_equal(loaded[1], [1.0, 1.0])

    def test_missing_id_named(self, tmp_path):
        fam = make_family(["AC", "CA"])
        path = tmp_path / "prot.bin"
        write_sidecar(path, ["p0"], np.ones((1, 2), dtype=np.float32))
        with pytest.raises(SidecarError, match="missing id 'p1'"):
            load_protein_sidecar(path, fam, expected_dim=2)

    def test_dimension_mismatch(self, tmp_path):
        fam = make_family(["AC", "CA"])
        path = tmp_path / "prot.bin"
        write_sidecar(path, fam.ids, np.ones((2, 3), dtype=np.float32))
        with pytest.raises(SidecarError, match="dimension 3 != model dimension 4"):
            load_protein_sidecar(path, fam, expected_dim=4)

    def test_nan_rejected_with_offset(self, tmp_path):
        fam = make_family(["AC", "CA"])
        values = np.ones((2, 2), dtype=np.float32)
        values[1, 1] = np.nan
        path = tmp_path / "prot.bin"
        write_sidecar(path, fam.ids, values)
        with pytest.raises(SidecarError, match="non-finite value at byte offset"):
            load_protein_sidecar(path, fam, expected_dim=2)

    def test_truncated_payload(self, tmp_path):
        fam = make_family(["AC", "CA"])
        path = tmp_path / "prot.bin"
        write_sidecar(path, fam.ids, np.ones((2, 2), dtype=np.float32))
        path.write_bytes(path.read_bytes()[:-1])
        with pytest.raises(SidecarError, match="truncated payload"):
            load_protein_sidecar(path, fam, expected_dim=2)

    @pytest.mark.parametrize("extra", ["record", "bytes"])
    def test_bytes_after_the_last_record_rejected(self, tmp_path, extra):
        fam = make_family(["AC", "CA"])
        path = tmp_path / "prot.bin"
        if extra == "record":
            # Three records under a header count of 2.
            write_sidecar(path, ["p0", "p1", "p2"], np.ones((3, 2), dtype=np.float32))
            raw = bytearray(path.read_bytes())
            raw[4:8] = (2).to_bytes(4, "little")
            path.write_bytes(bytes(raw))
            message = "12 bytes after the last of 2 records, at offset 40"
        else:
            write_sidecar(path, fam.ids, np.ones((2, 2), dtype=np.float32))
            path.write_bytes(path.read_bytes() + bytes(8))
            message = "8 bytes after the last of 2 records, at offset 40"
        with pytest.raises(SidecarError, match=message):
            load_protein_sidecar(path, fam, expected_dim=2)

    def test_id_that_is_not_utf8_names_the_offset(self, tmp_path):
        fam = make_family(["AC", "CA"])
        path = tmp_path / "prot.bin"
        write_sidecar(path, fam.ids, np.ones((2, 2), dtype=np.float32))
        # Header (16) + first record (2 + 2 + 8) + the second's id length (2).
        raw = path.read_bytes()
        assert raw[30:32] == b"p1"
        path.write_bytes(raw[:30] + b"\xff1" + raw[32:])
        with pytest.raises(SidecarError, match=r"prot.bin: id at offset 30 is not valid UTF-8"):
            load_protein_sidecar(path, fam, expected_dim=2)

    @pytest.mark.parametrize("fmt", ["binary", "json"])
    def test_repeated_id_rejected(self, tmp_path, fmt):
        fam = make_family(["AC", "CA"])
        path = tmp_path / f"prot.{fmt}"
        write_sidecar(path, ["p0", "p1", "p0"], np.ones((3, 2), dtype=np.float32), fmt=fmt)
        with pytest.raises(SidecarError, match="repeated id 'p0'"):
            load_protein_sidecar(path, fam, expected_dim=2)

    @pytest.mark.parametrize(
        "doc,message",
        [
            ([], "a JSON sidecar must be an object"),
            (sidecar_doc(dim=None), "'dim' must be a positive integer, got None"),
            (sidecar_doc(dim=0), "'dim' must be a positive integer, got 0"),
            (sidecar_doc(dim="2"), "'dim' must be a positive integer, got '2'"),
            (sidecar_doc(dim=True), "'dim' must be a positive integer, got True"),
            (sidecar_doc(records={}), "'records' must be a list, got dict"),
            (sidecar_doc(records=None), "'records' must be a list, got NoneType"),
            (sidecar_doc(count=3), "'count' is 3, but there are 2 records"),
            (sidecar_doc(count=None), "'count' is None, but there are 2 records"),
            (sidecar_doc(records=[5, record("p1")]), "record 0 must be an object with string"),
            (sidecar_doc(records=[record("p0"), {"id": "p1"}]), "record 1 must be an object"),
            (sidecar_doc(records=[record("p0"), record(1)]), "record 1 must be an object"),
            (sidecar_doc(records=[record("p0"), record("p0")]), "repeated id 'p0' in record 1"),
            (sidecar_doc(records=[record("p0"), {"id": "p1", "data": "AAA="}]), "0.5 values"),
        ],
    )
    def test_malformed_json_document_names_the_field(self, tmp_path, doc, message):
        fam = make_family(["AC", "CA"])
        path = tmp_path / "prot.json"
        path.write_text(json.dumps(sidecar_doc()))
        assert load_protein_sidecar(path, fam, expected_dim=2).shape == (2, 2)
        path.write_text(json.dumps(doc))
        with pytest.raises(SidecarError, match=message):
            load_protein_sidecar(path, fam, expected_dim=2)
