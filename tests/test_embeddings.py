"""Embedding initialization and the sidecar loader."""

from __future__ import annotations

import numpy as np
import pytest

from evolmpnn import autodiff as ad
from evolmpnn.data import ALPHABET, AA_INDEX, Family, ProteinRecord
from evolmpnn.embeddings import (
    SidecarError,
    apply_positional,
    init_positional_table,
    init_protein_embeddings,
    load_protein_sidecar,
    load_residue_sidecar,
    onehot_residues,
    write_sidecar,
)


def make_family(seqs):
    return Family(
        [
            ProteinRecord(f"p{i}", s, (0.0,), is_wild_type=i == 0)
            for i, s in enumerate(seqs)
        ]
    )


class TestOnehotResidues:
    def test_zero_projection_gives_zero(self):
        fam = make_family(["AC", "CA"])
        out = onehot_residues(fam.encoded, ad.constant(np.zeros((20, 8))))
        np.testing.assert_array_equal(out.data, 0.0)

    def test_identity_projection_recovers_indicator(self):
        fam = make_family(["AC", "CA"])
        out = onehot_residues(fam.encoded, ad.constant(np.eye(20))).data
        for i, rec in enumerate(fam.records):
            for j, ch in enumerate(rec.sequence):
                expected = np.zeros(20)
                expected[AA_INDEX[ch]] = 1.0
                np.testing.assert_array_equal(out[i, j], expected)

    def test_swapped_sequences_swap_rows(self):
        fam = make_family(["AC", "CA"])
        rng = np.random.default_rng(0)
        out = onehot_residues(fam.encoded, ad.constant(rng.normal(size=(20, 4)))).data
        np.testing.assert_array_equal(out[0], out[1][::-1])

    def test_gradient_flows_to_projection(self):
        fam = make_family(["AC", "CA"])
        proj = ad.Tensor(np.zeros((20, 3)), requires_grad=True)
        ad.sum_over(onehot_residues(fam.encoded, proj)).backward()
        # A and C each appear twice across the family.
        assert proj.grad[AA_INDEX["A"]].sum() == 2 * 3
        assert proj.grad[AA_INDEX["D"]].sum() == 0


class TestApplyPositional:
    def test_all_ones_is_identity(self):
        rng = np.random.default_rng(1)
        x = ad.constant(rng.normal(size=(3, 4, 5)))
        out = apply_positional(x, ad.constant(np.ones((4, 5))))
        np.testing.assert_array_equal(out.data, x.data)

    def test_zero_row_annihilates_position(self):
        rng = np.random.default_rng(2)
        x = ad.constant(rng.normal(size=(3, 4, 5)))
        phi = np.ones((4, 5))
        phi[2] = 0.0
        out = apply_positional(x, ad.constant(phi)).data
        np.testing.assert_array_equal(out[:, 2], 0.0)
        np.testing.assert_array_equal(out[:, 1], x.data[:, 1])

    def test_disambiguates_repeated_residues(self):
        fam = make_family(["AAC", "ACA"])
        rng = np.random.default_rng(3)
        phi = rng.normal(size=(3, 6))
        x = onehot_residues(fam.encoded, ad.constant(rng.normal(size=(20, 6))))
        out = apply_positional(x, ad.constant(phi)).data
        # Same residue A at positions 0 and 1 now differs.
        assert not np.allclose(out[0, 0], out[0, 1])

    def test_homogeneous_scaling(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(2, 3, 4))
        phi = ad.constant(rng.normal(size=(3, 4)))
        a = apply_positional(ad.constant(2.5 * x), phi).data
        b = 2.5 * apply_positional(ad.constant(x), phi).data
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="does not match"):
            apply_positional(ad.constant(np.ones((2, 3, 4))), ad.constant(np.ones((4, 4))))

    def test_init_centered_at_identity(self):
        rng = np.random.default_rng(5)
        phi = init_positional_table(2000, 4, rng)
        assert abs(phi.mean() - 1.0) < 0.01
        assert abs(phi.std() - 0.02) < 0.005


class TestProteinEmbeddings:
    def test_identical_sequences_share_rows(self):
        fam = make_family(["ACD", "ACD", "DDA"])
        rng = np.random.default_rng(6)
        out = init_protein_embeddings(
            fam.encoded, "onehot-mean", projection=ad.constant(rng.normal(size=(20, 5)))
        ).data
        np.testing.assert_array_equal(out[0], out[1])
        # Different residue composition separates; the mean pools away order.
        assert not np.allclose(out[0], out[2])

    def test_zero_projection(self):
        fam = make_family(["ACD", "DCA"])
        out = init_protein_embeddings(
            fam.encoded, "onehot-mean", projection=ad.constant(np.zeros((20, 5)))
        )
        np.testing.assert_array_equal(out.data, 0.0)

    def test_mean_of_projected_indicators(self):
        fam = make_family(["AC", "CC"])
        rng = np.random.default_rng(7)
        proj = rng.normal(size=(20, 4))
        out = init_protein_embeddings(
            fam.encoded, "onehot-mean", projection=ad.constant(proj)
        ).data
        np.testing.assert_allclose(
            out[0], (proj[AA_INDEX["A"]] + proj[AA_INDEX["C"]]) / 2, atol=1e-12
        )

    def test_sidecar_mode_checks_rows(self):
        fam = make_family(["AC", "CA"])
        with pytest.raises(SidecarError, match="rows"):
            init_protein_embeddings(fam.encoded, "sidecar", precomputed=np.ones((3, 4)))

    def test_unknown_mode(self):
        fam = make_family(["AC", "CA"])
        with pytest.raises(ValueError, match="unknown protein embedding mode"):
            init_protein_embeddings(fam.encoded, "plm")


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
