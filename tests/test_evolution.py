"""Anchor sampling statistics and evolution layer semantics."""

from __future__ import annotations

import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from evolmpnn import autodiff as ad
from evolmpnn.evolution import (
    AnchorPolicy,
    AnchorSet,
    anchor_count,
    evolgnn_layer,
    evolformer_layer,
    evolmpnn_layer,
    inclusion_probability,
    membership_matrix,
    sample_anchor_sets,
)
from test_residue_encoder import layer_params, reference_layer


class TestAnchorCount:
    @pytest.mark.parametrize("m,k", [(2, 1), (8733, 196), (82583, 289)])
    def test_policy_values(self, m, k):
        assert anchor_count(m) == k

    def test_floor_of_one(self):
        assert anchor_count(1) == 1

    def test_probabilities_cycle_and_stay_positive(self):
        m = 1024  # log2 = 10
        probs = [inclusion_probability(j, m) for j in range(1, 21)]
        assert probs[0] == 0.5
        assert probs[9] == 2.0**-10
        assert probs[10] == 0.5  # cycles back instead of vanishing
        assert min(probs) >= 1.0 / m


class TestSampling:
    def test_order_independence(self):
        ids = [f"p{i}" for i in range(50)]
        policy = AnchorPolicy(seed=3)
        a = sample_anchor_sets(ids, policy, layer_index=0)
        b = sample_anchor_sets(list(reversed(ids)), policy, layer_index=0)
        assert [s.member_ids for s in a] == [s.member_ids for s in b]

    def test_members_come_from_training_pool(self):
        ids = [f"p{i}" for i in range(40)]
        for s in sample_anchor_sets(ids, AnchorPolicy(seed=1), 0):
            assert set(s.member_ids) <= set(ids)

    def test_layers_resample_by_default(self):
        ids = [f"p{i}" for i in range(64)]
        policy = AnchorPolicy(seed=0)
        a = sample_anchor_sets(ids, policy, layer_index=0)
        b = sample_anchor_sets(ids, policy, layer_index=1)
        assert [s.member_ids for s in a] != [s.member_ids for s in b]

    def test_resampling_disabled_shares_sets_across_layers(self):
        ids = [f"p{i}" for i in range(64)]
        policy = AnchorPolicy(seed=0, resample_per_layer=False)
        a = sample_anchor_sets(ids, policy, layer_index=0)
        b = sample_anchor_sets(ids, policy, layer_index=5)
        assert [s.member_ids for s in a] == [s.member_ids for s in b]

    def test_draw_refreshes_sets(self):
        ids = [f"p{i}" for i in range(64)]
        policy = AnchorPolicy(seed=0)
        a = sample_anchor_sets(ids, policy, 0, draw=0)
        b = sample_anchor_sets(ids, policy, 0, draw=1)
        assert [s.member_ids for s in a] != [s.member_ids for s in b]

    def test_empty_set_falls_back_to_wild_type(self):
        # Tiny pool and deep sets: some Bernoulli draws will come out empty.
        ids = ["wt", "a", "b"]
        policy = AnchorPolicy(k=64, seed=2)
        sets = sample_anchor_sets(ids, policy, 0, fallback_id="wt")
        assert all(s.member_ids for s in sets)
        fallen = [s for s in sets if s.fallback_used]
        assert fallen  # fallback exercised
        assert all(s.member_ids == ("wt",) for s in fallen)
        assert all(s.raw_size == 0 for s in fallen)

    def test_binomial_mean_of_set_sizes(self):
        # Set 1 has inclusion probability 1/2: over 200 draws of M=1024 the
        # mean size must sit within 3 sigma of 512 (sigma of the mean).
        m, reps = 1024, 200
        ids = [f"p{i}" for i in range(m)]
        sizes = []
        for draw in range(reps):
            sets = sample_anchor_sets(ids, AnchorPolicy(k=1, seed=7), 0, draw=draw)
            sizes.append(len(sets[0].member_ids))
        sigma_mean = np.sqrt(m * 0.5 * 0.5 / reps)
        assert abs(np.mean(sizes) - m * 0.5) <= 3 * sigma_mean

    @pytest.mark.parametrize(
        "seed,draw,layer", [(0, 0, 0), (3, 7, 1), (-5, 2, 0), (2**40, 123456, 3)]
    )
    def test_matches_pure_python_reference(self, seed, draw, layer):
        ids = [f"p{i}" for i in range(50)]
        sets = sample_anchor_sets(ids, AnchorPolicy(seed=seed), layer, draw, "p7")
        expected = reference_anchor_sets(ids, seed, draw, layer, anchor_count(50), "p7")
        assert [(s.member_ids, s.fallback_used) for s in sets] == expected
        assert any(fell_back for _, fell_back in expected)  # fallback compared too

    def test_negative_seed_wraps_modulo_2_64(self):
        ids = [f"p{i}" for i in range(64)]
        neg = sample_anchor_sets(ids, AnchorPolicy(seed=-1), 0)
        wrapped = sample_anchor_sets(ids, AnchorPolicy(seed=2**64 - 1), 0)
        zero = sample_anchor_sets(ids, AnchorPolicy(seed=0), 0)
        assert [s.member_ids for s in neg] == [s.member_ids for s in wrapped]
        assert [s.member_ids for s in neg] != [s.member_ids for s in zero]

    def test_large_pool_sizes_follow_probabilities_in_linear_memory(self):
        # Paper-scale pool: M = 82,583 and k = 289, so a (k x M) uint64 block
        # would take 191 MB. Sets sharing an exponent pool into one binomial.
        m, k = 82583, 289
        ids = [f"v{i}" for i in range(m)]
        tracemalloc.start()
        try:
            sets = sample_anchor_sets(ids, AnchorPolicy(k=k, seed=11), 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64e6
        by_prob: dict[float, list[int]] = {}
        for s in sets:
            assert s.inclusion_prob == inclusion_probability(s.index, m)
            by_prob.setdefault(s.inclusion_prob, []).append(s.raw_size)
        assert len(by_prob) == 17  # ceil(log2 82583)
        for p, sizes in by_prob.items():
            n = len(sizes) * m
            z = (sum(sizes) - n * p) / math.sqrt(n * p * (1 - p))
            assert abs(z) <= 4.0, (p, sizes)

    def test_membership_matrix_rows_average(self):
        sets = [
            AnchorSet(1, ("a", "c"), 0.5),
            AnchorSet(2, ("b",), 0.25),
        ]
        mat = membership_matrix(sets, {"a": 0, "b": 1, "c": 2}, 3)
        np.testing.assert_allclose(mat, [[0.5, 0.0, 0.5], [0.0, 1.0, 0.0]])


_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def reference_mix(x):
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def reference_anchor_sets(ids, seed, draw, layer, k, fallback):
    """Slow keyed sampler on Python ints: (members, fell_back) per set."""
    keys = {
        rid: int.from_bytes(
            hashlib.blake2b(rid.encode("utf-8"), digest_size=8).digest(), "little"
        )
        for rid in ids
    }
    base = 0
    for part in (seed, draw, layer):
        base = reference_mix(((base ^ (part & _MASK64)) + _GOLDEN) & _MASK64)
    out = []
    for j in range(1, k + 1):
        salt = reference_mix((base + j * _GOLDEN) & _MASK64)
        e = round(-math.log2(inclusion_probability(j, len(ids))))
        members = tuple(
            sorted(rid for rid in ids if reference_mix(keys[rid] ^ salt) >> (64 - e) == 0)
        )
        out.append((members, False) if members else ((fallback,), True))
    return out


def evolution_diff(residues_i: np.ndarray, member_residues: np.ndarray) -> np.ndarray:
    """Mean-pooled residue difference between protein i and an anchor set.

    ``residues_i`` is (N, d); ``member_residues`` is (|S|, N, d). The pooled
    difference lands in R^d.
    """
    anchor = np.asarray(member_residues).mean(axis=0)
    return (np.asarray(residues_i) - anchor).mean(axis=0)


def anchor_message(h_anchor: np.ndarray, diff: np.ndarray) -> np.ndarray:
    """Elementwise product of the anchor embedding with the difference."""
    h_anchor, diff = np.asarray(h_anchor), np.asarray(diff)
    if h_anchor.shape != diff.shape:
        raise ValueError(f"shape mismatch: {h_anchor.shape} vs {diff.shape}")
    return h_anchor * diff


class TestReferenceOps:
    def test_self_difference_is_zero(self):
        rng = np.random.default_rng(0)
        r = rng.normal(size=(4, 3))
        np.testing.assert_allclose(evolution_diff(r, r[None]), 0.0, atol=1e-15)

    def test_depends_only_on_residues(self):
        rng = np.random.default_rng(1)
        r = rng.normal(size=(4, 3))
        anchors = rng.normal(size=(2, 4, 3))
        np.testing.assert_array_equal(
            evolution_diff(r, anchors), evolution_diff(r.copy(), anchors)
        )

    def test_hand_example(self):
        r_i = np.array([[1.0, 0.0], [0.0, 1.0]])
        r_s = np.zeros((1, 2, 2))
        np.testing.assert_allclose(evolution_diff(r_i, r_s), [0.5, 0.5])

    def test_message_annihilates_on_zero_diff(self):
        np.testing.assert_array_equal(anchor_message(np.ones(3), np.zeros(3)), 0.0)

    def test_message_identity(self):
        d = np.array([0.3, -0.7])
        np.testing.assert_array_equal(anchor_message(np.ones(2), d), d)

    def test_message_hand_example(self):
        np.testing.assert_allclose(
            anchor_message(np.array([2.0, 3.0]), np.array([0.5, -1.0])), [1.0, -3.0]
        )

    def test_message_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            anchor_message(np.ones(3), np.ones(4))


def naive_evolmpnn(h, residues, sets, row_of, w):
    """Literal per-anchor recomputation: pooled diffs, messages, mean, combine."""
    m = h.shape[0]
    out = np.empty_like(h)
    h_hat = np.zeros_like(h)
    for i in range(m):
        messages = []
        for s in sets:
            rows = [row_of[rid] for rid in s.member_ids]
            diff = evolution_diff(residues[i], residues[rows])
            h_anchor = h[rows].mean(axis=0)
            messages.append(anchor_message(h_anchor, diff))
        h_hat[i] = np.mean(messages, axis=0)
    for i in range(m):
        out[i] = np.concatenate([h[i], h_hat[i]]) @ w
    return out


class TestEvolMpnnLayer:
    def make_case(self, m=5, n=3, d=4, k=3, seed=0):
        rng = np.random.default_rng(seed)
        ids = [f"p{i}" for i in range(m)]
        row_of = {rid: i for i, rid in enumerate(ids)}
        sets = sample_anchor_sets(ids, AnchorPolicy(k=k, seed=seed), 0)
        h = rng.normal(size=(m, d))
        residues = rng.normal(size=(m, n, d))
        w = rng.normal(size=(2 * d, d))
        return ids, row_of, sets, h, residues, w

    def test_matches_naive_loop(self):
        ids, row_of, sets, h, residues, w = self.make_case()
        members = membership_matrix(sets, row_of, len(ids))
        out = evolmpnn_layer(
            ad.constant(h),
            ad.constant(residues.mean(axis=1)),
            members,
            ad.constant(w),
        )
        np.testing.assert_allclose(
            out.data, naive_evolmpnn(h, residues, sets, row_of, w), atol=1e-12
        )

    def test_hand_sized_case(self):
        ids, row_of, sets, h, residues, w = self.make_case(m=3, n=2, d=2, k=2, seed=4)
        members = membership_matrix(sets, row_of, 3)
        out = evolmpnn_layer(
            ad.constant(h), ad.constant(residues.mean(axis=1)), members, ad.constant(w)
        )
        np.testing.assert_allclose(
            out.data, naive_evolmpnn(h, residues, sets, row_of, w), atol=1e-12
        )

    def test_passthrough_block_identity(self):
        ids, row_of, sets, h, residues, _ = self.make_case(d=4)
        # Zero residues mean zero messages; [I;0] combine returns H unchanged.
        members = membership_matrix(sets, row_of, len(ids))
        w = np.vstack([np.eye(4), np.zeros((4, 4))])
        out = evolmpnn_layer(
            ad.constant(h), ad.constant(np.zeros((len(ids), 4))), members, ad.constant(w)
        )
        np.testing.assert_allclose(out.data, h, atol=1e-12)

    def test_single_anchor_mean_is_that_message(self):
        ids, row_of, sets, h, residues, w = self.make_case(k=1, seed=2)
        members = membership_matrix(sets, row_of, len(ids))
        r_bar = residues.mean(axis=1)
        out = evolmpnn_layer(
            ad.constant(h), ad.constant(r_bar), members, ad.constant(w)
        ).data
        s = sets[0]
        rows = [row_of[rid] for rid in s.member_ids]
        for i in range(len(ids)):
            msg = anchor_message(
                h[rows].mean(axis=0), evolution_diff(residues[i], residues[rows])
            )
            np.testing.assert_allclose(
                out[i], np.concatenate([h[i], msg]) @ w, atol=1e-12
            )

    def test_anchor_order_irrelevant(self):
        ids, row_of, sets, h, residues, w = self.make_case(k=4, seed=6)
        r_bar = residues.mean(axis=1)
        fwd = evolmpnn_layer(
            ad.constant(h),
            ad.constant(r_bar),
            membership_matrix(sets, row_of, len(ids)),
            ad.constant(w),
        ).data
        rev = evolmpnn_layer(
            ad.constant(h),
            ad.constant(r_bar),
            membership_matrix(list(reversed(sets)), row_of, len(ids)),
            ad.constant(w),
        ).data
        np.testing.assert_allclose(fwd, rev, atol=1e-12)

    def test_identical_sequences_get_identical_updates(self):
        ids, row_of, sets, h, residues, w = self.make_case(seed=8)
        h[1] = h[0]
        residues[1] = residues[0]
        members = membership_matrix(sets, row_of, len(ids))
        out = evolmpnn_layer(
            ad.constant(h), ad.constant(residues.mean(axis=1)), members, ad.constant(w)
        ).data
        np.testing.assert_allclose(out[0], out[1], atol=1e-13)

    def test_anchor_of_copies_of_self_sends_zero_message(self):
        rng = np.random.default_rng(12)
        r_i = rng.normal(size=(4, 3))
        copies = np.stack([r_i, r_i, r_i])
        diff = evolution_diff(r_i, copies)
        np.testing.assert_allclose(diff, 0.0, atol=1e-15)
        np.testing.assert_allclose(
            anchor_message(rng.normal(size=3), diff), 0.0, atol=1e-15
        )


def naive_evolgnn(h, r_bar, adj, w_n, w_g, w_c):
    m, d = h.shape
    out = np.empty((m, w_c.shape[1]))
    for i in range(m):
        nbrs = np.flatnonzero(adj[i])
        m_a = np.zeros(d)
        gate_terms = []
        for j in nbrs:
            diff = r_bar[i] - r_bar[j]
            m_a += adj[i, j] * (h[j] * diff)
            gate_terms.append(adj[i, j] * (diff @ w_g))
        m_a = m_a @ w_n
        gate_in = np.mean(gate_terms, axis=0) if gate_terms else np.zeros(d)
        gate = 1.0 / (1.0 + np.exp(-gate_in))
        out[i] = np.concatenate([m_a, gate * h[i]]) @ w_c
    return out


class TestEvolGnnLayer:
    def make_case(self, m=5, d=4, seed=0):
        rng = np.random.default_rng(seed)
        h = rng.normal(size=(m, d))
        r_bar = rng.normal(size=(m, d))
        w_n = rng.normal(size=(d, d))
        w_g = rng.normal(size=(d, d))
        w_c = rng.normal(size=(2 * d, d))
        return h, r_bar, w_n, w_g, w_c

    def test_matches_naive_two_node_path(self):
        h, r_bar, w_n, w_g, w_c = self.make_case(m=2)
        adj = np.array([[0.0, 1.0], [1.0, 0.0]])
        out = evolgnn_layer(
            ad.constant(h), ad.constant(r_bar), adj,
            ad.constant(w_n), ad.constant(w_g), ad.constant(w_c),
        )
        np.testing.assert_allclose(
            out.data, naive_evolgnn(h, r_bar, adj, w_n, w_g, w_c), atol=1e-12
        )

    def test_matches_naive_random_graph(self):
        rng = np.random.default_rng(3)
        h, r_bar, w_n, w_g, w_c = self.make_case(m=7, seed=3)
        adj = (rng.random((7, 7)) < 0.4).astype(float)
        np.fill_diagonal(adj, 0.0)
        adj = np.maximum(adj, adj.T)
        out = evolgnn_layer(
            ad.constant(h), ad.constant(r_bar), adj,
            ad.constant(w_n), ad.constant(w_g), ad.constant(w_c),
        )
        np.testing.assert_allclose(
            out.data, naive_evolgnn(h, r_bar, adj, w_n, w_g, w_c), atol=1e-12
        )

    def test_empty_graph_uses_half_gate(self):
        h, r_bar, w_n, w_g, w_c = self.make_case(m=3)
        adj = np.zeros((3, 3))
        out = evolgnn_layer(
            ad.constant(h), ad.constant(r_bar), adj,
            ad.constant(w_n), ad.constant(w_g), ad.constant(w_c),
        ).data
        expected = np.concatenate([np.zeros_like(h), 0.5 * h], axis=1) @ w_c
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_zero_difference_zeroes_neighbor_message(self):
        h, r_bar, w_n, w_g, w_c = self.make_case(m=2)
        r_bar[1] = r_bar[0]
        adj = np.array([[0.0, 1.0], [1.0, 0.0]])
        out = evolgnn_layer(
            ad.constant(h), ad.constant(r_bar), adj,
            ad.constant(w_n), ad.constant(w_g), ad.constant(w_c),
        ).data
        expected = np.concatenate([np.zeros_like(h), 0.5 * h], axis=1) @ w_c
        np.testing.assert_allclose(out, expected, atol=1e-12)


class TestEvolFormerLayer:
    def make_params(self, d, heads, d_head, rng, prefix="evo0"):
        params = layer_params(d, heads, d_head, 2 * d, rng, prefix=prefix)
        params[f"{prefix}.bias_proj"] = ad.Tensor(
            rng.normal(size=(d, d_head)), requires_grad=True
        )
        return params

    def test_zero_bias_reduces_to_plain_attention(self):
        rng = np.random.default_rng(5)
        params = self.make_params(4, 2, 2, rng)
        params["evo0.bias_proj"] = ad.constant(np.zeros((4, 2)))
        h = rng.normal(size=(5, 4))
        r_bar = rng.normal(size=(5, 4))
        out = evolformer_layer(ad.constant(h), ad.constant(r_bar), params, "evo0", 2)
        np.testing.assert_allclose(
            out.data, reference_layer(h, params, "evo0", 2), atol=1e-12
        )

    def test_single_protein_attends_to_itself(self):
        rng = np.random.default_rng(6)
        params = self.make_params(4, 2, 2, rng)
        h = rng.normal(size=(1, 4))
        r_bar = rng.normal(size=(1, 4))
        out = evolformer_layer(ad.constant(h), ad.constant(r_bar), params, "evo0", 2)
        assert out.data.shape == (1, 4)
        assert np.all(np.isfinite(out.data))

    def test_matches_straight_line_recomputation_with_bias(self):
        rng = np.random.default_rng(7)
        d, heads, d_head = 4, 2, 2
        params = self.make_params(d, heads, d_head, rng)
        h = rng.normal(size=(2, d))
        r_bar = rng.normal(size=(2, d))
        out = evolformer_layer(ad.constant(h), ad.constant(r_bar), params, "evo0", heads)

        def softmax(z):
            e = np.exp(z - z.max(axis=-1, keepdims=True))
            return e / e.sum(axis=-1, keepdims=True)

        b = r_bar @ params["evo0.bias_proj"].data
        bias = b @ b.T / np.sqrt(d)
        total = np.zeros_like(h)
        for hd in range(heads):
            q = h @ params[f"evo0.h{hd}.wq"].data
            k = h @ params[f"evo0.h{hd}.wk"].data
            att = softmax(q @ k.T / np.sqrt(d) + bias)
            total += att @ (h @ params[f"evo0.h{hd}.wv"].data @ params[f"evo0.h{hd}.wo"].data)
        r_hat = h + total
        z = r_hat @ params["evo0.ffn_w1"].data
        pre = r_hat + np.where(z > 0, z, np.expm1(z)) @ params["evo0.ffn_w2"].data
        mu = pre.mean(axis=-1, keepdims=True)
        var = ((pre - mu) ** 2).mean(axis=-1, keepdims=True)
        expected = (pre - mu) / np.sqrt(var + 1e-8)
        expected = expected * params["evo0.ln_gain"].data + params["evo0.ln_bias"].data
        np.testing.assert_allclose(out.data, expected, atol=1e-12)
