"""Anchor sampling statistics and evolution layer semantics."""

from __future__ import annotations

import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from evolmpnn import autodiff as ad
from evolmpnn import data
from evolmpnn.data import Graph
from evolmpnn.evolution import (
    AnchorSet,
    anchor_count,
    evolgnn_layer,
    evolformer_layer,
    _inclusion_exponent,
    evolmpnn_layer,
    sample_anchor_sets,
    sample_gradient_rows,
)
from test_residue_encoder import layer_params, reference_layer


def inclusion_probability(j: int, m_train: int) -> float:
    """Probability that a training protein joins set j (1-based)."""
    return 2.0 ** -_inclusion_exponent(j, m_train)


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


def id_sets(ids, sets):
    """Each set's members as a sorted tuple of ids."""
    return [tuple(sorted(ids[i] for i in s.member_ids)) for s in sets]


class TestSampling:
    def test_order_independence(self):
        ids = [f"p{i}" for i in range(50)]
        a = sample_anchor_sets(ids, layer_index=0, seed=3)
        reordered = list(reversed(ids))
        b = sample_anchor_sets(reordered, layer_index=0, seed=3)
        assert id_sets(ids, a) == id_sets(reordered, b)

    def test_sets_are_never_empty(self):
        with pytest.raises(ValueError, match="anchor sets must be non-empty"):
            AnchorSet(np.array([], dtype=np.int64))

    def test_members_come_from_training_pool(self):
        # As ascending positions into the pool as passed.
        ids = [f"p{i}" for i in np.random.default_rng(1).permutation(40)]
        for s in sample_anchor_sets(ids, 0, seed=1):
            assert s.member_ids.dtype == np.int64
            assert np.all(np.diff(s.member_ids) > 0)
            assert 0 <= s.member_ids[0] and s.member_ids[-1] < len(ids)

    def test_layers_resample_by_default(self):
        ids = [f"p{i}" for i in range(64)]
        a = sample_anchor_sets(ids, layer_index=0)
        b = sample_anchor_sets(ids, layer_index=1)
        assert id_sets(ids, a) != id_sets(ids, b)

    def test_draw_refreshes_sets(self):
        ids = [f"p{i}" for i in range(64)]
        a = sample_anchor_sets(ids, 0, draw=0)
        b = sample_anchor_sets(ids, 0, draw=1)
        assert id_sets(ids, a) != id_sets(ids, b)

    def test_empty_set_falls_back_to_wild_type(self):
        # Tiny pool and deep sets: some Bernoulli draws will come out empty.
        ids = ["a", "wt", "b"]
        sets = sample_anchor_sets(ids, 0, fallback_id="wt", k=64, seed=2)
        assert all(len(s.member_ids) for s in sets)
        fallen = [s for s in sets if s.fallback_used]
        assert fallen  # fallback exercised
        assert all(s.member_ids.tolist() == [1] for s in fallen)

    def test_empty_set_falls_back_to_smallest_id_without_wild_type(self):
        ids = ["c", "b", "x"]
        sets = sample_anchor_sets(ids, 0, fallback_id="wt", k=64, seed=2)
        fallen = [s for s in sets if s.fallback_used]
        assert fallen
        assert all(s.member_ids.tolist() == [1] for s in fallen)  # "b"

    def test_binomial_mean_of_set_sizes(self):
        # Set 1 has inclusion probability 1/2: over 200 draws of M=1024 the
        # mean size must sit within 3 sigma of 512 (sigma of the mean).
        m, reps = 1024, 200
        ids = [f"p{i}" for i in range(m)]
        sizes = []
        for draw in range(reps):
            sets = sample_anchor_sets(ids, 0, draw=draw, k=1, seed=7)
            sizes.append(len(sets[0].member_ids))
        sigma_mean = np.sqrt(m * 0.5 * 0.5 / reps)
        assert abs(np.mean(sizes) - m * 0.5) <= 3 * sigma_mean

    @pytest.mark.parametrize(
        "seed,draw,layer", [(0, 0, 0), (3, 7, 1), (-5, 2, 0), (2**40, 123456, 3)]
    )
    def test_matches_pure_python_reference(self, seed, draw, layer):
        ids = [f"p{i}" for i in range(50)]
        sets = sample_anchor_sets(ids, layer, draw, "p7", seed=seed)
        expected = reference_anchor_sets(ids, seed, draw, layer, anchor_count(50), "p7")
        got = zip(id_sets(ids, sets), (s.fallback_used for s in sets))
        assert list(got) == expected
        assert any(fell_back for _, fell_back in expected)  # fallback compared too

    def test_negative_seed_wraps_modulo_2_64(self):
        ids = [f"p{i}" for i in range(64)]
        neg = sample_anchor_sets(ids, 0, seed=-1)
        wrapped = sample_anchor_sets(ids, 0, seed=2**64 - 1)
        zero = sample_anchor_sets(ids, 0, seed=0)
        assert id_sets(ids, neg) == id_sets(ids, wrapped)
        assert id_sets(ids, neg) != id_sets(ids, zero)

    def test_large_pool_sizes_follow_probabilities_in_linear_memory(self):
        # Paper-scale pool: M = 82,583 and k = 289, so a (k x M) uint64 block
        # would take 191 MB. Sets sharing an exponent pool into one binomial.
        m, k = 82583, 289
        ids = [f"v{i}" for i in range(m)]
        tracemalloc.start()
        try:
            sets = sample_anchor_sets(ids, 0, k=k, seed=11)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64e6
        by_prob: dict[float, list[int]] = {}
        for j, s in enumerate(sets, start=1):
            raw_size = 0 if s.fallback_used else len(s.member_ids)
            by_prob.setdefault(inclusion_probability(j, m), []).append(raw_size)
        assert len(by_prob) == 17  # ceil(log2 82583)
        for p, sizes in by_prob.items():
            n = len(sizes) * m
            z = (sum(sizes) - n * p) / math.sqrt(n * p * (1 - p))
            assert abs(z) <= 4.0, (p, sizes)


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


class TestGradientRowDraw:
    def test_keyed_on_ids_not_their_order(self):
        ids = [f"p{i}" for i in range(200)]
        drawn = sample_gradient_rows(ids, 0.3, 5, seed=2)
        reordered = sample_gradient_rows(ids[::-1], 0.3, 5, seed=2)
        np.testing.assert_array_equal(drawn, reordered[::-1])

    def test_rate_is_q_and_every_row_at_q_one(self):
        ids = [f"p{i}" for i in range(20000)]
        assert abs(sample_gradient_rows(ids, 0.2, 1).mean() - 0.2) < 0.01
        assert sample_gradient_rows(ids, 1.0, 1).all()

    def test_changes_with_draw_and_seed(self):
        ids = [f"p{i}" for i in range(200)]
        base = sample_gradient_rows(ids, 0.5, 1)
        assert np.any(base != sample_gradient_rows(ids, 0.5, 2))
        assert np.any(base != sample_gradient_rows(ids, 0.5, 1, seed=1))


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


def naive_evolmpnn(h, residues, sets, w):
    """Literal per-anchor recomputation: pooled diffs, messages, mean, combine.

    Each set's ``member_ids`` index the rows of ``h`` and ``residues``.
    """
    m = h.shape[0]
    out = np.empty_like(h)
    h_hat = np.zeros_like(h)
    for i in range(m):
        messages = []
        for s in sets:
            rows = s.member_ids
            diff = evolution_diff(residues[i], residues[rows])
            h_anchor = h[rows].mean(axis=0)
            messages.append(anchor_message(h_anchor, diff))
        h_hat[i] = np.mean(messages, axis=0)
    for i in range(m):
        out[i] = np.concatenate([h[i], h_hat[i]]) @ w
    return out


def dense_product(mat, x):
    """``mat @ x`` for a constant matrix, forward and backward as
    ``np.einsum``'s sequential product, which adds each output's terms in
    ascending order of the summed index (``ad.matmul`` runs on BLAS)."""
    node = x._node

    def backward(g):
        node.accumulate(np.einsum("ij,jk->ik", mat.T, g, optimize=False))

    return ad._result(np.einsum("ij,jk->ik", mat, x.data, optimize=False), (node,), backward)


def dense_evolmpnn(h, r_bar, members, w_combine):
    """The layer as a product with the dense (k, M) membership matrix, whose
    row j holds 1/|S_j| at set j's members in the model dtype."""
    mat = np.zeros((len(members), h.shape[0]), dtype=h.data.dtype)
    for j, rows in enumerate(members):
        mat[j, rows] = 1.0
        mat[j] /= len(rows)
    anchor_h = dense_product(mat, h)
    anchor_r = dense_product(mat, r_bar)
    mean_h = ad.mean_over(anchor_h, axis=0)
    mean_cross = ad.mean_over(ad.mul(anchor_h, anchor_r), axis=0)
    h_hat = ad.sub(ad.mul(r_bar, mean_h), mean_cross)
    return ad.matmul(ad.concat_last([h, h_hat]), w_combine)


class TestEvolMpnnLayer:
    def make_case(self, m=5, n=3, d=4, k=3, seed=0):
        rng = np.random.default_rng(seed)
        ids = [f"p{i}" for i in range(m)]
        sets = sample_anchor_sets(ids, 0, k=k, seed=seed)
        h = rng.normal(size=(m, d))
        residues = rng.normal(size=(m, n, d))
        w = rng.normal(size=(2 * d, d))
        return sets, h, residues, w

    def layer(self, h, r_bar, sets, w):
        members = [s.member_ids for s in sets]
        return evolmpnn_layer(
            ad.constant(h), ad.constant(r_bar), members, ad.constant(w)
        ).data

    def test_matches_naive_loop(self):
        sets, h, residues, w = self.make_case()
        np.testing.assert_allclose(
            self.layer(h, residues.mean(axis=1), sets, w),
            naive_evolmpnn(h, residues, sets, w),
            atol=1e-12,
        )

    def test_hand_sized_case(self):
        sets, h, residues, w = self.make_case(m=3, n=2, d=2, k=2, seed=4)
        np.testing.assert_allclose(
            self.layer(h, residues.mean(axis=1), sets, w),
            naive_evolmpnn(h, residues, sets, w),
            atol=1e-12,
        )

    def test_passthrough_block_identity(self):
        sets, h, _, _ = self.make_case(d=4)
        # Zero residues mean zero messages; [I;0] combine returns H unchanged.
        w = np.vstack([np.eye(4), np.zeros((4, 4))])
        out = self.layer(h, np.zeros((len(h), 4)), sets, w)
        np.testing.assert_allclose(out, h, atol=1e-12)

    def test_single_anchor_mean_is_that_message(self):
        sets, h, residues, w = self.make_case(k=1, seed=2)
        out = self.layer(h, residues.mean(axis=1), sets, w)
        rows = sets[0].member_ids
        for i in range(len(h)):
            msg = anchor_message(
                h[rows].mean(axis=0), evolution_diff(residues[i], residues[rows])
            )
            np.testing.assert_allclose(
                out[i], np.concatenate([h[i], msg]) @ w, atol=1e-12
            )

    def test_anchor_order_irrelevant(self):
        sets, h, residues, w = self.make_case(k=4, seed=6)
        r_bar = residues.mean(axis=1)
        np.testing.assert_allclose(
            self.layer(h, r_bar, sets, w),
            self.layer(h, r_bar, list(reversed(sets)), w),
            atol=1e-12,
        )

    def test_identical_sequences_get_identical_updates(self):
        sets, h, residues, w = self.make_case(seed=8)
        h[1] = h[0]
        residues[1] = residues[0]
        out = self.layer(h, residues.mean(axis=1), sets, w)
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

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("m", [390, 2000])
    def test_bitwise_equal_to_dense_membership_product(self, m, dtype):
        # Sampled from a shuffled pool, then mapped to rows through it, as
        # build_forward does with train_ids out of row order.
        rng = np.random.default_rng(m)
        d = 6
        rows_of_pool = rng.permutation(m)
        ids = [f"v{i}" for i in rows_of_pool]
        sets = sample_anchor_sets(ids, 0, seed=3)
        members = [np.sort(rows_of_pool[s.member_ids]) for s in sets]
        arrays = [
            rng.standard_normal(shape).astype(dtype)
            for shape in ((m, d), (m, d), (2 * d, d), (m, d))
        ]
        results = []
        for layer in (evolmpnn_layer, dense_evolmpnn):
            h, r_bar, w = (ad.Tensor(a, requires_grad=True) for a in arrays[:3])
            out = layer(h, r_bar, members, w)
            ad.sum_over(ad.mul(out, ad.constant(arrays[3]))).backward()
            results.append([t.tobytes() for t in (out.data, h.grad, r_bar.grad, w.grad)])
        assert out.data.dtype == dtype
        assert results[0] == results[1]

    def test_paper_scale_pool_in_edge_memory(self):
        # At M = 82,583 and k = 289 the dense float64 membership matrix
        # alone takes 191 MB, and the product through it peaks at 451 MB.
        # The edge sums hold 1.4 M (set, member) pairs as three 11 MB arrays;
        # the graph's M x d activations and gradients take most of the rest.
        m, d = 82583, 8
        rng = np.random.default_rng(13)
        ids = [f"v{i}" for i in range(m)]
        members = [s.member_ids for s in sample_anchor_sets(ids, 0, seed=2)]
        assert len(members) == 289
        leaves = [
            ad.Tensor(rng.standard_normal(shape), requires_grad=True)
            for shape in ((m, d), (m, d), (2 * d, d))
        ]
        tracemalloc.start()
        try:
            out = evolmpnn_layer(leaves[0], leaves[1], members, leaves[2])
            ad.sum_over(out).backward()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 128e6, peak
        assert out.shape == (m, d)
        assert all(np.all(np.isfinite(leaf.grad)) for leaf in leaves)


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


def graph_of(adj):
    """The edge list of a 0/1 adjacency matrix, in row-major order."""
    return Graph(n_nodes=len(adj), edges=np.argwhere(adj > 0))


class TestEvolGnnLayer:
    def make_case(self, m=5, d=4, seed=0):
        rng = np.random.default_rng(seed)
        h = rng.normal(size=(m, d))
        r_bar = rng.normal(size=(m, d))
        w_n = rng.normal(size=(d, d))
        w_g = rng.normal(size=(d, d))
        w_c = rng.normal(size=(2 * d, d))
        return h, r_bar, w_n, w_g, w_c

    def layer(self, h, r_bar, adj, w_n, w_g, w_c):
        return evolgnn_layer(
            ad.constant(h), ad.constant(r_bar), graph_of(adj),
            ad.constant(w_n), ad.constant(w_g), ad.constant(w_c),
        ).data

    def test_matches_naive_two_node_path(self):
        h, r_bar, w_n, w_g, w_c = self.make_case(m=2)
        adj = np.array([[0.0, 1.0], [1.0, 0.0]])
        np.testing.assert_allclose(
            self.layer(h, r_bar, adj, w_n, w_g, w_c),
            naive_evolgnn(h, r_bar, adj, w_n, w_g, w_c),
            atol=1e-12,
        )

    def test_matches_naive_random_graph(self):
        rng = np.random.default_rng(3)
        h, r_bar, w_n, w_g, w_c = self.make_case(m=7, seed=3)
        adj = (rng.random((7, 7)) < 0.4).astype(float)
        np.fill_diagonal(adj, 0.0)
        adj = np.maximum(adj, adj.T)
        np.testing.assert_allclose(
            self.layer(h, r_bar, adj, w_n, w_g, w_c),
            naive_evolgnn(h, r_bar, adj, w_n, w_g, w_c),
            atol=1e-12,
        )

    def test_empty_graph_uses_half_gate(self):
        h, r_bar, w_n, w_g, w_c = self.make_case(m=3)
        out = self.layer(h, r_bar, np.zeros((3, 3)), w_n, w_g, w_c)
        expected = np.concatenate([np.zeros_like(h), 0.5 * h], axis=1) @ w_c
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_zero_difference_zeroes_neighbor_message(self):
        h, r_bar, w_n, w_g, w_c = self.make_case(m=2)
        r_bar[1] = r_bar[0]
        out = self.layer(h, r_bar, np.array([[0.0, 1.0], [1.0, 0.0]]), w_n, w_g, w_c)
        expected = np.concatenate([np.zeros_like(h), 0.5 * h], axis=1) @ w_c
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_large_sparse_graph_in_edge_memory(self):
        # One float64 M x M adjacency would take 537 MB at this size.
        m, d = 8192, 8
        h, r_bar, w_n, w_g, w_c = self.make_case(m=m, d=d, seed=4)
        ring = np.arange(m)
        pairs = [(ring, (ring + s) % m) for s in (1, 2, 3, 4, 5)]
        pairs += [(b, a) for a, b in pairs]
        edges = np.unique(np.concatenate([np.stack(p, axis=1) for p in pairs]), axis=0)
        graph = Graph(n_nodes=m, edges=edges)
        leaves = [ad.Tensor(a, requires_grad=True) for a in (h, r_bar, w_n, w_g, w_c)]
        tracemalloc.start()
        try:
            out = evolgnn_layer(leaves[0], leaves[1], graph, *leaves[2:])
            ad.sum_over(out).backward()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64e6
        assert out.shape == (m, d)
        assert all(np.all(np.isfinite(leaf.grad)) for leaf in leaves)
        # Node 0 receives from 1..5 and m-5..m-1; check it against the oracle.
        local = np.r_[0, 1:6, m - 5 : m]
        adj = np.zeros((11, 11))
        adj[0, 1:] = 1.0
        expected = naive_evolgnn(h[local], r_bar[local], adj, w_n, w_g, w_c)[0]
        np.testing.assert_allclose(out.data[0], expected, atol=1e-12)


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

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("grad", [True, False])
    def test_query_rows_match_rows_of_full_output(self, monkeypatch, dtype, grad):
        # Without gradients the layer works in query blocks; 2 rows per block
        # divides neither the 7 rows of h nor the 5 requested rows.
        monkeypatch.setattr(data, "_BLOCK_BYTES", 2 * 64 * 7)
        rng = np.random.default_rng(8)
        params = {
            name: ad.Tensor(t.data.astype(dtype), requires_grad=grad)
            for name, t in self.make_params(4, 2, 2, rng).items()
        }
        h = ad.Tensor(rng.normal(size=(7, 4)).astype(dtype), requires_grad=grad)
        r_bar = ad.Tensor(rng.normal(size=(7, 4)).astype(dtype), requires_grad=grad)
        rows = np.array([5, 0, 3, 0, 6])
        subset = evolformer_layer(h, r_bar, params, "evo0", 2, rows=rows)
        full = evolformer_layer(h, r_bar, params, "evo0", 2)
        assert subset.data.dtype == dtype
        assert subset.data.tobytes() == full.data[rows].tobytes()

    def test_query_rows_gradients_match_full_output(self):
        rng = np.random.default_rng(9)
        rows = np.array([5, 0, 3, 0, 6])
        weights = rng.normal(size=(len(rows), 4))
        h = rng.normal(size=(7, 4))
        r_bar = rng.normal(size=(7, 4))
        grads = []
        for subset in (True, False):
            params = self.make_params(4, 2, 2, np.random.default_rng(10))
            inputs = [ad.Tensor(h, requires_grad=True), ad.Tensor(r_bar, requires_grad=True)]
            if subset:
                out = evolformer_layer(*inputs, params, "evo0", 2, rows=rows)
            else:
                out = ad.take_rows(evolformer_layer(*inputs, params, "evo0", 2), rows)
            ad.sum_over(ad.mul(out, weights)).backward()
            leaves = {**params, "h": inputs[0], "r_bar": inputs[1]}
            grads.append({name: t.grad for name, t in leaves.items()})
        for name, expected in grads[1].items():
            np.testing.assert_allclose(grads[0][name], expected, rtol=1e-12, err_msg=name)
