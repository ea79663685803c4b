"""Finite-difference checks for every autodiff operation."""

from __future__ import annotations

import re
import tracemalloc

import numpy as np
import pytest

from evolmpnn import autodiff as ad
from evolmpnn import data
from evolmpnn.data import ALPHABET, Family, ProteinRecord, knn_graph

from test_evaluation import traced_peak


def numeric_grad(fn, arrays, which, eps=1e-6):
    """Central finite differences of fn w.r.t. arrays[which]."""
    base = [a.copy() for a in arrays]
    g = np.zeros_like(base[which])
    flat = g.reshape(-1)
    target = base[which].reshape(-1)
    for i in range(target.size):
        orig = target[i]
        target[i] = orig + eps
        hi = fn(base)
        target[i] = orig - eps
        lo = fn(base)
        target[i] = orig
        flat[i] = (hi - lo) / (2 * eps)
    return g


def check_op(build, n_args, shapes, seed=0, atol=1e-7):
    """Compare analytic and numeric gradients of a scalar-valued op graph."""
    rng = np.random.default_rng(seed)
    arrays = [rng.standard_normal(s) for s in shapes]
    weights = rng.standard_normal(build([ad.constant(a) for a in arrays]).shape)

    def scalar_fn(arrs):
        out = build([ad.constant(a) for a in arrs])
        return float((out.data * weights).sum())

    tensors = [ad.Tensor(a, requires_grad=True) for a in arrays]
    out = build(tensors)
    loss = ad.sum_over(ad.mul(out, ad.constant(weights)))
    loss.backward()

    for i in range(n_args):
        expected = numeric_grad(scalar_fn, arrays, i)
        assert tensors[i].grad is not None
        np.testing.assert_allclose(tensors[i].grad, expected, atol=atol)


class TestElementwise:
    def test_add_broadcast(self):
        check_op(lambda t: ad.add(t[0], t[1]), 2, [(3, 4), (4,)])

    def test_sub_broadcast(self):
        check_op(lambda t: ad.sub(t[0], t[1]), 2, [(2, 3, 4), (3, 4)])

    def test_mul_broadcast(self):
        check_op(lambda t: ad.mul(t[0], t[1]), 2, [(3, 4), (3, 1)])

    def test_scalar_operand(self):
        check_op(lambda t: ad.mul(t[0], 2.5), 1, [(5,)])

    def test_elu(self):
        check_op(lambda t: ad.elu(t[0]), 1, [(4, 5)])

    def test_sigmoid(self):
        check_op(lambda t: ad.sigmoid(t[0]), 1, [(4, 5)])

    def test_sigmoid_stable_at_large_inputs(self):
        x = ad.constant(np.array([-800.0, 0.0, 800.0]))
        y = ad.sigmoid(x).data
        assert np.all(np.isfinite(y))
        np.testing.assert_allclose(y, [0.0, 0.5, 1.0], atol=1e-12)


class TestMatmul:
    def test_plain_2d(self):
        check_op(lambda t: ad.matmul(t[0], t[1]), 2, [(3, 4), (4, 5)])

    def test_batched_times_2d(self):
        check_op(lambda t: ad.matmul(t[0], t[1]), 2, [(2, 3, 4), (4, 5)])

    def test_batched_times_batched(self):
        check_op(lambda t: ad.matmul(t[0], t[1]), 2, [(2, 3, 4), (2, 4, 5)])

    def test_transpose_last(self):
        check_op(lambda t: ad.matmul(t[0], ad.transpose_last(t[1])), 2, [(3, 4), (5, 4)])

    @pytest.mark.parametrize("shapes", [((3, 4), (1, 5)), ((2, 3, 4), (3, 5))])
    def test_inner_dimension_mismatch_names_shapes(self, shapes):
        # einsum alone would broadcast a size-1 inner dimension into row sums.
        a, b = (ad.constant(np.ones(s)) for s in shapes)
        expected = re.escape(str(shapes[0])) + ".*" + re.escape(str(shapes[1]))
        with pytest.raises(ValueError, match=expected):
            ad.matmul(a, b)


class TestReductionsAndShape:
    def test_sum_all(self):
        check_op(lambda t: ad.sum_over(t[0]), 1, [(3, 4)])

    def test_mean_axis(self):
        check_op(lambda t: ad.mean_over(t[0], axis=0), 1, [(6, 3)])

    def test_concat_last(self):
        check_op(lambda t: ad.concat_last([t[0], t[1]]), 2, [(3, 2), (3, 4)])

    def test_split_last_inverts_concat_last(self):
        check_op(lambda t: ad.concat_last(ad.split_last(ad.elu(t[0]), [2, 3])[::-1]), 1, [(4, 5)])
        with pytest.raises(ValueError, match="do not add up to 5"):
            ad.split_last(ad.constant(np.zeros((4, 5))), [2, 2])

    def test_take_rows_vector_index(self):
        idx = np.array([2, 0, 2, 1])
        check_op(lambda t: ad.take_rows(t[0], idx), 1, [(3, 4)])

    def test_take_rows_matrix_index(self):
        idx = np.array([[0, 1], [1, 1]])
        check_op(lambda t: ad.take_rows(t[0], idx), 1, [(2, 5)])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_take_rows_grad_is_bitwise_np_add_at(self, dtype):
        # An embedding lookup: 2-D uint8 indices into a 20-row table, with
        # repeats, and -0.0 among the incoming gradients.
        rng = np.random.default_rng(14)
        index = rng.integers(0, 20, size=(30, 13), dtype=np.uint8)
        table = ad.Tensor(rng.standard_normal((20, 32)).astype(dtype), requires_grad=True)
        g = rng.standard_normal((30, 13, 32)).astype(dtype)
        g[::3, ::2] = -0.0
        ad.sum_over(ad.mul(ad.take_rows(table, index), ad.constant(g))).backward()
        expected = np.zeros((20, 32), dtype=dtype)
        np.add.at(expected, index, g)
        assert table.grad.dtype == dtype and table.grad.tobytes() == expected.tobytes()


class TestNeighborSum:
    def test_grad_on_asymmetric_edges(self):
        rng = np.random.default_rng(8)
        adj = rng.random((6, 6)) < 0.4
        np.fill_diagonal(adj, False)
        assert (adj != adj.T).any()
        dst, src = np.argwhere(adj).T
        check_op(lambda t: ad.neighbor_sum(t[0], dst, src), 1, [(6, 3)])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bitwise_equal_to_dense_product_on_knn_graph(self, dtype):
        # Few letters and short sequences give many distance ties, and the
        # union symmetrization gives rows of unequal degree.
        rng = np.random.default_rng(9)
        seqs = ["".join(rng.choice(list(ALPHABET[:3]), size=4)) for _ in range(60)]
        fam = Family(
            [ProteinRecord(f"p{i}", q, (0.0,), is_wild_type=i == 0) for i, q in enumerate(seqs)]
        )
        edges = knn_graph(fam, k=5).edges
        adj = np.zeros((fam.m, fam.m), dtype=dtype)
        adj[edges[:, 0], edges[:, 1]] = 1.0
        x = rng.standard_normal((fam.m, 7)).astype(dtype)
        g = rng.standard_normal((fam.m, 7)).astype(dtype)
        leaf = ad.Tensor(x, requires_grad=True)
        out = ad.neighbor_sum(leaf, edges[:, 0], edges[:, 1])
        ad.sum_over(ad.mul(out, ad.constant(g))).backward()
        dense = np.einsum("ij,jk->ik", adj, x, optimize=False)
        dense_grad = np.einsum("ij,jk->ik", adj.T, g, optimize=False)
        assert out.data.dtype == dtype and out.data.tobytes() == dense.tobytes()
        assert leaf.grad.tobytes() == dense_grad.tobytes()

    @staticmethod
    def weighted_edges(n_out, n_in, seed, dtype=np.float64):
        """Random (dst, src) pairs in lexicographic order, with weights."""
        rng = np.random.default_rng(seed)
        dst, src = np.argwhere(rng.random((n_out, n_in)) < 0.5).T
        return dst, src, rng.uniform(0.1, 2.0, size=len(dst)).astype(dtype)

    @pytest.mark.parametrize("n_out", [2, 6, 9])
    def test_grad_weighted_with_other_output_rows(self, n_out):
        dst, src, weight = self.weighted_edges(n_out, 6, seed=n_out)
        check_op(lambda t: ad.neighbor_sum(t[0], dst, src, n_out, weight), 1, [(6, 3)])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize(
        "n_out,scatter",
        [(5, False), (40, False), (90, False), (90, True)],
        ids=["5", "40", "90", "scatter-90"],
    )
    def test_weighted_bitwise_equal_to_dense_einsum(self, n_out, scatter, dtype):
        dst, src, weight = self.weighted_edges(n_out, 40, seed=n_out, dtype=dtype)
        if scatter:  # row e of the input, weighted, to its own ascending output row
            dst = np.sort(np.random.default_rng(13).choice(n_out, size=40, replace=False))
            src, weight = np.arange(40), weight[:40]
        mat = np.zeros((n_out, 40), dtype=dtype)
        mat[dst, src] = weight
        rng = np.random.default_rng(11)
        x = rng.standard_normal((40, 7)).astype(dtype)
        g = rng.standard_normal((n_out, 7)).astype(dtype)
        leaf = ad.Tensor(x, requires_grad=True)
        out = ad.neighbor_sum(leaf, dst, src, n_out, weight)
        ad.sum_over(ad.mul(out, ad.constant(g))).backward()
        dense = np.einsum("ij,jk->ik", mat, x, optimize=False)
        dense_grad = np.einsum("ij,jk->ik", mat.T, g, optimize=False)
        assert out.data.dtype == dtype and out.data.tobytes() == dense.tobytes()
        assert leaf.grad.tobytes() == dense_grad.tobytes()

    @pytest.mark.parametrize("weighted", [True, False])
    def test_edge_blocks_do_not_change_sums(self, monkeypatch, weighted):
        dst, src, weight = self.weighted_edges(30, 50, seed=4)
        weight = weight if weighted else None
        rng = np.random.default_rng(12)
        x = rng.standard_normal((50, 7))
        g = rng.standard_normal((30, 7))
        results = []
        for budget in (data._BLOCK_BYTES, 7 * 32 * 13):  # one block, then 13 edges
            monkeypatch.setattr(data, "_BLOCK_BYTES", budget)
            leaf = ad.Tensor(x, requires_grad=True)
            out = ad.neighbor_sum(leaf, dst, src, 30, weight)
            ad.sum_over(ad.mul(out, ad.constant(g))).backward()
            results.append((out.data.tobytes(), leaf.grad.tobytes()))
        assert len(dst) > 13 * 30  # many blocks in the second run
        assert results[0] == results[1]


class TestMapRows:
    @staticmethod
    def rows_times_w(t):
        """Row blocks of elu(x @ w), 2 rows per block of 5."""

        def block(lo, hi, own):
            return ad.elu(ad.matmul(ad.take_rows(own["x"], np.arange(lo, hi)), own["w"]))

        return ad.map_rows(block, 5, data._BLOCK_BYTES // 2, {"x": t[0], "w": t[1]})

    def test_grad_over_row_blocks(self):
        check_op(self.rows_times_w, 2, [(5, 3), (3, 4)])

    def test_blocks_join_into_one_output(self):
        rng = np.random.default_rng(6)
        x, w = rng.standard_normal((5, 3)), rng.standard_normal((3, 4))
        whole = ad.elu(ad.matmul(ad.constant(x), ad.constant(w))).data
        out = self.rows_times_w([ad.Tensor(x, requires_grad=True), ad.constant(w)])
        assert out.requires_grad and out.data.tobytes() == whole.tobytes()

    @pytest.mark.usefixtures("fixed_workers")
    def test_backward_adds_block_gradients_as_blocks_finish(self):
        # 64 blocks of 8 rows, each of whose input gradients is a full 1 MB
        # array: kept until the last block was done, they took 64 MB.
        x = ad.Tensor(np.ones((512, 256)), requires_grad=True)
        out = ad.map_rows(
            lambda lo, hi, own: ad.take_rows(own["x"], np.arange(lo, hi)),
            512,
            data._BLOCK_BYTES // 8,
            {"x": x},
        )
        loss = ad.sum_over(ad.mul(out, 2.0))
        _, peak = traced_peak(loss.backward)
        assert peak < 16e6
        assert np.array_equal(x.grad, np.full((512, 256), 2.0))

    def test_without_gradients_keeps_nothing(self):
        rng = np.random.default_rng(7)
        out = self.rows_times_w([ad.constant(rng.standard_normal(s)) for s in ((5, 3), (3, 4))])
        assert not out.requires_grad and out._node is None


class TestSoftmaxAndNorm:
    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(3)
        s = ad.softmax_last(ad.constant(rng.standard_normal((4, 7)))).data
        np.testing.assert_allclose(s.sum(axis=-1), 1.0, atol=1e-12)
        assert np.all(s >= 0)

    def test_softmax_grad(self):
        check_op(lambda t: ad.softmax_last(t[0]), 1, [(3, 5)])

    def test_normalize_moments(self):
        rng = np.random.default_rng(4)
        y = ad.normalize_last(ad.constant(rng.standard_normal((6, 32)))).data
        np.testing.assert_allclose(y.mean(axis=-1), 0.0, atol=1e-10)
        np.testing.assert_allclose(y.var(axis=-1), 1.0, atol=1e-5)

    def test_normalize_grad(self):
        check_op(lambda t: ad.normalize_last(t[0]), 1, [(4, 6)], atol=1e-6)


class TestGraphMechanics:
    def test_backward_requires_scalar(self):
        t = ad.Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(ValueError, match="scalar"):
            ad.add(t, t).backward()

    def test_grad_accumulates_over_reuse(self):
        t = ad.Tensor(np.array([3.0]), requires_grad=True)
        loss = ad.sum_over(ad.mul(t, t))  # d/dt t^2 = 2t
        loss.backward()
        np.testing.assert_allclose(t.grad, [6.0])

    def test_backward_frees_interior_grads(self):
        rng = np.random.default_rng(4)
        arrays = [rng.standard_normal(s) for s in ((5, 3), (3, 4))]

        def build():
            x, w = (ad.Tensor(a, requires_grad=True) for a in arrays)
            h = ad.elu(ad.matmul(x, w))
            # h feeds two ops, so its gradient accumulates before it is used.
            return ad.sum_over(ad.mul(h, ad.softmax_last(h))), (x, w)

        loss, leaves = build()
        loss.backward()
        assert all(n.grad is None for n in ad._toposort(loss._node) if n.backward is not None)
        # Reference: the same reverse walk, keeping every node's gradient.
        ref_loss, ref_leaves = build()
        ref_loss._node.grad = np.ones_like(ref_loss.data)
        for node in reversed(ad._toposort(ref_loss._node)):
            if node.backward is not None and node.grad is not None:
                node.backward(node.grad)
        for leaf, ref in zip(leaves, ref_leaves):
            assert leaf.grad.tobytes() == ref.grad.tobytes()

    def test_forward_keeps_only_what_backward_reads(self):
        rng = np.random.default_rng(8)
        x = ad.constant(rng.standard_normal((1024, 64)))
        w = ad.Tensor(rng.standard_normal((64, 512)), requires_grad=True)
        b = ad.constant(rng.standard_normal(512))
        tracemalloc.start()
        try:
            out = ad.softmax_last(ad.add(ad.mul(ad.matmul(x, w), 0.5), b))
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # Of the four 4 MB arrays the forward makes, only the softmax is kept:
        # it is both the output and what the softmax backward reads. The
        # matmul keeps x, made before tracing; mul keeps its scalar.
        assert out.data.nbytes == 4 * 2**20
        assert held < 1.5 * out.data.nbytes
        ad.sum_over(ad.mul(out, 2.0)).backward()
        assert w.grad.shape == (64, 512) and np.all(np.isfinite(w.grad))

    def test_constants_get_no_grad(self):
        c = ad.constant(np.ones(3))
        t = ad.Tensor(np.ones(3), requires_grad=True)
        ad.sum_over(ad.mul(c, t)).backward()
        assert c.grad is None
        assert t.grad is not None

    def test_float32_propagates(self):
        t = ad.Tensor(np.ones((2, 2), dtype=np.float32), requires_grad=True)
        out = ad.sum_over(ad.mul(t, t))
        assert out.data.dtype == np.float32
        out.backward()
        assert t.grad.dtype == np.float32

    def test_int_input_coerced_to_float(self):
        t = ad.Tensor([1, 2, 3])
        assert t.data.dtype == np.float64
