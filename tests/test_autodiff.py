"""Finite-difference checks for every autodiff operation."""

from __future__ import annotations

import re

import numpy as np
import pytest

from evolmpnn import autodiff as ad


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

    def test_sum_axis_keepdims(self):
        check_op(lambda t: ad.sum_over(t[0], axis=1, keepdims=True), 1, [(3, 4, 2)])

    def test_mean_axis(self):
        check_op(lambda t: ad.mean_over(t[0], axis=0), 1, [(6, 3)])

    def test_concat_last(self):
        check_op(lambda t: ad.concat_last([t[0], t[1]]), 2, [(3, 2), (3, 4)])

    def test_take_rows_vector_index(self):
        idx = np.array([2, 0, 2, 1])
        check_op(lambda t: ad.take_rows(t[0], idx), 1, [(3, 4)])

    def test_take_rows_matrix_index(self):
        idx = np.array([[0, 1], [1, 1]])
        check_op(lambda t: ad.take_rows(t[0], idx), 1, [(2, 5)])


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
