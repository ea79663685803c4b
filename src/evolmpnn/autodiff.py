"""Reverse-mode automatic differentiation on dense numpy arrays.

The engine is deliberately small: a ``Tensor`` wraps one ndarray, and one
that requires a gradient also carries a graph node. Each operation gives its
output a node with a backward closure, and ``backward()`` walks the nodes
once in reverse topological order. The graph links nodes, never tensors, and
a closure saves only the arrays its backward reads, and only for inputs that
require a gradient: ``matmul`` and ``mul`` keep the other operand; softmax,
elu, sigmoid and normalization keep their own output (plus normalization's
inverse standard deviation); sums, slices, concatenation, transposes,
gathers and edge sums keep shapes and indices. Every other intermediate is
freed as soon as the code that made it drops it. Only the operations the
models need are provided. Everything runs in whatever float dtype the inputs
carry, so the same code path serves float64 verification and float32
training.
"""

from __future__ import annotations

import numpy as np

from .data import _block_rows, map_blocks

__all__ = [
    "Tensor",
    "constant",
    "add",
    "sub",
    "mul",
    "matmul",
    "transpose_last",
    "concat_last",
    "split_last",
    "sum_over",
    "mean_over",
    "softmax_last",
    "elu",
    "sigmoid",
    "normalize_last",
    "take_rows",
    "neighbor_sum",
    "map_rows",
]


def _as_float_array(x) -> np.ndarray:
    a = x if isinstance(x, np.ndarray) else np.asarray(x)
    if a.dtype.kind != "f":
        a = a.astype(np.float64)
    return a


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient down to the shape of the broadcast operand."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


class _Node:
    """Graph node of a tensor that requires a gradient: the gradient slot,
    the parent nodes, the backward closure, and the value's shape and dtype.
    A leaf has no parents and no closure."""

    __slots__ = ("grad", "parents", "backward", "shape", "dtype")

    def __init__(self, value: np.ndarray, parents=(), backward=None):
        self.grad: np.ndarray | None = None
        self.parents: tuple[_Node, ...] = parents
        self.backward = backward
        self.shape = value.shape
        self.dtype = value.dtype

    def accumulate(self, g: np.ndarray) -> None:
        if self.grad is None:
            # A copy, since ``g`` may be a view that other nodes also receive;
            # in C order, since the layout decides how later sums round.
            self.grad = np.empty(self.shape, dtype=self.dtype)
            self.grad[...] = g
        else:
            self.grad += g


class Tensor:
    """A value in the autodiff graph; one that requires a gradient carries
    its graph node."""

    __slots__ = ("data", "_node")

    def __init__(self, data, requires_grad: bool = False):
        self.data = _as_float_array(data)
        self._node = _Node(self.data) if requires_grad else None

    @property
    def requires_grad(self) -> bool:
        return self._node is not None

    @property
    def grad(self) -> np.ndarray | None:
        return None if self._node is None else self._node.grad

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def backward(self) -> None:
        """Accumulate d(self)/d(leaf) of this scalar into each leaf's
        ``grad``; an interior node's gradient is freed once its backward has
        run."""
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar output")
        if self._node is not None:
            _backprop(self._node, np.ones_like(self.data))


def _backprop(root: _Node, grad: np.ndarray) -> None:
    """Seed ``root`` with ``grad`` and run every closure once, in reverse
    topological order, freeing each interior gradient after its closure."""
    order = _toposort(root)
    root.grad = grad
    for node in reversed(order):
        if node.backward is not None and node.grad is not None:
            node.backward(node.grad)
            node.grad = None


def constant(x) -> Tensor:
    return Tensor(x, requires_grad=False)


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else constant(x)


def _wrap_pair(a, b) -> tuple[Tensor, Tensor]:
    """Wrap operands; bare Python scalars adopt the tensor operand's dtype."""
    if isinstance(a, Tensor) and not isinstance(b, Tensor):
        return a, constant(np.asarray(b, dtype=a.data.dtype))
    if isinstance(b, Tensor) and not isinstance(a, Tensor):
        return constant(np.asarray(a, dtype=b.data.dtype)), b
    return _wrap(a), _wrap(b)


def _result(data: np.ndarray, inputs: tuple[_Node | None, ...], backward) -> Tensor:
    """A tensor over ``data`` whose node, when any input node exists, runs
    ``backward``; the closure must read only the nodes and saved arrays it
    needs, never an input tensor."""
    out = Tensor(data)
    parents = tuple(node for node in inputs if node is not None)
    if parents:
        out._node = _Node(data, parents, backward)
    return out


def _toposort(root: _Node) -> list[_Node]:
    order: list[_Node] = []
    seen: set[int] = set()
    stack: list[tuple[_Node, bool]] = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node.parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    return order


def add(a, b) -> Tensor:
    a, b = _wrap_pair(a, b)
    na, nb = a._node, b._node

    def backward(g):
        if na is not None:
            na.accumulate(_unbroadcast(g, na.shape))
        if nb is not None:
            nb.accumulate(_unbroadcast(g, nb.shape))

    return _result(a.data + b.data, (na, nb), backward)


def sub(a, b) -> Tensor:
    a, b = _wrap_pair(a, b)
    na, nb = a._node, b._node

    def backward(g):
        if na is not None:
            na.accumulate(_unbroadcast(g, na.shape))
        if nb is not None:
            nb.accumulate(_unbroadcast(-g, nb.shape))

    return _result(a.data - b.data, (na, nb), backward)


def mul(a, b) -> Tensor:
    a, b = _wrap_pair(a, b)
    na, nb = a._node, b._node
    # Each input's gradient reads the other operand.
    other_a = b.data if na is not None else None
    other_b = a.data if nb is not None else None

    def backward(g):
        if na is not None:
            na.accumulate(_unbroadcast(g * other_a, na.shape))
        if nb is not None:
            nb.accumulate(_unbroadcast(g * other_b, nb.shape))

    return _result(a.data * b.data, (na, nb), backward)


def _mm(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Matrix product. A 2-D product makes one BLAS call per row of x, all of
    the same shape, so an output row depends only on its own input row, and
    identical rows give bitwise-identical results wherever they sit. That
    holds on a BLAS whose GEMV does not change its summation order with a
    row's memory alignment (OpenBLAS, as tested; MKL only in its
    conditional-reproducibility mode); row i starts at byte i*k*itemsize.
    One GEMM over all rows would not: its kernels round differently across
    row blocks. Batched inputs run one GEMM per slice, which is already
    position-independent."""
    if x.shape[-1] != y.shape[-2]:
        raise ValueError(f"matmul shape mismatch: {x.shape} @ {y.shape}")
    if x.ndim == 2 and y.ndim == 2:
        return np.matmul(x[:, None, :], y)[:, 0, :]
    return np.matmul(x, y)


def matmul(a, b) -> Tensor:
    a, b = _wrap_pair(a, b)
    na, nb = a._node, b._node
    other_a = b.data if na is not None else None
    other_b = a.data if nb is not None else None

    def backward(g):
        if na is not None:
            ga = _mm(g, np.swapaxes(other_a, -1, -2))
            na.accumulate(_unbroadcast(ga, na.shape))
        if nb is not None:
            gb = _mm(np.swapaxes(other_b, -1, -2), g)
            nb.accumulate(_unbroadcast(gb, nb.shape))

    return _result(_mm(a.data, b.data), (na, nb), backward)


def transpose_last(a: Tensor) -> Tensor:
    na = a._node

    def backward(g):
        na.accumulate(np.swapaxes(g, -1, -2))

    return _result(np.swapaxes(a.data, -1, -2), (na,), backward)


def concat_last(parts: list[Tensor]) -> Tensor:
    parts = [_wrap(p) for p in parts]
    nodes = [p._node for p in parts]
    widths = [p.data.shape[-1] for p in parts]

    def backward(g):
        offset = 0
        for node, w in zip(nodes, widths):
            if node is not None:
                node.accumulate(g[..., offset : offset + w])
            offset += w

    return _result(np.concatenate([p.data for p in parts], axis=-1), tuple(nodes), backward)


def split_last(a: Tensor, widths) -> list[Tensor]:
    """Consecutive slices of the last axis with the given widths, as
    contiguous arrays; the inverse of ``concat_last``."""
    if sum(widths) != a.data.shape[-1]:
        raise ValueError(f"widths {list(widths)} do not add up to {a.data.shape[-1]}")
    ends = np.cumsum(widths)
    return [_slice_last(a, int(end) - w, int(end)) for w, end in zip(widths, ends)]


def _slice_last(a: Tensor, lo: int, hi: int) -> Tensor:
    na = a._node

    def backward(g):
        if na.grad is None:
            na.grad = np.zeros(na.shape, dtype=na.dtype)
        na.grad[..., lo:hi] += g

    return _result(np.ascontiguousarray(a.data[..., lo:hi]), (na,), backward)


def sum_over(a: Tensor, axis=None) -> Tensor:
    na = a._node

    def backward(g):
        if axis is not None:
            g = np.expand_dims(g, axis)
        na.accumulate(np.broadcast_to(g, na.shape))

    return _result(a.data.sum(axis=axis), (na,), backward)


def mean_over(a: Tensor, axis=None) -> Tensor:
    count = a.data.size if axis is None else a.data.shape[axis]
    return mul(sum_over(a, axis=axis), 1.0 / count)


def softmax_last(a: Tensor) -> Tensor:
    # data must be a fresh array, never a.data: it is written in place here
    # and then kept by backward.
    data = a.data - a.data.max(axis=-1, keepdims=True)
    np.exp(data, out=data)
    data /= data.sum(axis=-1, keepdims=True)
    na = a._node

    def backward(g):
        inner = (g * data).sum(axis=-1, keepdims=True)
        na.accumulate(data * (g - inner))

    return _result(data, (na,), backward)


def elu(a: Tensor) -> Tensor:
    # expm1 of the negative part plus the positive part: each term is 0
    # where the other applies, so no mask is kept, and the bits equal a
    # select's, at +-0.0 and subnormals too.
    data = np.expm1(np.minimum(a.data, 0))
    data += np.maximum(a.data, 0)
    na = a._node

    def backward(g):
        # For x <= 0 the derivative exp(x) equals elu(x) + 1 <= 1; for x > 0
        # it is 1 and elu(x) > 0.
        slope = np.minimum(data, 0)
        slope += 1
        na.accumulate(g * slope)

    return _result(data, (na,), backward)


def sigmoid(a: Tensor) -> Tensor:
    x = a.data
    data = np.empty_like(x)
    pos = x >= 0
    data[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    data[~pos] = ex / (1.0 + ex)
    na = a._node

    def backward(g):
        na.accumulate(g * data * (1.0 - data))

    return _result(data, (na,), backward)


def normalize_last(a: Tensor, eps: float = 1e-8) -> Tensor:
    """Zero-mean, unit-variance normalization over the last axis."""
    mu = a.data.mean(axis=-1, keepdims=True)
    centered = a.data - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    data = centered * inv
    na = a._node

    def backward(g):
        g_mean = g.mean(axis=-1, keepdims=True)
        proj = (g * data).mean(axis=-1, keepdims=True)
        na.accumulate(inv * (g - g_mean - data * proj))

    return _result(data, (na,), backward)


def take_rows(a: Tensor, index: np.ndarray) -> Tensor:
    """Gather along axis 0; works as embedding lookup for 2-D indices."""
    index = np.asarray(index)
    na = a._node

    def backward(g):
        full = np.zeros(na.shape, dtype=na.dtype)
        dst = index.reshape(-1).astype(np.intp)  # uint8 lookups would overflow
        edges = np.arange(dst.size)
        _add_rows_at(full.reshape(len(full), -1), dst, g.reshape(dst.size, -1), edges)
        na.accumulate(full)

    return _result(a.data[index], (na,), backward)


def _add_rows_at(out, rows, source, index, weight=None) -> None:
    """``out[rows[e]] += source[index[e]] * weight[e]`` for each e in turn, on
    a C-ordered 2-D ``out``, one block of edges at a time under the shared
    ``data._BLOCK_BYTES`` budget. The flat element index takes numpy's 1-D
    ``ufunc.at`` loop, which is about three times faster than indexing whole
    rows; blocks run in edge order, so their split never changes a sum."""
    width = out.shape[1]
    # Per edge: the gathered, weighted row and its flat indices.
    step = _block_rows(width * (out.itemsize + 8) + 8)
    for lo in range(0, len(rows), step):
        values = source[index[lo : lo + step]]
        if weight is not None:
            values *= weight[lo : lo + step, None]
        flat = rows[lo : lo + step, None] * width + np.arange(width)
        np.add.at(out.reshape(-1), flat.reshape(-1), values.reshape(-1))


def neighbor_sum(a: Tensor, dst, src, n_out: int | None = None, weight=None) -> Tensor:
    """Edge-list message sum over an (M, d) tensor: row i of the (n_out, d)
    output (n_out defaults to M) adds ``weight[e] * a[j]`` (weight is in
    a's dtype, default 1) over the edges e = (i, j), given as index arrays
    ``dst`` and ``src``.

    This is the product with the n_out x M matrix that holds each edge's
    weight, in O(E * d) time and O(block * d) scratch. With the edges in
    lexicographic (dst, src) order, forward and backward add each output's
    terms in ascending order of the summed index, as ``np.einsum``'s
    sequential product (``optimize=False``) does, so results are bitwise
    equal to it; ``matmul`` runs on BLAS and is not.

    With ``src = arange(k)`` and k distinct ascending ``dst`` rows it is a
    weighted row scatter: output row ``dst[e]`` is ``weight[e] * a[e]``, the
    other rows are 0, and the backward gathers ``weight[e] * g[dst[e]]``.
    """
    n_out = a.data.shape[0] if n_out is None else n_out
    data = np.zeros((n_out, a.data.shape[1]), dtype=a.data.dtype)
    _add_rows_at(data, dst, a.data, src, weight)
    na = a._node

    def backward(g):
        full = np.zeros(na.shape, dtype=na.dtype)
        _add_rows_at(full, src, g, dst, weight)
        na.accumulate(full)

    return _result(data, (na,), backward)


def map_rows(fn, n_rows: int, bytes_per_row: int, inputs: dict[str, Tensor]) -> Tensor:
    """Row blocks of a per-row computation, run on the ``data.map_blocks``
    worker pool and joined into one differentiable tensor.

    ``fn(lo, hi, block_inputs)`` computes output rows [lo, hi) from
    ``block_inputs``, which holds a handle over the same array for each of
    ``inputs``; it must use no other tensor that requires a gradient. The
    inputs may be any tensors, leaves or results of other ops. Each block
    gets its own handles, so no two blocks write one ``grad``. The output is
    the block outputs concatenated along axis 0.

    When no input requires a gradient the result is a constant and nothing
    is kept. Otherwise each block's output node and input-handle nodes are
    kept until backward, which maps the same blocks again: each block seeds
    its output node with its rows of the incoming gradient, runs its own
    backward and then drops its graph, and its input gradients are added
    into ``inputs`` as soon as it and every block before it are done, from
    where the outer backward carries them on. The sum is therefore in block
    order and does not depend on the worker count, but it differs in the
    last bits from one backward over all rows. Between forward and backward
    a block holds only the arrays its ops saved for backward, not its
    intermediates or its output, whose rows live on in the joined output.
    Those saved arrays still cover every row (each head's softmax,
    O(rows * N^2) for the residue encoder and O(rows * M) for protein
    attention); backward drops each block's graph as it goes and holds the
    input gradients of at most 2W blocks at once, each as large as its
    input. The blocks bound the memory of a call without gradients.
    """

    def forward_block(lo, hi):
        own = {name: Tensor(t.data, t.requires_grad) for name, t in inputs.items()}
        out = fn(lo, hi, own)
        return lo, out, {name: t._node for name, t in own.items() if t._node is not None}

    blocks = map_blocks(forward_block, n_rows, bytes_per_row)
    data = np.concatenate([out.data for _, out, _ in blocks])
    nodes = {name: t._node for name, t in inputs.items() if t._node is not None}
    # Only the nodes: each block's output array lives on in ``data`` alone.
    graphs = {lo: (out._node, own) for lo, out, own in blocks}

    def backward(g):
        def backward_block(lo, hi):
            out, own = graphs.pop(lo)
            if out is not None:
                _backprop(out, g[lo:hi])
            return {name: node.grad for name, node in own.items() if node.grad is not None}

        def add(block_grads):
            for name, block_grad in block_grads.items():
                nodes[name].accumulate(block_grad)

        map_blocks(backward_block, n_rows, bytes_per_row, consume=add)

    return _result(data, tuple(nodes.values()), backward)
