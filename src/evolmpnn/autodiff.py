"""Reverse-mode automatic differentiation on dense numpy arrays.

The engine is deliberately small: a ``Tensor`` wraps one ndarray, each
operation records a backward closure, and ``backward()`` walks the graph
once in reverse topological order. Only the operations the models need
are provided. Everything runs in whatever float dtype the inputs carry,
so the same code path serves float64 verification and float32 training.
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


class Tensor:
    """Node in the autodiff graph: value, gradient slot, backward closure."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = _as_float_array(data)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def _accumulate(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g

    def backward(self, grad=None) -> None:
        """Accumulate d(self)/d(leaf), seeded with ``grad`` (default 1 for a
        scalar output), into each leaf's ``grad``; an interior node's
        gradient is freed once its backward has run."""
        if grad is None:
            if self.data.size != 1:
                raise ValueError("backward() requires a scalar output or a seed gradient")
            grad = np.ones_like(self.data)
        else:
            grad = np.array(grad, dtype=self.data.dtype)
            if grad.shape != self.data.shape:
                raise ValueError(
                    f"seed gradient {grad.shape} does not match output {self.data.shape}"
                )
        order = _toposort(self)
        self.grad = grad
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
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


def _result(data: np.ndarray, parents: tuple[Tensor, ...], backward) -> Tensor:
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backward = backward
    return out


def _toposort(root: Tensor) -> list[Tensor]:
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    return order


def add(a, b) -> Tensor:
    a, b = _wrap_pair(a, b)
    data = a.data + b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g, b.data.shape))

    return _result(data, (a, b), backward)


def sub(a, b) -> Tensor:
    a, b = _wrap_pair(a, b)
    data = a.data - b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(-g, b.data.shape))

    return _result(data, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = _wrap_pair(a, b)
    data = a.data * b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g * a.data, b.data.shape))

    return _result(data, (a, b), backward)


def _mm(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Matrix product; 2-D inputs avoid BLAS so identical rows of x produce
    bitwise-identical output rows regardless of their position (BLAS kernels
    round differently across row blocks). Batched inputs run one GEMM per
    slice, which is already position-independent."""
    if x.shape[-1] != y.shape[-2]:
        raise ValueError(f"matmul shape mismatch: {x.shape} @ {y.shape}")
    if x.ndim == 2 and y.ndim == 2:
        return np.einsum("ij,jk->ik", x, y, optimize=False)
    return np.matmul(x, y)


def matmul(a, b) -> Tensor:
    a, b = _wrap_pair(a, b)
    data = _mm(a.data, b.data)

    def backward(g):
        if a.requires_grad:
            ga = _mm(g, np.swapaxes(b.data, -1, -2))
            a._accumulate(_unbroadcast(ga, a.data.shape))
        if b.requires_grad:
            gb = _mm(np.swapaxes(a.data, -1, -2), g)
            b._accumulate(_unbroadcast(gb, b.data.shape))

    return _result(data, (a, b), backward)


def transpose_last(a: Tensor) -> Tensor:
    data = np.swapaxes(a.data, -1, -2)

    def backward(g):
        if a.requires_grad:
            a._accumulate(np.swapaxes(g, -1, -2))

    return _result(data, (a,), backward)


def concat_last(parts: list[Tensor]) -> Tensor:
    parts = [_wrap(p) for p in parts]
    data = np.concatenate([p.data for p in parts], axis=-1)
    widths = [p.data.shape[-1] for p in parts]

    def backward(g):
        offset = 0
        for p, w in zip(parts, widths):
            if p.requires_grad:
                p._accumulate(g[..., offset : offset + w])
            offset += w

    return _result(data, tuple(parts), backward)


def split_last(a: Tensor, widths) -> list[Tensor]:
    """Consecutive slices of the last axis with the given widths, as
    contiguous arrays; the inverse of ``concat_last``."""
    if sum(widths) != a.data.shape[-1]:
        raise ValueError(f"widths {list(widths)} do not add up to {a.data.shape[-1]}")
    ends = np.cumsum(widths)
    return [_slice_last(a, int(end) - w, int(end)) for w, end in zip(widths, ends)]


def _slice_last(a: Tensor, lo: int, hi: int) -> Tensor:
    def backward(g):
        if a.requires_grad:
            if a.grad is None:
                a.grad = np.zeros_like(a.data)
            a.grad[..., lo:hi] += g

    return _result(np.ascontiguousarray(a.data[..., lo:hi]), (a,), backward)


def sum_over(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        if not a.requires_grad:
            return
        if axis is None:
            a._accumulate(np.broadcast_to(g, a.data.shape).copy())
            return
        if not keepdims:
            g = np.expand_dims(g, axis)
        a._accumulate(np.broadcast_to(g, a.data.shape).copy())

    return _result(data, (a,), backward)


def mean_over(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    count = a.data.size if axis is None else a.data.shape[axis]
    return mul(sum_over(a, axis=axis, keepdims=keepdims), 1.0 / count)


def softmax_last(a: Tensor) -> Tensor:
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    data = e / e.sum(axis=-1, keepdims=True)

    def backward(g):
        if a.requires_grad:
            inner = (g * data).sum(axis=-1, keepdims=True)
            a._accumulate(data * (g - inner))

    return _result(data, (a,), backward)


def elu(a: Tensor) -> Tensor:
    positive = a.data > 0
    # expm1 only sees the negative branch; where() would evaluate it everywhere.
    data = np.where(positive, a.data, np.expm1(np.minimum(a.data, 0.0)))

    def backward(g):
        if a.requires_grad:
            # For x <= 0 the derivative exp(x) equals elu(x) + 1.
            a._accumulate(g * np.where(positive, 1.0, data + 1.0))

    return _result(data, (a,), backward)


def sigmoid(a: Tensor) -> Tensor:
    x = a.data
    data = np.empty_like(x)
    pos = x >= 0
    data[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    data[~pos] = ex / (1.0 + ex)

    def backward(g):
        if a.requires_grad:
            a._accumulate(g * data * (1.0 - data))

    return _result(data, (a,), backward)


def normalize_last(a: Tensor, eps: float = 1e-8) -> Tensor:
    """Zero-mean, unit-variance normalization over the last axis."""
    mu = a.data.mean(axis=-1, keepdims=True)
    centered = a.data - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    data = centered * inv

    def backward(g):
        if a.requires_grad:
            g_mean = g.mean(axis=-1, keepdims=True)
            proj = (g * data).mean(axis=-1, keepdims=True)
            a._accumulate(inv * (g - g_mean - data * proj))

    return _result(data, (a,), backward)


def take_rows(a: Tensor, index: np.ndarray) -> Tensor:
    """Gather along axis 0; works as embedding lookup for 2-D indices."""
    index = np.asarray(index)
    data = a.data[index]

    def backward(g):
        if a.requires_grad:
            full = np.zeros(a.data.shape, dtype=a.data.dtype)
            dst = index.reshape(-1).astype(np.intp)  # uint8 lookups would overflow
            edges = np.arange(dst.size)
            _add_rows_at(full.reshape(len(full), -1), dst, g.reshape(dst.size, -1), edges)
            a._accumulate(full)

    return _result(data, (a,), backward)


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
    terms in ascending order of the summed index, as the einsum in
    ``matmul`` does, so results are bitwise equal to it.
    """
    n_out = a.data.shape[0] if n_out is None else n_out
    data = np.zeros((n_out, a.data.shape[1]), dtype=a.data.dtype)
    _add_rows_at(data, dst, a.data, src, weight)

    def backward(g):
        if a.requires_grad:
            full = np.zeros(a.data.shape, dtype=a.data.dtype)
            _add_rows_at(full, src, g, dst, weight)
            a._accumulate(full)

    return _result(data, (a,), backward)


def map_rows(fn, n_rows: int, bytes_per_row: int, leaves: dict[str, Tensor]) -> Tensor:
    """Row blocks of a per-row computation, run on the ``data.map_blocks``
    worker pool and joined into one differentiable tensor.

    ``fn(lo, hi, block_leaves)`` computes output rows [lo, hi) from
    ``block_leaves``, which holds a handle over the same array for each of
    ``leaves``; it must use no other tensor that requires a gradient. Each
    block gets its own handles, so no two blocks write one ``grad``. The
    output is the block outputs concatenated along axis 0.

    When no leaf requires a gradient the result is a constant and nothing is
    kept. Otherwise each block's graph is kept until backward, which maps
    the same blocks again: each block seeds its output with its rows of the
    incoming gradient, runs its own backward and then drops its graph, and
    the blocks' leaf gradients are added into ``leaves`` in block order.
    The sum therefore does not depend on the worker count, but it differs in
    the last bits from one backward over all rows. The graphs of all blocks
    are alive together between forward and backward, so a differentiable
    call's memory is still that of one graph over every row (O(rows * N^2)
    for the residue encoder); the blocks bound only the memory of a call
    without gradients.
    """

    def forward_block(lo, hi):
        own = {name: Tensor(leaf.data, leaf.requires_grad) for name, leaf in leaves.items()}
        return lo, fn(lo, hi, own), own

    blocks = map_blocks(forward_block, n_rows, bytes_per_row)
    data = np.concatenate([out.data for _, out, _ in blocks])
    if not any(leaf.requires_grad for leaf in leaves.values()):
        return constant(data)
    graphs = {lo: (out, own) for lo, out, own in blocks}

    def backward(g):
        def backward_block(lo, hi):
            out, own = graphs.pop(lo)
            out.backward(g[lo:hi])
            return {name: t.grad for name, t in own.items() if t.grad is not None}

        for block_grads in map_blocks(backward_block, n_rows, bytes_per_row):
            for name, block_grad in block_grads.items():
                leaves[name]._accumulate(block_grad)

    return _result(data, tuple(leaves.values()), backward)
