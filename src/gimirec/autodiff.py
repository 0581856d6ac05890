"""Reverse-mode automatic differentiation over NumPy arrays.

A deliberately small tape: only the primitives the recommender needs
(broadcast arithmetic, batched matmul, shape moves, table gathers, bucket
sums, masked softmax, log-sum-exp, sparse-dense products over all rows or
selected ones). Gradients propagate in the same dtype as the forward
values; training runs in float32, oracles and gradient checks in float64.
Gradient arrays are never mutated in place, so sharing a grad buffer
between consumers is safe.
"""

from __future__ import annotations

import threading

import numpy as np
import scipy.sparse as sp


class _GradMode(threading.local):
    enabled = True    # per thread: evaluation workers enter no_grad concurrently


_GRAD_MODE = _GradMode()


class no_grad:
    """Disable graph construction in this thread inside a ``with`` block."""

    def __enter__(self):
        self._prev = _GRAD_MODE.enabled
        _GRAD_MODE.enabled = False
        return self

    def __exit__(self, *_exc):
        _GRAD_MODE.enabled = self._prev
        return False


class Tensor:
    """A NumPy array plus an optional backward closure on the tape.

    It has no arithmetic operators: every op is a function of this module.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = data if isinstance(data, np.ndarray) else np.asarray(data)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self):
        self.grad = None

    def backward(self):
        backward(self)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"


def _node(data, parents, backward_fn) -> Tensor:
    out = Tensor(data)
    if _GRAD_MODE.enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward_fn
    return out


def _accum(t: Tensor, g: np.ndarray):
    if not t.requires_grad:
        return
    t.grad = g if t.grad is None else t.grad + g


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum gradient over axes that were broadcast in the forward pass."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gs, s) in enumerate(zip(g.shape, shape)) if s == 1 and gs != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def backward(root: Tensor):
    """Run reverse accumulation from ``root`` (seeded with ones)."""
    topo: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))
    root.grad = np.ones_like(root.data)
    for node in reversed(topo):
        if node._backward is not None:
            node._backward(node.grad)


# ---------------------------------------------------------------------------
# primitives


def add(a: Tensor, b: Tensor) -> Tensor:
    data = a.data + b.data

    def bwd(g):
        _accum(a, _unbroadcast(g, a.data.shape))
        _accum(b, _unbroadcast(g, b.data.shape))

    return _node(data, (a, b), bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    data = a.data * b.data

    def bwd(g):
        _accum(a, _unbroadcast(g * b.data, a.data.shape))
        _accum(b, _unbroadcast(g * a.data, b.data.shape))

    return _node(data, (a, b), bwd)


def scale(a: Tensor, s: float) -> Tensor:
    data = a.data * s

    def bwd(g):
        _accum(a, g * s)

    return _node(data, (a,), bwd)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Batched matrix product with NumPy broadcasting.

    When one operand is a 2-D weight and the other is batched, the weight
    gradient is a single product over the flattened batch instead of a
    per-example stack of (k, n) products that is then summed.
    """
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError("matmul operands must be at least 2-D")
    data = a.data @ b.data

    def bwd(g):
        if b.ndim == 2 and a.ndim > 2:
            _accum(a, g @ b.data.T)
            _accum(b, a.data.reshape(-1, b.shape[0]).T @ g.reshape(-1, b.shape[1]))
        elif a.ndim == 2 and b.ndim > 2:
            summed = tuple(range(g.ndim - 2)) + (g.ndim - 1,)
            _accum(a, np.tensordot(g, b.data, axes=(summed, summed)))
            _accum(b, a.data.T @ g)
        else:
            _accum(a, _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.data.shape))
            _accum(b, _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.data.shape))

    return _node(data, (a, b), bwd)


def tanh(a: Tensor) -> Tensor:
    data = np.tanh(a.data)

    def bwd(g):
        _accum(a, g * (1.0 - data * data))

    return _node(data, (a,), bwd)


def sumt(a: Tensor, axis: int | None = None, keepdims: bool = False) -> Tensor:
    data = a.data.sum(axis=axis, keepdims=keepdims)

    def bwd(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        _accum(a, np.broadcast_to(g, a.data.shape).astype(a.data.dtype, copy=False))

    return _node(data, (a,), bwd)


def reshape(a: Tensor, shape: tuple) -> Tensor:
    data = a.data.reshape(shape)

    def bwd(g):
        _accum(a, g.reshape(a.data.shape))

    return _node(data, (a,), bwd)


def swapaxes(a: Tensor, ax1: int, ax2: int) -> Tensor:
    data = np.swapaxes(a.data, ax1, ax2)

    def bwd(g):
        _accum(a, np.swapaxes(g, ax1, ax2))

    return _node(data, (a,), bwd)


def take(a: Tensor, key) -> Tensor:
    """Basic (slice/int) indexing; not for index arrays — use gather."""
    data = a.data[key]

    def bwd(g):
        ga = np.zeros_like(a.data)
        ga[key] = g
        _accum(a, ga)

    return _node(data, (a,), bwd)


def concat(parts: list[Tensor], axis: int) -> Tensor:
    data = np.concatenate([p.data for p in parts], axis=axis)
    sizes = [p.data.shape[axis] for p in parts]
    offsets = np.cumsum(sizes)[:-1]

    def bwd(g):
        for p, piece in zip(parts, np.split(g, offsets, axis=axis)):
            _accum(p, piece)

    return _node(data, tuple(parts), bwd)


def broadcast_to(a: Tensor, shape: tuple) -> Tensor:
    data = np.broadcast_to(a.data, shape)

    def bwd(g):
        _accum(a, _unbroadcast(g, a.data.shape))

    return _node(data, (a,), bwd)


def gather(table: Tensor, idx: np.ndarray) -> Tensor:
    """Row lookup: table (V, d), idx any int shape S -> output S + (d,).

    The backward pass multiplies the output gradient by a sparse (V, size(S))
    one-hot matrix in CSC form; its product visits the columns, i.e. the
    lookups, in index order, so repeated rows accumulate in the same order
    as a sequential scatter.
    """
    idx = np.asarray(idx)
    data = table.data[idx]

    def bwd(g):
        n = idx.size
        one_hot = sp.csc_matrix(
            (np.ones(n, dtype=g.dtype), idx.ravel(), np.arange(n + 1)),
            shape=(table.data.shape[0], n))
        width = int(np.prod(table.data.shape[1:]))
        _accum(table, (one_hot @ g.reshape(n, width)).reshape(table.data.shape))

    return _node(data, (table,), bwd)


def select_rows(x: Tensor, idx: np.ndarray) -> Tensor:
    """Per-batch row pick: x (B, K, ...), idx (B,) -> (B, ...)."""
    idx = np.asarray(idx)
    batch = np.arange(x.data.shape[0])
    data = x.data[batch, idx]

    def bwd(g):
        gx = np.zeros_like(x.data)
        gx[batch, idx] = g  # one pick per batch row: no repeated targets
        _accum(x, gx)

    return _node(data, (x,), bwd)


def bucket_sum(x: Tensor, idx: np.ndarray, n_buckets: int) -> Tensor:
    """Per-row histogram: x (..., L) summed into (..., n_buckets) by idx (..., L).

    ``out[..., t]`` is the sum of ``x[..., j]`` over the j with
    ``idx[..., j] == t``; the backward pass gathers the bucket gradient back.
    """
    idx = np.asarray(idx)
    n_rows = int(np.prod(idx.shape[:-1]))
    offsets = (np.arange(n_rows) * n_buckets).reshape(idx.shape[:-1] + (1,))
    data = np.bincount((idx + offsets).ravel(), weights=x.data.ravel(),
                       minlength=n_rows * n_buckets)
    data = data.astype(x.data.dtype, copy=False).reshape(idx.shape[:-1] + (n_buckets,))

    def bwd(g):
        _accum(x, np.take_along_axis(g, idx, axis=-1))

    return _node(data, (x,), bwd)


def masked_softmax(x: Tensor, mask: np.ndarray | None = None) -> Tensor:
    """Softmax over the last axis; masked-out (False) keys get zero weight.

    Rows with no valid key come back as all zeros rather than NaN.
    """
    xd = x.data
    if mask is None:
        m = xd.max(axis=-1, keepdims=True)
        e = np.exp(xd - m)
    else:
        mask = np.broadcast_to(np.asarray(mask, dtype=bool), xd.shape)
        neg = np.where(mask, xd, -np.inf)
        m = neg.max(axis=-1, keepdims=True)
        m_safe = np.where(np.isfinite(m), m, 0.0)
        e = np.exp(neg - m_safe)  # masked keys: exp(-inf) = 0, no overflow
    s = e.sum(axis=-1, keepdims=True)
    p = e / np.where(s == 0.0, 1.0, s)

    def bwd(g):
        dot = (g * p).sum(axis=-1, keepdims=True)
        _accum(x, p * (g - dot))

    return _node(p, (x,), bwd)


def logsumexp(x: Tensor, axis: int = -1) -> Tensor:
    """Stable log-sum-exp reduction (max subtracted before exponentiation)."""
    m = x.data.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(x.data - m).sum(axis=axis, keepdims=True)) + m
    data = np.squeeze(lse, axis=axis)

    def bwd(g):
        soft = np.exp(x.data - lse)
        _accum(x, np.expand_dims(g, axis) * soft)

    return _node(data, (x,), bwd)


def spmm(a_sparse, a_sparse_t, x: Tensor) -> Tensor:
    """Fixed sparse matrix times dense tensor: a_sparse @ x.

    ``a_sparse_t`` must be the exact transpose of ``a_sparse`` (for a
    symmetric matrix, pass the matrix itself twice).
    """
    data = a_sparse @ x.data

    def bwd(g):
        _accum(x, a_sparse_t @ g)

    return _node(data, (x,), bwd)


def spmm_rows(a_sparse: sp.csr_matrix, x: Tensor, rows: np.ndarray) -> Tensor:
    """Selected rows of a fixed sparse product: ``(a_sparse @ x)[rows]``.

    The result keeps the full (n_rows, d) shape: the listed rows are exact
    (row slicing keeps each row's summation order) and every other row is
    zero. The backward pass is the exact transpose of the sliced matrix,
    ``a_sparse[rows].T @ g[rows]``, so no symmetry is assumed.
    """
    sub = a_sparse[rows]
    data = np.zeros((a_sparse.shape[0],) + x.data.shape[1:],
                    dtype=np.result_type(a_sparse.dtype, x.data.dtype))
    data[rows] = sub @ x.data

    def bwd(g):
        _accum(x, sub.T @ g[rows])

    return _node(data, (x,), bwd)


def dropout(x: Tensor, rate: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout; call only in training mode with rate > 0."""
    keep = (rng.random(x.data.shape) >= rate).astype(x.data.dtype)
    keep /= np.asarray(1.0 - rate, dtype=x.data.dtype)
    return mul(x, Tensor(keep))
