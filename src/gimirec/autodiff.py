"""Reverse-mode automatic differentiation over NumPy arrays.

A deliberately small tape: only the primitives the recommender needs
(broadcast arithmetic, batched matmul, reshape/swapaxes/concat, row
gathers, bucket sums, masked softmax, log-sum-exp, sparse-dense products
over all rows or selected ones). ``gather`` is the one primitive whose
backward scatters into rows: slices, broadcasts and per-example picks are
all written as gathers. Gradients propagate in the same dtype as the forward
values; training runs in float32, oracles and gradient checks in float64.
Gradient arrays are never mutated in place, so sharing a grad buffer
between consumers is safe. Only leaves (tensors without a backward closure,
such as parameters) keep ``.grad`` after ``backward``: every interior node's
gradient is released once it has been propagated.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp


class _GradMode:
    enabled = True


_GRAD_MODE = _GradMode()


class no_grad:
    """Disable graph construction inside a ``with`` block; leaving it, even
    by an exception, restores the previous mode."""

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
    """Run reverse accumulation from ``root`` (seeded with ones).

    Each node with a backward closure, ``root`` included, drops its ``.grad``
    as soon as the closure has passed it on, so the step holds at most the
    gradients still waiting to be propagated; leaves accumulate and keep
    theirs. The forward data and closures stay, so a second ``backward`` on
    the same graph adds the same leaf gradients again.
    """
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
            node.grad = None


# ---------------------------------------------------------------------------
# primitives


def add(a: Tensor, b: Tensor) -> Tensor:
    data = a.data + b.data

    def bwd(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g, a.data.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(g, b.data.shape))

    return _node(data, (a, b), bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    data = a.data * b.data

    def bwd(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(g * a.data, b.data.shape))

    return _node(data, (a, b), bwd)


def scale(a: Tensor, s: float) -> Tensor:
    data = a.data * s

    def bwd(g):
        _accum(a, g * s)

    return _node(data, (a,), bwd)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Batched matrix product with NumPy broadcasting.

    When ``a`` is batched and ``b`` is a 2-D weight, the forward product,
    ``a``'s gradient and the weight gradient are each one product over the
    flattened ``(-1, k)`` batch instead of a stack of per-example products.
    """
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError("matmul operands must be at least 2-D")
    flat = b.ndim == 2 and a.ndim > 2
    if flat:
        a_rows = a.data.reshape(-1, b.shape[0])
        data = (a_rows @ b.data).reshape(a.shape[:-1] + (b.shape[1],))
    else:
        data = a.data @ b.data

    def bwd(g):
        if flat:
            g = g.reshape(-1, b.shape[1])
            if a.requires_grad:
                _accum(a, (g @ b.data.T).reshape(a.shape))
            if b.requires_grad:
                _accum(b, a_rows.T @ g)
        else:
            if a.requires_grad:
                _accum(a, _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.data.shape))
            if b.requires_grad:
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


def concat(parts: list[Tensor], axis: int) -> Tensor:
    data = np.concatenate([p.data for p in parts], axis=axis)
    sizes = [p.data.shape[axis] for p in parts]
    offsets = np.cumsum(sizes)[:-1]

    def bwd(g):
        for p, piece in zip(parts, np.split(g, offsets, axis=axis)):
            _accum(p, piece)

    return _node(data, tuple(parts), bwd)


def gather(table: Tensor, idx: np.ndarray) -> Tensor:
    """Row lookup: table (V, d), idx any int shape S -> output S + (d,).

    The backward pass multiplies the output gradient by a sparse (V, size(S))
    one-hot matrix in CSC form; its product visits the columns, i.e. the
    lookups, in index order, so repeated rows accumulate in the same order
    as a sequential scatter. Indices follow NumPy's rules: -V..V-1, else
    ``IndexError``.
    """
    idx = np.asarray(idx)
    data = np.take(table.data, idx, axis=0)   # fancy indexing's copy, faster

    def bwd(g):
        n, v = idx.size, table.data.shape[0]
        # the product trusts the row indices: a negative one writes outside
        rows = idx.ravel() % v if idx.min(initial=0) < 0 else idx.ravel()
        one_hot = sp.csc_matrix((np.ones(n, dtype=g.dtype), rows, np.arange(n + 1)),
                                shape=(v, n))
        width = int(np.prod(table.data.shape[1:]))
        _accum(table, (one_hot @ g.reshape(n, width)).reshape(table.data.shape))

    return _node(data, (table,), bwd)


def bucket_sum(x: Tensor, idx: np.ndarray, n_buckets: int) -> Tensor:
    """Per-row histogram: x (..., L) summed into (..., n_buckets) by idx (..., L).

    ``out[..., t]`` is the sum of ``x[..., j]`` over the j with
    ``idx[..., j] == t``; the backward pass gathers the bucket gradient back.
    """
    idx = np.asarray(idx)
    n_rows = int(np.prod(idx.shape[:-1]))
    # each slot's bucket as an index into the flat (rows·n_buckets,) output
    flat = idx + (np.arange(n_rows) * n_buckets).reshape(idx.shape[:-1] + (1,))
    data = np.bincount(flat.ravel(), weights=x.data.ravel(), minlength=n_rows * n_buckets)
    data = data.astype(x.data.dtype, copy=False).reshape(idx.shape[:-1] + (n_buckets,))

    def bwd(g):
        _accum(x, g.reshape(-1)[flat])

    return _node(data, (x,), bwd)


# NumPy adds fewer than 8 terms left to right, from +0.0, and 8 or more
# pairwise in 8 lanes: its pairwise-summation block
_PAIRWISE_BLOCK = 8


def _reduce_last(ufunc, x: np.ndarray) -> np.ndarray:
    """``ufunc.reduce(x, axis=-1, keepdims=True)`` for ``np.add`` or
    ``np.maximum``, bit for bit.

    On an axis of 1-7 slots it is one elementwise pass per slot, not one
    inner-loop call per row; longer axes keep NumPy's reduction.
    """
    if not 0 < x.shape[-1] < _PAIRWISE_BLOCK:
        return ufunc.reduce(x, axis=-1, keepdims=True)
    # max(-inf, x) is x and NaN stays NaN; 0.0 + x is x, and +0.0 for -0.0
    out = ufunc(x[..., :1], 0.0 if ufunc is np.add else -np.inf)
    for j in range(1, x.shape[-1]):
        ufunc(out, x[..., j:j + 1], out=out)
    return out


def masked_softmax(x: Tensor, mask: np.ndarray | None = None) -> Tensor:
    """Softmax over the last axis; masked-out (False) keys get zero weight.

    Rows with no valid key come back as all zeros rather than NaN.
    """
    xd = x.data
    if mask is None:
        m = _reduce_last(np.maximum, xd)
        e = np.exp(xd - m)
    else:
        mask = np.broadcast_to(np.asarray(mask, dtype=bool), xd.shape)
        neg = np.where(mask, xd, -np.inf)
        m = _reduce_last(np.maximum, neg)
        m_safe = np.where(np.isfinite(m), m, 0.0)
        e = np.exp(neg - m_safe)  # masked keys: exp(-inf) = 0, no overflow
    s = _reduce_last(np.add, e)
    p = e / np.where(s == 0.0, 1.0, s)

    def bwd(g):
        dot = _reduce_last(np.add, g * p)
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
