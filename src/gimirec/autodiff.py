"""Reverse-mode automatic differentiation over NumPy arrays.

A deliberately small tape: only the primitives the recommender needs
(elementwise arithmetic, matmul, reshape/swapaxes/concat, row gathers,
masked softmax, log-sum-exp, sparse-dense products over all rows or
selected ones). The generic ops differentiate only operands of their
output's shape: a constant operand (one that needs no gradient), such as a
mask, may broadcast, and ``_accum`` rejects any gradient whose shape is not
its tensor's. ``gather`` is the one primitive whose backward scatters
into rows (``_scatter_rows``): slices, broadcasts and per-example picks are
all written as gathers. Three layers are single nodes built outside this
module from ``_node`` and ``_accum``, each keeping less than the chain of
primitives it stands for: ``recent.interval_attention``,
``aggregate.item_update`` and ``interests.attention_logits``. Gradients
propagate in the same dtype as the forward values; training runs in
float32, oracles and gradient checks in float64.
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
    if g.shape != t.data.shape:
        raise ValueError(f"gradient of shape {g.shape} for a tensor of shape "
                         f"{t.data.shape}")
    t.grad = g if t.grad is None else t.grad + g


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
        _accum(a, g)
        _accum(b, g)

    return _node(data, (a, b), bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    data = a.data * b.data

    def bwd(g):
        if a.requires_grad:
            _accum(a, g * b.data)
        if b.requires_grad:
            _accum(b, g * a.data)

    return _node(data, (a, b), bwd)


def scale(a: Tensor, s: float) -> Tensor:
    data = a.data * s

    def bwd(g):
        _accum(a, g * s)

    return _node(data, (a,), bwd)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product ``a @ b`` of 2-D operands or of stacks with equal batch
    shapes; only a constant operand may broadcast over the other's batch.
    A batch times a 2-D weight is written as rows: reshape to (-1, k) first.
    """
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError("matmul operands must be at least 2-D")

    def bwd(g):
        if a.requires_grad:
            _accum(a, g @ np.swapaxes(b.data, -1, -2))
        if b.requires_grad:
            _accum(b, np.swapaxes(a.data, -1, -2) @ g)

    return _node(a.data @ b.data, (a, b), bwd)


def sumt(a: Tensor, axis: int | None = None) -> Tensor:
    data = a.data.sum(axis=axis)

    def bwd(g):
        if axis is not None:
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
        _accum(table, _scatter_rows(idx, g, table.data.shape))

    return _node(data, (table,), bwd)


def _scatter_rows(idx: np.ndarray, g: np.ndarray, shape: tuple) -> np.ndarray:
    """``gather``'s backward into a table of ``shape``: the gradient row of
    lookup j, from g (idx.shape + shape[1:]), summed into row ``idx[j]``, as
    one product with a one-hot matrix."""
    n, v = idx.size, shape[0]
    # the product trusts the row indices: a negative one writes outside
    rows = idx.ravel() % v if idx.min(initial=0) < 0 else idx.ravel()
    one_hot = sp.csc_matrix((np.ones(n, dtype=g.dtype), rows, np.arange(n + 1)),
                            shape=(v, n))
    width = int(np.prod(shape[1:]))
    return (one_hot @ g.reshape(n, width)).reshape(shape)


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
        _accum(x, softmax_grad(p, g))

    return _node(p, (x,), bwd)


def softmax_grad(p: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The gradient of a last-axis softmax's input from its output ``p`` and
    the output gradient ``g``."""
    return p * (g - _reduce_last(np.add, g * p))


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


def dropout_keep(shape: tuple, dtype, rate: float,
                 rng: np.random.Generator) -> np.ndarray:
    """Inverted dropout's multiplier: 0 for a dropped entry, else 1/(1 - rate)."""
    keep = (rng.random(shape) >= rate).astype(dtype)
    keep /= np.asarray(1.0 - rate, dtype=dtype)
    return keep


def dropout(x: Tensor, rate: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout; call only in training mode with rate > 0."""
    return mul(x, Tensor(dropout_keep(x.data.shape, x.data.dtype, rate, rng)))
