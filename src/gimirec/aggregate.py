"""Per-user aggregation over the chain-plus-center graph.

Window items and a virtual central node exchange information for a fixed
number of multi-head-attention layers. Each item attends over four tokens
(left neighbor, center, itself, its global-context row); the center then
attends over itself and all real items, except in the last layer, whose
center nothing reads. There are no skip connections or layer norms.

Item states are flat (B*L, d) rows. The item update is one tape node that
reads its four tokens as shifts, broadcasts and copies of its sources; the
center update is single-query attention over [itself; the window's items].
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad


@dataclass
class AttnProjs:
    wq: ad.Tensor
    wk: ad.Tensor
    wv: ad.Tensor
    wo: ad.Tensor


@dataclass
class LayerParams:
    item: AttnProjs
    center: AttnProjs


def multi_head_attention(query: ad.Tensor, keys: ad.Tensor, projs: AttnProjs,
                         n_heads: int, key_mask: np.ndarray | None = None,
                         dropout_rate: float = 0.0,
                         rng: np.random.Generator | None = None) -> ad.Tensor:
    """Single-query scaled dot-product attention with per-head splits of width d/H.

    query: (N, d); keys: (N, T, d), used for both K and V; key_mask (N, T)
    marks the keys each query reads (masked keys get zero attention).
    Dropout, when enabled, is applied to the (N, H, T) attention
    probabilities. Returns (N, d).

    The key and value projections are folded so the T tokens are never
    projected: head h scores ``(q Wq)_h Wk_hᵀ · x`` and outputs
    ``(Σ_t p_t x_t) Wv_h``, the same sums associated differently.
    """
    n, t, d = keys.shape
    head = d // n_heads

    def heads(w: ad.Tensor) -> ad.Tensor:
        return ad.swapaxes(ad.reshape(w, (d, n_heads, head)), 0, 1)  # (H, d, head)

    q = ad.swapaxes(ad.reshape(ad.matmul(query, projs.wq), (n, n_heads, head)), 0, 1)
    q_keys = ad.matmul(q, ad.swapaxes(heads(projs.wk), 1, 2))      # (H, N, d)
    scores = ad.matmul(ad.swapaxes(q_keys, 0, 1), ad.swapaxes(keys, 1, 2))  # (N, H, T)
    scores = ad.scale(scores, 1.0 / math.sqrt(head))
    probs = ad.masked_softmax(scores, None if key_mask is None else key_mask[:, None, :])
    if dropout_rate > 0.0 and rng is not None:
        probs = ad.dropout(probs, dropout_rate, rng)
    mixed = ad.swapaxes(ad.matmul(probs, keys), 0, 1)                # (H, N, d)
    out = ad.swapaxes(ad.matmul(mixed, heads(projs.wv)), 0, 1)       # (N, H, head)
    return ad.matmul(ad.reshape(out, (n, d)), projs.wo)


def hybrid_embeddings(global_rows: ad.Tensor, e_time: ad.Tensor,
                      mask: np.ndarray) -> ad.Tensor:
    """Elementwise sum of global-context and interval rows; pads zeroed."""
    maskf = mask[:, :, None].astype(global_rows.dtype)
    return ad.mul(ad.add(global_rows, e_time), ad.Tensor(maskf))


def init_center(hybrid: ad.Tensor, mask: np.ndarray) -> ad.Tensor:
    """Masked mean of the hybrid rows over real slots."""
    counts = mask.sum(axis=1)
    if np.any(counts == 0):
        raise ValueError("window without real items has no center")
    total = ad.sumt(hybrid, axis=1)  # pads are zero rows already
    inv = (1.0 / counts)[:, None].astype(hybrid.dtype)
    return ad.mul(total, ad.Tensor(inv))


def _sources(proj: np.ndarray, b: int) -> tuple:
    """The rows of a ``[q; rows; center]`` array: (B, L, d) item and
    global-row views and a (B, 1, d) center view."""
    n, d = (proj.shape[0] - b) // 2, proj.shape[1]
    return (proj[:n].reshape(b, -1, d), proj[n:2 * n].reshape(b, -1, d),
            proj[2 * n:].reshape(b, 1, d))


def _token_dots(x: np.ndarray, proj: np.ndarray, heads: np.ndarray) -> np.ndarray:
    """Per-head dot products of each slot's row of x (B, L, d) with the slot's
    four tokens in proj: (N, H, 4). A window's first slot reads a zero left
    neighbor. ``heads`` (d, H) sums each head's coordinates."""
    b, l, d = x.shape
    n_heads = heads.shape[1]
    own, row, center = _sources(proj, b)
    out = np.zeros((b, l, n_heads, 4), dtype=x.dtype)
    out[:, 1:, :, 0] = ((x[:, 1:] * own[:, :-1]).reshape(-1, d) @ heads).reshape(
        b, l - 1, n_heads)
    for t, token in enumerate((center, own, row), start=1):
        out[..., t] = ((x * token).reshape(-1, d) @ heads).reshape(b, l, n_heads)
    return out.reshape(b * l, n_heads, 4)


def _spread(w: np.ndarray, heads: np.ndarray, shape: tuple) -> Callable[..., np.ndarray]:
    """A function of token t: t's weights in w (N, H, 4) repeated over each
    head's coordinates, as a ``shape`` (B, L, d) array, written into ``out``
    when one is given."""
    by_token = np.ascontiguousarray(np.moveaxis(w, -1, 0))   # (4, N, H)

    def spread(t: int, out: np.ndarray | None = None) -> np.ndarray:
        rows = None if out is None else out.reshape(-1, shape[-1])
        return np.matmul(by_token[t], heads.T, out=rows).reshape(shape)

    return spread


def _mix_tokens(spread: Callable[..., np.ndarray], proj: np.ndarray) -> np.ndarray:
    """Each slot's four tokens in proj, weighted per head by the spread
    weights of ``_spread`` and summed: (B, L, d). The weighted tokens pass
    through one buffer and then proj's global-row block, which is
    overwritten."""
    out = spread(2)
    own, row, center = _sources(proj, out.shape[0])
    out *= own
    term = spread(1)
    term *= center
    out += term
    spread(3, out=term)
    term *= row
    out += term
    del term
    spread(0, out=row)
    row[:, 1:] *= own[:, :-1]
    out[:, 1:] += row[:, 1:]
    return out


def _token_grads(spread: Callable[..., np.ndarray], x: np.ndarray) -> np.ndarray:
    """The transpose of ``_mix_tokens`` in proj: what slot rows x (B, L, d),
    weighted per head by the spread weights, send back to the
    ``[q; rows; center]`` rows their tokens came from: (2N + B, d)."""
    b, l, d = x.shape
    out = np.empty(((2 * l + 1) * b, d), dtype=x.dtype)
    own, row, center = _sources(out, b)
    # the row block is scratch for the center and left-neighbor terms first
    spread(1, out=row)
    row *= x
    center[:] = row.sum(axis=1, keepdims=True)
    spread(2, out=own)
    own *= x
    spread(0, out=row)
    row[:, 1:] *= x[:, 1:]
    own[:, :-1] += row[:, 1:]
    spread(3, out=row)
    row *= x
    return out


def item_update(q: ad.Tensor, center: ad.Tensor, rows: ad.Tensor,
                projs: AttnProjs, n_heads: int, maskf: np.ndarray,
                dropout_rate: float = 0.0,
                rng: np.random.Generator | None = None) -> ad.Tensor:
    """Every window item's attention over its four tokens, as one tape node.

    q and rows are the (N, d) item states and global rows of B windows of L
    slots; center is (B, d). Slot i reads [its left neighbor (a zero row for
    a window's first slot); its window's center; itself; its global row].
    Keys and values are projected once per source row, the centers in the
    same product as the items, and each token is a shift, a broadcast or a
    copy of those rows. The (N, H, 4) probabilities come from
    ``ad.masked_softmax`` and, when training, are dropped out as there.
    Returns the (N, d) update times maskf (N, 1).

    Besides its output the node keeps only the probabilities, the dropout
    mask and the (N, d) mixture that ``wo`` reads; backward projects the
    sources again and adds straight into the gradients of q, center, rows
    and the four weights.
    """
    n, d = q.shape
    b = center.shape[0]
    shape = (b, n // b, d)
    heads = np.repeat(np.eye(n_heads, dtype=q.dtype), d // n_heads, axis=0)  # (d, H)
    scale = 1.0 / math.sqrt(d // n_heads)
    wq, wk, wv, wo = projs.wq, projs.wk, projs.wv, projs.wo

    def stacked() -> np.ndarray:
        return np.concatenate([q.data, rows.data, center.data])   # (2N + B, d)

    def weight_grad(d_proj: np.ndarray) -> np.ndarray:
        # stacked().T @ d_proj, without stacking the sources again
        return (q.data.T @ d_proj[:n] + rows.data.T @ d_proj[n:2 * n]
                + center.data.T @ d_proj[2 * n:])

    sources = stacked()
    query = (q.data @ wq.data).reshape(shape)
    probs = ad.masked_softmax(ad.Tensor(
        _token_dots(query, sources @ wk.data, heads) * scale)).data
    del query
    keep = None
    if dropout_rate > 0.0 and rng is not None:
        keep = ad.dropout_keep(probs.shape, probs.dtype, dropout_rate, rng)

    def weights() -> np.ndarray:
        return probs if keep is None else probs * keep

    mixed = _mix_tokens(_spread(weights(), heads, shape), sources @ wv.data).reshape(n, d)
    del sources
    data = (mixed @ wo.data) * maskf

    def bwd(g):
        # each large temporary is dropped after its last read, and the key
        # gradients come before the keys are projected again, which keeps
        # backward's peak to three (2N + B, d) arrays above the tape
        g = g * maskf
        ad._accum(wo, mixed.T @ g)
        values = stacked() @ wv.data
        d_mixed = (g @ wo.data.T).reshape(shape)
        del g
        d_w = _token_dots(d_mixed, values, heads)
        del values
        d_proj = _token_grads(_spread(weights(), heads, shape), d_mixed)
        del d_mixed
        ad._accum(wv, weight_grad(d_proj))
        d_sources = d_proj @ wv.data.T
        del d_proj
        if keep is not None:
            d_w *= keep
        spread = _spread(ad.softmax_grad(probs, d_w) * scale, heads, shape)
        del d_w
        d_proj = _token_grads(spread, (q.data @ wq.data).reshape(shape))
        ad._accum(wk, weight_grad(d_proj))
        d_sources += d_proj @ wk.data.T
        del d_proj
        d_query = _mix_tokens(spread, stacked() @ wk.data).reshape(n, d)
        del spread
        ad._accum(wq, q.data.T @ d_query)
        ad._accum(q, d_query @ wq.data.T + d_sources[:n])
        ad._accum(rows, d_sources[n:2 * n])
        ad._accum(center, d_sources[2 * n:])

    return ad._node(data, (q, center, rows, wq, wk, wv, wo), bwd)


def aggregate_layers(hybrid: ad.Tensor, global_rows: ad.Tensor,
                     layers: list[LayerParams], n_heads: int, mask: np.ndarray,
                     dropout_rate: float = 0.0,
                     rng: np.random.Generator | None = None,
                     residual: bool = False) -> ad.Tensor:
    """Run the attention layers; returns the (B, L, d) per-item matrix.

    Item states start at the hybrid embeddings, the center at their masked
    mean. Within a layer every item re-reads [left neighbor; center; itself;
    its global row] (``item_update``); the center then re-reads [itself;
    updated items], with padding items masked out. The last layer's center
    update feeds nothing, so it is skipped. Padding rows stay exactly zero
    throughout.
    """
    if residual:  # the keyword is kept only for perfbench/
        raise ValueError("residual must be False (the option was removed)")
    if len(layers) < 1:
        raise ValueError("at least one aggregation layer is required")
    b, l, d = hybrid.shape
    n = b * l
    rows = ad.reshape(global_rows, (n, d))
    maskf = mask.reshape(n, 1).astype(hybrid.dtype)
    center_key_mask = np.concatenate([np.ones((b, 1), dtype=bool), mask], axis=1)
    q = ad.reshape(hybrid, (n, d))
    center = init_center(hybrid, mask)
    for li, lp in enumerate(layers):
        q = item_update(q, center, rows, lp.item, n_heads, maskf,
                        dropout_rate=dropout_rate, rng=rng)
        if li == len(layers) - 1:
            break
        center_tokens = ad.concat([ad.reshape(center, (b, 1, d)),
                                   ad.reshape(q, (b, l, d))], axis=1)
        center = multi_head_attention(center, center_tokens, lp.center, n_heads,
                                      key_mask=center_key_mask,
                                      dropout_rate=dropout_rate, rng=rng)
    return ad.reshape(q, (b, l, d))
