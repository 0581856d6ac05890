"""Per-user aggregation over the chain-plus-center graph.

Window items and a virtual central node exchange information for a fixed
number of multi-head-attention layers. Each item attends over four tokens
(left neighbor, center, itself, its global-context row); the center then
attends over itself and all real items, except in the last layer, whose
center nothing reads. No residual connections or layer norms by default.

Item states are flat (B*L, d) rows: per layer one gather builds every
slot's four tokens, and both updates are single-query attention.
"""

from __future__ import annotations

import math
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


def aggregate_layers(hybrid: ad.Tensor, global_rows: ad.Tensor,
                     layers: list[LayerParams], n_heads: int, mask: np.ndarray,
                     dropout_rate: float = 0.0,
                     rng: np.random.Generator | None = None,
                     residual: bool = False) -> ad.Tensor:
    """Run the attention layers; returns the (B, L, d) per-item matrix.

    Item states start at the hybrid embeddings, the center at their masked
    mean. Within a layer every item re-reads [left neighbor; center; itself;
    its global row]; the center then re-reads [itself; updated items], with
    padding items masked out. The last layer's center update feeds nothing,
    so it is skipped. Padding rows stay exactly zero throughout.
    """
    if len(layers) < 1:
        raise ValueError("at least one aggregation layer is required")
    b, l, d = hybrid.shape
    n = b * l
    slot = np.arange(n)
    # rows of [zero; items; centers; global rows] that each slot reads:
    # left neighbor (a window's first slot reads the zero row), center,
    # itself, global row
    token_idx = np.stack([np.where(slot % l > 0, slot, 0), 1 + n + slot // l,
                          1 + slot, 1 + n + b + slot], axis=1)
    zero = ad.Tensor(np.zeros((1, d), dtype=hybrid.dtype))
    rows = ad.reshape(global_rows, (n, d))
    maskf = ad.Tensor(mask.reshape(n, 1).astype(hybrid.dtype))
    center_key_mask = np.concatenate([np.ones((b, 1), dtype=bool), mask], axis=1)
    q = ad.reshape(hybrid, (n, d))
    center = init_center(hybrid, mask)
    for li, lp in enumerate(layers):
        tokens = ad.gather(ad.concat([zero, q, center, rows], axis=0), token_idx)
        upd = multi_head_attention(q, tokens, lp.item, n_heads,
                                   dropout_rate=dropout_rate, rng=rng)
        q = ad.mul(ad.add(upd, q) if residual else upd, maskf)
        if li == len(layers) - 1:
            break
        center_tokens = ad.concat([ad.reshape(center, (b, 1, d)),
                                   ad.reshape(q, (b, l, d))], axis=1)
        c_upd = multi_head_attention(center, center_tokens, lp.center, n_heads,
                                     key_mask=center_key_mask,
                                     dropout_rate=dropout_rate, rng=rng)
        center = ad.add(c_upd, center) if residual else c_upd
    return ad.reshape(q, (b, l, d))
