"""Per-user aggregation over the chain-plus-center graph.

Window items and a virtual central node exchange information for a fixed
number of multi-head-attention layers. Each item attends over four tokens
(left neighbor, center, itself, its global-context row); the center then
attends over itself and all real items. No residual connections or layer
norms by default.
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
    """Scaled dot-product attention with per-head splits of width d/H.

    query: (..., Tq, d); keys: (..., Tk, d) used for both K and V.
    key_mask broadcasts against (..., H, Tq, Tk); masked keys get zero
    attention. Dropout, when enabled, is applied to the attention
    probabilities.
    """
    d = query.shape[-1]
    head = d // n_heads

    def split(x: ad.Tensor) -> ad.Tensor:
        x = ad.reshape(x, x.shape[:-1] + (n_heads, head))
        return ad.swapaxes(x, -2, -3)  # (..., H, T, head)

    q = split(ad.matmul(query, projs.wq))
    k = split(ad.matmul(keys, projs.wk))
    v = split(ad.matmul(keys, projs.wv))
    scores = ad.scale(ad.matmul(q, ad.swapaxes(k, -1, -2)), 1.0 / math.sqrt(head))
    probs = ad.masked_softmax(scores, key_mask)
    if dropout_rate > 0.0 and rng is not None:
        probs = ad.dropout(probs, dropout_rate, rng)
    out = ad.matmul(probs, v)                      # (..., H, Tq, head)
    out = ad.swapaxes(out, -2, -3)                 # (..., Tq, H, head)
    out = ad.reshape(out, out.shape[:-2] + (d,))
    return ad.matmul(out, projs.wo)


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
                     residual: bool = False) -> tuple[ad.Tensor, ad.Tensor]:
    """Run the attention layers; returns (per-item matrix, center vector).

    Item states start at the hybrid embeddings, the center at their masked
    mean. Within a layer every item re-reads [left neighbor; center; itself;
    its global row]; the center then re-reads [itself; updated items], with
    padding items masked out. Padding rows stay exactly zero throughout.
    """
    if len(layers) < 1:
        raise ValueError("at least one aggregation layer is required")
    b, l, d = hybrid.shape
    maskf = mask[:, :, None].astype(hybrid.dtype)
    q = hybrid
    center = init_center(hybrid, mask)
    center_key_mask = np.concatenate(
        [np.ones((b, 1), dtype=bool), mask], axis=1)[:, None, None, :]
    for lp in layers:
        q_prev = ad.concat([ad.Tensor(np.zeros((b, 1, d), dtype=q.dtype)),
                            ad.take(q, np.s_[:, :-1, :])], axis=1)
        center_tok = ad.broadcast_to(ad.reshape(center, (b, 1, d)), (b, l, d))
        tokens = ad.concat([ad.reshape(t, (b, l, 1, d))
                            for t in (q_prev, center_tok, q, global_rows)], axis=2)
        upd = multi_head_attention(
            ad.reshape(q, (b, l, 1, d)), tokens, lp.item, n_heads,
            dropout_rate=dropout_rate, rng=rng)
        upd = ad.reshape(upd, (b, l, d))
        if residual:
            upd = ad.add(upd, q)
        q = ad.mul(upd, ad.Tensor(maskf))
        center_tokens = ad.concat([ad.reshape(center, (b, 1, d)), q], axis=1)
        c_upd = multi_head_attention(
            ad.reshape(center, (b, 1, d)), center_tokens, lp.center, n_heads,
            key_mask=center_key_mask, dropout_rate=dropout_rate, rng=rng)
        c_upd = ad.reshape(c_upd, (b, d))
        center = ad.add(c_upd, center) if residual else c_upd
    return q, center
