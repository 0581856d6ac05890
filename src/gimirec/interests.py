"""Multi-interest extraction and training-time interest selection."""

from __future__ import annotations

import numpy as np

from . import autodiff as ad


def extract_interests(e_user: ad.Tensor, hidden_weight: ad.Tensor,
                      query_weight: ad.Tensor, mask: np.ndarray) -> tuple[ad.Tensor, ad.Tensor]:
    """Self-attentive pooling, ``softmax(W₂ tanh(W₁ Hᵀ))``, of each per-item
    matrix H (B, L, d) into K interest rows.

    W₁ = hidden_weight (4d, d) and W₂ = query_weight (K, 4d) multiply H's
    rows through transposed views. Logits are softmaxed over real positions
    only. Returns (interests (B, K, d), attention (B, K, L)).
    """
    logits = attention_logits(e_user, hidden_weight, query_weight)
    attn = ad.masked_softmax(logits, mask[:, None, :])
    interests = ad.matmul(attn, e_user)               # (B, K, d)
    return interests, attn


# rows of the (B·L, 4d) hidden layer per block of its backward's tanh derivative
_TANH_BLOCK_ROWS = 256


def attention_logits(e_user: ad.Tensor, hidden_weight: ad.Tensor,
                     query_weight: ad.Tensor) -> ad.Tensor:
    """The hidden layer and its query product, ``W₂ tanh(W₁ Hᵀ)``, as one
    tape node: (B, L, d) -> (B, K, L) logits.

    The node keeps only the (B, L, 4d) tanh output, taken in place on the
    product. Backward owns the hidden layer's gradient, so it multiplies in
    the tanh derivative in place, a block of rows at a time.
    """
    b, l, d = e_user.shape
    rows = e_user.data.reshape(b * l, d)
    hidden = rows @ hidden_weight.data.T                          # (B·L, 4d)
    np.tanh(hidden, out=hidden)
    data = np.swapaxes((hidden @ query_weight.data.T).reshape(b, l, -1), 1, 2)

    def bwd(g):
        g = np.swapaxes(g, 1, 2).reshape(b * l, -1)
        ad._accum(query_weight, np.swapaxes(hidden.T @ g, 0, 1))
        d_hidden = g @ query_weight.data
        del g
        for start in range(0, b * l, _TANH_BLOCK_ROWS):
            h = hidden[start:start + _TANH_BLOCK_ROWS]
            slope = h * h
            np.subtract(1.0, slope, out=slope)
            d_hidden[start:start + _TANH_BLOCK_ROWS] *= slope
        ad._accum(hidden_weight, np.swapaxes(rows.T @ d_hidden, 0, 1))
        d_rows = d_hidden @ hidden_weight.data
        del d_hidden
        ad._accum(e_user, d_rows.reshape(b, l, d))

    return ad._node(data, (e_user, hidden_weight, query_weight), bwd)


def select_training_interest(interests: ad.Tensor,
                             target_emb: ad.Tensor) -> tuple[np.ndarray, ad.Tensor]:
    """Pick, per example, the interest with the largest target dot product.

    The argmax is taken on raw values (ties -> smallest index) and is not
    differentiated; gradients flow only through the selected rows.
    """
    scores = np.einsum("bkd,bd->bk", interests.data, target_emb.data)
    chosen = np.argmax(scores, axis=1)
    b, k, d = interests.shape
    rows = ad.reshape(interests, (b * k, d))
    return chosen, ad.gather(rows, np.arange(b) * k + chosen)
