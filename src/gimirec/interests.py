"""Multi-interest extraction and training-time interest selection."""

from __future__ import annotations

import numpy as np

from . import autodiff as ad


def extract_interests(e_user: ad.Tensor, hidden_weight: ad.Tensor,
                      query_weight: ad.Tensor, mask: np.ndarray) -> tuple[ad.Tensor, ad.Tensor]:
    """Self-attentive pooling of the per-item matrix into K interest rows.

    e_user: (B, L, d); hidden_weight: (4d, d); query_weight: (K, 4d).
    Attention logits are softmaxed over real positions only. Returns
    (interests (B, K, d), attention (B, K, L)).
    """
    hidden = ad.tanh(ad.matmul(hidden_weight, ad.swapaxes(e_user, -1, -2)))
    logits = ad.matmul(query_weight, hidden)          # (B, K, L)
    attn = ad.masked_softmax(logits, mask[:, None, :])
    interests = ad.matmul(attn, e_user)               # (B, K, d)
    return interests, attn


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
