"""Independent reference implementations used as test oracles.

Everything here is written loop-first with no reuse of the library's
vectorized/autodiff code paths, so agreement is a genuine dual-route check,
except the last section: the tape formulations the library replaced, kept
so the rewrites can be compared against them.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp

from gimirec import autodiff as ad


# ---------------------------------------------------------------------------
# co-occurrence accumulation

def hop_pairs_oracle(sequences, variant: str, a: float, b: float,
                     l_time: float, time_unit_seconds: int = 86400,
                     allow_self_pairs: bool = True):
    """Brute-force O(N^2)-per-user enumeration of ordered k-hop pairs.

    Returns (per-hop weight dicts, qualifying occurrence count).
    variant: one of full / no_I / no_IN / no_INT.
    """
    use_threshold = variant != "no_INT"
    use_interval = variant == "full"
    weights = {1: {}, 2: {}, 3: {}}
    occurrences = 0
    for seq in sequences:
        items = seq.items
        ts = seq.timestamps
        n = len(items)
        for k in (1, 2, 3):
            for i in range(n):
                j = i + k
                if j >= n:
                    continue
                dt = (ts[j] - ts[i]) / time_unit_seconds
                if use_threshold and dt > l_time:
                    continue
                if not allow_self_pairs and items[i] == items[j]:
                    continue
                w = a * (l_time - dt) / l_time + b if use_interval else 1.0
                key = (int(items[i]), int(items[j]))
                weights[k][key] = weights[k].get(key, 0.0) + w
                occurrences += 1
    if variant in ("no_IN", "no_INT"):
        for d in weights.values():
            for key in d:
                d[key] = 1.0
    return weights, occurrences


def normalized_adjacency_oracle(weights: dict, alpha: float, beta: float,
                                gamma: float, num_items: int):
    """Dense symmetrize-combine-normalize; returns (a_prime, a_norm)."""
    size = num_items + 1
    a_prime = np.eye(size)
    for hop_weight, k in zip((alpha, beta, gamma), (1, 2, 3)):
        a_k = np.zeros((size, size))
        for (m, v), q in weights[k].items():
            a_k[m, v] += q
            a_k[v, m] += q
        a_prime = a_prime + hop_weight * a_k
    d_inv_sqrt = 1.0 / np.sqrt(a_prime.sum(axis=1))
    a_norm = d_inv_sqrt[:, None] * a_prime * d_inv_sqrt[None, :]
    return a_prime, a_norm


def weighted_adjacency_dict_reference(weights: dict, alpha: float, beta: float,
                                      gamma: float, num_items: int):
    """Dict-of-dicts symmetrize-combine-normalize; returns CSR (a_prime, a_norm).

    The per-pair formulation the library's array build replaced: each
    unordered pair's value is summed once and stored for both orientations,
    self pairs are doubled by hand, and row/column order is sorted, so the
    array build must reproduce its CSR arrays bit for bit.
    """
    size = num_items + 1
    combined = {}
    for hop_weight, k in zip((alpha, beta, gamma), (1, 2, 3)):
        sym = {}
        for (m, v), q in weights[k].items():
            key = (m, v) if m <= v else (v, m)
            sym[key] = sym.get(key, 0.0) + q
        for key, q in sym.items():
            a_entry = 2.0 * q if key[0] == key[1] else q
            combined[key] = combined.get(key, 0.0) + hop_weight * a_entry

    rows, cols, vals = [], [], []
    for i in range(size):
        rows.append(i)
        cols.append(i)
        vals.append(1.0 + combined.pop((i, i), 0.0))
    for (r, c), v in sorted(combined.items()):
        rows.extend((r, c))
        cols.extend((c, r))
        vals.extend((v, v))
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    vals = np.asarray(vals, dtype=np.float64)
    a_prime = sp.csr_matrix((vals, (rows, cols)), shape=(size, size))
    a_prime.sort_indices()
    d_inv_sqrt = 1.0 / np.sqrt(np.asarray(a_prime.sum(axis=1)).ravel())
    norm_vals = vals * (d_inv_sqrt[rows] * d_inv_sqrt[cols])
    a_norm = sp.csr_matrix((norm_vals, (rows, cols)), shape=(size, size))
    a_norm.sort_indices()
    return a_prime, a_norm


# ---------------------------------------------------------------------------
# forward-pass pieces (single example, loops everywhere)

def softmax_oracle(scores, valid):
    """Masked softmax of a 1-D score list; invalid slots get weight zero."""
    scores = np.asarray(scores, dtype=np.float64)
    valid = np.asarray(valid, dtype=bool)
    if not valid.any():
        return np.zeros_like(scores)
    m = scores[valid].max()
    e = np.zeros_like(scores)
    e[valid] = np.exp(scores[valid] - m)
    return e / e.sum()


def interval_attention_oracle(buckets, interval_table, score_weight, mask):
    """buckets (L, L) int, interval_table (T, d), score_weight (d, 1)."""
    l = buckets.shape[0]
    d = interval_table.shape[1]
    e_time = np.zeros((l, d))
    probs = np.zeros((l, l))
    for i in range(l):
        if not mask[i]:
            continue
        scores = [float(interval_table[buckets[i, j]] @ score_weight[:, 0])
                  for j in range(l)]
        p = softmax_oracle(scores, mask)
        probs[i] = p
        for j in range(l):
            e_time[i] += p[j] * interval_table[buckets[i, j]]
    return e_time, probs


def mha_oracle(query, keys, wq, wk, wv, wo, n_heads, key_mask=None):
    """Single-query multi-head attention; query (d,), keys (T, d)."""
    d = query.shape[0]
    head = d // n_heads
    if key_mask is None:
        key_mask = np.ones(keys.shape[0], dtype=bool)
    qp = query @ wq
    kp = keys @ wk
    vp = keys @ wv
    merged = np.zeros(d)
    for h in range(n_heads):
        sl = slice(h * head, (h + 1) * head)
        scores = [float(qp[sl] @ kp[t, sl]) / math.sqrt(head)
                  for t in range(keys.shape[0])]
        p = softmax_oracle(scores, key_mask)
        for t in range(keys.shape[0]):
            merged[sl] += p[t] * vp[t, sl]
    return merged @ wo


def aggregate_oracle(hybrid, global_rows, layer_weights, n_heads, mask):
    """layer_weights: list of dicts with item.* / center.* arrays."""
    l, d = hybrid.shape
    q = hybrid.copy()
    center = hybrid[mask].mean(axis=0)
    for lw in layer_weights:
        q_next = np.zeros_like(q)
        for i in range(l):
            if not mask[i]:
                continue
            prev = q[i - 1] if i > 0 else np.zeros(d)
            tokens = np.stack([prev, center, q[i], global_rows[i]])
            q_next[i] = mha_oracle(q[i], tokens, lw["item.wq"], lw["item.wk"],
                                   lw["item.wv"], lw["item.wo"], n_heads)
        q = q_next
        c_tokens = np.vstack([center[None, :], q])
        c_mask = np.concatenate([[True], mask])
        center = mha_oracle(center, c_tokens, lw["center.wq"], lw["center.wk"],
                            lw["center.wv"], lw["center.wo"], n_heads, c_mask)
    return q, center


def interests_oracle(e_user, hidden_w, query_w, mask):
    """e_user (L, d), hidden_w (4d, d), query_w (K, 4d) -> (K, d), (K, L)."""
    hidden = np.tanh(hidden_w @ e_user.T)          # (4d, L)
    logits = query_w @ hidden                      # (K, L)
    k = logits.shape[0]
    attn = np.stack([softmax_oracle(logits[i], mask) for i in range(k)])
    return attn @ e_user, attn


def full_loss_oracle(named_params, a_norm_dense, dims, window_items,
                     window_buckets, window_mask, target, negatives):
    """Scalar-graph recomputation of the single-example training loss."""
    e_global = a_norm_dense @ named_params["item_embeddings"]
    global_rows = e_global[window_items]
    e_time, _ = interval_attention_oracle(
        window_buckets, named_params["interval_embeddings"],
        named_params["interval_score_weight"], window_mask)
    hybrid = (global_rows + e_time) * window_mask[:, None]
    layer_weights = []
    for li in range(dims.n_layers):
        layer_weights.append({
            f"{role}.{n}": named_params[f"layer{li}.{role}.{n}"]
            for role in ("item", "center") for n in ("wq", "wk", "wv", "wo")
        })
    e_user, _ = aggregate_oracle(hybrid, global_rows, layer_weights,
                                 dims.n_heads, window_mask)
    interests, _ = interests_oracle(
        e_user, named_params["interest_hidden_weight"],
        named_params["interest_query_weight"], window_mask)
    target_emb = e_global[target]
    chosen = int(np.argmax(interests @ target_emb))
    o = interests[chosen]
    logits = [float(o @ target_emb)] + [float(o @ e_global[v]) for v in negatives]
    m = max(logits)
    lse = m + math.log(sum(math.exp(x - m) for x in logits))
    return -(logits[0] - lse)


# ---------------------------------------------------------------------------
# ranking metrics

def metrics_oracle(recommended, ground_truth, n):
    """Loop/log2 recomputation of (recall, ndcg, hit)."""
    recommended = list(recommended)[:n]
    hits = 0
    dcg = 0.0
    for rank, item in enumerate(recommended, start=1):
        if item in ground_truth:
            hits += 1
            dcg += 1.0 / math.log2(rank + 1)
    idcg = sum(1.0 / math.log2(r + 1)
               for r in range(1, min(n, len(ground_truth)) + 1))
    recall = hits / len(ground_truth)
    hit = 1.0 if hits else 0.0
    return recall, dcg / idcg, hit


# ---------------------------------------------------------------------------
# replaced tape formulations

def scatter_add_reference(shape, idx, g):
    """Sequential ``np.add.at`` scatter of ``g`` into zeros of ``shape``."""
    out = np.zeros(shape, dtype=g.dtype)
    np.add.at(out, idx, g)
    return out


def gather_add_at(table, idx):
    """``ad.gather`` with the ``np.add.at`` backward it replaced."""
    idx = np.asarray(idx)

    def bwd(g):
        ad._accum(table, scatter_add_reference(table.data.shape, idx, g))

    return ad._node(table.data[idx], (table,), bwd)


def select_rows_add_at(x, idx):
    """``ad.select_rows`` with the ``np.add.at`` backward it replaced."""
    idx = np.asarray(idx)
    batch = np.arange(x.data.shape[0])

    def bwd(g):
        ad._accum(x, scatter_add_reference(x.data.shape, (batch, idx), g))

    return ad._node(x.data[batch, idx], (x,), bwd)


def matmul_stacked(a, b):
    """``ad.matmul`` whose weight gradient is a batched (..., k, n) stack
    summed over the batch axes."""
    def bwd(g):
        ad._accum(a, ad._unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.data.shape))
        ad._accum(b, ad._unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.data.shape))

    return ad._node(a.data @ b.data, (a, b), bwd)


def interval_attention_dense(buckets, interval_table, score_weight, mask):
    """Interval attention over the (B, L, L, d) tensor of gathered bucket rows."""
    b, l, _ = buckets.shape
    d = interval_table.shape[1]
    t_emb = gather_add_at(interval_table, buckets)                # (B,L,L,d)
    scores = ad.reshape(matmul_stacked(t_emb, score_weight), (b, l, l))
    probs = ad.masked_softmax(scores, mask[:, None, :])
    e_time = ad.reshape(matmul_stacked(ad.reshape(probs, (b, l, 1, l)), t_emb), (b, l, d))
    maskf = mask[:, :, None].astype(interval_table.dtype)
    return ad.mul(e_time, ad.Tensor(maskf))


def spmm_full_table(a_sparse, x, rows):
    """``ad.spmm_rows`` as the full-table product it replaced: every row of
    ``a_sparse @ x`` is computed, whichever rows are read."""
    return ad.spmm(a_sparse, a_sparse.T.tocsr(), x)
