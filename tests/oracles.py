"""Independent reference implementations used as test oracles.

Everything here is written loop-first with no reuse of the library's
vectorized/autodiff code paths, so agreement is a genuine dual-route check,
except the last two sections: the tape, retrieval and optimiser
formulations the library replaced, kept so the rewrites can be compared
against them.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from gimirec import autodiff as ad
from gimirec.aggregate import init_center, multi_head_attention
from gimirec.ingest import (MIN_INTERACTIONS, BinaryReader, Sequences, Vocab,
                            _recode_by_first_appearance, _text_lines, _user_time_order)


# ---------------------------------------------------------------------------
# ingestion

def parse_columns_per_line(path, delimiter):
    """``ingest.read_columns`` as the per-line text loop it replaced:
    (users, items, int64 timestamps, 1-based line numbers, rejects), with
    the ids as strings."""
    users: list[str] = []
    items: list[str] = []
    timestamps: list[int] = []
    lines: list[int] = []
    rejects = 0
    for line_no, line in enumerate(_text_lines(path), 1):
        line = line.rstrip("\n").rstrip("\r")
        if not line.strip():
            continue
        parts = line.split(delimiter)
        if len(parts) != 3 or not parts[0] or not parts[1]:
            rejects += 1
            continue
        try:
            ts = int(parts[2])
        except ValueError:
            ts = None
        if ts is None or not -2**63 <= ts < 2**63:
            rejects += 1
            continue
        users.append(parts[0])
        items.append(parts[1])
        timestamps.append(ts)
        lines.append(line_no)
    return (users, items, np.array(timestamps, dtype=np.int64),
            np.array(lines, dtype=np.int64), rejects)


def code_by_first_appearance_dict(keys):
    """Code 0.. for each key in order of first appearance, through a dict;
    also the distinct keys."""
    distinct = list(dict.fromkeys(keys))
    index = dict(zip(distinct, range(len(distinct))))
    return np.fromiter(map(index.__getitem__, keys), np.int64, len(keys)), distinct


def filter_and_index_reference(records):
    """``ingest.filter_and_index`` as dict counts per 5-core round and one
    ``sorted`` per user, the formulation the array code replaced."""
    live = [r for r in records if r.timestamp > 0]
    while True:
        user_counts: dict[str, int] = {}
        item_counts: dict[str, int] = {}
        for r in live:
            user_counts[r.user] = user_counts.get(r.user, 0) + 1
            item_counts[r.item] = item_counts.get(r.item, 0) + 1
        kept = [r for r in live
                if user_counts[r.user] >= MIN_INTERACTIONS
                and item_counts[r.item] >= MIN_INTERACTIONS]
        if len(kept) == len(live):
            break
        live = kept
    if not live:
        raise ValueError("dataset too sparse: nothing survives the 5-interaction filter")

    item_index: dict[str, int] = {}
    user_index: dict[str, int] = {}
    user_ids: list[str] = []
    per_user: dict[int, list[tuple[int, int, int]]] = {}
    for order, r in enumerate(live):
        u = user_index.get(r.user)
        if u is None:
            u = len(user_ids)
            user_index[r.user] = u
            user_ids.append(r.user)
            per_user[u] = []
        i = item_index.setdefault(r.item, len(item_index) + 1)
        per_user[u].append((r.timestamp, order, i))

    rows = [sorted(per_user[u], key=lambda t: (t[0], t[1])) for u in range(len(user_ids))]
    sequences = Sequences(np.array([i for user in rows for _, _, i in user], dtype=np.int64),
                          np.array([ts for user in rows for ts, _, _ in user], dtype=np.int64),
                          [len(user) for user in rows])
    return sequences, Vocab(["", *item_index]), user_ids


def index_columns_split(users, user_ids, items, item_raw, timestamps):
    """``ingest.index_columns`` as it was before it returned columns: the
    same filter and order, then one (items, timestamps) pair per user, cut
    with ``np.split``; also the item ids (index 1 up) and the user ids."""
    keep = timestamps > 0
    while True:
        user_ok = np.bincount(users[keep], minlength=len(user_ids)) >= MIN_INTERACTIONS
        item_ok = np.bincount(items[keep], minlength=len(item_raw)) >= MIN_INTERACTIONS
        kept = keep & user_ok[users] & item_ok[items]
        if np.array_equal(kept, keep):
            break
        keep = kept
    if not keep.any():
        raise ValueError("dataset too sparse: nothing survives the 5-interaction filter")
    users, user_ids = _recode_by_first_appearance(users[keep], user_ids)
    items, item_raw = _recode_by_first_appearance(items[keep], item_raw)
    timestamps = timestamps[keep]
    order = _user_time_order(users, timestamps)
    cuts = np.cumsum(np.bincount(users))[:-1]
    return (list(zip(np.split(items[order] + 1, cuts), np.split(timestamps[order], cuts))),
            item_raw, user_ids)


def save_bundle_per_user(out_dir, bundle):
    """``ingest.save_bundle`` as it was: one write per id line, and one per
    user header, item list and timestamp list of ``sequences.bin``."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    vocab = bundle.split.item_vocab
    with open(out / "vocab.tsv", "w", encoding="utf-8") as fh:
        for idx in range(1, vocab.size):
            fh.write(f"{idx}\t{vocab.index_to_raw[idx]}\n")
    with open(out / "users.tsv", "w", encoding="utf-8") as fh:
        for idx, raw in enumerate(bundle.user_ids):
            fh.write(f"{idx}\t{raw}\n")
    with open(out / "sequences.bin", "wb") as fh:
        fh.write(np.uint64(len(bundle.sequences)).astype("<u8").tobytes())
        for u, seq in enumerate(bundle.sequences):
            fh.write(np.array([u, len(seq)], dtype="<u8").tobytes())
            fh.write(seq.items.astype("<u4").tobytes())
            fh.write(seq.timestamps.astype("<i8").tobytes())
    manifest = {key: getattr(bundle.split, key).tolist()
                for key in ("train_users", "valid_users", "test_users")}
    with open(out / "split.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=1)
        fh.write("\n")


def read_sequences_per_user(path, num_items):
    """``sequences.bin`` read one user at a time, as ``load_bundle`` read it
    before its columnar reader: (items, timestamps, lengths) columns, or the
    ``ValueError`` of the first defect."""
    reader = BinaryReader(path)
    n_users = int(reader.read("<u8", 1, "header")[0])
    items, timestamps = [np.zeros(0, np.int64)], [np.zeros(0, np.int64)]
    for expected in range(n_users):
        u, n = (int(x) for x in reader.read("<u8", 2, "user header"))
        if u != expected:
            raise ValueError(f"{path}: user index {u} where {expected} belongs "
                             "(indices must run 0..user_count-1)")
        items.append(reader.read("<u4", n, f"user {u}").astype(np.int64))
        if n and (items[-1].min() < 1 or items[-1].max() > num_items):
            raise ValueError(f"{path}: user {u} has an item index outside "
                             f"1..{num_items}")
        ts = reader.read("<i8", n, f"user {u}").astype(np.int64)
        timestamps.append(ts)
        if np.any(ts[1:] < ts[:-1]):  # np.diff wraps past 2**63
            raise ValueError(f"{path}: user {u}: timestamps must be non-decreasing")
    reader.finish()
    return (np.concatenate(items), np.concatenate(timestamps),
            np.array([len(i) for i in items[1:]], dtype=np.int64))


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


def pairs_within_sets(sub, sup):
    """``ablation._pairs_within`` as the Python-set comparison it replaced."""
    return (set(zip(sub.rows.tolist(), sub.cols.tolist()))
            <= set(zip(sup.rows.tolist(), sup.cols.tolist())))


def normalized_adjacency_oracle(weights: dict, alpha: float, beta: float,
                                gamma: float, num_items: int):
    """Dense symmetrize-combine-normalize; returns a_norm."""
    size = num_items + 1
    a_prime = np.eye(size)
    for hop_weight, k in zip((alpha, beta, gamma), (1, 2, 3)):
        a_k = np.zeros((size, size))
        for (m, v), q in weights[k].items():
            a_k[m, v] += q
            a_k[v, m] += q
        a_prime = a_prime + hop_weight * a_k
    d_inv_sqrt = 1.0 / np.sqrt(a_prime.sum(axis=1))
    return d_inv_sqrt[:, None] * a_prime * d_inv_sqrt[None, :]


def weighted_adjacency_dict_reference(weights: dict, alpha: float, beta: float,
                                      gamma: float, num_items: int):
    """Dict-of-dicts symmetrize-combine-normalize; returns CSR a_norm.

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
    return a_norm


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
    """Loop/log2 recomputation of (recall, ndcg, hit).

    Each discount is the scalar ``1.0 / np.log2(rank + 1)`` (``math.log2``
    differs from it in the last bit at some ranks) and DCG sums left to
    right, so the values are bit-equal to ``serve_eval``'s.
    """
    recommended = list(recommended)[:n]
    hits = 0
    dcg = 0.0
    for rank, item in enumerate(recommended, start=1):
        if item in ground_truth:
            hits += 1
            dcg += 1.0 / np.log2(rank + 1)
    idcg = sum(1.0 / np.log2(r + 1)
               for r in range(1, min(n, len(ground_truth)) + 1))
    recall = hits / len(ground_truth)
    hit = 1.0 if hits else 0.0
    return recall, dcg / idcg, hit


# ---------------------------------------------------------------------------
# replaced tape formulations

def backward_keep_interior(root):
    """``ad.backward`` as it was before it released interior gradients:
    every node on the tape keeps its ``.grad``."""
    topo, seen, stack = [], set(), [(root, False)]
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


def scatter_add_reference(shape, idx, g):
    """Sequential ``np.add.at`` scatter of ``g`` into zeros of ``shape``."""
    out = np.zeros(shape, dtype=g.dtype)
    np.add.at(out, idx, g)
    return out


def gather_add_at(table, idx):
    """``ad.gather`` with the fancy-indexing forward and the ``np.add.at``
    backward it replaced."""
    idx = np.asarray(idx)

    def bwd(g):
        ad._accum(table, scatter_add_reference(table.data.shape, idx, g))

    return ad._node(table.data[idx], (table,), bwd)


def tanh(a):
    """The deleted ``ad.tanh`` primitive: one temporary in its backward."""
    data = np.tanh(a.data)

    def bwd(g):
        grad = data * data
        np.subtract(1.0, grad, out=grad)
        grad *= g
        ad._accum(a, grad)

    return ad._node(data, (a,), bwd)


def bucket_sum(x, idx, n_buckets):
    """The deleted ``ad.bucket_sum`` primitive, a per-row histogram: x (..., L)
    summed into (..., n_buckets) by idx (..., L), with the flat-index
    backward."""
    idx = np.asarray(idx)
    n_rows = int(np.prod(idx.shape[:-1]))
    flat = idx + (np.arange(n_rows) * n_buckets).reshape(idx.shape[:-1] + (1,))
    data = np.bincount(flat.ravel(), weights=x.data.ravel(), minlength=n_rows * n_buckets)
    data = data.astype(x.data.dtype, copy=False).reshape(idx.shape[:-1] + (n_buckets,))

    def bwd(g):
        ad._accum(x, g.reshape(-1)[flat])

    return ad._node(data, (x,), bwd)


def rows_matmul(x, weight):
    """A stack x (..., k) times a 2-D weight (k, n) as one product over its
    (-1, k) rows, reshaped back to (..., n)."""
    lead = x.shape[:-1]
    rows = ad.reshape(x, (math.prod(lead), x.shape[-1]))
    return ad.reshape(ad.matmul(rows, weight), lead + (weight.shape[1],))


def interval_attention_chain(buckets, interval_table, score_weight, mask):
    """``recent.interval_attention`` as the chain of primitives its node
    replaced: gathered bucket scores, a masked softmax, a bucket sum and the
    table product, each a tape node."""
    b, l, _ = buckets.shape
    bucket_scores = ad.matmul(interval_table, score_weight)       # (T, 1)
    scores = ad.reshape(ad.gather(bucket_scores, buckets), (b, l, l))
    probs = ad.masked_softmax(scores, mask[:, None, :])
    hist = bucket_sum(probs, buckets, interval_table.shape[0])
    e_time = rows_matmul(hist, interval_table)
    maskf = mask[:, :, None].astype(interval_table.dtype)
    return ad.mul(e_time, ad.Tensor(maskf))


def attention_logits_chain(e_user, hidden_weight, query_weight):
    """``interests.attention_logits`` as the chain of primitives its node
    replaced: the hidden product, its tanh and the query product."""
    hidden = tanh(rows_matmul(e_user, ad.swapaxes(hidden_weight, 0, 1)))
    return ad.swapaxes(rows_matmul(hidden, ad.swapaxes(query_weight, 0, 1)), 1, 2)


def masked_softmax_reductions(x, mask=None):
    """``ad.masked_softmax`` with NumPy's max and sum reductions over the
    last axis at every length, as it was before its short-axis passes."""
    xd = x.data
    if mask is None:
        m = xd.max(axis=-1, keepdims=True)
        e = np.exp(xd - m)
    else:
        mask = np.broadcast_to(np.asarray(mask, dtype=bool), xd.shape)
        neg = np.where(mask, xd, -np.inf)
        m = neg.max(axis=-1, keepdims=True)
        m_safe = np.where(np.isfinite(m), m, 0.0)
        e = np.exp(neg - m_safe)
    s = e.sum(axis=-1, keepdims=True)
    p = e / np.where(s == 0.0, 1.0, s)

    def bwd(g):
        dot = (g * p).sum(axis=-1, keepdims=True)
        ad._accum(x, p * (g - dot))

    return ad._node(p, (x,), bwd)


def select_rows_add_at(x, idx):
    """Per-example row pick x (B, K, ...) -> (B, ...), as the deleted
    ``ad.select_rows`` did it, with an ``np.add.at`` backward."""
    idx = np.asarray(idx)
    batch = np.arange(x.data.shape[0])

    def bwd(g):
        ad._accum(x, scatter_add_reference(x.data.shape, (batch, idx), g))

    return ad._node(x.data[batch, idx], (x,), bwd)


def tape_take(a, key):
    """Basic (slice) indexing on the tape, scattering its gradient back."""
    def bwd(g):
        ga = np.zeros_like(a.data)
        ga[key] = g
        ad._accum(a, ga)

    return ad._node(a.data[key], (a,), bwd)


def tape_broadcast_to(a, shape):
    """``np.broadcast_to`` on the tape to a shape of ``a``'s rank, summing
    its gradient back over the broadcast axes."""
    axes = tuple(i for i, (n, m) in enumerate(zip(a.data.shape, shape)) if n != m)

    def bwd(g):
        ad._accum(a, g.sum(axis=axes, keepdims=True))

    return ad._node(np.broadcast_to(a.data, shape), (a,), bwd)


def multi_head_attention_query_rows(query, keys, projs, n_heads, key_mask=None,
                                    dropout_rate=0.0, rng=None):
    """``aggregate.multi_head_attention`` with a query-row axis:
    query (..., Tq, d), keys (..., Tk, d), key_mask broadcasting against
    (..., H, Tq, Tk)."""
    d = query.shape[-1]
    head = d // n_heads

    def split(x):
        x = ad.reshape(x, x.shape[:-1] + (n_heads, head))
        return ad.swapaxes(x, -2, -3)  # (..., H, T, head)

    q = split(rows_matmul(query, projs.wq))
    k = split(rows_matmul(keys, projs.wk))
    v = split(rows_matmul(keys, projs.wv))
    scores = ad.scale(ad.matmul(q, ad.swapaxes(k, -1, -2)), 1.0 / math.sqrt(head))
    probs = ad.masked_softmax(scores, key_mask)
    if dropout_rate > 0.0 and rng is not None:
        probs = ad.dropout(probs, dropout_rate, rng)
    out = ad.swapaxes(ad.matmul(probs, v), -2, -3)  # (..., Tq, H, head)
    out = ad.reshape(out, out.shape[:-2] + (d,))
    return rows_matmul(out, projs.wo)


def multi_head_attention_projected_tokens(query, keys, projs, n_heads,
                                          key_mask=None, dropout_rate=0.0,
                                          rng=None):
    """``aggregate.multi_head_attention`` projecting every one of the T key
    tokens with ``wk`` and ``wv``, the formulation the folded projections
    replaced."""
    n, t, d = keys.shape
    head = d // n_heads

    def split(x):
        return ad.swapaxes(ad.reshape(x, (n, t, n_heads, head)), 1, 2)  # (N, H, T, head)

    q = ad.reshape(ad.matmul(query, projs.wq), (n, n_heads, 1, head))
    k = split(rows_matmul(keys, projs.wk))
    v = split(rows_matmul(keys, projs.wv))
    scores = ad.matmul(q, ad.swapaxes(k, -1, -2))                   # (N, H, 1, T)
    scores = ad.scale(ad.reshape(scores, (n, n_heads, t)), 1.0 / math.sqrt(head))
    probs = ad.masked_softmax(scores, None if key_mask is None else key_mask[:, None, :])
    if dropout_rate > 0.0 and rng is not None:
        probs = ad.dropout(probs, dropout_rate, rng)
    out = ad.matmul(ad.reshape(probs, (n, n_heads, 1, t)), v)        # (N, H, 1, head)
    return ad.matmul(ad.reshape(out, (n, d)), projs.wo)


def aggregate_layers_token_tensor(hybrid, global_rows, layers, n_heads, mask,
                                  dropout_rate=0.0, rng=None):
    """``aggregate.aggregate_layers`` over a (B, L, 4, d) token tensor built
    with slices and broadcasts, attending with one query row per item; like
    it, skips the last layer's center update."""
    b, l, d = hybrid.shape
    maskf = mask[:, :, None].astype(hybrid.dtype)
    q = hybrid
    center = init_center(hybrid, mask)
    center_key_mask = np.concatenate(
        [np.ones((b, 1), dtype=bool), mask], axis=1)[:, None, None, :]
    for lp in layers:
        q_prev = ad.concat([ad.Tensor(np.zeros((b, 1, d), dtype=q.dtype)),
                            tape_take(q, np.s_[:, :-1, :])], axis=1)
        center_tok = tape_broadcast_to(ad.reshape(center, (b, 1, d)), (b, l, d))
        tokens = ad.concat([ad.reshape(t, (b, l, 1, d))
                            for t in (q_prev, center_tok, q, global_rows)], axis=2)
        upd = multi_head_attention_query_rows(
            ad.reshape(q, (b, l, 1, d)), tokens, lp.item, n_heads,
            dropout_rate=dropout_rate, rng=rng)
        q = ad.mul(ad.reshape(upd, (b, l, d)), ad.Tensor(maskf))
        if lp is layers[-1]:
            break
        center_tokens = ad.concat([ad.reshape(center, (b, 1, d)), q], axis=1)
        c_upd = multi_head_attention_query_rows(
            ad.reshape(center, (b, 1, d)), center_tokens, lp.center, n_heads,
            key_mask=center_key_mask, dropout_rate=dropout_rate, rng=rng)
        center = ad.reshape(c_upd, (b, d))
    return q


def aggregate_layers_with_last_center(hybrid, global_rows, layers, n_heads, mask,
                                      dropout_rate=0.0, rng=None):
    """``aggregate.aggregate_layers`` as it was before it skipped the last
    layer's center update, which nothing reads; returns (items, center)."""
    b, l, d = hybrid.shape
    n = b * l
    slot = np.arange(n)
    token_idx = np.stack([np.where(slot % l > 0, slot, 0), 1 + n + slot // l,
                          1 + slot, 1 + n + b + slot], axis=1)
    zero = ad.Tensor(np.zeros((1, d), dtype=hybrid.dtype))
    rows = ad.reshape(global_rows, (n, d))
    maskf = ad.Tensor(mask.reshape(n, 1).astype(hybrid.dtype))
    center_key_mask = np.concatenate([np.ones((b, 1), dtype=bool), mask], axis=1)
    q = ad.reshape(hybrid, (n, d))
    center = init_center(hybrid, mask)
    for lp in layers:
        tokens = ad.gather(ad.concat([zero, q, center, rows], axis=0), token_idx)
        q = ad.mul(multi_head_attention(q, tokens, lp.item, n_heads,
                                        dropout_rate=dropout_rate, rng=rng), maskf)
        center_tokens = ad.concat([ad.reshape(center, (b, 1, d)),
                                   ad.reshape(q, (b, l, d))], axis=1)
        center = multi_head_attention(center, center_tokens, lp.center, n_heads,
                                      key_mask=center_key_mask,
                                      dropout_rate=dropout_rate, rng=rng)
    return ad.reshape(q, (b, l, d)), center


def extract_interests_column_layout(e_user, hidden_weight, query_weight, mask):
    """``interests.extract_interests`` as the column-layout form it replaced:
    each weight multiplies the (d, B·L) columns from the left, so the hidden
    layer is (4d, B·L) and the logits come out as (K, B·L)."""
    b, l, d = e_user.shape
    cols = ad.swapaxes(ad.reshape(e_user, (b * l, d)), 0, 1)
    hidden = tanh(ad.matmul(hidden_weight, cols))
    logits = ad.reshape(ad.matmul(query_weight, hidden), (query_weight.shape[0], b, l))
    attn = ad.masked_softmax(ad.swapaxes(logits, 0, 1), mask[:, None, :])
    return ad.matmul(attn, e_user), attn


def interval_attention_dense(buckets, interval_table, score_weight, mask):
    """Interval attention over the (B, L, L, d) tensor of gathered bucket rows."""
    b, l, _ = buckets.shape
    d = interval_table.shape[1]
    t_emb = gather_add_at(interval_table, buckets)                # (B,L,L,d)
    scores = ad.reshape(rows_matmul(t_emb, score_weight), (b, l, l))
    probs = ad.masked_softmax(scores, mask[:, None, :])
    e_time = ad.reshape(ad.matmul(ad.reshape(probs, (b, l, 1, l)), t_emb), (b, l, d))
    maskf = mask[:, :, None].astype(interval_table.dtype)
    return ad.mul(e_time, ad.Tensor(maskf))


def spmm_full_table(a_sparse, x, rows):
    """``ad.spmm_rows`` as the full-table product it replaced: every row of
    ``a_sparse @ x`` is computed, whichever rows are read, and the backward
    multiplies by the whole transpose."""
    a_t = a_sparse.T.tocsr()

    def bwd(g):
        ad._accum(x, a_t @ g)

    return ad._node(a_sparse @ x.data, (x,), bwd)


# ---------------------------------------------------------------------------
# replaced window, retrieval and optimiser formulations

def top_n_per_user(interest_vectors, e_global, n, exclude=None):
    """``serve_eval.top_n`` as one user's own (V, d) x (d, K) scan, the
    formulation the batched ranker replaced."""
    keep = np.ones(e_global.shape[0], dtype=bool)
    keep[0] = False
    if exclude:
        keep[np.fromiter(exclude, dtype=np.int64)] = False
    candidates = np.flatnonzero(keep)
    if n > candidates.size:
        raise ValueError(f"cannot rank {n} items from {candidates.size} candidates")
    if n == 0:
        return np.empty(0, dtype=np.intp)
    order = -(e_global @ np.atleast_2d(interest_vectors).T).max(axis=1)[candidates]
    kth = np.partition(order, n - 1)[n - 1]
    # not '<=': NaN ranks last in the sort, and so must stay a candidate
    pool = np.flatnonzero(~(order > kth))
    return candidates[pool[np.argsort(order[pool], kind="stable")[:n]]]


def rank_rows_full_partition(interests, items_t, n, exclude):
    """``serve_eval._rank_rows`` as one block that partitions every row's V
    keys, the formulation the chunk-bound selection replaced: a (U, max n)
    matrix of each row's top n, padded with -1."""
    u, k, d = interests.shape
    v = items_t.shape[1]
    out = np.full((u, int(n.max(initial=0))), -1, dtype=np.int64)
    order = -(interests.reshape(u * k, d) @ items_t).reshape(u, k, v).max(axis=1)
    # selection key: NaN scores tie with -inf ones, and padding and excluded
    # items are NaN, which sorts after every candidate
    key = np.fmin(order, np.inf)
    key[exclude] = np.nan
    key[:, 0] = np.nan
    kth = np.maximum(np.minimum(n, v), 1) - 1
    thresh = np.partition(key, sorted(set(kth.tolist())), axis=1)[np.arange(u), kth]
    rows, items = np.divmod(np.flatnonzero(key <= thresh[:, None]), v)
    items = items[np.lexsort((order[rows, items], rows))]
    pooled = np.bincount(rows, minlength=u)
    short = (n < 0) | (n > pooled)
    if short.any():
        r = np.argmax(short)
        raise ValueError(f"cannot rank {n[r]} items from "
                         f"{np.count_nonzero(~np.isnan(key[r]))} candidates")
    slots = np.arange(out.shape[1])
    head = slots < n[:, None]
    out[head] = items[((np.cumsum(pooled) - pooled)[:, None] + slots)[head]]
    return out


def _check_pool(pooled, n):
    short = (n < 0) | (n > pooled)
    if short.any():
        r = np.argmax(short)
        raise ValueError(f"cannot rank {n[r]} items from {pooled[r]} candidates")


def rank_pool_lexsort(score, pool, n, out, items=None):
    """``serve_eval._rank_pool`` as the full scan's former tail: one
    ``np.lexsort`` of the flat pool by row, then -score (NaN last), then
    column, and each row's first n read from its run."""
    u, v = score.shape
    rows, at = np.divmod(np.flatnonzero(pool), v)
    at = at[np.lexsort((-score[rows, at], rows))]
    pooled = np.bincount(rows, minlength=u)
    _check_pool(pooled, n)
    slots = np.arange(out.shape[1])
    head = slots < n[:, None]
    picked = at[((np.cumsum(pooled) - pooled)[:, None] + slots)[head]]
    out[head] = picked if items is None else items[picked]


def rank_pool_inf_padded(score, pool, n, out, items=None):
    """``serve_eval._rank_pool`` as the norm head's former sort: each row's
    -scores left-aligned in a +inf-padded key, sorted stably, then the
    first n read through a matching item matrix. Padding ties a -inf score
    and sorts before a NaN one, so it ranks only pools without NaN, as the
    head's are."""
    rows, at = np.nonzero(pool)
    _check_pool(np.bincount(rows, minlength=len(score)), n)
    col = np.arange(rows.size) - np.searchsorted(rows, rows)
    width = out.shape[1]
    key = np.full((len(n), max(width, col.max(initial=0) + 1)), np.inf, dtype=score.dtype)
    key[rows, col] = -score[rows, at]
    listed = np.zeros(key.shape, dtype=np.int64)
    listed[rows, col] = at if items is None else items[at]
    top = np.take_along_axis(listed, np.argsort(key, axis=1, kind="stable")[:, :width],
                             axis=1)
    head = np.arange(width) < n[:, None]
    out[head] = top[head]


def make_window_slices(seq, end_pos, l_rec):
    """``recent.make_window`` as one slice and concatenation per window, the
    formulation the shared window cutter replaced: (items, timestamps,
    mask)."""
    if end_pos < 1 or end_pos > len(seq) + 1:
        raise ValueError(f"end_pos {end_pos} outside 1..{len(seq) + 1}")
    hist_items = seq.items[:end_pos - 1][-l_rec:]
    hist_ts = seq.timestamps[:end_pos - 1][-l_rec:]
    n_pad = l_rec - len(hist_items)
    pad_ts = int(hist_ts[0]) if len(hist_ts) else 0
    return (np.concatenate([np.zeros(n_pad, dtype=np.int64), hist_items]),
            np.concatenate([np.full(n_pad, pad_ts, dtype=np.int64), hist_ts]),
            np.concatenate([np.zeros(n_pad, dtype=bool),
                            np.ones(len(hist_items), dtype=bool)]))


def interval_matrices(timestamps, mask, l_time, time_unit_seconds=86400):
    """Each window's pairwise |dt| in time units, clamped to l_time, with
    l_time wherever a padding slot is involved and a zero diagonal:
    (B, L) -> (B, L, L) float64. The float formulation that
    ``recent.window_buckets`` folded into its bucket rule."""
    t = timestamps.astype(np.float64)
    vals = np.abs(t[:, :, None] - t[:, None, :]) / time_unit_seconds
    np.minimum(vals, l_time, out=vals)
    pad = ~mask
    vals[pad[:, :, None] | pad[:, None, :]] = l_time
    diag = np.arange(vals.shape[1])
    vals[:, diag, diag] = 0.0
    return vals


def interval_matrix(window, l_time, time_unit_seconds=86400):
    """One ``RecentWindow``'s ``interval_matrices``."""
    return interval_matrices(window.timestamps[None], window.mask[None],
                             l_time, time_unit_seconds)[0]


def bucketize(values, l_time):
    """Interval values floored and clipped to buckets 0..floor(l_time): with
    ``interval_matrices``, the bucket rule ``recent.window_buckets``
    replaced."""
    return np.clip(np.floor(values), 0, int(l_time)).astype(np.int64)


def evaluate_per_user(sequences, user_indices, params, a_norm, n_list=(20, 50),
                      time_unit_seconds=86400):
    """``serve_eval.evaluate`` as one loop over users: a per-user 80/20
    split, ``make_window`` windows, ``top_n_per_user`` and ``metrics_oracle``
    per user and cutoff, averaged over a (users, 3) array.

    Users are fed to the forward pass in the same ``_EVAL_CHUNK`` batches,
    so BLAS sees the same shapes.
    """
    from gimirec import serve_eval as se
    from gimirec.model import forward_interests
    from gimirec.recent import make_window, stack_windows

    jobs = []
    for u in user_indices:
        seq = sequences[int(u)]
        prefix = (8 * len(seq)) // 10
        truth = set(seq.items[prefix:].tolist())
        if prefix >= 1 and truth:
            jobs.append((seq, prefix, truth, set(seq.items[:prefix].tolist())))
    if not jobs:
        return se.MetricsReport({n: se.MetricRow(0.0, 0.0, 0.0) for n in n_list}, 0)
    e_global = se.compute_global_table(params, a_norm)
    n_max = max(n_list)
    rows = []
    for i in range(0, len(jobs), se._EVAL_CHUNK):
        chunk = jobs[i:i + se._EVAL_CHUNK]
        windows = [make_window(seq, prefix + 1, params.dims.l_rec)
                   for seq, prefix, _, _ in chunk]
        items, buckets, mask = stack_windows(windows, params.dims.l_time,
                                             time_unit_seconds)
        with ad.no_grad():
            interests, _ = forward_interests(params, a_norm, items, buckets, mask)
        for (seq, prefix, truth, exclude), vecs in zip(chunk, interests.data):
            candidates = e_global.shape[0] - 1 - len(exclude)
            ranked = top_n_per_user(vecs, e_global, min(n_max, candidates), exclude)
            rows.append({n: metrics_oracle(ranked.tolist(), truth, n) for n in n_list})
    report = {}
    for n in n_list:
        means = np.array([row[n] for row in rows], dtype=np.float64).mean(axis=0)
        report[n] = se.MetricRow(*(float(x) for x in means))
    return se.MetricsReport(report, len(rows))


def popularity_top_n(counts, n, exclude=None):
    """One user's ``serve_eval.popularity_lists`` row as a stable argsort of
    the counts, the per-user formulation it replaced: most frequent
    candidates first (ties: smaller index); never padding or excluded
    items, so fewer than n when fewer candidates remain."""
    scores = counts.astype(np.float64)
    scores[0] = -np.inf
    if exclude:
        scores[np.fromiter(exclude, dtype=np.int64)] = -np.inf
    ranked = np.argsort(-scores, kind="stable")
    return ranked[:min(n, int(np.isfinite(scores).sum()))]


def random_top_n(rng, vocab_size, n, exclude=None):
    """One user's ``serve_eval.random_lists`` row, the per-user formulation
    it replaced."""
    pool = np.setdiff1d(np.arange(1, vocab_size),
                        np.fromiter(exclude or (), dtype=np.int64))
    return rng.permutation(pool)[:n]


def evaluate_ranker_per_user(sequences, user_indices, rank_fn, n_list=(20,)):
    """``serve_eval.evaluate_ranker`` as one ``rank_fn(n, exclude)`` call per
    scored user (at most n ranked items from a set of excluded ones), the
    formulation the ranked-list contract replaced: a per-user 80/20 split
    and ``metrics_oracle`` per user and cutoff, averaged over a (users, 3)
    array."""
    from gimirec import serve_eval as se

    n_max, rows = max(n_list), []
    for u in user_indices:
        seq = sequences[int(u)]
        prefix = (8 * len(seq)) // 10
        if prefix < 1:
            continue
        ranked = list(rank_fn(n_max, set(seq.items[:prefix].tolist())))[:n_max]
        truth = set(seq.items[prefix:].tolist())
        rows.append({n: metrics_oracle(ranked, truth, n) for n in n_list})
    report = {}
    for n in n_list:
        means = (np.array([row[n] for row in rows], dtype=np.float64).mean(axis=0)
                 if rows else np.zeros(3))
        report[n] = se.MetricRow(*(float(x) for x in means))
    return se.MetricsReport(report, len(rows))


def adam_step_out_of_place(params, grads, state):
    """``train.adam_step`` with every moment and parameter rebound to a new
    array, the formulation the in-place moment update replaced."""
    state.step += 1
    t = state.step
    for name, tensor in params.named().items():
        g = grads[name]
        if name == "item_embeddings" and g[0].any():
            g = g.copy()
            g[0] = 0.0
        if name not in state.m:
            state.m[name] = np.zeros_like(tensor.data)
            state.v[name] = np.zeros_like(tensor.data)
        state.m[name] = state.beta1 * state.m[name] + (1.0 - state.beta1) * g
        state.v[name] = state.beta2 * state.v[name] + (1.0 - state.beta2) * (g * g)
        m_hat = state.m[name] / (1.0 - state.beta1 ** t)
        v_hat = state.v[name] / (1.0 - state.beta2 ** t)
        tensor.data = tensor.data - state.lr * m_hat / (np.sqrt(v_hat) + state.eps)
