"""Recent-window construction and interval-aware attention.

Each training/inference target gets a fixed-length window of the items
strictly before it (left-padded with index 0), a clamped pairwise interval
matrix in configured time units, and an attention-weighted embedding of the
discretized intervals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .ingest import UserSequence


@dataclass
class RecentWindow:
    """Fixed-length slice of history; real items occupy a contiguous suffix."""

    items: np.ndarray       # (L,) int64, 0 = padding
    timestamps: np.ndarray  # (L,) int64
    mask: np.ndarray        # (L,) bool, True = real item


def make_window(seq: UserSequence, end_pos: int, l_rec: int) -> RecentWindow:
    """Window of up to ``l_rec`` items strictly before 1-based ``end_pos``.

    ``end_pos`` may be len(seq)+1 to window the full history (serving).
    Left-pads with item index 0; padding slots carry the earliest real
    timestamp in the window so every pad-involving interval clamps the same
    way.
    """
    if end_pos < 1 or end_pos > len(seq) + 1:
        raise ValueError(f"end_pos {end_pos} outside 1..{len(seq) + 1}")
    hist_items = seq.items[:end_pos - 1][-l_rec:]
    hist_ts = seq.timestamps[:end_pos - 1][-l_rec:]
    n_pad = l_rec - len(hist_items)
    pad_ts = int(hist_ts[0]) if len(hist_ts) else 0
    items = np.concatenate([np.zeros(n_pad, dtype=np.int64), hist_items])
    ts = np.concatenate([np.full(n_pad, pad_ts, dtype=np.int64), hist_ts])
    mask = np.concatenate([np.zeros(n_pad, dtype=bool), np.ones(len(hist_items), dtype=bool)])
    return RecentWindow(items, ts, mask)


def interval_matrix(window: RecentWindow, l_time: float,
                    time_unit_seconds: int = 86400) -> np.ndarray:
    """Pairwise |dt| in time units, clamped to l_time.

    Off-diagonal entries involving a padding slot are forced to l_time (the
    maximal distance); the diagonal is zero.
    """
    return _interval_matrices(window.timestamps[None], window.mask[None],
                              l_time, time_unit_seconds)[0]


def _interval_matrices(timestamps: np.ndarray, mask: np.ndarray, l_time: float,
                       time_unit_seconds: int) -> np.ndarray:
    """``interval_matrix`` of every window at once: (B, L) -> (B, L, L)."""
    t = timestamps.astype(np.float64)
    vals = np.abs(t[:, :, None] - t[:, None, :]) / time_unit_seconds
    np.minimum(vals, l_time, out=vals)
    pad = ~mask
    vals[pad[:, :, None] | pad[:, None, :]] = l_time
    diag = np.arange(vals.shape[1])
    vals[:, diag, diag] = 0.0
    return vals


def bucketize(values: np.ndarray, l_time: float) -> np.ndarray:
    """Floor interval values to integer buckets 0..floor(l_time)."""
    return np.clip(np.floor(values), 0, int(l_time)).astype(np.int64)


def interval_attention(buckets: np.ndarray, interval_table: ad.Tensor,
                       score_weight: ad.Tensor, mask: np.ndarray) -> ad.Tensor:
    """Attention over discretized intervals; one embedding row per slot.

    buckets: (B, L, L) int; interval_table: (l_time+1, d); score_weight:
    (d, 1). Each real slot attends over the real key slots of its interval
    row; padding rows come out as zero vectors. A key's score depends only
    on its bucket, so scores are read from the (l_time+1,) bucket scores and
    each row's output is its per-bucket attention mass times the table; no
    (B, L, L, d) tensor is formed.
    """
    b, l, _ = buckets.shape
    n_buckets = interval_table.shape[0]
    bucket_scores = ad.matmul(interval_table, score_weight)       # (T, 1)
    scores = ad.reshape(ad.gather(bucket_scores, buckets), (b, l, l))
    probs = ad.masked_softmax(scores, mask[:, None, :])           # (B,L,L)
    hist = ad.bucket_sum(probs, buckets, n_buckets)               # (B,L,T)
    e_time = ad.matmul(hist, interval_table)                      # (B,L,d)
    maskf = mask[:, :, None].astype(interval_table.dtype)
    return ad.mul(e_time, ad.Tensor(maskf))


def stack_windows(windows: list[RecentWindow], l_time: float,
                  time_unit_seconds: int = 86400):
    """Batch windows into (items, buckets, mask) arrays for the forward pass."""
    items = np.stack([w.items for w in windows])
    mask = np.stack([w.mask for w in windows])
    timestamps = np.stack([w.timestamps for w in windows])
    values = _interval_matrices(timestamps, mask, l_time, time_unit_seconds)
    return items, bucketize(values, l_time), mask
