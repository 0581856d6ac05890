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

    The one-window case of ``cut_windows``.
    """
    items, timestamps, mask = cut_windows(seq.items, seq.timestamps, [0], [len(seq)],
                                          [end_pos], l_rec)
    return RecentWindow(items[0], timestamps[0], mask[0])


def cut_windows(items: np.ndarray, timestamps: np.ndarray, starts: np.ndarray,
                lengths: np.ndarray, ends, l_rec: int):
    """Window of row r's sequence ``items[starts[r]:][:lengths[r]]`` before
    1-based ``ends[r]``, for every row at once: (items, timestamps, mask),
    each (B, l_rec).

    An end may be lengths[r]+1 to window the full history (serving).
    Left-pads with item index 0; padding slots carry the earliest real
    timestamp in the window so every pad-involving interval clamps the same
    way, and 0 in a window with no item.
    """
    starts, lengths, ends = (np.asarray(a, dtype=np.int64) for a in (starts, lengths, ends))
    bad = (ends < 1) | (ends > lengths + 1)
    if bad.any():
        r = np.argmax(bad)
        raise ValueError(f"end_pos {ends[r]} outside 1..{lengths[r] + 1}")
    offset = ends[:, None] - 1 - l_rec + np.arange(l_rec)
    mask = offset >= 0
    if not items.size:  # every end is 1
        return np.zeros(mask.shape, np.int64), np.zeros(mask.shape, np.int64), mask
    # a pad slot reads the sequence's first item, whose timestamp pads; an
    # empty window reads a clamped slot it then discards
    at = np.minimum(starts[:, None] + np.maximum(offset, 0), items.size - 1)
    return (np.where(mask, items[at], 0),
            np.where(mask[:, -1:], timestamps[at], 0), mask)


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
    return items, window_buckets(timestamps, mask, l_time, time_unit_seconds), mask


def window_buckets(timestamps: np.ndarray, mask: np.ndarray, l_time: float,
                   time_unit_seconds: int) -> np.ndarray:
    """Each window's pairwise interval buckets: (B, L) -> (B, L, L) int64.

    The one bucket rule: floor of |dt| in time units clamped to l_time,
    floor(l_time) (the maximal distance) wherever a padding slot is
    involved, and 0 on the diagonal.
    """
    t = timestamps.astype(np.float64)
    vals = np.abs(t[:, :, None] - t[:, None, :]) / time_unit_seconds
    np.minimum(vals, l_time, out=vals)
    pad = ~mask
    vals[pad[:, :, None] | pad[:, None, :]] = l_time
    diag = np.arange(vals.shape[1])
    vals[:, diag, diag] = 0.0
    return np.floor(vals, out=vals).astype(np.int64)
