"""Exact top-N retrieval, ranking metrics and the 80/20 evaluation protocol.

Retrieval scores every candidate item against all K interests and keeps the
max (full scan, no approximate index). Held-out users are evaluated by
inferring interests from the first 80% of their history and scoring the
remaining 20% as ground truth.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import autodiff as ad
from .global_context import global_embeddings
from .ingest import Sequences, UserSequence
from .model import (ModelDims, ModelParams, check_adjacency_shape, forward_from_table,
                    forward_interests)
from .recent import cut_windows, window_buckets

_EVAL_CHUNK = 256
# cap on one block's (rows·K, V) score product in _rank_rows
_SCORE_BLOCK_BYTES = 4 << 20


@dataclass
class MetricRow:
    recall: float
    ndcg: float
    hit_rate: float


@dataclass
class MetricsReport:
    per_n: dict[int, MetricRow]
    user_count: int

    def to_dict(self) -> dict:
        return {
            "user_count": self.user_count,
            "metrics": {str(n): {"recall": row.recall, "ndcg": row.ndcg,
                                 "hit_rate": row.hit_rate}
                        for n, row in sorted(self.per_n.items())},
        }


def metrics(recommended, ground_truth: set, n: int) -> tuple[float, float, float]:
    """(recall, ndcg, hit) for one ranked list against a non-empty truth set:
    the one-row case of ``_metric_rows``.

    Binary relevance; ideal DCG runs over min(n, |truth|) slots; ranks are
    1-based. A list that repeats an item among its first n is rejected.
    """
    if not ground_truth:
        raise ValueError("ground truth must be non-empty")
    if n < 1:
        raise ValueError(f"cutoff must be at least 1, got {n}")
    recommended = list(recommended)[:n]
    if len(set(recommended)) < len(recommended):
        raise ValueError("a ranked list must not repeat an item")
    hits = np.zeros((1, n), dtype=bool)
    hits[0, :len(recommended)] = [item in ground_truth for item in recommended]
    row = _metric_rows(hits, np.array([len(ground_truth)]), (n,))[n][0]
    return tuple(row.tolist())


def _metric_rows(hits: np.ndarray, truth_sizes: np.ndarray,
                 n_list) -> dict[int, np.ndarray]:
    """(users, 3) recall, ndcg and hit for each N from one (users, max N)
    hit matrix.

    A rank's discount is the scalar 1 / log2(rank + 1) and DCG sums left to
    right, so each value equals a per-user loop's.
    """
    discount = np.array([1.0 / np.log2(r + 1) for r in range(1, hits.shape[1] + 1)])
    found = np.cumsum(hits, axis=1)
    dcg = np.cumsum(hits * discount, axis=1)
    ideal = np.cumsum(discount)
    return {n: np.stack([found[:, n - 1] / truth_sizes,
                         dcg[:, n - 1] / ideal[np.minimum(n, truth_sizes) - 1],
                         (found[:, n - 1] > 0).astype(np.float64)], axis=1)
            for n in n_list}


def _hit_matrix(ranked: np.ndarray, truth: tuple) -> np.ndarray:
    """Whether each ranked item is in its row's truth, as (users, width).

    ``ranked`` holds each row's list left-aligned and -1 after it; truth is
    unique (row, item) pairs sorted by row, then item. A row that repeats an
    item is rejected.
    """
    ordered = np.sort(ranked, axis=1)
    if ((ordered[:, 1:] == ordered[:, :-1]) & (ordered[:, 1:] >= 0)).any():
        raise ValueError("a ranked list must not repeat an item")
    rows, items = truth
    # -1 keys as the previous row's item width-1, which no truth item reaches
    width = int(max(ranked.max(initial=0), items.max(initial=0))) + 2
    keys = np.arange(len(ranked))[:, None] * width + ranked
    truth_keys = rows * width + items
    at = np.minimum(np.searchsorted(truth_keys, keys), truth_keys.size - 1)
    return truth_keys[at] == keys


def top_n(interest_vectors: np.ndarray, e_global: np.ndarray, n: int,
          exclude: set | None = None) -> np.ndarray:
    """Exact top-N for one user: the one-row case of ``_rank_rows``.

    An excluded item outside 0..V-1 is rejected.
    """
    items = np.fromiter(exclude or (), np.int64)
    bad = items[(items < 0) | (items >= e_global.shape[0])]
    if bad.size:
        raise ValueError(f"excluded item {bad[0]} outside 0..{e_global.shape[0] - 1}")
    return _rank_rows(np.atleast_2d(interest_vectors)[None], e_global.T, [n],
                      (np.zeros(items.size, np.int64), items))[0, :n]


def _rank_rows(interests, items_t, n, exclude: tuple) -> np.ndarray:
    """Exact max-inner-product scan over all items for each row of
    ``interests`` (U, K, d), against the item table laid out as (d, V).

    Each item's score is the max over the row's K interests. ``exclude`` is
    (row, item) pairs sorted by row. Row u's best ``n[u]`` items fill
    ``out[u, :n[u]]`` of a (U, max n) matrix padded with -1. Only candidates
    are ranked, so padding and excluded items never appear whatever the
    scores; ties rank the smaller index first and NaN scores rank last.
    Rows are scored in blocks whose (rows·K, V) product fits
    ``_SCORE_BLOCK_BYTES``. A block takes
    the product and the max over K, then selects each row's top n without
    partitioning all V scores: the n-th best of about 4·max n chunk bests is
    a lower bound, and only the scores that reach it are sorted (block
    max-pruning, as in Block-Max WAND, Ding & Suel, SIGIR 2011).

    BLAS multiplies a C-contiguous (d, V) table about twice as fast as the
    transposed view of the (V, d) one, so ``recommend`` copies the table once
    per call; the one-row ``top_n`` keeps the view, which costs less than
    the copy.
    """
    interests = np.asarray(interests)
    n = np.asarray(n, dtype=np.int64)
    out = np.full((len(n), int(n.max(initial=0))), -1, dtype=np.int64)
    itemsize = np.result_type(interests, items_t).itemsize
    block = max(1, _SCORE_BLOCK_BYTES
                // (interests.shape[1] * items_t.shape[1] * itemsize))
    for lo in range(0, len(interests), block):
        hi = lo + block
        _rank_block(interests[lo:hi], items_t, n[lo:hi],
                    _pairs_in(exclude, lo, hi), out[lo:hi])
    return out


def _pairs_in(pairs: tuple, lo: int, hi: int) -> tuple:
    """The (row, item) pairs, sorted by row, of rows lo..hi-1, renumbered
    from 0."""
    rows, items = pairs
    a, b = np.searchsorted(rows, [lo, hi])
    return rows[a:b] - lo, items[a:b]


def _rank_block(interests, items_t, n, exclude, out) -> None:
    u, k, d = interests.shape
    v = items_t.shape[1]
    score = (interests.reshape(u * k, d) @ items_t).reshape(u, k, v).max(axis=1)
    # selection key, larger first: NaN scores tie with -inf ones, and padding
    # and excluded items are NaN, which no comparison selects
    key = np.fmax(score, -np.inf)
    key[exclude] = np.nan
    key[:, 0] = np.nan
    # the n-th best of the per-chunk bests bounds a row's n-th best key from
    # below: any n chunk bests are n distinct candidates. Chunk j holds the
    # c items j, j + m, j + 2m, ..., so the bests are c elementwise passes
    # over m keys. The last v - c·m items belong to no chunk, which keeps
    # the bound a lower bound; the pool below still reads them.
    c = max(1, v // (4 * max(out.shape[1], 1)))
    m = v // c
    best = np.fmax.reduce(key[:, :c * m].reshape(u, c, m), axis=1)
    kth = np.minimum(np.maximum(n, 1), m) - 1
    # NaN (no candidate) sorts last: a row with fewer than n chunks holding
    # a candidate reads NaN, and its bound -inf pools every candidate
    bound = np.fmax(-np.partition(-best, sorted(set(kth.tolist())), axis=1)
                    [np.arange(u), kth], -np.inf)
    # the pool holds each row's top n; sort it by row, then score with NaN
    # last, then index: the head of each row's full stable sort
    rows, items = np.divmod(np.flatnonzero(key >= bound[:, None]), v)
    items = items[np.lexsort((-score[rows, items], rows))]
    pooled = np.bincount(rows, minlength=u)
    short = (n < 0) | (n > pooled)
    if short.any():
        r = np.argmax(short)
        raise ValueError(f"cannot rank {n[r]} items from "
                         f"{np.count_nonzero(~np.isnan(key[r]))} candidates")
    slots = np.arange(out.shape[1])
    head = slots < n[:, None]
    out[head] = items[((np.cumsum(pooled) - pooled)[:, None] + slots)[head]]


def compute_global_table(params: ModelParams, a_norm: sp.csr_matrix) -> np.ndarray:
    """Global item embeddings from the current table (forward only).

    The one full product: scoring the whole catalog reads every row.
    """
    check_adjacency_shape(params, a_norm)
    return global_embeddings(a_norm, params.item_table.data)


def infer_interests(seq: UserSequence, prefix_len: int, params: ModelParams,
                    a_norm: sp.csr_matrix, time_unit_seconds: int = 86400,
                    residual: bool = False) -> np.ndarray:
    """Interest matrix for one user from the first ``prefix_len`` interactions.

    Only the window's global rows are computed (``forward_interests``).
    """
    if prefix_len < 1:
        raise ValueError("prefix must contain at least one interaction")
    items, buckets, mask = _windows((seq.items, seq.timestamps, [0], [len(seq)]),
                                    [prefix_len], params.dims, time_unit_seconds)
    with ad.no_grad():
        interests, _ = forward_interests(params, a_norm, items, buckets, mask,
                                         residual=residual)
    return interests.data[0]


def _windows(columns: tuple, prefix_lens, dims: ModelDims,
             time_unit_seconds: int) -> tuple:
    """(items, buckets, mask) windows of each row of ``columns``
    (``cut_windows``' items, timestamps, starts and lengths) over its first
    ``prefix_lens`` items."""
    items, timestamps, mask = cut_windows(*columns, np.asarray(prefix_lens) + 1,
                                          dims.l_rec)
    return items, window_buckets(timestamps, mask, dims.l_time,
                                 time_unit_seconds), mask


def _unique_pairs(rows: np.ndarray, items: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct (row, item) pairs, sorted by row, then item."""
    width = int(items.max(initial=0)) + 1
    # sort and drop repeats: plain np.unique hashes first, several times slower
    keys = np.sort(rows * width + items)
    return np.divmod(keys[np.r_[True, keys[1:] != keys[:-1]]], width)


def recommend(params: ModelParams, a_norm: sp.csr_matrix, sequences: Sequences, n: int,
              time_unit_seconds: int = 86400, residual: bool = False,
              threads: int = 1) -> np.ndarray:
    """Each row's ranked list, as a (rows, n) int64 matrix.

    Row r ranks the exact top n (``_rank_rows``) for the interests of its
    window over all of ``sequences[r]``, and never an item that row holds.
    A row with fewer than n candidates lists them all, left-aligned, and
    -1 after them. One global table serves every row; rows are fed to the
    forward pass ``_EVAL_CHUNK`` at a time, on ``threads`` threads.
    """
    count = len(sequences)
    ranked = np.full((count, n), -1, dtype=np.int64)
    if not count:
        return ranked
    e_global = compute_global_table(params, a_norm)
    items_t = np.ascontiguousarray(e_global.T)
    exclude = _unique_pairs(np.repeat(np.arange(count), sequences.lengths),
                            sequences.items)
    lengths = np.minimum(n, items_t.shape[1] - 1 - np.bincount(exclude[0], minlength=count))

    def run_chunk(lo):
        hi = lo + _EVAL_CHUNK
        windows = _windows((sequences.items, sequences.timestamps, sequences.starts[lo:hi],
                            sequences.lengths[lo:hi]),
                           sequences.lengths[lo:hi], params.dims, time_unit_seconds)
        with ad.no_grad():
            interests, _ = forward_from_table(params, ad.Tensor(e_global), *windows,
                                              residual=residual)
        block = _rank_rows(interests.data, items_t, lengths[lo:hi],
                           _pairs_in(exclude, lo, hi))
        ranked[lo:hi, :block.shape[1]] = block

    chunks = range(0, count, _EVAL_CHUNK)
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(run_chunk, chunks))
    else:
        for lo in chunks:
            run_chunk(lo)
    return ranked


@dataclass
class Holdout:
    """The scored users' 80/20 split: row r of ``prefixes`` is a scored
    user's input, and ``truth`` is the unique (row, item) pairs of the
    held-out rests, sorted by row, then item."""

    prefixes: Sequences
    truth: tuple[np.ndarray, np.ndarray]


def holdout_split(sequences: Sequences, user_indices) -> Holdout:
    """The 80/20 split of the given users, one row per listing, in order.

    Prefix = first floor(0.8 N) interactions (integer arithmetic), ground
    truth = the rest; a user with an empty prefix (N < 2) is skipped, and
    with a prefix the truth is never empty.
    """
    users = np.asarray(user_indices, dtype=np.int64).reshape(-1)
    bad = np.flatnonzero((users < 0) | (users >= len(sequences)))
    if bad.size:
        raise ValueError(f"user index {users[bad[0]]} outside "
                         f"0..{len(sequences) - 1}")
    scored = sequences.subset(users[sequences.lengths[users] >= 2])
    items, lengths = scored.items, scored.lengths
    prefix = (8 * lengths) // 10
    row = np.repeat(np.arange(lengths.size), lengths)
    in_prefix = np.arange(items.size) - scored.starts[row] < prefix[row]
    return Holdout(Sequences(items[in_prefix], scored.timestamps[in_prefix], prefix),
                   _unique_pairs(row[~in_prefix], items[~in_prefix]))


def _check_cutoffs(n_list: tuple[int, ...]) -> None:
    if not n_list or min(n_list) < 1:
        raise ValueError(f"cutoffs must be at least 1, got {', '.join(map(str, n_list))}")


def _score(split: Holdout, ranked: np.ndarray, n_list: tuple[int, ...]) -> MetricsReport:
    """Average each N's (recall, ndcg, hit) over the split's users, one
    ``ranked`` row each; zeros when there are none."""
    count = len(split.prefixes)
    if not count:
        return MetricsReport({n: MetricRow(0.0, 0.0, 0.0) for n in n_list}, 0)
    rows = _metric_rows(_hit_matrix(ranked, split.truth),
                        np.bincount(split.truth[0], minlength=count), n_list)
    return MetricsReport({n: MetricRow(*(float(x) for x in rows[n].mean(axis=0)))
                          for n in n_list}, count)


def evaluate(sequences: Sequences, user_indices: np.ndarray,
             params: ModelParams, a_norm: sp.csr_matrix,
             n_list: tuple[int, ...] = (20, 50), time_unit_seconds: int = 86400,
             residual: bool = False, threads: int = 1) -> MetricsReport:
    """80/20 protocol over the given users (see ``holdout_split``): each
    prefix's ``recommend`` list against its held-out rest.

    Prefix items are excluded from the candidate pool; a user with fewer
    candidates than max(n_list) is scored on the shorter ranked list.
    """
    _check_cutoffs(n_list)
    split = holdout_split(sequences, user_indices)
    return _score(split, recommend(params, a_norm, split.prefixes, max(n_list),
                                   time_unit_seconds, residual, threads), n_list)


# ---------------------------------------------------------------------------
# reference rankers used as baselines in experiments

def popularity_counts(train_sequences: Sequences, vocab_size: int) -> np.ndarray:
    counts = np.bincount(train_sequences.items, minlength=vocab_size)
    if counts.size > vocab_size:
        raise IndexError(f"item index {counts.size - 1} outside a vocabulary "
                         f"of {vocab_size}")
    counts[0] = 0
    return counts


def popularity_top_n(counts: np.ndarray, n: int, exclude: set | None = None) -> np.ndarray:
    """Most frequent candidates first (ties: smaller index); never padding or
    excluded items, so fewer than n when fewer candidates remain."""
    scores = counts.astype(np.float64)
    scores[0] = -np.inf
    if exclude:
        scores[np.fromiter(exclude, dtype=np.int64)] = -np.inf
    ranked = np.argsort(-scores, kind="stable")
    return ranked[:min(n, int(np.isfinite(scores).sum()))]


def random_top_n(rng: np.random.Generator, vocab_size: int, n: int,
                 exclude: set | None = None) -> np.ndarray:
    pool = np.setdiff1d(np.arange(1, vocab_size),
                        np.fromiter(exclude or (), dtype=np.int64))
    return rng.permutation(pool)[:n]


def evaluate_ranker(sequences: Sequences, user_indices: np.ndarray,
                    rank_fn, n_list: tuple[int, ...] = (20,)) -> MetricsReport:
    """Same 80/20 protocol for a plain ranking function (baselines).

    rank_fn(n, exclude) -> ranked item indices, at most n of them.
    """
    _check_cutoffs(n_list)
    split = holdout_split(sequences, user_indices)
    count, n_max = len(split.prefixes), max(n_list)
    ranked = np.full((count, n_max), -1, dtype=np.int64)
    for r in range(count):
        row = np.asarray(rank_fn(n_max, set(split.prefixes[r].items.tolist())))[:n_max]
        ranked[r, :len(row)] = row
    return _score(split, ranked, n_list)
