"""Exact top-N retrieval, ranking metrics and the 80/20 evaluation protocol.

Retrieval scores every candidate item against all K interests and keeps the
max (full scan, no approximate index). Held-out users are evaluated by
inferring interests from the first 80% of their history and scoring the
remaining 20% as ground truth.
"""

from __future__ import annotations

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
# _rank_by_norm: a first head of 8·n items, and none larger than V // 4 - 1
_HEAD_PER_N, _HEAD_CAP = 8, 4


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
    """Exact max-inner-product scan for each row of ``interests`` (U, K, d)
    against the item table laid out as (d, V).

    Each item scores the max over the row's K interests, and row u's best
    ``n[u]`` items fill ``out[u, :n[u]]`` of a (U, max n) matrix padded with
    -1. ``exclude`` is (row, item) pairs sorted by row. Only candidates are
    ranked, so padding and excluded items never appear whatever the scores;
    ties rank the smaller index first and NaN scores rank last. Rows are
    ranked in blocks whose (rows·K, V) product fits ``_SCORE_BLOCK_BYTES``
    (``_rank_block``). BLAS multiplies ``_rank_by_norm``'s C-contiguous copy
    twice as fast as the (V, d) table's transposed view, which the one-row
    ``top_n`` keeps: it costs less than the copy.
    """
    n = np.asarray(n, dtype=np.int64)
    out = np.full((len(n), int(n.max(initial=0))), -1, dtype=np.int64)
    for lo, block in _blocks(interests, items_t):
        _rank_block(block, n[lo:lo + len(block)],
                    _pairs_in(exclude, lo, lo + len(block)), out[lo:lo + len(block)])
    return out


def _blocks(interests, items_t):
    """(first row, max-over-K scores) per block of ``_SCORE_BLOCK_BYTES``."""
    u, k, d = interests.shape
    itemsize = np.result_type(interests, items_t).itemsize
    rows = max(1, _SCORE_BLOCK_BYTES // (k * items_t.shape[1] * itemsize))
    for lo in range(0, u, rows):
        block = interests[lo:lo + rows]
        yield lo, (block.reshape(-1, d) @ items_t).reshape(len(block), k, -1).max(axis=1)


def _row_norms(table: np.ndarray) -> np.ndarray:
    """Each row's norm, accumulated in float64 from the table's own dtype."""
    return np.sqrt(np.einsum("vd,vd->v", table, table, dtype=np.float64))


def _rank_by_norm(interests, e_global, n, exclude: tuple) -> np.ndarray:
    """``_rank_rows`` of the (V, d) table, through heads of its largest-norm
    items (norm-ordered search, LEMP: Teflioudi et al., SIGMOD 2015).

    Every row first tries a head of 8·n items (``_settle_in_head``). A row
    it leaves open learns how many items a head needs to settle it, and one
    second head, sized to the largest such need, tries those rows again.
    No head holds more than V // 4 - 1 items, and none is built if a norm is
    not finite. The rows left open, and those whose need is past the cap,
    take one full scan against a C-contiguous (d, V) copy of the table.
    """
    n = np.asarray(n, dtype=np.int64)
    out = np.full((len(n), int(n.max(initial=0))), -1, dtype=np.int64)
    v, cap = len(e_global), len(e_global) // _HEAD_CAP - 1
    norms = _row_norms(e_global)
    order = np.argsort(norms[1:]) + 1   # real items by rising norm
    rising = norms[order]
    # the head size each row needs; above the cap, the full scan
    need = np.where(n > 0, _HEAD_PER_N * out.shape[1] if np.isfinite(norms).all()
                    else v, 0)
    for _ in range(2):
        rows = (need > 0) & (need <= cap)
        if not rows.any():
            break
        t = int(need[rows].max())
        head = (np.r_[0, np.sort(order[v - 1 - t:])], rising[v - 2 - t])
        ranked, settled, limit = _settle_in_head(interests[rows], n[rows],
                                                 _pairs_of(exclude, rows), e_global, head)
        out[rows, :ranked.shape[1]] = ranked
        # a larger head's n-th score is at least this one, so it settles the
        # row once it holds every item whose norm reaches the limit
        count = v - 1 - np.searchsorted(rising, limit)
        need[rows] = np.where(settled, 0, np.maximum(count, t + 1))
    rows = need > 0
    if rows.any():
        ranked = _rank_rows(interests[rows], np.ascontiguousarray(e_global.T), n[rows],
                            _pairs_of(exclude, rows))
        out[rows, :ranked.shape[1]] = ranked
    return out


def _settle_in_head(interests, n, exclude, e_global, head) -> tuple:
    """Rank the rows, each with n >= 1, against ``head`` (the padding row
    and T items in index order, and R, the largest norm outside it).

    No outside item scores above max_k ‖q_k‖ · R, and a d-term dot product
    rounds up by less than a factor 1 + 2·d·ε (ε: the dtype's machine
    epsilon) plus d·η of underflow (η: its smallest subnormal). So a row
    whose n-th head score is finite and beats that bound has its top n in
    the head, and no outside item ties it; NaN or inf interests fail the
    test. Returns each row's list (all -1 if it is not settled), whether it
    settled, and the norm below which every outside item must lie for the
    test to hold (-inf when no head can settle the row).
    """
    items, outside = head
    head_t = e_global[items].T.copy()
    d, finfo = interests.shape[2], np.finfo(np.result_type(interests, head_t))
    slack, tiny = 1 + 2 * d * finfo.eps, d * finfo.smallest_subnormal
    q_norm = np.sqrt(np.einsum("ukd,ukd->uk", interests, interests,
                              dtype=np.float64)).max(axis=1)
    score = np.concatenate([block for _, block in _blocks(interests, head_t)])
    # excluded and padding items score -inf, which fails the test
    position = np.zeros(len(e_global), dtype=np.int64)
    position[items] = np.arange(len(items))
    score[exclude[0], position[exclude[1]]] = -np.inf
    score[:, 0] = -np.inf
    # the n-th largest score, NaN below -inf, as the ranking orders them
    nth = -np.partition(-score, np.unique(n - 1), axis=1)[np.arange(len(n)), n - 1]
    settled = np.isfinite(nth) & (nth > slack * outside * q_norm + tiny)
    # a settled row's top n are its pool, the head scores at or above the n-th
    ranked = np.full((len(n), int(n.max())), -1, dtype=np.int64)
    _rank_pool(score, (score >= nth[:, None]) & settled[:, None], np.where(settled, n, 0),
               ranked, items)
    with np.errstate(divide="ignore", invalid="ignore"):
        limit = (nth - tiny) / (slack * q_norm)
    return ranked, settled, np.where(np.isfinite(limit), limit, -np.inf)


def _pairs_of(pairs: tuple, rows: np.ndarray) -> tuple:
    """The (row, item) pairs, sorted by row, of the rows where the mask
    ``rows`` is set, renumbered in order."""
    at = np.cumsum(rows) - 1
    keep = rows[pairs[0]]
    return at[pairs[0][keep]], pairs[1][keep]


def _pairs_in(pairs: tuple, lo: int, hi: int) -> tuple:
    """The (row, item) pairs, sorted by row, of rows lo..hi-1, renumbered
    from 0."""
    rows, items = pairs
    a, b = np.searchsorted(rows, [lo, hi])
    return rows[a:b] - lo, items[a:b]


def _rank_block(score, n, exclude, out) -> None:
    u, v = score.shape
    # selection key, larger first: NaN scores tie with -inf ones, and padding
    # and excluded items are NaN, which no comparison selects
    key = np.fmax(score, -np.inf)
    key[exclude] = np.nan
    key[:, 0] = np.nan
    # the n-th best of the per-chunk bests bounds a row's n-th best key from
    # below (block max-pruning, as in Block-Max WAND, Ding & Suel, SIGIR
    # 2011): any n chunk bests are n distinct candidates. Chunk j holds the
    # c items j, j + m, j + 2m, ..., so the bests are c elementwise passes
    # over m keys. The last v - c·m items belong to no chunk, which keeps
    # the bound a lower bound; the pool below still reads them.
    c = max(1, v // (4 * max(out.shape[1], 1)))
    m = v // c
    best = np.fmax.reduce(key[:, :c * m].reshape(u, c, m), axis=1)
    kth = np.minimum(np.maximum(n, 1), m) - 1
    # NaN (no candidate) sorts last: a row with fewer than n chunks holding
    # a candidate reads NaN, and its bound -inf pools every candidate
    bound = np.fmax(-np.partition(-best, np.unique(kth), axis=1)
                    [np.arange(u), kth], -np.inf)
    # a negative n pools every candidate, which its error then counts
    _rank_pool(score, key >= np.where(n < 0, -np.inf, bound)[:, None], n, out)


def _rank_pool(score, pool, n, out, items=None) -> None:
    """Row u's best n[u] items of its ``pool`` (a mask) into out[u, :n[u]],
    column c listed as ``items[c]`` (as c without a map): the one order of
    every ranked list, score descending, NaN last, ties to the smaller c."""
    rows, at = np.divmod(np.flatnonzero(pool), score.shape[1])
    pooled = np.bincount(rows, minlength=len(score))
    short = (n < 0) | (n > pooled)
    if short.any():
        r = np.argmax(short)
        raise ValueError(f"cannot rank {n[r]} items from {pooled[r]} candidates")
    # -scores left-aligned, then NaN: a stable sort ranks NaN last, ties in order
    start = np.cumsum(pooled) - pooled
    key = np.full((len(score), max(out.shape[1], pooled.max(initial=0))), np.nan, score.dtype)
    key[rows, np.arange(rows.size) - start[rows]] = -score[rows, at]
    order = np.argsort(key, axis=1, kind="stable")[:, :out.shape[1]]
    head = np.arange(out.shape[1]) < n[:, None]
    picked = at[(start[:, None] + order)[head]]
    out[head] = picked if items is None else items[picked]


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
    return np.divmod(keys[np.r_[True, keys[1:] != keys[:-1]][:keys.size]], width)


def _lists(sequences: Sequences, n: int, vocab_size: int) -> tuple:
    """Every ranker's contract: row r of a (rows, n) int64 matrix lists
    min(n, candidates) items left-aligned, then -1, and never an item row r
    holds. Returns the exclusions (unique (row, item) pairs sorted by row),
    the list lengths and that matrix, all -1."""
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    last = vocab_size - 1
    bad = sequences.items[(sequences.items < 1) | (sequences.items > last)]
    if bad.size:
        raise ValueError(f"item {bad[0]} outside 1..{last}")
    count = len(sequences)
    exclude = _unique_pairs(np.repeat(np.arange(count), sequences.lengths),
                            sequences.items)
    lengths = np.minimum(n, last - np.bincount(exclude[0], minlength=count))
    return exclude, lengths, np.full((count, n), -1, dtype=np.int64)


def recommend(params: ModelParams, a_norm: sp.csr_matrix, sequences: Sequences, n: int,
              time_unit_seconds: int = 86400, residual: bool = False) -> np.ndarray:
    """Each row's ranked list, as a (rows, n) int64 matrix.

    Row r ranks the exact top n (``_rank_by_norm``) for the interests of its
    window over all of ``sequences[r]``, under every ranker's contract
    (``_lists``). One global table serves every row; rows are fed to the
    forward pass ``_EVAL_CHUNK`` at a time.
    """
    exclude, lengths, ranked = _lists(sequences, n, params.dims.n_items)
    if not len(ranked):
        return ranked
    e_global = compute_global_table(params, a_norm)
    chunks = []
    for lo in range(0, len(ranked), _EVAL_CHUNK):
        hi = lo + _EVAL_CHUNK
        windows = _windows((sequences.items, sequences.timestamps, sequences.starts[lo:hi],
                            sequences.lengths[lo:hi]),
                           sequences.lengths[lo:hi], params.dims, time_unit_seconds)
        with ad.no_grad():
            chunks.append(forward_from_table(params, ad.Tensor(e_global), *windows,
                                             residual=residual)[0].data)
    block = _rank_by_norm(np.concatenate(chunks), e_global, lengths, exclude)
    ranked[:, :block.shape[1]] = block
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


def evaluate_ranker(sequences: Sequences, user_indices, rank,
                    n_list: tuple[int, ...] = (20,)) -> MetricsReport:
    """The 80/20 protocol over the given users (see ``holdout_split``) for
    any ranker: ``rank(prefixes, max(n_list))`` returns each prefix's list
    under the rankers' contract (``_lists``), scored against its held-out
    rest; a user with fewer candidates is scored on the shorter list."""
    _check_cutoffs(n_list)
    split = holdout_split(sequences, user_indices)
    return _score(split, rank(split.prefixes, max(n_list)), n_list)


def evaluate(sequences: Sequences, user_indices: np.ndarray,
             params: ModelParams, a_norm: sp.csr_matrix,
             n_list: tuple[int, ...] = (20, 50), time_unit_seconds: int = 86400,
             residual: bool = False, threads: int = 1) -> MetricsReport:
    """``evaluate_ranker`` over the model's ``recommend`` lists."""
    if threads != 1:  # kept only for perfbench/; evaluation runs on one thread
        raise ValueError(f"threads must be 1 (the thread pool was removed), got {threads}")
    return evaluate_ranker(sequences, user_indices, lambda prefixes, n: recommend(
        params, a_norm, prefixes, n, time_unit_seconds, residual), n_list)


# ---------------------------------------------------------------------------
# reference rankers used as baselines in experiments

def popularity_counts(train_sequences: Sequences, vocab_size: int) -> np.ndarray:
    counts = np.bincount(train_sequences.items, minlength=vocab_size)
    if counts.size > vocab_size:
        raise IndexError(f"item index {counts.size - 1} outside a vocabulary "
                         f"of {vocab_size}")
    counts[0] = 0
    return counts


def popularity_lists(counts: np.ndarray, sequences: Sequences, n: int) -> np.ndarray:
    """Each row's most frequent candidates (``_lists``' contract):
    ``_rank_rows`` of all-ones interests against the (1, V) count row, so
    ties rank the smaller index first."""
    exclude, lengths, ranked = _lists(sequences, n, counts.size)
    block = _rank_rows(np.ones((len(sequences), 1, 1)), counts[None].astype(np.float64),
                       lengths, exclude)
    ranked[:, :block.shape[1]] = block
    return ranked


def random_lists(rng: np.random.Generator, vocab_size: int, sequences: Sequences,
                 n: int) -> np.ndarray:
    """Each row's candidates in random order (``_lists``' contract): one
    ``rng.permutation`` of the row's sorted candidates per row, in row
    order."""
    exclude, lengths, ranked = _lists(sequences, n, vocab_size)
    for r, length in enumerate(lengths):
        pool = np.setdiff1d(np.arange(1, vocab_size), _pairs_in(exclude, r, r + 1)[1])
        ranked[r, :length] = rng.permutation(pool)[:length]
    return ranked
