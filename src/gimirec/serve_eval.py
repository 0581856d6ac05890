"""Exact top-N retrieval, ranking metrics and the 80/20 evaluation protocol.

Retrieval scores every candidate item against all K interests and keeps the
max (full scan, no approximate index). Held-out users are evaluated by
inferring interests from the first 80% of their history and scoring the
remaining 20% as ground truth.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import chain

import numpy as np
import scipy.sparse as sp

from . import autodiff as ad
from .global_context import global_embeddings
from .ingest import UserSequence
from .model import ModelParams, forward_interests
from .recent import make_window, stack_windows

_EVAL_CHUNK = 256
# cap on one block's (users·K, V) score product in top_n_rows
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
    """(recall, ndcg, hit) for one ranked list against a non-empty truth set.

    Binary relevance; ideal DCG runs over min(n, |truth|) slots; ranks are
    1-based.
    """
    if not ground_truth:
        raise ValueError("ground truth must be non-empty")
    if n < 1:
        raise ValueError(f"cutoff must be at least 1, got {n}")
    recommended = list(recommended)[:n]
    hit_ranks = [r for r, item in enumerate(recommended, start=1)
                 if item in ground_truth]
    recall = len(hit_ranks) / len(ground_truth)
    hit = 1.0 if hit_ranks else 0.0
    dcg = sum(1.0 / np.log2(r + 1) for r in hit_ranks)
    idcg = sum(1.0 / np.log2(r + 1)
               for r in range(1, min(n, len(ground_truth)) + 1))
    return recall, dcg / idcg, hit


def top_n(interest_vectors: np.ndarray, e_global: np.ndarray, n: int,
          exclude: set | None = None) -> np.ndarray:
    """Exact top-N for one user: the one-row case of ``top_n_rows``."""
    return top_n_rows(np.atleast_2d(interest_vectors)[None], e_global, [n],
                      [exclude or ()])[0]


def top_n_rows(interests: np.ndarray, e_global: np.ndarray, n,
               excludes: list) -> list[np.ndarray]:
    """Exact max-inner-product scan over all items for each user.

    interests (U, K, d); row u ranks its best ``n[u]`` items. Each item's
    score is the max over the row's K interests. Only candidates are ranked,
    so padding and ``excludes[u]`` never appear whatever the scores; ties
    rank the smaller index first and NaN scores rank last. Users are scored
    in blocks whose (users·K, V) product fits ``_SCORE_BLOCK_BYTES``.
    """
    return _rank_rows(interests, e_global.T, n, excludes)


def _rank_rows(interests, items_t, n, excludes) -> list[np.ndarray]:
    """``top_n_rows`` against the item table laid out as (d, V).

    BLAS multiplies a C-contiguous (d, V) table about twice as fast as the
    transposed view of the (V, d) one, so ``evaluate`` copies the table once
    per call; the one-row ``top_n`` keeps the view, which costs less than
    the copy.
    """
    interests = np.asarray(interests)
    n = np.asarray(n, dtype=np.int64)
    itemsize = np.result_type(interests, items_t).itemsize
    block = max(1, _SCORE_BLOCK_BYTES
                // (interests.shape[1] * items_t.shape[1] * itemsize))
    ranked = []
    for lo in range(0, len(interests), block):
        hi = lo + block
        ranked += _rank_block(interests[lo:hi], items_t, n[lo:hi], excludes[lo:hi])
    return ranked


def _rank_block(interests, items_t, n, excludes) -> list[np.ndarray]:
    u, k, d = interests.shape
    v = items_t.shape[1]
    order = -(interests.reshape(u * k, d) @ items_t).reshape(u, k, v).max(axis=1)
    # selection key: NaN scores tie with -inf ones, and padding and excluded
    # items are NaN, which sorts after every candidate
    key = np.fmin(order, np.inf)
    sizes = [len(ex) for ex in excludes]
    key[np.repeat(np.arange(u), sizes),
        np.fromiter(chain.from_iterable(excludes), np.int64, sum(sizes))] = np.nan
    key[:, 0] = np.nan
    kth = np.maximum(np.minimum(n, v), 1) - 1
    thresh = np.partition(key, sorted(set(kth.tolist())), axis=1)[np.arange(u), kth]
    # every candidate keyed at most a row's N-th best, sorted by row, then
    # score with NaN last, then index: the head of each row's full stable
    # sort. Padding is NaN, so a row short of candidates has a NaN N-th best
    # and pools nothing.
    rows, items = np.divmod(np.flatnonzero(key <= thresh[:, None]), v)
    items = items[np.lexsort((order[rows, items], rows))]
    bounds = np.searchsorted(rows, np.arange(u + 1)).tolist()
    ranked = []
    for r, m in enumerate(n.tolist()):
        if not 0 <= m <= bounds[r + 1] - bounds[r]:
            raise ValueError(f"cannot rank {m} items from "
                             f"{np.count_nonzero(~np.isnan(key[r]))} candidates")
        ranked.append(items[bounds[r]:bounds[r] + m])
    return ranked


def compute_global_table(params: ModelParams, a_norm: sp.csr_matrix) -> np.ndarray:
    """Global item embeddings from the current table (forward only).

    The one full product: scoring the whole catalog reads every row.
    """
    return global_embeddings(a_norm, params.item_table.data)


def infer_interests(seq: UserSequence, prefix_len: int, params: ModelParams,
                    a_norm: sp.csr_matrix, time_unit_seconds: int = 86400,
                    residual: bool = False) -> np.ndarray:
    """Interest matrix for one user from the first ``prefix_len`` interactions."""
    if prefix_len < 1:
        raise ValueError("prefix must contain at least one interaction")
    return _batched_interests([seq], [prefix_len], params, a_norm,
                              time_unit_seconds, residual)[0]


def _batched_interests(seqs: list[UserSequence], prefix_lens: list[int],
                       params: ModelParams, a_norm: sp.csr_matrix,
                       time_unit_seconds: int, residual: bool) -> np.ndarray:
    dims = params.dims
    windows = [make_window(s, p + 1, dims.l_rec)
               for s, p in zip(seqs, prefix_lens)]
    items, buckets, mask = stack_windows(windows, dims.l_time, time_unit_seconds)
    with ad.no_grad():
        interests, _ = forward_interests(params, a_norm, items, buckets, mask,
                                         residual=residual)
    return interests.data


def _holdout_jobs(sequences: list[UserSequence],
                  user_indices: np.ndarray) -> list[tuple]:
    """(sequence, prefix length, truth set, excluded items) per scored user.

    Prefix = first floor(0.8 N) interactions (integer arithmetic), ground
    truth = the rest; users with an empty prefix or truth are skipped.
    """
    jobs = []
    for u in user_indices:
        seq = sequences[int(u)]
        prefix = (8 * len(seq)) // 10
        truth = set(seq.items[prefix:].tolist())
        if prefix < 1 or not truth:
            continue
        jobs.append((seq, prefix, truth, set(seq.items[:prefix].tolist())))
    return jobs


def _check_cutoffs(n_list: tuple[int, ...]) -> None:
    if not n_list or min(n_list) < 1:
        raise ValueError(f"cutoffs must be at least 1, got {', '.join(map(str, n_list))}")


def _mean_report(per_user: list[dict], n_list: tuple[int, ...]) -> MetricsReport:
    """Average each N's (recall, ndcg, hit) over users; zeros when none."""
    if not per_user:
        return MetricsReport({n: MetricRow(0.0, 0.0, 0.0) for n in n_list}, 0)
    report = {}
    for n in n_list:
        triples = np.array([row[n] for row in per_user], dtype=np.float64)
        report[n] = MetricRow(*(float(x) for x in triples.mean(axis=0)))
    return MetricsReport(report, len(per_user))


def evaluate(sequences: list[UserSequence], user_indices: np.ndarray,
             params: ModelParams, a_norm: sp.csr_matrix,
             n_list: tuple[int, ...] = (20, 50), time_unit_seconds: int = 86400,
             residual: bool = False, threads: int = 1) -> MetricsReport:
    """80/20 protocol over the given users (see ``_holdout_jobs``).

    Prefix items are excluded from the candidate pool; a user with fewer
    candidates than max(n_list) is scored on the shorter ranked list.
    """
    _check_cutoffs(n_list)
    jobs = _holdout_jobs(sequences, user_indices)
    if not jobs:
        return _mean_report([], n_list)

    e_global = compute_global_table(params, a_norm)
    items_t = np.ascontiguousarray(e_global.T)
    n_max = max(n_list)
    chunks = [jobs[i:i + _EVAL_CHUNK] for i in range(0, len(jobs), _EVAL_CHUNK)]

    def run_chunk(chunk):
        interests = _batched_interests(
            [j[0] for j in chunk], [j[1] for j in chunk], params, a_norm,
            time_unit_seconds, residual)
        excludes = [j[3] for j in chunk]
        ranked = _rank_rows(
            interests, items_t,
            [min(n_max, items_t.shape[1] - 1 - len(ex)) for ex in excludes],
            excludes)
        return [{n: metrics(items, j[2], n) for n in n_list}
                for j, items in zip(chunk, ranked)]

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            per_user = [row for rows in pool.map(run_chunk, chunks) for row in rows]
    else:
        per_user = [row for chunk in chunks for row in run_chunk(chunk)]
    return _mean_report(per_user, n_list)


# ---------------------------------------------------------------------------
# reference rankers used as baselines in experiments

def popularity_counts(train_sequences: list[UserSequence], vocab_size: int) -> np.ndarray:
    items = np.concatenate([np.empty(0, dtype=np.int64)]
                           + [seq.items for seq in train_sequences])
    counts = np.bincount(items, minlength=vocab_size)
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


def evaluate_ranker(sequences: list[UserSequence], user_indices: np.ndarray,
                    rank_fn, n_list: tuple[int, ...] = (20,)) -> MetricsReport:
    """Same 80/20 protocol for a plain ranking function (baselines).

    rank_fn(n, exclude) -> ranked item indices, at most n of them.
    """
    _check_cutoffs(n_list)
    per_user = []
    for _, _, truth, exclude in _holdout_jobs(sequences, user_indices):
        ranked = rank_fn(max(n_list), exclude)
        per_user.append({n: metrics(ranked, truth, n) for n in n_list})
    return _mean_report(per_user, n_list)
