"""Metrics, exact retrieval and the 80/20 evaluation protocol."""

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gimirec import autodiff as ad
from gimirec import serve_eval
from gimirec.config import HyperParams
from gimirec.ingest import Sequences, prepare
from gimirec.model import (ModelDims, ModelParams, cast_adjacency, forward_from_table,
                           forward_interests)
from gimirec.recent import make_window, stack_windows
from gimirec.serve_eval import (MetricRow, MetricsReport, compute_global_table,
                                evaluate, evaluate_ranker, holdout_split,
                                infer_interests, metrics, popularity_counts,
                                popularity_lists, random_lists, recommend, top_n)
from gimirec.synthetic import PlantedConfig, planted_cluster_records, write_log
from gimirec.train import build_adjacency_from_bundle

import oracles
from helpers import sequences_of, traced_peak
from oracles import metrics_oracle


class TestMetrics:
    def test_worked_example(self):
        recall, ndcg, hit = metrics(["a", "x"], {"a", "b"}, 2)
        assert recall == 0.5 and hit == 1.0
        expect = 1.0 / (1.0 + 1.0 / np.log2(3))
        assert abs(ndcg - expect) < 1e-12
        assert abs(ndcg - 0.6131) < 5e-4

    def test_no_hits_all_zero(self):
        assert metrics(["x", "y", "z"], {"a"}, 3) == (0.0, 0.0, 0.0)

    def test_ideal_ranking_ndcg_one(self):
        recall, ndcg, hit = metrics(["a", "b", "x", "y"], {"a", "b"}, 4)
        assert (recall, ndcg, hit) == (1.0, 1.0, 1.0)

    def test_truth_larger_than_n(self):
        recall, ndcg, hit = metrics(["a"], {"a", "b", "c"}, 1)
        assert recall == pytest.approx(1 / 3)
        assert ndcg == 1.0  # ideal DCG runs over min(N, |truth|) = 1

    def test_empty_truth_rejected(self):
        with pytest.raises(ValueError):
            metrics(["a"], set(), 1)

    @pytest.mark.parametrize("n", [0, -3])
    def test_cutoff_below_one_rejected(self, n):
        # the ideal DCG over no slots is 0
        with pytest.raises(ValueError, match=f"cutoff must be at least 1, got {n}"):
            metrics(["a"], {"a"}, n)

    def test_repeated_item_rejected(self):
        with pytest.raises(ValueError, match="must not repeat an item"):
            metrics([1, 1, 2], {1}, 3)
        # only the first n items are scored
        assert metrics([1, 2, 1], {1}, 2) == (1.0, 1.0, 1.0)

    @pytest.mark.parametrize("ranked, truth", [([3, 1, 2], {1, 9}), ([4], {4, 5, 6}),
                                               ([7, 8, 5, 6], {8})])
    def test_cutoff_past_list_and_truth_allocates_by_them(self, ranked, truth):
        # sized by the cutoff, n = 10⁶ took 39.5 MiB and seconds
        got, peak = traced_peak(metrics, ranked, truth, 10**6)
        assert peak < 2**20
        assert got == metrics_oracle(ranked, truth, 10**6)

    def test_matches_oracle_on_random_cases(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            n = int(rng.integers(1, 12))
            ranked = rng.permutation(40)[:n].tolist()
            truth = set(rng.permutation(40)[:rng.integers(1, 10)].tolist())
            got = metrics(ranked, truth, n)
            expect = metrics_oracle(ranked, truth, n)
            assert got == pytest.approx(expect, abs=1e-12)
            assert 0.0 <= got[0] <= 1.0 and 0.0 <= got[1] <= 1.0


class TestTopN:
    def test_simple_ordering(self):
        e_global = np.array([[0.0], [3.0], [2.0], [1.0]])
        ranked = top_n(np.array([[1.0]]), e_global, 3)
        np.testing.assert_array_equal(ranked, [1, 2, 3])

    def test_max_over_interests(self):
        # item 2 is liked only by the second interest; still retrievable
        e_global = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 5.0], [0.9, 0.0]])
        interests = np.array([[1.0, 0.0], [0.0, 1.0]])
        ranked = top_n(interests, e_global, 2)
        np.testing.assert_array_equal(ranked, [2, 1])

    def test_exclusion_and_padding_never_returned(self):
        rng = np.random.default_rng(1)
        e_global = rng.normal(size=(30, 4))
        interests = rng.normal(size=(2, 4))
        exclude = {3, 7, 11}
        ranked = top_n(interests, e_global, 26, exclude)
        assert 0 not in ranked
        assert not exclude & set(ranked.tolist())
        assert len(set(ranked.tolist())) == 26
        # not even behind a candidate whose score is NaN
        e_global = np.array([[0.0, 0.0], [np.nan, 0.0], [1.0, 0.0], [2.0, 0.0]])
        np.testing.assert_array_equal(
            top_n(np.array([[1.0, 0.0]]), e_global, 2, exclude={3}), [2, 1])

    def test_ties_break_to_smaller_index(self):
        e_global = np.zeros((5, 2))
        ranked = top_n(np.array([[1.0, 1.0]]), e_global, 4)
        np.testing.assert_array_equal(ranked, [1, 2, 3, 4])

    def test_scale_invariance(self):
        rng = np.random.default_rng(2)
        e_global = rng.normal(size=(40, 6))
        interests = rng.normal(size=(3, 6))
        base = top_n(interests, e_global, 10)
        scaled = top_n(interests * 37.5, e_global, 10)
        np.testing.assert_array_equal(base, scaled)

    def test_matches_sort_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            e_global = rng.normal(size=(25, 5))
            interests = rng.normal(size=(4, 5))
            ranked = top_n(interests, e_global, 24)
            scores = (e_global @ interests.T).max(axis=1)
            expect = sorted(range(1, 25), key=lambda i: (-scores[i], i))
            np.testing.assert_array_equal(ranked, expect)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=300, deadline=None)
    def test_matches_full_stable_argsort_with_ties(self, seed):
        rng = np.random.default_rng(seed)
        n_rows = int(rng.integers(1, 30))
        e_global = rng.integers(-2, 3, size=(n_rows, 2)).astype(np.float64)
        if rng.random() < 0.3:
            e_global[rng.integers(n_rows, size=rng.integers(1, 4))] = np.nan
        vectors = rng.integers(-2, 3, size=(int(rng.integers(1, 4)), 2))
        exclude = set(rng.integers(1, n_rows, size=rng.integers(0, n_rows)).tolist())
        scores = (e_global @ vectors.T.astype(np.float64)).max(axis=1)
        candidates = np.array([i for i in range(1, n_rows) if i not in exclude],
                              dtype=np.intp)
        full = candidates[np.argsort(-scores[candidates], kind="stable")]
        for n in range(candidates.size + 1):
            np.testing.assert_array_equal(
                top_n(vectors, e_global, n, exclude), full[:n])

    def test_negative_n_counts_every_candidate(self):
        # the chunk bound alone would pool only the best item
        with pytest.raises(ValueError, match="^cannot rank -1 items from 25 candidates$"):
            top_n(np.ones((1, 2)), np.arange(60.0).reshape(30, 2), -1, exclude={3, 4, 5, 6})

    def test_too_many_requested(self):
        with pytest.raises(ValueError):
            top_n(np.ones((1, 2)), np.zeros((4, 2)), 4)

    @pytest.mark.parametrize("bad", [-1, 6, 9])
    def test_exclusion_outside_catalog_rejected(self, bad):
        # item 5 scores best: -1 used to drop it in silence, 9 to raise a
        # bare IndexError
        e_global = np.arange(12.0).reshape(6, 2)
        np.testing.assert_array_equal(top_n(np.ones((1, 2)), e_global, 3), [5, 4, 3])
        with pytest.raises(ValueError, match=f"^excluded item {bad} outside 0..5$"):
            top_n(np.ones((1, 2)), e_global, 3, exclude={bad})
        with pytest.raises(ValueError, match=f"^excluded item {bad} outside 0..5$"):
            top_n(np.ones((1, 2)), e_global, 3, exclude={1, bad})


def _edge_case_rows(rng):
    """Tie-heavy integer scores with NaN and ±inf rows: (interests (U, K, 2),
    e_global (V, 2), one exclusion set per user)."""
    n_rows = int(rng.integers(1, 30))
    e_global = rng.integers(-2, 3, size=(n_rows, 2)).astype(np.float64)
    for special in (np.nan, np.inf, -np.inf):
        if rng.random() < 0.3:
            e_global[rng.integers(n_rows, size=rng.integers(1, 4)),
                     rng.integers(2)] = special
    users, k = int(rng.integers(1, 7)), int(rng.integers(1, 4))
    interests = rng.integers(-2, 3, size=(users, k, 2)).astype(np.float64)
    excludes = [set(rng.integers(1, n_rows, size=rng.integers(0, n_rows)).tolist())
                for _ in range(users)]
    return interests, e_global, excludes


def _pairs(excludes) -> tuple:
    """One exclusion set per row as (row, item) pairs, sorted by row."""
    return (np.repeat(np.arange(len(excludes)), [len(ex) for ex in excludes]),
            np.array([i for ex in excludes for i in sorted(ex)], dtype=np.int64))


def _assert_rows_match_per_user_scan(ranked, interests, e_global, ns, excludes):
    """Row r holds ``top_n_per_user``'s ns[r] items, then -1."""
    assert ranked.shape == (len(excludes), max(ns, default=0))
    for vecs, m, ex, row in zip(interests, ns, excludes, ranked):
        expect = oracles.top_n_per_user(vecs, e_global, m, ex)
        np.testing.assert_array_equal(row[:m], expect)
        assert (row[m:] == -1).all()


class TestRankRows:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=300, deadline=None)
    @pytest.mark.filterwarnings("ignore:invalid value encountered in matmul")
    def test_rows_match_per_user_scan(self, seed):
        rng = np.random.default_rng(seed)
        interests, e_global, excludes = _edge_case_rows(rng)
        counts = [e_global.shape[0] - 1 - len(ex) for ex in excludes]
        # blocks of 1-3 users, so one call spans several of them
        per_block = interests.shape[1] * e_global.shape[0] * 8
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(serve_eval, "_SCORE_BLOCK_BYTES",
                       int(rng.integers(1, 4)) * per_block)
            for n in range(max(counts) + 1):
                ns = np.minimum(n, counts)
                got = serve_eval._rank_rows(interests, e_global.T, ns, _pairs(excludes))
                assert got.dtype == np.int64
                _assert_rows_match_per_user_scan(got, interests, e_global, ns, excludes)
            # a row asked for more than its candidates fails as top_n does
            short = int(np.argmin(counts))
            ns = np.minimum(max(counts), counts)
            ns[short] = counts[short] + 1
            with pytest.raises(ValueError) as expected:
                oracles.top_n_per_user(interests[short], e_global, ns[short],
                                       excludes[short])
            with pytest.raises(ValueError, match=f"^{expected.value}$"):
                serve_eval._rank_rows(interests, e_global.T, ns, _pairs(excludes))

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError, match="cannot rank -1 items"):
            serve_eval._rank_rows(np.ones((2, 1, 2)), np.ones((2, 5)), [3, -1],
                                  _pairs([set(), set()]))

    def test_float32_rows_match_per_user_scan(self, monkeypatch):
        rng = np.random.default_rng(4)
        e_global = rng.normal(size=(400, 16)).astype(np.float32)
        interests = rng.normal(size=(37, 4, 16)).astype(np.float32)
        excludes = [set(rng.integers(1, 400, size=30).tolist()) for _ in range(37)]
        monkeypatch.setattr(serve_eval, "_SCORE_BLOCK_BYTES", 5 * 4 * 400 * 4)
        got = serve_eval._rank_rows(interests, np.ascontiguousarray(e_global.T),
                                    [50] * 37, _pairs(excludes))
        _assert_rows_match_per_user_scan(got, interests, e_global, [50] * 37, excludes)


CHUNK_CASES = ["chunks_excluded", "few_candidate_chunks", "few_items",
               "special_scores", "ties"]


def _chunk_bound_case(rng, case):
    """(interests (U, K, 2), items_t (2, V), n, exclude pairs) for one edge
    case of ``_rank_block``'s chunk-bound selection, with tie-heavy integer
    scores. Row ``anchor`` asks for max n and excludes nothing, so the chunk
    layout follows from ``n_max``."""
    users, k = int(rng.integers(1, 7)), int(rng.integers(1, 4))
    n_max = int(rng.integers(1, 9))
    v = int(rng.integers(2, 4 * n_max + 1) if case == "few_items"
            else rng.integers(4 * n_max, 30 * n_max))
    table = rng.integers(-2, 3, size=(v, 2)).astype(np.float64)
    interests = rng.integers(-2, 3, size=(users, k, 2)).astype(np.float64)
    if case == "ties":
        # three score levels, so equal scores sit in many chunks
        table = rng.integers(0, 2, size=(v, 2)).astype(np.float64)
        interests = np.ones((users, k, 2))
    if case == "special_scores":
        for special in (np.nan, np.inf, -np.inf):
            table[rng.integers(v, size=rng.integers(1, 4)), rng.integers(2)] = special
        interests[rng.integers(users)] = np.nan   # every score of a row NaN
    # _rank_block's chunks: chunk j holds items j, j + m, ...; the items past
    # c·m belong to none, and are excluded here as one more group
    c = max(1, v // (4 * min(n_max, v - 1)))
    m = v // c
    chunks = [np.arange(j, c * m, m) for j in range(m)] + [np.arange(c * m, v)]
    anchor = int(rng.integers(users))
    excludes, n = [], []
    for r in range(users):
        ex = set(rng.integers(1, v, size=rng.integers(0, 4)).tolist())
        picked = np.concatenate([chunks[j] for j in rng.permutation(len(chunks))
                                 [:rng.integers(1, n_max + 1)]]).tolist()
        if r == anchor:
            ex = set()
        elif case == "chunks_excluded":
            ex.update(picked)
        elif case == "few_candidate_chunks":
            ex = set(range(1, v)).difference(picked)
        count = v - 1 - len(ex - {0})
        if r == anchor:
            n.append(min(n_max, count))
        elif count < n_max and rng.random() < 0.2:
            n.append(count + 1)   # one more than its candidates: rejected
        else:
            n.append(min(int(rng.integers(0, n_max + 1)), count))
        excludes.append(ex)
    return interests, np.ascontiguousarray(table.T), np.array(n), _pairs(excludes)


def _assert_ranks_like_full_partition(interests, items_t, n, pairs):
    try:
        expect = oracles.rank_rows_full_partition(interests, items_t, n, pairs)
    except ValueError as exc:
        with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
            serve_eval._rank_rows(interests, items_t, n, pairs)
        return
    got = serve_eval._rank_rows(interests, items_t, n, pairs)
    assert got.dtype == expect.dtype
    np.testing.assert_array_equal(got, expect)


class TestChunkBoundSelection:
    @given(st.integers(0, 2**32 - 1), st.sampled_from(CHUNK_CASES))
    @settings(max_examples=400, deadline=None)
    @pytest.mark.filterwarnings("ignore:invalid value encountered in matmul")
    def test_matches_full_row_partition(self, seed, case):
        rng = np.random.default_rng(seed)
        interests, items_t, n, pairs = _chunk_bound_case(rng, case)
        # blocks of 1-3 users, so one call spans several of them
        per_block = interests.shape[1] * items_t.shape[1] * 8
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(serve_eval, "_SCORE_BLOCK_BYTES",
                       int(rng.integers(1, 4)) * per_block)
            _assert_ranks_like_full_partition(interests, items_t, n, pairs)

    @pytest.mark.parametrize("decimals", [None, 1])
    def test_float32_matches_full_row_partition(self, monkeypatch, decimals):
        rng = np.random.default_rng(5)
        table = rng.normal(size=(5003, 16))
        if decimals is not None:   # coarse scores: ties across chunks
            table = np.round(table, decimals)
        interests = rng.normal(size=(40, 4, 16)).astype(np.float32)
        n = np.r_[50, rng.integers(0, 51, size=39)]
        excludes = [np.unique(rng.integers(0, 5003, size=30)) for _ in range(40)]
        pairs = (np.repeat(np.arange(40), [ex.size for ex in excludes]),
                 np.concatenate(excludes))
        items_t = np.ascontiguousarray(table.T.astype(np.float32))
        monkeypatch.setattr(serve_eval, "_SCORE_BLOCK_BYTES", 7 * 4 * 5003 * 4)
        _assert_ranks_like_full_partition(interests, items_t, n, pairs)


POOL_SCORES = [np.nan, np.inf, -np.inf, -0.0, 0.0, 1.0, -1.0, 2.0]


def _pool_case(rng):
    """(score, pool, n, out width, item map or None) for ``_rank_pool``:
    one row or several, float32 or float64 scores mixing normal draws with
    tied and special values (NaN in half the draws), rows asking for 0 to
    all of their pool, and one row in five asking for one more."""
    u = 1 if rng.random() < 0.3 else int(rng.integers(2, 8))
    v = int(rng.integers(1, 30))
    dtype = (np.float32, np.float64)[rng.integers(2)]
    specials = POOL_SCORES[rng.integers(2):]
    score = np.where(rng.random((u, v)) < rng.random(), rng.normal(size=(u, v)),
                     rng.choice(specials, size=(u, v))).astype(dtype)
    pool = rng.random((u, v)) < rng.random()
    pooled = pool.sum(axis=1)
    n = rng.integers(0, pooled + 1)
    if rng.random() < 0.2:
        r = rng.integers(u)
        n[r] = pooled[r] + 1
    width = int(n.max()) + int(rng.integers(0, 3))
    items = rng.permutation(1000)[:v] if rng.random() < 0.5 else None
    return score, pool, n, width, items


class TestRankPool:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=400, deadline=None)
    def test_matches_replaced_sorts(self, seed):
        rng = np.random.default_rng(seed)
        score, pool, n, width, items = _pool_case(rng)
        replaced = [oracles.rank_pool_lexsort]
        if not np.isnan(score[pool]).any():
            replaced.append(oracles.rank_pool_inf_padded)
        for oracle in replaced:
            expect, got = (np.full((len(n), width), -1, dtype=np.int64) for _ in range(2))
            try:
                oracle(score, pool, n, expect, items)
            except ValueError as exc:
                with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                    serve_eval._rank_pool(score, pool, n, got, items)
                continue
            serve_eval._rank_pool(score, pool, n, got, items)
            np.testing.assert_array_equal(got, expect)

    @pytest.mark.parametrize("a, b, widths", [(1.3, 0.7, [17, 18]),
                                              (1.6 * 2.0**-70, 2.0**-79, [17, 128])])
    def test_heads_and_full_scan_share_it(self, monkeypatch, a, b, widths):
        # TestNormHead's tie case: a second head, or the full scan, settles it
        table = np.tile(np.float32([b / 2, 0.0]), (128, 1))
        table[1] = [b, 0.0]
        table[10:26] = [b, 10 * b]
        table[10, 0] = 2 * b
        seen, rank_pool = [], serve_eval._rank_pool
        monkeypatch.setattr(serve_eval, "_rank_pool", lambda score, *args: (
            seen.append(score.shape[1]), rank_pool(score, *args))[1])
        got = serve_eval._rank_by_norm(np.float32([[[a, 0.0]]]), table, [2], _pairs([set()]))
        assert seen == widths
        np.testing.assert_array_equal(got, [[10, 1]])


HEAD_CASES = ["hubs", "ties", "special", "head_excluded", "few_in_head",
              "second_level", "over_cap"]


def _first_head(table, n_max):
    """The real items of ``_rank_by_norm``'s first head: the 8·n_max
    largest norms."""
    order = np.argsort(serve_eval._row_norms(table)[1:]) + 1
    return order[order.size - serve_eval._HEAD_PER_N * n_max:]


def _head_case(rng, case):
    """(interests (U, K, d), table (V, d), n, exclude pairs) for
    ``_rank_by_norm``, with n_max = max n. A few table rows are hubs, scaled
    ×5-50, and V is large enough for a first head of 8·n_max items. Integer
    cases (every "ties" one) keep every score exact. Row 0 asks for n_max
    and excludes nothing. In "second_level" it settles only at the second
    level, and in "over_cap" no head can settle it."""
    n_max = int(rng.integers(1, 4))
    v = int(rng.integers(36 * n_max + 4, 36 * n_max + 150))
    d_min = 2 if case == "second_level" else 1   # it needs two axes
    d, users, k = (int(x) for x in rng.integers([d_min, 1, 1], [5, 9, 4]))
    dtype = (np.float32, np.float64)[rng.integers(2)]
    if case == "ties" or rng.random() < 0.5:
        table = rng.integers(-2, 3, size=(v, d)).astype(np.float64)
        interests = rng.integers(-2, 3, size=(users, k, d)).astype(np.float64)
    else:
        table, interests = rng.normal(size=(v, d)), rng.normal(size=(users, k, d))
    hubs = rng.integers(1, v, size=rng.integers(1, 3 * 8 * n_max))
    table[hubs] *= rng.integers(5, 51, size=(hubs.size, 1))
    if case == "special":
        special = rng.choice([np.nan, np.inf, -np.inf], size=2)
        if rng.random() < 0.5:   # no head is built
            table[rng.integers(v, size=2), rng.integers(d, size=2)] = special
        else:
            interests[rng.integers(users, size=2), rng.integers(k, size=2),
                      rng.integers(d, size=2)] = special
    if case == "second_level":
        # row 0 points along axis 0. The 8·n_max largest norms (10) score
        # 5 per unit of it, so the first head's bound (the mid norms, 6-9)
        # fails, and the need it predicts, every norm of 5 or more, holds
        # the mid items, which score 6-9 and leave norms of at most 1 outside
        table /= np.maximum(1, np.linalg.norm(table, axis=1, keepdims=True))
        picked = rng.permutation(np.arange(1, v))
        t1, cap = 8 * n_max, v // 4 - 1
        table[picked[:t1]] = 0
        table[picked[:t1], :2] = [5, np.sqrt(75)]
        mid = picked[t1:t1 + int(rng.integers(n_max, cap - t1 + 1))]
        table[mid] = 0
        table[mid, 0] = rng.uniform(6, 9, size=mid.size)
        interests[0] = 0
        interests[0, :, 0] = rng.uniform(0.5, 2, size=k)
    if case == "over_cap":
        # every norm equal, or row 0's interests zero or inf along axis 0
        kind = rng.integers(3)
        if kind == 0:
            table = rng.normal(size=(v, d))
            table /= np.linalg.norm(table, axis=1, keepdims=True)
        else:
            interests[0] = 0
            interests[0, :, 0] = 0 if kind == 1 else np.inf
    if rng.random() < 0.5:   # the padding row, never listed, may score highest
        table[0] = 50 * rng.integers(-2, 3, size=d)
    # no other row's interests equal row 0's, which tells its calls apart
    interests[1:, 0, 0] += (interests[1:] == interests[0]).all(axis=(1, 2))
    excludes = [set()]
    head = _first_head(table.astype(dtype), n_max)
    for _ in range(users - 1):
        ex = set(rng.integers(1, v, size=rng.integers(0, 6)).tolist())
        if case in ("head_excluded", "few_in_head") and rng.random() < 0.5:
            # every head item, or all but fewer than n_max of them
            keep = 0 if case == "head_excluded" else int(rng.integers(n_max))
            ex.update(rng.permutation(head)[keep:].tolist())
        excludes.append(ex)
    n = np.r_[n_max, rng.permutation(rng.integers(0, n_max + 1, size=users - 1))]
    return interests.astype(dtype), table.astype(dtype), n, _pairs(excludes)


def _watch_levels(monkeypatch) -> list:
    """Log each ``_settle_in_head`` call as ("head", T, its first row's
    interests, whether that row settled) and each full-scan block as
    ("scan", V, its first row's interests)."""
    log = []
    settle, rank_rows = serve_eval._settle_in_head, serve_eval._rank_rows

    def settle_spy(interests, n, exclude, e_global, head):
        result = settle(interests, n, exclude, e_global, head)
        log.append(("head", len(head[0]) - 1, interests[0].copy(), bool(result[1][0])))
        return result

    def rank_rows_spy(interests, items_t, *args):
        log.append(("scan", items_t.shape[1], interests[0].copy()))
        return rank_rows(interests, items_t, *args)

    monkeypatch.setattr(serve_eval, "_settle_in_head", settle_spy)
    monkeypatch.setattr(serve_eval, "_rank_rows", rank_rows_spy)
    return log


class TestNormHead:
    @given(st.integers(0, 2**32 - 1), st.sampled_from(HEAD_CASES))
    @settings(max_examples=400, deadline=None)
    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_matches_full_row_partition(self, seed, case):
        rng = np.random.default_rng(seed)
        interests, table, n, pairs = _head_case(rng, case)
        items_t = np.ascontiguousarray(table.T)
        expect = oracles.rank_rows_full_partition(interests, items_t, n, pairs)
        # blocks of 1-3 users, so one call spans several of them
        per_block = interests.shape[1] * table.shape[0] * table.itemsize
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(serve_eval, "_SCORE_BLOCK_BYTES",
                       int(rng.integers(1, 4)) * per_block)
            log = _watch_levels(mp)
            got = serve_eval._rank_by_norm(interests, table, n, pairs)
        np.testing.assert_array_equal(got, expect)
        heads = [entry for entry in log if entry[0] == "head"]
        # no head when a norm is not finite; else a first head of 8·n_max
        assert (not heads) == (not np.isfinite(table).all())
        assert not heads or heads[0][1] == 8 * n[0]
        assert len(heads) <= 2 and all(t < table.shape[0] // 4 for _, t, *_ in heads)
        if case in ("second_level", "over_cap"):
            # row 0 fails the first head; the second settles it, or it is
            # the first row of the full scan
            assert not heads[0][3]
            at_row_0 = [entry for entry in log[1:]
                        if np.array_equal(entry[2], interests[0])]
            assert at_row_0[0][0] == ("head" if case == "second_level" else "scan")
            assert case == "over_cap" or at_row_0[0][3]

    @pytest.mark.parametrize("a, b", [(1.3, 0.7), (1.6 * 2.0**-70, 2.0**-79),
                                      (1e20, 1e19)])
    @pytest.mark.filterwarnings("ignore:overflow encountered in matmul")
    def test_outside_score_equal_to_nth_falls_back(self, monkeypatch, a, b):
        # items 10-25 hold the 16 largest norms, so the first head for n = 2
        # is them plus padding. Item 1 outside it computes the same float32
        # score a·b as items 11-25: rounded up past the exact ‖q‖·R, also
        # to a subnormal, or overflowed to inf. The first head must not
        # settle the row, and item 1 must win the tie with item 11: in a
        # second head that holds item 1, or in the full scan
        table = np.tile(np.float32([b / 2, 0.0]), (128, 1))
        table[1] = [b, 0.0]
        table[10:26] = [b, 10 * b]
        table[10, 0] = 2 * b
        q = np.float32([[[a, 0.0]]])
        assert (q @ table[1])[0, 0] > np.float64(q[0, 0, 0]) * np.float64(table[1, 0])
        np.testing.assert_array_equal(np.sort(_first_head(table, 2)), np.r_[10:26])
        levels, scans = [], []
        settle, rank_rows = serve_eval._settle_in_head, serve_eval._rank_rows

        def settle_spy(interests, n, exclude, e_global, head):
            result = settle(interests, n, exclude, e_global, head)
            levels.append((len(head[0]) - 1, 1 in head[0], bool(result[1][0])))
            return result

        monkeypatch.setattr(serve_eval, "_settle_in_head", settle_spy)
        monkeypatch.setattr(serve_eval, "_rank_rows", lambda interests, items_t, *args: (
            scans.append(items_t.shape[1]), rank_rows(interests, items_t, *args))[1])
        got = serve_eval._rank_by_norm(q, table, [2], _pairs([set()]))
        # the first head settles nothing. A normal score predicts a second
        # head of 17 items, item 1 among them, which settles the row; a
        # subnormal or infinite one sends the row to the full scan
        normal = float(np.finfo(np.float32).tiny) < a * b < float(np.finfo(np.float32).max)
        assert levels == [(16, False, False)] + ([(17, True, True)] if normal else [])
        assert scans == ([] if normal else [128])
        np.testing.assert_array_equal(got, oracles.rank_rows_full_partition(
            q, table.T.copy(), np.array([2]), _pairs([set()])))
        if a < 2:   # finite scores
            np.testing.assert_array_equal(got, [[10, 1]])

    @pytest.mark.parametrize("d", [1, 3, 16, 32, 33, 64, 100, 512])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_row_norms_equal_float64_copy_norms(self, d, dtype):
        rng = np.random.default_rng(d)
        table = (rng.normal(size=(3001, d))
                 * rng.lognormal(0, 4, size=(3001, 1))).astype(dtype)
        wide = table.astype(np.float64)
        expect = np.sqrt(np.einsum("vd,vd->v", wide, wide))
        np.testing.assert_array_equal(serve_eval._row_norms(table), expect)
        np.testing.assert_array_equal(serve_eval._row_norms(table[::7]), expect[::7])


def build_model(seed, n_items=12, d=8, k=2, l_rec=4, l_time=5):
    from helpers import random_sequences
    from gimirec.global_context import AblationVariant, build_weighted_adjacency, extract_hop_pairs
    rng = np.random.default_rng(seed)
    seqs = random_sequences(rng, n_users=6, n_items=n_items, max_len=10,
                            min_len=6)
    acc = extract_hop_pairs(seqs, AblationVariant.FULL, 0.5, 0.5,
                            float(l_time), 1)
    adj = build_weighted_adjacency(acc, 3.0, 2.0, 1.0, n_items)
    dims = ModelDims(n_items + 1, d, k, l_rec, l_time, 2, 1)
    params = ModelParams.init(dims, rng, dtype=np.float64)
    return seqs, params, cast_adjacency(adj.a_norm, np.float64)


def planted_model(tmp_path):
    """(sequences, params, a_norm, users): a planted-cluster bundle's users
    plus one whose prefix leaves fewer than 20 unseen items, and a float32
    model; users are the test and valid splits and that extra user."""
    cfg = PlantedConfig(n_clusters=3, items_per_cluster=12, n_users=60,
                        n_hot_items=8, n_tail_items=50)
    write_log(tmp_path / "log.csv", planted_cluster_records(cfg, seed=4))
    bundle, _ = prepare(tmp_path / "log.csv", tmp_path / "bundle", seed=4)
    hp = HyperParams(d=16, k=3, l_rec=8, l_time=8, n_heads=2, n_layers=1)
    a_norm = cast_adjacency(build_adjacency_from_bundle(bundle, hp).a_norm,
                            np.float32)
    v = bundle.split.item_vocab.size
    dims = ModelDims(v, hp.d, hp.k, hp.l_rec, hp.l_time, hp.n_heads, hp.n_layers)
    params = ModelParams.init(dims, np.random.default_rng(4), dtype=np.float32)
    extra = 0
    while v - 1 - (8 * (v - 1 + extra)) // 10 >= 20:
        extra += 1
    items = np.r_[np.arange(1, v), np.arange(1, 1 + extra)]
    sequences = sequences_of(*((s.items, s.timestamps) for s in bundle.sequences),
                             (items, np.arange(1, items.size + 1)))
    users = np.r_[bundle.split.test_users, bundle.split.valid_users,
                  len(bundle.sequences)]
    return sequences, params, a_norm, users


def hub_model(tmp_path):
    """(sequences, params, a_norm, users): a planted-cluster bundle of ~400
    items and a float32 model whose item table has five hub rows scaled
    ×50; users are the test and valid splits."""
    cfg = PlantedConfig(n_clusters=30, items_per_cluster=12, n_users=200,
                        n_hot_items=8, n_tail_items=50)
    write_log(tmp_path / "log.csv", planted_cluster_records(cfg, seed=4))
    bundle, _ = prepare(tmp_path / "log.csv", tmp_path / "bundle", seed=4)
    hp = HyperParams(d=16, k=3, l_rec=8, l_time=8, n_heads=2, n_layers=1)
    a_norm = cast_adjacency(build_adjacency_from_bundle(bundle, hp).a_norm,
                            np.float32)
    v = bundle.split.item_vocab.size
    dims = ModelDims(v, hp.d, hp.k, hp.l_rec, hp.l_time, hp.n_heads, hp.n_layers)
    params = ModelParams.init(dims, np.random.default_rng(4), dtype=np.float32)
    hubs = np.random.default_rng(0).choice(np.arange(1, v), 5, replace=False)
    params.item_table.data[hubs] *= 50
    users = np.r_[bundle.split.test_users, bundle.split.valid_users]
    return bundle.sequences, params, a_norm, users


class TestHeadInEvaluation:
    def test_settled_rows_skip_the_full_scan(self, tmp_path, monkeypatch):
        sequences, params, a_norm, users = hub_model(tmp_path)
        v = params.dims.n_items
        full_rows = []
        rank_block = serve_eval._rank_block

        def counted(score, *args):
            if score.shape[1] == v:
                full_rows.append(len(score))
            return rank_block(score, *args)

        monkeypatch.setattr(serve_eval, "_rank_block", counted)
        monkeypatch.setattr(serve_eval, "_EVAL_CHUNK", 16)
        got = evaluate(sequences, users, params, a_norm, n_list=(5, 10))
        with_head = sum(full_rows)
        full_rows.clear()
        with monkeypatch.context() as mp:
            mp.setattr(serve_eval, "_HEAD_CAP", v + 1)   # no head fits the cap
            expect = evaluate(sequences, users, params, a_norm, n_list=(5, 10))
        assert got == expect
        assert sum(full_rows) == got.user_count == users.size
        assert 0 < with_head < users.size

    def test_table_copied_once_and_only_for_the_full_scan(self, tmp_path, monkeypatch):
        sequences, params, a_norm, users = hub_model(tmp_path)
        prefixes = holdout_split(sequences, users).prefixes
        shape = (params.dims.d, params.dims.n_items)
        log = _watch_levels(monkeypatch)
        copies, first_level = [], []
        ascontiguousarray, settle = np.ascontiguousarray, serve_eval._settle_in_head

        def copy_spy(a, *args, **kwargs):
            copies.append(np.shape(a) == shape)
            return ascontiguousarray(a, *args, **kwargs)

        def settle_spy(interests, n, exclude, e_global, head):
            result = settle(interests, n, exclude, e_global, head)
            first_level.append(result[1])
            return result

        monkeypatch.setattr(serve_eval, "_settle_in_head", settle_spy)
        monkeypatch.setattr(np, "ascontiguousarray", copy_spy)
        monkeypatch.setattr(serve_eval, "_EVAL_CHUNK", 8)
        ranked = recommend(params, a_norm, prefixes, 10)
        # some rows reach the full scan, one call over one copy
        assert [entry[0] for entry in log].count("scan") == 1
        assert sum(copies) == 1
        settled = np.flatnonzero(first_level[0])
        assert 8 < settled.size < len(prefixes)
        copies.clear()
        log.clear()
        again = recommend(params, a_norm, prefixes.subset(settled), 10)
        assert [entry[0] for entry in log] == ["head"] and sum(copies) == 0
        np.testing.assert_array_equal(again, ranked[settled])

    def test_top_n_builds_no_head(self, tmp_path, monkeypatch):
        sequences, params, a_norm, _ = hub_model(tmp_path)
        e_global = compute_global_table(params, a_norm)
        vectors = infer_interests(sequences[0], len(sequences[0]), params, a_norm)
        # recommend would try a first head of 8·10 items under the V // 4 cap
        assert serve_eval._HEAD_PER_N * 10 < len(e_global) // serve_eval._HEAD_CAP

        def never(*_):
            raise AssertionError("top_n built a head")

        monkeypatch.setattr(serve_eval, "_row_norms", never)
        monkeypatch.setattr(serve_eval, "_settle_in_head", never)
        expect = oracles.top_n_per_user(vectors, e_global, 10, set())
        np.testing.assert_array_equal(top_n(vectors, e_global, 10), expect)


class TestInferAndEvaluate:
    def test_infer_deterministic(self):
        seqs, params, a_norm = build_model(0)
        a = infer_interests(seqs[0], 5, params, a_norm, time_unit_seconds=1)
        b = infer_interests(seqs[0], 5, params, a_norm, time_unit_seconds=1)
        np.testing.assert_array_equal(a, b)
        assert a.shape == (2, 8)

    @pytest.mark.parametrize("prefix", [0, -1])
    def test_infer_rejects_empty_prefix(self, prefix):
        seqs, params, a_norm = build_model(0)
        with pytest.raises(ValueError, match="^prefix must contain at least one interaction$"):
            infer_interests(seqs[0], prefix, params, a_norm, time_unit_seconds=1)

    def test_infer_shares_training_forward_path(self):
        seqs, params, a_norm = build_model(1)
        prefix = 5
        got = infer_interests(seqs[0], prefix, params, a_norm,
                              time_unit_seconds=1)
        window = make_window(seqs[0], prefix + 1, params.dims.l_rec)
        items, buckets, mask = stack_windows([window], params.dims.l_time, 1)
        expect, _ = forward_interests(params, a_norm, items, buckets, mask)
        np.testing.assert_array_equal(got, expect.data[0])

    def test_table_forward_matches_adjacency_rows(self, monkeypatch):
        seqs, base_params, base_a_norm = build_model(6)
        # single-item, partial and full windows (l_rec = 4); a fully padded
        # one is rejected the same way by every path
        picks, prefixes = seqs.subset([0, 1, 2]), [1, 2, 6]
        first = seqs.subset([0])

        def columns(s):
            return s.items, s.timestamps, s.starts, s.lengths

        for dtype in (np.float32, np.float64):
            params, a_norm = base_params.astype(dtype), base_a_norm.astype(dtype)
            e_global = ad.Tensor(compute_global_table(params, a_norm))

            def forward(columns, prefix_lens, from_table):
                windows = serve_eval._windows(columns, prefix_lens, params.dims, 1)
                with ad.no_grad():
                    if from_table:
                        return forward_from_table(params, e_global, *windows)[0].data
                    return forward_interests(params, a_norm, *windows)[0].data

            for from_table in (True, False):
                with pytest.raises(ValueError, match="no center"):
                    forward(columns(first), [0], from_table)
            got = forward(columns(picks), prefixes, True)
            rows = forward(columns(picks), prefixes, False)
            with monkeypatch.context() as mp:
                mp.setattr(ad, "spmm_rows", oracles.spmm_full_table)
                full = forward(columns(picks), prefixes, False)
            assert got.dtype == dtype
            np.testing.assert_array_equal(got, rows)
            np.testing.assert_array_equal(got, full)

    def test_evaluate_computes_the_global_product_once(self, tmp_path, monkeypatch):
        sequences, params, a_norm, users = planted_model(tmp_path)
        monkeypatch.setattr(serve_eval, "_EVAL_CHUNK", 5)
        expect = oracles.evaluate_per_user(sequences, users, params, a_norm,
                                           n_list=(5, 20))
        calls = []
        table = serve_eval.compute_global_table

        def counted(*args):
            calls.append(args)
            return table(*args)

        def never(*_):
            raise AssertionError("evaluate recomputed global rows")

        monkeypatch.setattr(serve_eval, "compute_global_table", counted)
        monkeypatch.setattr(ad, "spmm_rows", never)
        got = evaluate(sequences, users, params, a_norm, n_list=(5, 20))
        assert len(calls) == 1
        assert got == expect

    def test_prefix_floor_rule(self):
        # 5 interactions -> prefix 4, ground truth 1
        seqs, params, a_norm = build_model(2)
        seq = sequences_of(([1, 2, 3, 4, 5], np.arange(1, 6)))
        report = evaluate(seq, np.array([0]), params, a_norm, n_list=(3,),
                          time_unit_seconds=1)
        assert report.user_count == 1

    def test_identical_users_mean_equals_single(self):
        seqs, params, a_norm = build_model(3)
        pair = seqs[0].items, seqs[0].timestamps
        solo = evaluate(sequences_of(pair), np.array([0]), params, a_norm, n_list=(4,),
                        time_unit_seconds=1)
        both = evaluate(sequences_of(pair, pair), np.array([0, 1]), params, a_norm,
                        n_list=(4,), time_unit_seconds=1)
        assert both.user_count == 2
        assert both.per_n[4] == solo.per_n[4]

    def test_three_user_hand_computation(self):
        seqs, params, a_norm = build_model(4)
        users = np.array([0, 1, 2])
        n = 4
        report = evaluate(seqs, users, params, a_norm, n_list=(n,),
                          time_unit_seconds=1)
        e_global = compute_global_table(params, a_norm)
        rows = []
        for u in users:
            seq = seqs[u]
            prefix = (8 * len(seq)) // 10
            truth = set(seq.items[prefix:].tolist())
            vecs = infer_interests(seq, prefix, params, a_norm,
                                   time_unit_seconds=1)
            ranked = top_n(vecs, e_global, n, set(seq.items[:prefix].tolist()))
            rows.append(metrics_oracle(ranked.tolist(), truth, n))
        expect = np.array(rows).mean(axis=0)
        got = report.per_n[n]
        assert (got.recall, got.ndcg, got.hit_rate) == pytest.approx(tuple(expect))

    def test_user_with_fewer_candidates_than_n_scores_shorter_list(self):
        # 12 items, prefix excludes 8 of them: 4 candidates for N up to 6
        seqs, params, a_norm = build_model(8)
        pair = np.arange(1, 11), np.arange(1, 11)
        report = evaluate(sequences_of((seqs[0].items, seqs[0].timestamps), pair),
                          np.array([0, 1]), params, a_norm, n_list=(3, 6),
                          time_unit_seconds=1)
        assert report.user_count == 2
        seq = sequences_of(pair)
        solo = evaluate(seq, np.array([0]), params, a_norm, n_list=(3, 6),
                        time_unit_seconds=1)
        assert (solo.per_n[6].recall, solo.per_n[6].hit_rate) == (1.0, 1.0)
        vecs = infer_interests(seq[0], 8, params, a_norm, time_unit_seconds=1)
        ranked = top_n(vecs, compute_global_table(params, a_norm), 4,
                       set(range(1, 9)))
        for n in (3, 6):
            assert solo.per_n[n] == MetricRow(*metrics(ranked, {9, 10}, n))

    @pytest.mark.parametrize("threads", [0, 2])
    def test_threads_other_than_one_rejected(self, threads):
        seqs, params, a_norm = build_model(5)
        with pytest.raises(ValueError, match=f"^threads must be 1 .*got {threads}$"):
            evaluate(seqs, np.arange(len(seqs)), params, a_norm, threads=threads)

    def test_cutoff_past_the_catalog_allocates_by_the_catalog(self):
        # 12 real items: every list ends at the catalog, so N = 10⁶ costs what
        # N = 12 does (the (users, N) matrices took 234 MiB at a 194-item
        # catalog) and scores as the per-user oracle does at that N
        seqs, params, a_norm = build_model(5)
        users = np.arange(len(seqs))
        n_list = (3, 12, 20, 10**6)
        got, peak = traced_peak(evaluate, seqs, users, params, a_norm, n_list=n_list)
        assert peak < 2**22
        assert got == oracles.evaluate_per_user(seqs, users, params, a_norm, n_list=n_list)
        assert got.per_n[10**6] == got.per_n[12] == got.per_n[20]

    def test_removed_residual_option_rejected(self):
        seqs, params, a_norm = build_model(5)
        users = np.arange(len(seqs))
        with pytest.raises(ValueError, match=r"^residual must be False \(the option "
                                             r"was removed\)$"):
            evaluate(seqs, users, params, a_norm, residual=True)
        assert (evaluate(seqs, users, params, a_norm, residual=False)
                == evaluate(seqs, users, params, a_norm))

    def test_matches_per_user_evaluation(self, tmp_path, monkeypatch):
        sequences, params, a_norm, users = planted_model(tmp_path)
        # several forward chunks and several score blocks
        monkeypatch.setattr(serve_eval, "_EVAL_CHUNK", 5)
        monkeypatch.setattr(serve_eval, "_SCORE_BLOCK_BYTES",
                            2 * params.dims.k * params.dims.n_items * 4)
        got = evaluate(sequences, users, params, a_norm, n_list=(5, 20), threads=1)
        expect = oracles.evaluate_per_user(sequences, users, params, a_norm,
                                           n_list=(5, 20))
        assert got.user_count == users.size
        assert got == expect

    def test_matches_per_user_evaluation_on_split_edge_cases(self, tmp_path,
                                                            monkeypatch):
        sequences, params, a_norm, users = planted_model(tmp_path)
        base = len(sequences)
        ts = np.arange(1, 11)
        sequences = sequences_of(
            *((s.items, s.timestamps) for s in sequences),
            # held-out item 2 repeats a prefix item: never ranked, still in |truth|
            (np.r_[1:9, 2, 9], ts),
            # held-out items repeat: |truth| = 1
            (np.r_[1:9, 9, 9], ts),
            # skipped: an empty prefix, then an empty prefix and truth
            ([3], [5]),
            ([], []),
        )
        # duplicate and unsorted user indices, skipped users among them
        users = np.r_[base + 1, users[::-1], base + 2, base, base + 3, users[:7],
                      base + 1, base]
        monkeypatch.setattr(serve_eval, "_EVAL_CHUNK", 7)
        got = evaluate(sequences, users, params, a_norm, n_list=(20, 5))
        expect = oracles.evaluate_per_user(sequences, users, params, a_norm,
                                           n_list=(20, 5))
        assert got.user_count == users.size - 2
        assert got == expect
        assert list(got.per_n) == [20, 5]

    @pytest.mark.parametrize("bad", [-1, 6])
    def test_user_index_outside_sequences_rejected(self, bad):
        seqs, params, a_norm = build_model(5)
        with pytest.raises(ValueError, match=f"user index {bad} outside 0..5$"):
            evaluate(seqs, np.array([0, bad]), params, a_norm, n_list=(4,),
                     time_unit_seconds=1)
        with pytest.raises(ValueError, match=f"user index {bad} outside 0..5$"):
            evaluate_ranker(seqs, [bad], no_lists)

    def test_report_dict_shape(self):
        seqs, params, a_norm = build_model(6)
        report = evaluate(seqs, np.array([0]), params, a_norm, n_list=(2, 4),
                          time_unit_seconds=1)
        payload = report.to_dict()
        assert set(payload["metrics"]) == {"2", "4"}
        assert set(payload["metrics"]["2"]) == {"recall", "ndcg", "hit_rate"}


class TestRecommend:
    def test_rows_match_per_user_scan(self, monkeypatch):
        seqs, params, a_norm = build_model(9)
        # a repeated user, and one holding 10 of the 12 items: 2 candidates
        sequences = seqs.subset([0, 3, 0, 5, 1, 2, 4])
        sequences = sequences_of(*((s.items, s.timestamps) for s in sequences),
                                 (np.r_[1:11], np.arange(1, 11)))
        monkeypatch.setattr(serve_eval, "_EVAL_CHUNK", 3)
        n = 4
        got = recommend(params, a_norm, sequences, n, 1)
        assert got.dtype == np.int64
        e_global = compute_global_table(params, a_norm)
        excludes = [set(s.items.tolist()) for s in sequences]
        interests = [infer_interests(s, len(s), params, a_norm, 1) for s in sequences]
        ns = [min(n, e_global.shape[0] - 1 - len(ex)) for ex in excludes]
        assert ns[-1] == 2
        _assert_rows_match_per_user_scan(got, interests, e_global, ns, excludes)
        np.testing.assert_array_equal(got[0], got[2])

    @pytest.mark.parametrize("n, item, message", [
        (-1, 5, "n must be at least 1, got -1"), (0, 5, "n must be at least 1, got 0"),
        (4, 99, "item 99 outside 1..12"), (4, -1, "item -1 outside 1..12"),
        (4, 0, "item 0 outside 1..12"), (4, 13, "item 13 outside 1..12")])
    def test_bad_input_rejected_before_the_global_table(self, monkeypatch, n, item,
                                                        message):
        seqs, params, a_norm = build_model(9)
        sequences = sequences_of((seqs[0].items, seqs[0].timestamps),
                                 ([3, item, 4], [1, 2, 3]))

        def never(*_):
            raise AssertionError("computed the global table before the checks")

        monkeypatch.setattr(serve_eval, "compute_global_table", never)
        with pytest.raises(ValueError, match=f"^{message}$"):
            recommend(params, a_norm, sequences, n)

    def test_empty_sequences_skip_the_global_table(self, monkeypatch):
        _, params, a_norm = build_model(9)

        def never(*_):
            raise AssertionError("computed the global table for no rows")

        monkeypatch.setattr(serve_eval, "compute_global_table", never)
        got = recommend(params, a_norm, Sequences([], [], []), 5)
        assert got.shape == (0, 5) and got.dtype == np.int64


def no_lists(prefixes, n):
    return np.full((len(prefixes), n), -1, dtype=np.int64)


class TestEmptySplit:
    """No scored user: an empty user list, or users with fewer than 2
    interactions, give empty pairs and a zero report."""

    def test_holdout_split_of_no_users(self):
        seqs, _, _ = build_model(5)
        split = holdout_split(seqs, [])
        assert len(split.prefixes) == 0
        assert all(column.size == 0 for column in split.truth)

    def test_evaluate_ranker_on_users_too_short_to_split(self):
        seqs = sequences_of(([3], [1]), ([], []), ([4, 5, 6], [1, 2, 3]))
        report = evaluate_ranker(seqs, [0, 1, 0], no_lists, n_list=(5, 2))
        assert report == MetricsReport({5: MetricRow(0.0, 0.0, 0.0),
                                        2: MetricRow(0.0, 0.0, 0.0)}, 0)

    def test_evaluate_of_no_users(self):
        seqs, params, a_norm = build_model(5)
        report = evaluate(seqs, [], params, a_norm, n_list=(4,))
        assert report.user_count == 0 and report.per_n[4] == MetricRow(0.0, 0.0, 0.0)


class TestBaselines:
    def test_popularity_ranks_by_count(self):
        seqs = sequences_of(([1, 1, 2, 3, 3, 3], np.arange(1, 7)))
        counts = popularity_counts(seqs, 5)
        np.testing.assert_array_equal(counts, [0, 2, 1, 3, 0])
        rows = sequences_of(([], []), ([3], [1]))
        np.testing.assert_array_equal(popularity_lists(counts, rows, 3),
                                      [[3, 1, 2], [1, 2, 4]])
        # only candidates: never the padding row or an item the row holds
        np.testing.assert_array_equal(
            popularity_lists(np.array([0, 5, 3, 9, 1]), sequences_of(([3, 1, 3], [1, 2, 3])),
                             4), [[2, 4, -1, -1]])

    def test_popularity_counts_reject_item_outside_vocabulary(self):
        with pytest.raises(IndexError, match="^item index 5 outside a vocabulary of 5$"):
            popularity_counts(sequences_of(([1, 5], [1, 2])), 5)

    def test_random_ranker_excludes_and_covers(self):
        rng = np.random.default_rng(0)
        # the second row holds 17 of the 19 items: 2 candidates
        ranked = random_lists(rng, 20, sequences_of(([5, 6], [1, 2]),
                                                    (np.r_[1:18], np.arange(17))), 10)
        assert ranked.shape == (2, 10) and ranked.dtype == np.int64
        assert len(set(ranked[0].tolist())) == 10
        assert not {-1, 0, 5, 6} & set(ranked[0].tolist())
        assert sorted(ranked[1, :2].tolist()) == [18, 19]
        np.testing.assert_array_equal(ranked[1, 2:], -1)

    @pytest.mark.parametrize("ranker", ["popularity", "random"])
    def test_bad_input_rejected(self, ranker):
        rank = {"popularity": lambda s, n: popularity_lists(np.arange(6), s, n),
                "random": lambda s, n: random_lists(np.random.default_rng(0), 6, s, n)}
        with pytest.raises(ValueError, match="^n must be at least 1, got 0$"):
            rank[ranker](sequences_of(([1], [1])), 0)
        with pytest.raises(ValueError, match="^item 6 outside 1..5$"):
            rank[ranker](sequences_of(([6], [1])), 3)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_reports_match_per_user_oracles(self, data):
        """Count ties and zero counts, rows with fewer candidates than n, and
        repeated and skipped users."""
        vocab = data.draw(st.integers(2, 10), label="vocab")
        rows = data.draw(st.lists(st.lists(st.integers(1, vocab - 1), max_size=12),
                                  min_size=1, max_size=8), label="rows")
        seqs = sequences_of(*((r, np.arange(len(r))) for r in rows))
        counts = np.array(data.draw(st.lists(st.integers(0, 3), min_size=vocab,
                                             max_size=vocab), label="counts"))
        users = data.draw(st.lists(st.integers(0, len(rows) - 1), max_size=12), label="users")
        n_list = tuple(data.draw(st.lists(st.integers(1, 12), min_size=1, max_size=3),
                                 label="n_list"))
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        got = evaluate_ranker(seqs, users, lambda p, n: popularity_lists(counts, p, n),
                              n_list)
        assert got == oracles.evaluate_ranker_per_user(
            seqs, users, lambda n, ex: oracles.popularity_top_n(counts, n, ex), n_list)
        rng, rng_oracle = np.random.default_rng(seed), np.random.default_rng(seed)
        got = evaluate_ranker(seqs, users, lambda p, n: random_lists(rng, vocab, p, n),
                              n_list)
        assert got == oracles.evaluate_ranker_per_user(
            seqs, users, lambda n, ex: oracles.random_top_n(rng_oracle, vocab, n, ex),
            n_list)

    def test_evaluate_ranker_protocol_matches_evaluate_shape(self):
        seqs, params, a_norm = build_model(7)
        users = np.arange(len(seqs))
        counts = popularity_counts(seqs, 13)
        report = evaluate_ranker(seqs, users, lambda prefixes, n: popularity_lists(
            counts, prefixes, n), n_list=(4,))
        assert isinstance(report, MetricsReport)
        assert report.user_count == len(seqs)
        assert 0.0 <= report.per_n[4].recall <= 1.0

    def test_ranker_repeating_an_item_rejected(self):
        seqs, _, _ = build_model(7)
        with pytest.raises(ValueError, match="must not repeat an item"):
            evaluate_ranker(seqs, np.arange(len(seqs)),
                            lambda prefixes, n: np.tile([12, 11, 12, -1], (len(prefixes), 1)),
                            n_list=(4,))

    @pytest.mark.parametrize("n_list", [(0,), (5, 0), (-3,), ()])
    def test_cutoffs_below_one_rejected_before_any_work(self, n_list):
        seqs, params, a_norm = build_model(7)
        users = np.arange(len(seqs))

        def never_called(*_):
            raise AssertionError("ranked before the cutoffs were checked")

        got = ", ".join(map(str, n_list))
        with pytest.raises(ValueError, match=f"cutoffs must be at least 1, got {got}$"):
            evaluate_ranker(seqs, users, never_called, n_list=n_list)
        with pytest.raises(ValueError, match=f"cutoffs must be at least 1, got {got}$"):
            evaluate(seqs, users, None, a_norm, n_list=n_list)
