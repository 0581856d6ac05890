"""Metrics, exact retrieval and the 80/20 evaluation protocol."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gimirec import autodiff as ad
from gimirec.ingest import UserSequence
from gimirec.model import ModelDims, ModelParams, cast_adjacency, forward_interests
from gimirec.recent import make_window, stack_windows
from gimirec.serve_eval import (MetricRow, MetricsReport, _batched_interests,
                                compute_global_table,
                                evaluate, evaluate_ranker, infer_interests,
                                metrics, popularity_counts, popularity_top_n,
                                random_top_n, top_n)

import oracles
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

    def test_too_many_requested(self):
        with pytest.raises(ValueError):
            top_n(np.ones((1, 2)), np.zeros((4, 2)), 4)


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


class TestInferAndEvaluate:
    def test_infer_deterministic(self):
        seqs, params, a_norm = build_model(0)
        a = infer_interests(seqs[0], 5, params, a_norm, time_unit_seconds=1)
        b = infer_interests(seqs[0], 5, params, a_norm, time_unit_seconds=1)
        np.testing.assert_array_equal(a, b)
        assert a.shape == (2, 8)

    def test_infer_shares_training_forward_path(self):
        seqs, params, a_norm = build_model(1)
        prefix = 5
        got = infer_interests(seqs[0], prefix, params, a_norm,
                              time_unit_seconds=1)
        window = make_window(seqs[0], prefix + 1, params.dims.l_rec)
        items, buckets, mask = stack_windows([window], params.dims.l_time, 1)
        expect, _ = forward_interests(params, a_norm, items, buckets, mask)
        np.testing.assert_array_equal(got, expect.data[0])

    def test_batched_interests_match_full_global_table(self, monkeypatch):
        seqs, params, a_norm = build_model(6)
        params, a_norm = params.astype(np.float32), a_norm.astype(np.float32)
        # single-item, partial and full windows (l_rec = 4); a fully padded
        # one is rejected the same way by both
        picks, prefixes = seqs[:3], [1, 2, 6]

        def run():
            with pytest.raises(ValueError, match="no center"):
                _batched_interests(picks[:1], [0], params, a_norm, 1, False)
            return _batched_interests(picks, prefixes, params, a_norm, 1, False)

        new = run()
        monkeypatch.setattr(ad, "spmm_rows", oracles.spmm_full_table)
        old = run()
        assert new.dtype == np.float32
        np.testing.assert_array_equal(new, old)

    def test_prefix_floor_rule(self):
        # 5 interactions -> prefix 4, ground truth 1
        seqs, params, a_norm = build_model(2)
        seq = UserSequence(0, np.array([1, 2, 3, 4, 5]), np.arange(1, 6))
        report = evaluate([seq], np.array([0]), params, a_norm, n_list=(3,),
                          time_unit_seconds=1)
        assert report.user_count == 1

    def test_identical_users_mean_equals_single(self):
        seqs, params, a_norm = build_model(3)
        seq = seqs[0]
        twin = UserSequence(1, seq.items.copy(), seq.timestamps.copy())
        solo = evaluate([seq], np.array([0]), params, a_norm, n_list=(4,),
                        time_unit_seconds=1)
        both = evaluate([seq, twin], np.array([0, 1]), params, a_norm,
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
        seq = UserSequence(0, np.arange(1, 11), np.arange(1, 11))
        report = evaluate([seqs[0], seq], np.array([0, 1]), params, a_norm,
                          n_list=(3, 6), time_unit_seconds=1)
        assert report.user_count == 2
        solo = evaluate([seq], np.array([0]), params, a_norm, n_list=(3, 6),
                        time_unit_seconds=1)
        assert (solo.per_n[6].recall, solo.per_n[6].hit_rate) == (1.0, 1.0)
        vecs = infer_interests(seq, 8, params, a_norm, time_unit_seconds=1)
        ranked = top_n(vecs, compute_global_table(params, a_norm), 4,
                       set(range(1, 9)))
        for n in (3, 6):
            assert solo.per_n[n] == MetricRow(*metrics(ranked, {9, 10}, n))

    def test_thread_count_does_not_change_results(self):
        seqs, params, a_norm = build_model(5)
        users = np.arange(len(seqs))
        one = evaluate(seqs, users, params, a_norm, n_list=(4,),
                       time_unit_seconds=1, threads=1)
        four = evaluate(seqs, users, params, a_norm, n_list=(4,),
                        time_unit_seconds=1, threads=4)
        assert one.per_n[4] == four.per_n[4]
        assert one.user_count == four.user_count

    def test_report_dict_shape(self):
        seqs, params, a_norm = build_model(6)
        report = evaluate(seqs, np.array([0]), params, a_norm, n_list=(2, 4),
                          time_unit_seconds=1)
        payload = report.to_dict()
        assert set(payload["metrics"]) == {"2", "4"}
        assert set(payload["metrics"]["2"]) == {"recall", "ndcg", "hit_rate"}


class TestBaselines:
    def test_popularity_ranks_by_count(self):
        seqs = [UserSequence(0, np.array([1, 1, 2, 3, 3, 3]),
                             np.arange(1, 7))]
        counts = popularity_counts(seqs, 5)
        np.testing.assert_array_equal(counts, [0, 2, 1, 3, 0])
        np.testing.assert_array_equal(popularity_top_n(counts, 3), [3, 1, 2])
        np.testing.assert_array_equal(popularity_top_n(counts, 2, {3}), [1, 2])
        # only candidates: never the padding row or an excluded item
        np.testing.assert_array_equal(
            popularity_top_n(np.array([0, 5, 3, 9, 1]), 4, {3, 1}), [2, 4])

    def test_random_ranker_excludes_and_covers(self):
        rng = np.random.default_rng(0)
        ranked = random_top_n(rng, 20, 10, {5, 6})
        assert len(ranked) == 10
        assert not {0, 5, 6} & set(ranked.tolist())

    def test_evaluate_ranker_protocol_matches_evaluate_shape(self):
        seqs, params, a_norm = build_model(7)
        users = np.arange(len(seqs))
        report = evaluate_ranker(
            seqs, users, lambda n, ex: popularity_top_n(
                popularity_counts(seqs, 13), n, ex), n_list=(4,))
        assert isinstance(report, MetricsReport)
        assert report.user_count == len(seqs)
        assert 0.0 <= report.per_n[4].recall <= 1.0
