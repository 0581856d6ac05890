"""Recent windows, interval matrices and interval attention."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gimirec import autodiff as ad
from gimirec.recent import (cut_windows, interval_attention, make_window, stack_windows,
                            window_buckets)

from helpers import fd_check, sequences_of
from oracles import (bucketize, interval_attention_chain, interval_attention_oracle,
                     interval_matrices, interval_matrix, make_window_slices)


def seq(items, ts):
    return sequences_of((items, ts))[0]


class TestMakeWindow:
    def test_left_padding(self):
        w = make_window(seq([11, 12, 13], [5, 6, 7]), end_pos=3, l_rec=5)
        np.testing.assert_array_equal(w.items, [0, 0, 0, 11, 12])
        np.testing.assert_array_equal(w.mask, [False, False, False, True, True])

    def test_truncates_to_last_l_rec(self):
        items = np.arange(1, 31)
        w = make_window(seq(items, np.arange(1, 31)), end_pos=30, l_rec=20)
        np.testing.assert_array_equal(w.items, items[9:29])
        assert w.mask.all()

    def test_pad_timestamps_copy_earliest_real(self):
        w = make_window(seq([4, 5], [100, 200]), end_pos=3, l_rec=4)
        np.testing.assert_array_equal(w.timestamps, [100, 100, 100, 200])

    def test_end_pos_zero_rejected(self):
        with pytest.raises(ValueError):
            make_window(seq([1], [1]), end_pos=0, l_rec=3)

    def test_end_pos_one_past_end_gives_full_history(self):
        w = make_window(seq([1, 2], [1, 2]), end_pos=3, l_rec=2)
        np.testing.assert_array_equal(w.items, [1, 2])

    def test_end_pos_beyond_rejected(self):
        with pytest.raises(ValueError):
            make_window(seq([1, 2], [1, 2]), end_pos=4, l_rec=2)


class TestCutWindows:
    @given(st.lists(st.integers(0, 7), min_size=1, max_size=5),
           st.integers(1, 6), st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_matches_make_window_for_every_end(self, lengths, l_rec, seed):
        # ends run to len+1 (serving) and lengths to 7 around l_rec 1..6, so
        # both full and shorter-than-l_rec windows occur
        rng = np.random.default_rng(seed)
        seqs = sequences_of(*[(rng.integers(1, 50, n), np.sort(rng.integers(1, 10**6, n)))
                              for n in lengths])
        items, timestamps, starts, lens = seqs.items, seqs.timestamps, seqs.starts, seqs.lengths
        rows = np.repeat(np.arange(len(seqs)), [len(s) + 1 for s in seqs])
        ends = np.concatenate([np.arange(1, len(s) + 2) for s in seqs])
        got = cut_windows(items, timestamps, starts[rows], lens[rows], ends, l_rec)
        for i, (r, end) in enumerate(zip(rows, ends)):
            expect = make_window_slices(seqs[r], end, l_rec)
            window = make_window(seqs[r], end, l_rec)
            for cut, single, want in zip(got, (window.items, window.timestamps,
                                               window.mask), expect):
                np.testing.assert_array_equal(cut[i], want)
                np.testing.assert_array_equal(single, want)
        # an end of 0 or len+2 would read a neighbour's items: rejected
        for r, s in enumerate(seqs):
            for end in (0, len(s) + 2):
                with pytest.raises(ValueError,
                                   match=f"end_pos {end} outside 1..{len(s) + 1}$"):
                    cut_windows(items, timestamps, starts[[r]], lens[[r]], [end], l_rec)


class TestIntervalMatrix:
    def test_equal_timestamps_zero_block(self):
        w = make_window(seq([1, 2, 3], [50, 50, 50]), end_pos=3, l_rec=2)
        vals = interval_matrix(w, l_time=10.0, time_unit_seconds=1)
        np.testing.assert_array_equal(vals, np.zeros((2, 2)))

    def test_clamped_to_l_time(self):
        w = make_window(seq([1, 2, 9], [0 + 1, 100 * 86400, 2 * 100 * 86400]),
                        end_pos=3, l_rec=2)
        vals = interval_matrix(w, l_time=64.0)
        assert vals[0, 1] == 64.0 and vals[1, 0] == 64.0

    def test_pad_entries_maximal_and_diagonal_zero(self):
        w = make_window(seq([5, 6], [10, 20]), end_pos=3, l_rec=4)
        vals = interval_matrix(w, l_time=7.0, time_unit_seconds=1)
        off_diag = ~np.eye(4, dtype=bool)
        pad_involved = ~(w.mask[:, None] & w.mask[None, :])
        assert np.all(vals[off_diag & pad_involved] == 7.0)
        np.testing.assert_array_equal(np.diag(vals), np.zeros(4))

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = 6
            ts = np.sort(rng.integers(1, 2_000_000, size=n))
            w = make_window(seq(rng.integers(1, 9, n), ts), end_pos=n, l_rec=6)
            vals = interval_matrix(w, l_time=12.0)
            for i in range(6):
                for j in range(6):
                    if i == j:
                        expect = 0.0
                    elif not (w.mask[i] and w.mask[j]):
                        expect = 12.0
                    else:
                        dt = abs(int(w.timestamps[j]) - int(w.timestamps[i])) / 86400.0
                        expect = min(dt, 12.0)
                    assert vals[i, j] == expect

    def test_stacked_buckets_match_per_window(self):
        rng = np.random.default_rng(5)
        windows = []
        for _ in range(12):
            n = int(rng.integers(1, 9))
            ts = np.sort(rng.integers(1, 400_000, size=n))
            s = seq(rng.integers(1, 9, n), ts)
            # fully padded, single-item, partly padded and full windows
            windows += [make_window(s, 1, 6), make_window(s, 2, 6),
                        make_window(s, int(rng.integers(1, n + 2)), 6),
                        make_window(s, n + 1, 6)]
        items, buckets, mask = stack_windows(windows, l_time=5.0,
                                             time_unit_seconds=3600)
        assert buckets.shape == (len(windows), 6, 6)
        for w, got in zip(windows, buckets):
            np.testing.assert_array_equal(
                got, bucketize(interval_matrix(w, 5.0, 3600), 5.0))

    @given(st.integers(0, 2**31), st.lists(st.integers(1, 10**6), min_size=2,
                                           max_size=8))
    @settings(max_examples=50, deadline=None)
    def test_symmetric_zero_diagonal_clamped(self, base, gaps):
        ts = base + np.cumsum(np.asarray(gaps, dtype=np.int64))
        w = make_window(seq(np.arange(1, len(ts) + 1), ts),
                        end_pos=len(ts), l_rec=len(ts) + 2)
        vals = interval_matrix(w, l_time=5.0, time_unit_seconds=3600)
        np.testing.assert_array_equal(vals, vals.T)
        np.testing.assert_array_equal(np.diag(vals), 0.0)
        assert vals.min() >= 0.0 and vals.max() <= 5.0
        buckets = bucketize(vals, 5.0)
        assert buckets.min() >= 0 and buckets.max() <= 5


class TestWindowBuckets:
    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_equals_floored_interval_matrices(self, data):
        """int64 extremes and near timestamps, integer and non-integer
        l_time, and empty, partly padded and full windows."""
        b = data.draw(st.integers(1, 4), label="b")
        l = data.draw(st.integers(1, 6), label="l")
        stamp = st.one_of(st.sampled_from([-2**63, -1, 0, 2**63 - 1]),
                          st.integers(-2**63, 2**63 - 1), st.integers(0, 10**6))
        timestamps = np.array(data.draw(st.lists(st.lists(stamp, min_size=l, max_size=l),
                                                 min_size=b, max_size=b),
                                        label="timestamps"), dtype=np.int64)
        real = np.array(data.draw(st.lists(st.integers(0, l), min_size=b, max_size=b),
                                  label="real"))
        mask = np.arange(l) >= l - real[:, None]
        l_time = data.draw(st.one_of(st.sampled_from([0.3, 1, 5.5, 7, 64.0]),
                                     st.floats(0, 100)), label="l_time")
        unit = data.draw(st.one_of(st.sampled_from([1, 3600, 86400]),
                                   st.integers(1, 10**6)), label="unit")
        got = window_buckets(timestamps, mask, l_time, unit)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(
            got, bucketize(interval_matrices(timestamps, mask, l_time, unit), l_time))


def random_window_batch(rng, b, l, l_time):
    buckets = rng.integers(0, l_time + 1, size=(b, l, l))
    buckets = np.triu(buckets) + np.triu(buckets, 1).swapaxes(-1, -2)
    for i in range(l):
        buckets[:, i, i] = 0
    mask = np.ones((b, l), dtype=bool)
    for row in mask:
        row[:rng.integers(0, l - 1)] = False
    return buckets, mask


class TestIntervalAttention:
    def _params(self, rng, l_time, d, dtype=np.float64):
        table = ad.Tensor(rng.normal(size=(l_time + 1, d)).astype(dtype),
                          requires_grad=True)
        w = ad.Tensor(rng.normal(size=(d, 1)).astype(dtype), requires_grad=True)
        return table, w

    def test_single_real_item_returns_zero_bucket_row(self, softmax_probs):
        rng = np.random.default_rng(0)
        table, w = self._params(rng, 6, 4)
        buckets = np.zeros((1, 1, 1), dtype=np.int64)
        mask = np.ones((1, 1), dtype=bool)
        out = interval_attention(buckets, table, w, mask)
        (probs,) = softmax_probs
        np.testing.assert_allclose(probs[0], [[1.0]])
        np.testing.assert_allclose(out.data[0, 0], table.data[0], atol=1e-15)

    def test_equal_intervals_give_uniform_attention(self, softmax_probs):
        rng = np.random.default_rng(1)
        table, w = self._params(rng, 6, 4)
        buckets = np.full((1, 3, 3), 2, dtype=np.int64)
        mask = np.ones((1, 3), dtype=bool)
        out = interval_attention(buckets, table, w, mask)
        (probs,) = softmax_probs
        np.testing.assert_allclose(probs[0], np.full((3, 3), 1 / 3), atol=1e-12)
        np.testing.assert_allclose(out.data[0],
                                   np.tile(table.data[2], (3, 1)), atol=1e-12)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            buckets, mask = random_window_batch(rng, 3, 5, l_time=6)
            table, w = self._params(rng, 6, 8)
            out = interval_attention(buckets, table, w, mask)
            for bi in range(3):
                expect, _ = interval_attention_oracle(
                    buckets[bi], table.data, w.data, mask[bi])
                np.testing.assert_allclose(out.data[bi], expect, atol=1e-10)

    @given(seed=st.integers(0, 2**32 - 1), b=st.integers(1, 4), l=st.integers(1, 8),
           l_time=st.integers(0, 7), d=st.sampled_from([1, 4, 8]),
           dtype=st.sampled_from([np.float32, np.float64]))
    @settings(max_examples=200, deadline=None)
    def test_node_equals_primitive_chain(self, seed, b, l, l_time, d, dtype):
        """The node's output and both gradients equal those of the chain of
        primitives it replaced (gathered bucket scores, softmax, bucket sum,
        table product), kept as ``oracles.interval_attention_chain``: windows
        of no to all real items, one with a single item, a row whose keys
        share one bucket and buckets no key reads."""
        rng = np.random.default_rng(seed)
        buckets = rng.integers(0, l_time + 1, size=(b, l, l))
        buckets[0, -1] = l_time
        real = rng.integers(0, l + 1, size=b)
        real[0] = 1
        mask = np.arange(l) >= l - real[:, None]
        data = [rng.normal(size=(l_time + 1, d)), rng.normal(size=(d, 1))]
        g = rng.normal(size=(b, l, d)).astype(dtype)
        results = []
        for form in (interval_attention, interval_attention_chain):
            table, w = (ad.Tensor(x.astype(dtype), requires_grad=True) for x in data)
            out = form(buckets, table, w, mask)
            ad.sumt(ad.mul(out, ad.Tensor(g))).backward()
            results.append((out.data, table.grad, w.grad))
        for got, want in zip(*results):
            np.testing.assert_array_equal(got, want, strict=True)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(14)
        buckets, mask = random_window_batch(rng, 3, 5, l_time=4)
        buckets[1, 2] = 3  # every key of a row in one bucket
        mask[2] = [False, False, False, False, True]
        table, w = self._params(rng, 4, 3)
        weight = ad.Tensor(rng.normal(size=(3, 5, 3)))
        fd_check(lambda t, s: ad.mul(interval_attention(buckets, t, s, mask), weight),
                 [table, w])

    def test_rows_sum_to_one_and_pads_zero(self, softmax_probs):
        rng = np.random.default_rng(3)
        buckets, mask = random_window_batch(rng, 4, 6, l_time=5)
        table, w = self._params(rng, 5, 4)
        out = interval_attention(buckets, table, w, mask)
        (probs,) = softmax_probs
        np.testing.assert_allclose(probs[mask].sum(axis=-1), 1.0, atol=1e-6)
        assert np.all(out.data[~mask] == 0.0)
        # no attention mass on padding keys
        assert np.all(probs[:, :, :][~mask[:, None, :].repeat(6, 1)] == 0.0)

    def test_invariant_to_global_timestamp_shift(self):
        base = seq([3, 4, 5, 6], [100, 2000, 50_000, 400_000])
        shifted = seq([3, 4, 5, 6], [100 + 777, 2000 + 777, 50_000 + 777,
                                     400_000 + 777])
        rng = np.random.default_rng(4)
        table, w = self._params(rng, 8, 4)
        outs = []
        for s in (base, shifted):
            items, buckets, mask = stack_windows(
                [make_window(s, 4, 5)], l_time=8.0, time_unit_seconds=3600)
            outs.append(interval_attention(buckets, table, w, mask).data)
        np.testing.assert_array_equal(outs[0], outs[1])
