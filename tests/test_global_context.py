"""Co-occurrence accumulation, adjacency algebra and the exported containers."""

import contextlib
import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from gimirec.global_context import (AblationVariant, build_weighted_adjacency,
                                    extract_hop_pairs, global_embeddings,
                                    occurrence_weight, read_adjacency,
                                    write_adjacency, write_global_embeddings)
from gimirec.ingest import index_columns, read_columns
from gimirec.cli import _read_adjacency

from helpers import acc_from_dicts, hop_dicts, random_sequences, sequences_of, traced_peak
from oracles import (hop_pairs_oracle, normalized_adjacency_oracle,
                     weighted_adjacency_dict_reference)

FULL = AblationVariant.FULL


def seq(items, ts):
    return sequences_of((items, ts))


class TestExtractHopPairs:
    def test_four_item_sequence_pairs(self):
        # [i2, i5, i1, i4]: 1-hop (2,5),(5,1),(1,4); 2-hop (2,1),(5,4); 3-hop (2,4)
        s = seq([2, 5, 1, 4], [10, 20, 30, 40])
        acc = extract_hop_pairs(s, FULL, 0.5, 0.5, l_time=1000.0,
                                time_unit_seconds=1)
        assert set(hop_dicts(acc)[1]) == {(2, 5), (5, 1), (1, 4)}
        assert set(hop_dicts(acc)[2]) == {(2, 1), (5, 4)}
        assert set(hop_dicts(acc)[3]) == {(2, 4)}

    def test_single_item_sequence_no_pairs(self):
        acc = extract_hop_pairs(seq([3], [5]), FULL, 0.5, 0.5, 10.0, 1)
        assert all(not d for d in hop_dicts(acc).values())

    def test_threshold_filters_pairs(self):
        s = seq([1, 2, 3], [0 + 1, 1 + 1, 100 + 1])
        acc = extract_hop_pairs(s, FULL, 0.5, 0.5, l_time=10.0,
                                time_unit_seconds=1)
        assert set(hop_dicts(acc)[1]) == {(1, 2)}
        assert not hop_dicts(acc)[2]

    @pytest.mark.parametrize("a, b", [(0.5, 0.6), (0.3, 0.3), (-0.5, 1.5)])
    def test_interval_weights_not_summing_to_one_rejected(self, a, b):
        with pytest.raises(ValueError, match=re.escape(
                f"interval weights need a+b=1, a,b>=0 (a={a}, b={b})")):
            extract_hop_pairs(seq([1, 2], [1, 2]), FULL, a, b, 10.0, 1)

    def test_no_int_variant_ignores_threshold(self):
        s = seq([1, 2, 3], [1, 2, 102])
        acc = extract_hop_pairs(s, AblationVariant.NO_INT, 0.5, 0.5, 10.0, 1)
        assert set(hop_dicts(acc)[1]) == {(1, 2), (2, 3)}
        assert set(hop_dicts(acc)[2]) == {(1, 3)}

    def test_column_subset_equals_per_user_concatenation(self):
        # the adjacency reads the train users as a column subset; the
        # formulation it replaced concatenated each listed user's arrays
        rng = np.random.default_rng(31)
        seqs = random_sequences(rng, n_users=12, n_items=10, max_len=15, min_len=1)
        users = rng.permutation(12)[:8]
        concatenated = sequences_of(*((seqs[u].items, seqs[u].timestamps) for u in users))
        for variant in AblationVariant:
            got = extract_hop_pairs(seqs.subset(users), variant, 0.65, 0.35, 4.0, 1)
            want = extract_hop_pairs(concatenated, variant, 0.65, 0.35, 4.0, 1)
            assert got.occurrences == want.occurrences
            for k in got.hops:
                for a, b in zip(got.hops[k], want.hops[k]):
                    assert a.dtype == b.dtype and np.array_equal(a, b)

    def test_self_pairs_counted_and_flag(self):
        s = seq([7, 7], [1, 2])
        acc = extract_hop_pairs(s, FULL, 0.5, 0.5, 10.0, 1)
        assert (7, 7) in hop_dicts(acc)[1]
        acc2 = extract_hop_pairs(s, FULL, 0.5, 0.5, 10.0, 1,
                                 allow_self_pairs=False)
        assert (7, 7) not in hop_dicts(acc2)[1]

    @pytest.mark.parametrize("variant", list(AblationVariant))
    def test_matches_brute_force_oracle_exactly(self, variant):
        rng = np.random.default_rng(hash(variant.value) % 2**32)
        for trial in range(30):
            seqs = random_sequences(rng, n_users=5, n_items=9, max_len=12)
            acc = extract_hop_pairs(seqs, variant, 0.65, 0.35, l_time=4.0,
                                    time_unit_seconds=1)
            expect, occ = hop_pairs_oracle(seqs, variant.value, 0.65, 0.35,
                                           4.0, 1)
            assert hop_dicts(acc) == expect  # bit-exact float equality
            assert acc.occurrences == occ

    def test_cost_bound_three_times_interactions(self):
        rng = np.random.default_rng(123)
        seqs = random_sequences(rng, n_users=20, n_items=15, max_len=50)
        acc = extract_hop_pairs(seqs, AblationVariant.NO_INT, 0.5, 0.5, 5.0, 1)
        assert acc.occurrences <= 3 * seqs.items.size


class TestOccurrenceWeight:
    def test_zero_interval_is_one(self):
        assert occurrence_weight(0.0, 0.65, 0.35, 64.0) == pytest.approx(1.0)

    def test_full_interval_is_b(self):
        assert occurrence_weight(64.0, 0.65, 0.35, 64.0) == pytest.approx(0.35)

    def test_midpoint_example(self):
        assert occurrence_weight(32.0, 0.5, 0.5, 64.0) == pytest.approx(0.75)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            occurrence_weight(65.0, 0.5, 0.5, 64.0)
        with pytest.raises(ValueError):
            occurrence_weight(-1.0, 0.5, 0.5, 64.0)

    @given(st.floats(0.0, 1.0), st.floats(0.0, 64.0), st.floats(0.0, 64.0))
    @settings(max_examples=100, deadline=None)
    def test_range_and_monotonicity(self, a, d1, d2):
        b = 1.0 - a
        w1 = occurrence_weight(d1, a, b, 64.0)
        w2 = occurrence_weight(d2, a, b, 64.0)
        assert b - 1e-12 <= w1 <= 1.0 + 1e-12
        if d1 < d2:
            assert w1 >= w2 - 1e-12


class TestWeightedAdjacency:
    def test_empty_accumulator_is_identity(self):
        adj = build_weighted_adjacency(acc_from_dicts({}), 1.0, 0.5, 0.25, 3)
        np.testing.assert_array_equal(adj.a_norm.toarray(), np.eye(4))

    def test_two_item_hand_case(self):
        # q1[1,2]=2, q1[2,1]=1, alpha=1 -> A'=[[1,3],[3,1]], row sums 4,
        # a_norm=[[.25,.75],[.75,.25]]: every factor is exact in binary
        adj = build_weighted_adjacency(
            acc_from_dicts({1: {(1, 2): 2.0, (2, 1): 1.0}}), 1.0, 0.0, 0.0, 2)
        norm = adj.a_norm.toarray()[1:, 1:]
        np.testing.assert_array_equal(norm, [[0.25, 0.75], [0.75, 0.25]])

    def test_row_sum_not_positive_rejected(self):
        # a negative hop weight cancels the unit diagonal: A' = [[1, -1], [-1, 1]]
        acc = acc_from_dicts({1: {(1, 2): 1.0}})
        with pytest.raises(ValueError, match="^adjacency row sums must be > 0, got 0.0$"):
            build_weighted_adjacency(acc, -1.0, 0.0, 0.0, 2)
        with pytest.raises(ValueError, match="^adjacency row sums must be > 0, got -1.0$"):
            build_weighted_adjacency(acc_from_dicts({2: {(2, 3): 2.0}}), 0.0, -1.0, 0.0, 3)

    def test_padding_row_stays_identity(self, tiny_adjacency):
        row = tiny_adjacency.a_norm.getrow(0).toarray().ravel()
        expect = np.zeros_like(row)
        expect[0] = 1.0
        np.testing.assert_array_equal(row, expect)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(7)
        for trial in range(20):
            seqs = random_sequences(rng, n_users=6, n_items=9, max_len=10)
            acc = extract_hop_pairs(seqs, FULL, 0.6, 0.4, 5.0, 1)
            adj = build_weighted_adjacency(acc, 4.5, 2.0, 1.0, 9)
            a_norm_d = normalized_adjacency_oracle(
                hop_dicts(acc), 4.5, 2.0, 1.0, 9)
            np.testing.assert_allclose(adj.a_norm.toarray(), a_norm_d,
                                       atol=1e-12)

    @pytest.mark.parametrize("variant", list(AblationVariant))
    def test_csr_arrays_match_dict_reference_bit_for_bit(self, variant):
        rng = np.random.default_rng(sum(map(ord, variant.value)))
        self_pairs = single_users = 0
        for trial in range(40):
            seqs = random_sequences(rng, n_users=int(rng.integers(1, 9)),
                                    n_items=8, max_len=14, min_len=1, max_gap=3)
            acc = extract_hop_pairs(seqs, variant, 0.65, 0.35, 4.0, 1,
                                    allow_self_pairs=trial % 4 != 3)
            adj = build_weighted_adjacency(acc, 4.5, 2.0, 1.0, 8)
            expect = weighted_adjacency_dict_reference(
                hop_dicts(acc), 4.5, 2.0, 1.0, 8)
            assert np.array_equal(adj.a_norm.indptr, expect.indptr)
            assert np.array_equal(adj.a_norm.indices, expect.indices)
            assert np.array_equal(adj.a_norm.data, expect.data)  # bitwise
            self_pairs += sum(int(np.sum(h.rows == h.cols))
                              for h in acc.hops.values())
            single_users += sum(len(s) == 1 for s in seqs)
        assert self_pairs > 0 and single_users > 0

    @given(seed=st.integers(0, 2**32 - 1), variant=st.sampled_from(list(AblationVariant)),
           allow_self_pairs=st.booleans(),
           hop_weights=st.tuples(*[st.just(0.0) | st.floats(0.0, 8.0)] * 3))
    @settings(max_examples=200, deadline=None)
    def test_build_is_bitwise_symmetric(self, seed, variant, allow_self_pairs,
                                        hop_weights):
        # the CLI tests a file's symmetry; in-process callers rely on this
        rng = np.random.default_rng(seed)
        seqs = random_sequences(rng, n_users=int(rng.integers(1, 9)), n_items=10,
                                max_len=16, min_len=1, max_gap=4)
        acc = extract_hop_pairs(seqs, variant, 0.65, 0.35, 4.0, 1,
                                allow_self_pairs=allow_self_pairs)
        adj = build_weighted_adjacency(acc, *hop_weights, 10)
        assert (adj.a_norm != adj.a_norm.T).nnz == 0  # bitwise

    def test_variant_no_i_entries_are_cooccurrence_counts(self):
        rng = np.random.default_rng(5)
        seqs = random_sequences(rng, n_users=6, n_items=6, max_len=15)
        acc = extract_hop_pairs(seqs, AblationVariant.NO_I, 0.5, 0.5, 4.0, 1)
        counts, _ = hop_pairs_oracle(seqs, "no_I", 0.5, 0.5, 4.0, 1)
        adj = build_weighted_adjacency(acc, 1.0, 0.0, 0.0, 6)
        # A' built from the brute-force counts alone, then normalized
        expect = normalized_adjacency_oracle(counts, 1.0, 0.0, 0.0, 6)
        np.testing.assert_allclose(adj.a_norm.toarray(), expect, rtol=1e-14, atol=0)

    def test_variant_no_in_is_binary_presence(self):
        rng = np.random.default_rng(6)
        seqs = random_sequences(rng, n_users=6, n_items=6, max_len=15)
        acc = extract_hop_pairs(seqs, AblationVariant.NO_IN, 0.5, 0.5, 4.0, 1)
        for d in hop_dicts(acc).values():
            assert all(v == 1.0 for v in d.values())

    def test_build_peak_stays_under_3_times_its_output(self, planted_log):
        # the bound that held A', its row sums and a_norm to 1.5 times their
        # bytes allowed 3.02 times a_norm's
        cols = read_columns(planted_log, ",")
        seqs, vocab, _ = index_columns(cols.users, cols.user_ids, cols.items,
                                       cols.item_ids, cols.timestamps)
        acc = extract_hop_pairs(seqs, FULL, 0.65, 0.35, 64.0)
        adj, peak = traced_peak(build_weighted_adjacency, acc, 4.5, 2.0, 1.0,
                                vocab.num_real)
        m = adj.a_norm
        held = m.data.nbytes + m.indices.nbytes + m.indptr.nbytes
        assert m.nnz > 200_000
        assert peak <= 3.0 * held, peak / held

    def test_num_items_too_small_rejected(self):
        with pytest.raises(ValueError):
            build_weighted_adjacency(
                acc_from_dicts({1: {(1, 5): 1.0}}), 1.0, 0.5, 0.25, 3)


class TestGlobalEmbeddings:
    def test_identity_adjacency_passthrough(self):
        adj = build_weighted_adjacency(acc_from_dicts({}), 1.0, 0.5, 0.25, 4)
        table = np.random.default_rng(0).normal(size=(5, 3))
        out = global_embeddings(adj.a_norm, table)
        np.testing.assert_array_equal(out, table)  # bit-exact

    def test_two_item_hand_case_rows(self):
        adj = build_weighted_adjacency(
            acc_from_dicts({1: {(1, 2): 2.0, (2, 1): 1.0}}), 1.0, 0.0, 0.0, 2)
        table = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        out = global_embeddings(adj.a_norm, table)
        np.testing.assert_allclose(out[1], [0.25, 0.75], atol=1e-12)
        np.testing.assert_allclose(out[2], [0.75, 0.25], atol=1e-12)

    def test_sparse_vs_dense_product(self):
        rng = np.random.default_rng(17)
        for trial in range(50):
            seqs = random_sequences(rng, n_users=6, n_items=20, max_len=14)
            acc = extract_hop_pairs(seqs, FULL, 0.5, 0.5, 5.0, 1)
            adj = build_weighted_adjacency(acc, 3.0, 2.0, 1.0, 20)
            table = rng.normal(size=(21, 8))
            sparse = global_embeddings(adj.a_norm, table)
            dense = adj.a_norm.toarray() @ table
            assert np.max(np.abs(sparse - dense)) <= 1e-12

    def test_dimension_mismatch(self, tiny_adjacency):
        with pytest.raises(ValueError):
            global_embeddings(tiny_adjacency.a_norm, np.zeros((3, 4)))


class TestContainers:
    def test_adjacency_round_trip(self, tmp_path, tiny_adjacency):
        path = tmp_path / "adjacency.bin"
        write_adjacency(path, tiny_adjacency)
        loaded = read_adjacency(path)
        assert (loaded != tiny_adjacency.a_norm).nnz == 0
        assert loaded.dtype == np.float64

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOT-A-MAGIC" + b"\x00" * 64)
        with pytest.raises(ValueError, match="magic"):
            read_adjacency(path)

    @given(cut=st.integers(0, 2**20),
           flips=st.lists(st.tuples(st.integers(0, 2**20), st.integers(1, 255)),
                          min_size=1, max_size=3))
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_truncated_or_corrupted_adjacency_fails_cleanly(
            self, tmp_path, tiny_adjacency, cut, flips):
        path = tmp_path / "adjacency.bin"
        write_adjacency(path, tiny_adjacency)
        raw = path.read_bytes()
        path.write_bytes(raw[:cut % len(raw)])
        with pytest.raises(ValueError):
            read_adjacency(path)
        bad = bytearray(raw)
        for offset, mask in flips:
            bad[offset % len(raw)] ^= mask
        path.write_bytes(bytes(bad))
        # read, then the CLI's checks of the file; a changed diagonal value
        # keeps the matrix valid, so both may pass
        with contextlib.suppress(ValueError):
            _read_adjacency(SimpleNamespace(adjacency=path), "a bundle", 9, np.float32)

    @pytest.mark.parametrize("corrupt, match", [
        (lambda m: {"shape": (3, 4)}, "square"),
        (lambda m: {"indptr": m.indptr + 1}, "indptr"),
        (lambda m: {"indptr": np.r_[m.indptr[:-1], m.nnz - 1]}, "indptr"),
        (lambda m: {"indptr": np.r_[0, 2, 1, m.indptr[3:]]}, "indptr"),
        (lambda m: {"indices": np.r_[m.indices[:-1], m.shape[1]]}, "column index"),
        (lambda m: {"indices": np.r_[-1, m.indices[1:]]}, "column index"),
        (lambda m: {"data": np.r_[np.nan, m.data[1:]]}, "non-finite"),
        (lambda m: {"data": np.r_[m.data[:-1], np.inf]}, "non-finite"),
        (lambda m: {"tail": b"\x00"}, "bytes"),
        (lambda m: {"tail": -8}, "bytes"),
    ], ids=["non_square", "indptr_start", "indptr_end", "indptr_decreasing",
            "index_too_large", "index_negative", "nan_value", "inf_value",
            "trailing_byte", "truncated"])
    def test_malformed_adjacency_rejected(self, tmp_path, tiny_adjacency,
                                          corrupt, match):
        m = tiny_adjacency.a_norm
        parts = {"shape": m.shape, "indptr": m.indptr, "indices": m.indices,
                 "data": m.data, "tail": b""}
        parts.update(corrupt(m))
        raw = (b"GIMI-ADJ1"
               + np.array([*parts["shape"], len(parts["data"])], dtype="<i8").tobytes()
               + parts["indptr"].astype("<i8").tobytes()
               + parts["indices"].astype("<i8").tobytes()
               + parts["data"].astype("<f8").tobytes())
        tail = parts["tail"]
        raw = raw[:tail] if isinstance(tail, int) else raw + tail
        path = tmp_path / "adjacency.bin"
        path.write_bytes(raw)
        with pytest.raises(ValueError, match=match):
            read_adjacency(path)

    def test_global_embeddings_file_is_raw_f32(self, tmp_path):
        emb = np.arange(12, dtype=np.float64).reshape(4, 3) / 7.0
        path = tmp_path / "global_emb.f32"
        write_global_embeddings(path, emb)
        back = np.fromfile(path, dtype="<f4").reshape(4, 3)
        np.testing.assert_allclose(back, emb.astype(np.float32), atol=0)
