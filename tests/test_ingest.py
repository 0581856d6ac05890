"""Parsing, filtering, splitting and bundle round trips."""

import contextlib
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from gimirec.ingest import (DatasetBundle, InteractionRecord, UserSequence,
                            filter_and_index, load_bundle, parse_log, prepare,
                            save_bundle, split_users)


def rec(u, i, t):
    return InteractionRecord(u, i, t)


def make_log(tmp_path, lines):
    path = tmp_path / "log.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


class TestParseLog:
    def test_direct_field_mapping(self, tmp_path):
        result = parse_log(make_log(tmp_path, ["u1,i9,1000"]))
        assert result.records == [rec("u1", "i9", 1000)]
        assert result.rejects == 0

    def test_unparsable_timestamp_skipped(self, tmp_path):
        result = parse_log(make_log(tmp_path, ["u1,i9,abc"]))
        assert result.records == [] and result.rejects == 1

    def test_three_line_file_with_one_bad_line(self, tmp_path):
        result = parse_log(make_log(
            tmp_path, ["u1,i9,1000", "u2,i3,nope", "u2,i4,1200"]))
        assert len(result.records) == 2 and result.rejects == 1

    def test_wrong_field_count_and_empty_ids_rejected(self, tmp_path):
        result = parse_log(make_log(
            tmp_path, ["u1,i9", "u1,i9,5,extra", ",i9,5", "u1,,5"]))
        assert result.records == [] and result.rejects == 4

    def test_custom_delimiter_and_line_order(self, tmp_path):
        path = tmp_path / "log.tsv"
        path.write_text("u1\ti1\t5\nu1\ti2\t3\n", encoding="utf-8")
        result = parse_log(path, delimiter="\t")
        assert [r.item for r in result.records] == ["i1", "i2"]

    def test_unreadable_file_raises(self, tmp_path):
        with pytest.raises(OSError):
            parse_log(tmp_path / "missing.csv")


def five_of(u, items, t0=100):
    return [rec(u, i, t0 + k) for k, i in enumerate(items)]


class TestFilterAndIndex:
    def test_user_with_four_interactions_dropped(self):
        records = []
        for u in range(5):
            records += five_of(f"keep{u}", ["a", "b", "c", "d", "e"])
        records += [rec("four", x, 50 + k) for k, x in enumerate("abcd")]
        seqs, vocab, users = filter_and_index(records)
        assert users == [f"keep{u}" for u in range(5)]

    def test_item_kept_at_exactly_five(self):
        records = []
        for u in range(5):
            records += five_of(f"u{u}", ["a", "b", "c", "d", "e"])
        seqs, vocab, _ = filter_and_index(records)
        assert vocab.num_real == 5

    def test_cascade_second_pass_drops_item(self):
        # item "z" has 5 interactions, but one belongs to a user that gets
        # dropped on pass one, pushing "z" to 4 on pass two
        base = ["a", "b", "c", "d", "e"]
        records = []
        for u in range(5):
            records += five_of(f"u{u}", base)
        records += [rec(f"u{u}", "z", 300 + u) for u in range(4)]
        records += [rec("thin", "z", 400), rec("thin", "a", 401)]
        seqs, vocab, users = filter_and_index(records)
        assert "thin" not in users
        assert "z" not in vocab.raw_to_index
        # survivors keep their other interactions
        assert vocab.num_real == 5

    def test_illegal_timestamps_dropped_first(self):
        records = []
        for u in range(5):
            records += five_of(f"u{u}", ["a", "b", "c", "d", "e"])
        # five interactions for "bad", but one has timestamp 0: drops below 5
        records += [rec("bad", x, t) for x, t in
                    zip("abcde", [0, 201, 202, 203, 204])]
        seqs, vocab, users = filter_and_index(records)
        assert users == [f"u{u}" for u in range(5)]

    def test_everything_filtered_raises(self):
        with pytest.raises(ValueError, match="too sparse"):
            filter_and_index([rec("u", "i", 1)])

    def test_dense_bijection_and_padding_unused(self):
        records = []
        for u in range(6):
            records += five_of(f"u{u}", ["a", "b", "c", "d", "e"])
        seqs, vocab, _ = filter_and_index(records)
        indices = sorted(vocab.raw_to_index.values())
        assert indices == list(range(1, vocab.num_real + 1))
        assert all(vocab.raw_to_index[vocab.index_to_raw[i]] == i
                   for i in indices)
        for seq in seqs:
            assert np.all(seq.items >= 1)

    def test_tie_break_is_input_order(self):
        records = [rec("u", x, 100) for x in "abcde"]
        for u in range(5):
            records += five_of(f"v{u}", ["a", "b", "c", "d", "e"])
        seqs, vocab, users = filter_and_index(records)
        u_seq = seqs[users.index("u")]
        raw = [vocab.index_to_raw[i] for i in u_seq.items]
        assert raw == ["a", "b", "c", "d", "e"]

    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 4),
                              st.integers(1, 50)),
                    min_size=30, max_size=120))
    @settings(max_examples=25, deadline=None)
    def test_fixed_point_and_sorted(self, triples):
        records = [rec(f"u{u}", f"i{i}", t) for u, i, t in triples]
        try:
            seqs, vocab, users = filter_and_index(records)
        except ValueError:
            return
        for seq in seqs:
            assert np.all(np.diff(seq.timestamps) >= 0)
        # re-running the filter on the surviving raw records is a no-op
        survivors = []
        for seq, user in zip(seqs, users):
            for item, ts in zip(seq.items, seq.timestamps):
                survivors.append(rec(user, vocab.index_to_raw[item], int(ts)))
        seqs2, vocab2, users2 = filter_and_index(survivors)
        assert users2 == users and vocab2.num_real == vocab.num_real
        assert sum(len(s) for s in seqs2) == sum(len(s) for s in seqs)


def dummy_sequences(n):
    return [UserSequence(u, np.array([1, 2, 3, 4, 5]),
                         np.arange(1, 6)) for u in range(n)]


class TestSplitUsers:
    def test_ten_users_split_8_1_1(self):
        from gimirec.ingest import Vocab
        split = split_users(dummy_sequences(10), seed=0, item_vocab=Vocab())
        assert (len(split.train_users), len(split.valid_users),
                len(split.test_users)) == (8, 1, 1)

    def test_seventeen_users_round_toward_train(self):
        from gimirec.ingest import Vocab
        split = split_users(dummy_sequences(17), seed=0, item_vocab=Vocab())
        assert (len(split.train_users), len(split.valid_users),
                len(split.test_users)) == (14, 1, 2)

    def test_same_seed_identical_partition(self):
        from gimirec.ingest import Vocab
        a = split_users(dummy_sequences(23), seed=5, item_vocab=Vocab())
        b = split_users(dummy_sequences(23), seed=5, item_vocab=Vocab())
        np.testing.assert_array_equal(a.train_users, b.train_users)
        np.testing.assert_array_equal(a.valid_users, b.valid_users)
        np.testing.assert_array_equal(a.test_users, b.test_users)

    def test_disjoint_cover(self):
        from gimirec.ingest import Vocab
        split = split_users(dummy_sequences(37), seed=1, item_vocab=Vocab())
        union = (set(split.train_users.tolist()) | set(split.valid_users.tolist())
                 | set(split.test_users.tolist()))
        assert union == set(range(37))

    def test_too_few_users(self):
        from gimirec.ingest import Vocab
        with pytest.raises(ValueError, match="at least 10"):
            split_users(dummy_sequences(9), seed=0, item_vocab=Vocab())


class TestBundle:
    def _prepare(self, tmp_path, seed=3):
        lines = []
        for u in range(12):
            for k, item in enumerate(["a", "b", "c", "d", "e", "f"]):
                lines.append(f"user{u},{item},{100 + 7 * u + k}")
        log = make_log(tmp_path, lines)
        return prepare(log, tmp_path / "bundle", seed=seed)

    def test_round_trip(self, tmp_path):
        bundle, rejects = self._prepare(tmp_path)
        loaded = load_bundle(tmp_path / "bundle")
        assert rejects == 0
        assert len(loaded.sequences) == len(bundle.sequences)
        for a, b in zip(loaded.sequences, bundle.sequences):
            np.testing.assert_array_equal(a.items, b.items)
            np.testing.assert_array_equal(a.timestamps, b.timestamps)
        np.testing.assert_array_equal(loaded.split.train_users,
                                      bundle.split.train_users)
        assert loaded.split.item_vocab.raw_to_index == \
            bundle.split.item_vocab.raw_to_index
        assert loaded.user_ids == bundle.user_ids

    def test_byte_identical_rewrite(self, tmp_path):
        bundle, _ = self._prepare(tmp_path)
        names = ["vocab.tsv", "users.tsv", "sequences.bin", "split.json"]
        first = {n: (tmp_path / "bundle" / n).read_bytes() for n in names}
        save_bundle(tmp_path / "bundle", bundle)
        for n in names:
            assert (tmp_path / "bundle" / n).read_bytes() == first[n]

    def test_missing_file_raises(self, tmp_path):
        self._prepare(tmp_path)
        (tmp_path / "bundle" / "split.json").unlink()
        with pytest.raises(FileNotFoundError, match="split.json"):
            load_bundle(tmp_path / "bundle")

    @pytest.mark.parametrize("case, match", [
        ("truncated", r"sequences\.bin: truncated in user 11 \(needs"),
        ("trailing_byte", r"sequences\.bin: 1 trailing bytes"),
        ("item_zero", r"sequences\.bin: user 0 has an item index outside 1\.\.6"),
        ("item_past_vocab", r"sequences\.bin: user 0 has an item index outside 1\.\.6"),
        ("repeated_user", r"sequences\.bin: user index 0 where 1 belongs"),
        ("huge_user_count", r"sequences\.bin: truncated in user header"),
        ("decreasing_timestamp", r"sequences\.bin: user 0: timestamps must be"),
        ("split_user_out_of_range", r"split\.json: test_users holds an entry"),
        ("users_short", r"users\.tsv has 5 lines but .*sequences\.bin has 12 users"),
        ("vocab_malformed", r"vocab\.tsv: line 1 is not"),
        ("users_malformed", r"users\.tsv: line 1 is not"),
        ("split_not_json", r"split\.json: not JSON"),
        ("split_not_object", r"split\.json: must be an object"),
        ("split_missing_key", r"split\.json: must be an object"),
    ], ids=["truncated", "trailing_byte", "item_zero", "item_past_vocab",
            "repeated_user", "huge_user_count", "decreasing_timestamp",
            "split_user_out_of_range", "users_short", "vocab_malformed",
            "users_malformed", "split_not_json", "split_not_object",
            "split_missing_key"])
    def test_malformed_bundle_rejected(self, tmp_path, case, match):
        self._prepare(tmp_path)
        seq_path = tmp_path / "bundle" / "sequences.bin"
        raw = seq_path.read_bytes()
        # 12 users of 6 items: u64 count, then 88 bytes per user record
        item0, user1, ts0 = 8 + 16, 8 + 88, 8 + 16 + 6 * 4
        u4 = lambda v: np.array([v], "<u4").tobytes()
        u8 = lambda v: np.array([v], "<u8").tobytes()
        bad = {
            "truncated": raw[:-3],
            "trailing_byte": raw + b"\x00",
            "item_zero": raw[:item0] + u4(0) + raw[item0 + 4:],
            "item_past_vocab": raw[:item0] + u4(7) + raw[item0 + 4:],
            "repeated_user": raw[:user1] + u8(0) + raw[user1 + 8:],
            "huge_user_count": u8(2**40) + raw[8:],
            "decreasing_timestamp": raw[:ts0] + u8(10**12) + raw[ts0 + 8:],
        }.get(case, raw)
        seq_path.write_bytes(bad)

        bundle_dir = tmp_path / "bundle"
        text = {n: (bundle_dir / n).read_text()
                for n in ("vocab.tsv", "users.tsv", "split.json")}
        manifest = json.loads(text["split.json"])
        replacements = {
            "split_user_out_of_range": ("split.json", json.dumps(
                {**manifest, "test_users": manifest["test_users"] + [12]})),
            "users_short": ("users.tsv", "".join(text["users.tsv"].splitlines(True)[:5])),
            "vocab_malformed": ("vocab.tsv", text["vocab.tsv"].replace("\t", " ", 1)),
            "users_malformed": ("users.tsv", text["users.tsv"].replace("\n", "\tx\n", 1)),
            "split_not_json": ("split.json", "{"),
            "split_not_object": ("split.json", "[]"),
            "split_missing_key": ("split.json", json.dumps(
                {k: v for k, v in manifest.items() if k != "valid_users"})),
        }
        if case in replacements:
            name, new_text = replacements[case]
            (bundle_dir / name).write_text(new_text)
        with pytest.raises(ValueError, match=match):
            load_bundle(tmp_path / "bundle")

    @given(cut=st.integers(0, 2**20),
           flips=st.lists(st.tuples(st.integers(0, 2**20), st.integers(1, 255)),
                          min_size=1, max_size=3))
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_truncated_or_corrupted_bundle_fails_cleanly(self, tmp_path, cut,
                                                         flips):
        self._prepare(tmp_path)
        seq_path = tmp_path / "bundle" / "sequences.bin"
        raw = seq_path.read_bytes()
        seq_path.write_bytes(raw[:cut % len(raw)])
        with pytest.raises(ValueError):
            load_bundle(tmp_path / "bundle")
        bad = bytearray(raw)
        for offset, mask in flips:
            bad[offset % len(raw)] ^= mask
        seq_path.write_bytes(bytes(bad))
        # a changed timestamp can keep its sequence ordered: loading may succeed
        with contextlib.suppress(ValueError):
            load_bundle(tmp_path / "bundle")
