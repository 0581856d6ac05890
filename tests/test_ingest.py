"""Parsing, filtering, splitting and bundle round trips."""

import contextlib
import json
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from gimirec import ingest
from gimirec.ingest import (DatasetBundle, InteractionRecord, Sequences,
                            filter_and_index, load_bundle, parse_log, prepare,
                            save_bundle, split_users)
from gimirec.synthetic import PlantedConfig, planted_cluster_records
from oracles import (code_by_first_appearance_dict, filter_and_index_reference,
                     index_columns_split, parse_columns_per_line,
                     read_sequences_per_user)


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

    def test_timestamp_outside_int64_rejected(self, tmp_path):
        result = parse_log(make_log(tmp_path, [
            f"u1,i9,{2**63}", f"u1,i9,{-2**63 - 1}", f"u1,i9,{2**63 - 1}",
            f"u1,i9,{-2**63}"]))
        assert result.records == [rec("u1", "i9", 2**63 - 1),
                                  rec("u1", "i9", -2**63)]
        assert result.rejects == 2

    def test_blank_lines_and_line_endings_neither_kept_nor_counted(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_bytes(b"u1,i9,1000\r\n\r\n   \n\t\nu2,i3,5\ru3,i4,6\n\n")
        result = parse_log(path)
        assert result.records == [rec("u1", "i9", 1000), rec("u2", "i3", 5),
                                  rec("u3", "i4", 6)]
        assert result.rejects == 0

    def test_non_utf8_log_raises_naming_file(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_bytes(b"u1,i9,1000\nu\xff,i9,1001\n")
        with pytest.raises(ValueError, match=r"log\.csv: not UTF-8"):
            parse_log(path)

    @pytest.mark.parametrize("delimiter", ["", "\n", "\r"], ids=["empty", "lf", "cr"])
    def test_empty_or_line_break_delimiter_rejected_before_reading(self, tmp_path,
                                                                   delimiter):
        with pytest.raises(ValueError, match=re.escape(f"delimiter {delimiter!r}")):
            parse_log(tmp_path / "missing.csv", delimiter)


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
        assert "z" not in vocab.index_to_raw
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

    def test_timestamp_below_int64_dropped(self):
        records = []
        for u in range(5):
            records += five_of(f"u{u}", ["a", "b", "c", "d", "e"])
        seqs, vocab, users = filter_and_index(records + [rec("u0", "a", -2**70)])
        want_seqs, want_vocab, want_users = filter_and_index(records)
        assert users == want_users
        assert vocab.index_to_raw == want_vocab.index_to_raw
        for got, want in zip(seqs, want_seqs):
            np.testing.assert_array_equal(got.items, want.items)
            np.testing.assert_array_equal(got.timestamps, want.timestamps)

    def test_everything_filtered_raises(self):
        with pytest.raises(ValueError, match="too sparse"):
            filter_and_index([rec("u", "i", 1)])

    def test_dense_bijection_and_padding_unused(self):
        records = []
        for u in range(6):
            records += five_of(f"u{u}", ["a", "b", "c", "d", "e"])
        seqs, vocab, _ = filter_and_index(records)
        # one distinct raw id per index 1..num_real
        assert vocab.index_to_raw[0] == ""
        assert len(set(vocab.index_to_raw[1:])) == vocab.num_real
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

    # 30-80 records over six users and six items: most logs survive, with
    # cascades and counts at the 5-core boundary; six positive timestamps
    # force ties, and -1 and 0 are dropped. Names run up to 20 characters
    # over NUL, "a" and a two-byte letter: empty ids, trailing NULs, equal
    # names and ids of one, two and three uint64 words
    @given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5),
                              st.integers(-1, 6)), min_size=30, max_size=80),
           st.lists(st.text(st.sampled_from("\x00aé"), max_size=20), min_size=12,
                    max_size=12))
    @settings(max_examples=300, deadline=None)
    def test_matches_dict_and_sort_reference(self, triples, names):
        records = [rec(names[u], names[6 + i], t) for u, i, t in triples]
        try:
            want_seqs, want_vocab, want_users = filter_and_index_reference(records)
        except ValueError:
            with pytest.raises(ValueError, match="too sparse"):
                filter_and_index(records)
            return
        seqs, vocab, users = filter_and_index(records)
        assert users == want_users
        assert vocab.index_to_raw == want_vocab.index_to_raw
        for got, want in ((seqs.items, want_seqs.items),
                          (seqs.timestamps, want_seqs.timestamps),
                          (seqs.lengths, want_seqs.lengths)):
            assert got.dtype == np.int64
            np.testing.assert_array_equal(got, want)

    # coded columns over six users and six items with ties, dropped
    # timestamps and 5-core cascades
    @given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5),
                              st.integers(-1, 6)), min_size=30, max_size=80))
    @settings(max_examples=200, deadline=None)
    def test_columns_equal_the_per_user_split(self, triples):
        users, items, timestamps = (np.array(col, dtype=np.int64).reshape(-1)
                                    for col in zip(*triples))
        user_ids, item_ids = [f"u{u}" for u in range(6)], [f"i{i}" for i in range(6)]
        try:
            want, want_items, want_users = index_columns_split(
                users, user_ids, items, item_ids, timestamps)
        except ValueError:
            with pytest.raises(ValueError, match="too sparse"):
                ingest.index_columns(users, user_ids, items, item_ids, timestamps)
            return
        seqs, vocab, got_users = ingest.index_columns(users, user_ids, items,
                                                      item_ids, timestamps)
        assert (got_users, vocab.index_to_raw[1:]) == (want_users, want_items)
        assert len(seqs) == len(want)
        for got, (want_items, want_ts) in zip(seqs, want):
            np.testing.assert_array_equal(got.items, want_items)
            np.testing.assert_array_equal(got.timestamps, want_ts)


BUNDLE_FILES = ("vocab.tsv", "users.tsv", "sequences.bin", "split.json")

# Lines besides well-formed ones: malformed (field count, empty ids, bad or
# out-of-range timestamps), blank, and timestamps that int() accepts.
ODD_LINES = ["u1,i2", "u1,i2,3,4", ",i2,3", "u1,,3", "u1,i2,x", "u1,i2,",
             f"u1,i2,{2**63}", f"u1,i2,{-2**63 - 1}", "", "   ", "\t",
             "u1,i2, 4", "u2,i3,+5", "u3,i1,1_0", "u4,i0,-0"]


def assert_parse_matches_per_line_oracle(path, delimiter):
    """``read_columns`` equals the per-line text loop with dict coding; the
    oracle's (users, items, timestamps, rejects)."""
    users, items, timestamps, lines, rejects = parse_columns_per_line(path, delimiter)
    got = ingest.read_columns(path, delimiter)
    for codes, ids, want in ((got.users, got.user_ids, users),
                             (got.items, got.item_ids, items)):
        want_codes, want_ids = code_by_first_appearance_dict(want)
        assert codes.dtype == np.int64
        np.testing.assert_array_equal(codes, want_codes)
        assert ids == want_ids
    assert got.timestamps.dtype == np.int64
    np.testing.assert_array_equal(got.timestamps, timestamps)
    np.testing.assert_array_equal(got.lines, lines)
    assert got.rejects == rejects
    return users, items, timestamps, rejects


# Log pieces the byte parse must read as the per-line text loop does: ids
# holding NUL, spaces, a vertical tab, a BOM or multi-byte UTF-8; timestamps
# at the 18/19/20-digit and int64 edges and ones only int() accepts; lines
# that are Unicode whitespace only.
ID_PREFIXES = ["", "a b", "n\x00", "\x00", "é", "日本", "\ufeff", "v\x0b"]
TIMESTAMPS = ["1", "3", "6", "0", "-0", "-4", "007", "9" * 18, "-" + "9" * 18,
              str(2**63 - 1), str(-2**63), str(2**63), str(-2**63 - 1), "0" * 18 + "5",
              "1" + "0" * 19, " 4", "+5", "1_0", "٣", "", "x", "4 ", "--1", "-"]
BLANKS = ["", " ", "\t", "\x0b", "\x1c", "\x85", "\u3000"]


@st.composite
def log_lines(draw, delimiter):
    user = draw(st.sampled_from(ID_PREFIXES)) + draw(st.sampled_from(["u1", "u1\x00", ""]))
    item = draw(st.sampled_from(ID_PREFIXES)) + draw(st.sampled_from(["i1", "i1\x00", ""]))
    ts = draw(st.sampled_from(TIMESTAMPS))
    fields = draw(st.sampled_from([[user, item, ts], [user, item], [user, item, ts, ts]]))
    return draw(st.one_of(st.just(delimiter.join(fields)), st.sampled_from(BLANKS)))


class TestPrepareColumns:
    """``prepare`` runs on columns; the record path is its oracle."""

    # optional base lines (ten users with five items each, ids under a drawn
    # prefix, so odd ids reach the bundle) mixed with drawn lines; endings
    # LF, CRLF or lone CR, with or without a final one and a leading BOM
    @given(data=st.data(), delimiter=st.sampled_from([",", "\t", " ", "::", "é"]),
           prefix=st.sampled_from(ID_PREFIXES),
           base=st.sampled_from([True, True, False]), bom=st.booleans(),
           final=st.booleans(), seed=st.integers(0, 3))
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_byte_parse_matches_per_line_oracle(self, tmp_path, data, delimiter, prefix,
                                                base, bom, final, seed):
        lines = [delimiter.join([f"{prefix}u{u}", f"{prefix}i{i}", str(1 + (u + i) % 6)])
                 for u in range(10) for i in range(5)] if base else []
        extra = data.draw(st.lists(log_lines(delimiter), max_size=40))
        lines = data.draw(st.permutations(lines + extra))
        endings = data.draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]),
                                     min_size=len(lines), max_size=len(lines)))
        if endings and not final:
            endings[-1] = ""
        text = ("\ufeff" if bom else "") + "".join(map(str.__add__, lines, endings))
        log = tmp_path / "log.csv"
        log.write_bytes(text.encode("utf-8"))
        users, items, timestamps, rejects = assert_parse_matches_per_line_oracle(
            log, delimiter)

        records = list(map(InteractionRecord, users, items, timestamps.tolist()))
        try:
            sequences, vocab, user_ids = filter_and_index_reference(records)
            want = DatasetBundle(sequences, split_users(sequences, seed, vocab), user_ids)
        except ValueError as exc:
            with pytest.raises(ValueError, match=re.escape(str(exc))):
                prepare(log, tmp_path / "got", delimiter, seed)
            return
        save_bundle(tmp_path / "want", want)
        _, got_rejects = prepare(log, tmp_path / "got", delimiter, seed)
        assert got_rejects == rejects
        for name in BUNDLE_FILES:
            assert ((tmp_path / "got" / name).read_bytes()
                    == (tmp_path / "want" / name).read_bytes()), name

    @pytest.mark.parametrize("raw", [
        b"", b"\n", b"\n \n\t\r\n\x0b\n\x1c\r\xe3\x80\x80\n\xc2\x85", b"\xef\xbb\xbf",
        b"\xef\xbb\xbfu1,i1,5\n", b"u1,i1,5\ru2,i2,6\r\ru3,i3,7", b"u1,i1,5\nu2,i2,6",
        b"u1,i1,5\nu2,i2,", b"u1,i1,5\r\r\nu2,i2,-", b"u1,i1,-5\n,,\n,i,1\nu,,1",
    ], ids=["empty", "one_break", "blank_lines", "bom_only", "bom_line", "lone_cr",
            "no_final_break", "empty_last_timestamp", "cr_then_crlf", "signs_and_empty_ids"])
    def test_edge_files_match_per_line_oracle(self, tmp_path, raw):
        log = tmp_path / "log.csv"
        log.write_bytes(raw)
        assert_parse_matches_per_line_oracle(log, ",")

    def test_per_line_rule_runs_only_on_odd_lines(self, tmp_path, monkeypatch):
        cfg = PlantedConfig(n_clusters=3, items_per_cluster=10, n_users=40,
                            n_hot_items=6, n_tail_items=40)
        lines = [f"{r.user},{r.item},{r.timestamp}"
                 for r in planted_cluster_records(cfg, seed=3)]
        odd = ["", "   ", "\x0b", "u1,i2", "u1,i2,3,4", ",i2,3", "u1,,3", "u1,i2,x",
               "u1,i2, 4", "u2,i3,+5", "u3,i1,1_0", "u4,i2," + "1" * 19]
        mixed = list(lines)
        for k, line in enumerate(odd):
            mixed.insert(k * len(lines) // len(odd), line)
        calls = []
        rule = ingest._parse_line
        monkeypatch.setattr(ingest, "_parse_line",
                            lambda line, delimiter: calls.append(line) or rule(line, delimiter))
        prepare(make_log(tmp_path, lines), tmp_path / "clean", seed=1)
        assert calls == []
        prepare(make_log(tmp_path, mixed), tmp_path / "mixed", seed=1)
        assert calls == odd

    # ten users with five items each always survive, so the split has
    # users; the drawn lines add users u10-u11 and item i5 at the 5-core
    # boundary, ties (timestamps 1-6), timestamps <= 0, malformed and blank
    # lines, all shuffled among the base lines, with LF or CRLF endings
    @given(data=st.data(),
           extra=st.lists(st.one_of(
               st.tuples(st.integers(0, 11), st.integers(0, 5),
                         st.integers(-2, 6)).map(lambda t: "u%d,i%d,%d" % t),
               st.sampled_from(ODD_LINES)), min_size=0, max_size=60))
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_bundle_matches_record_path(self, tmp_path, data, extra):
        base = [f"u{u},i{i},{1 + (u + i) % 6}" for u in range(10) for i in range(5)]
        lines = data.draw(st.permutations(base + extra))
        endings = data.draw(st.lists(st.sampled_from(["\n", "\r\n"]),
                                     min_size=len(lines), max_size=len(lines)))
        log = tmp_path / "log.csv"
        log.write_bytes("".join(map(str.__add__, lines, endings)).encode("utf-8"))
        seed = data.draw(st.integers(0, 3))
        parsed = parse_log(log)
        sequences, vocab, user_ids = filter_and_index_reference(parsed.records)
        want = DatasetBundle(sequences, split_users(sequences, seed, vocab), user_ids)
        save_bundle(tmp_path / "want", want)
        _, rejects = prepare(log, tmp_path / "got", seed=seed)
        assert rejects == parsed.rejects
        for name in BUNDLE_FILES:
            assert ((tmp_path / "got" / name).read_bytes()
                    == (tmp_path / "want" / name).read_bytes()), name

    def test_no_record_objects(self, tmp_path, monkeypatch):
        lines = [f"u{u},i{i},{100 + i}" for u in range(12) for i in range(6)]
        log = make_log(tmp_path, lines + ["bad line"])
        want, want_rejects = prepare(log, tmp_path / "want", seed=1)

        def no_records(*args):
            raise AssertionError("prepare built an InteractionRecord")

        monkeypatch.setattr(ingest, "InteractionRecord", no_records)
        got, rejects = prepare(log, tmp_path / "got", seed=1)
        assert rejects == want_rejects == 1
        assert got.user_ids == want.user_ids
        for name in BUNDLE_FILES:
            assert ((tmp_path / "got" / name).read_bytes()
                    == (tmp_path / "want" / name).read_bytes()), name

    @pytest.mark.parametrize("field", ["user", "item"])
    def test_id_holding_a_tab_rejected_naming_line(self, tmp_path, field):
        lines = [f"u{u},i{i},{100 + i}" for u in range(12) for i in range(6)]
        if field == "user":
            lines = [ln.replace("u3,", "u3\tx,") for ln in lines]
            expect = "line 20: user id 'u3\\tx'"
        else:
            lines = [ln.replace(",i2,", ",a\tx,") for ln in lines]
            expect = "line 4: item id 'a\\tx'"
        log = make_log(tmp_path, ["bad line"] + lines)
        with pytest.raises(ValueError, match=re.escape(f"{log}: {expect} holds a tab")):
            prepare(log, tmp_path / "bundle", seed=1)
        assert not (tmp_path / "bundle").exists()

    def test_id_holding_a_tab_named_at_its_first_parsed_line(self, tmp_path):
        # rejected lines holding the id come first; the first parsed one is named
        lines = [f"u{u},i{i},{100 + i}".replace("u3,", "u3\tx,")
                 for u in range(12) for i in range(6)]
        log = make_log(tmp_path, ["u3\tx,i1", "u3\tx,i1,5,6"] + lines)
        with pytest.raises(ValueError, match=re.escape(
                f"{log}: line 21: user id 'u3\\tx' holds a tab")):
            prepare(log, tmp_path / "bundle", seed=1)

class TestUserTimeOrder:
    """The composite-key argsort is ``np.lexsort((timestamps, users))``."""

    # few timestamps force ties; the wide ones span about +-2**62, where the
    # key overflows and the lexsort branch runs
    @given(st.lists(st.tuples(st.integers(0, 6), st.one_of(
        st.integers(-3, 3), st.integers(-2**62, 2**62))), max_size=60))
    @settings(max_examples=300, deadline=None)
    def test_matches_lexsort(self, pairs):
        users = np.array([u for u, _ in pairs], dtype=np.int64)
        timestamps = np.array([t for _, t in pairs], dtype=np.int64)
        np.testing.assert_array_equal(ingest._user_time_order(users, timestamps),
                                      np.lexsort((timestamps, users)))

    @pytest.mark.parametrize("low, high, lexsorts", [(1, 50, 0), (-2**62, 2**62, 1)],
                             ids=["key", "overflow"])
    def test_shuffled_ties_and_branch(self, monkeypatch, low, high, lexsorts):
        rng = np.random.default_rng(0)
        users = rng.integers(0, 40, 3000)
        timestamps = rng.choice(np.array([low, (low + high) // 2, high]), 3000)
        want = np.lexsort((timestamps, users))
        calls = []
        lexsort = np.lexsort
        monkeypatch.setattr(np, "lexsort", lambda keys: calls.append(1) or lexsort(keys))
        np.testing.assert_array_equal(ingest._user_time_order(users, timestamps), want)
        assert len(calls) == lexsorts


def dummy_sequences(n):
    return Sequences(np.tile([1, 2, 3, 4, 5], n), np.tile(np.arange(1, 6), n), [5] * n)


class TestSequences:
    def test_views_iteration_and_subset(self):
        seqs = Sequences([4, 5, 6, 7, 8, 9], [1, 2, 2, 3, 5, 8], [2, 0, 3, 1])
        assert len(seqs) == 4
        np.testing.assert_array_equal(seqs.starts, [0, 2, 2, 5])
        assert [s.items.tolist() for s in seqs] == [[4, 5], [], [6, 7, 8], [9]]
        assert [len(s) for s in seqs] == [2, 0, 3, 1]
        np.testing.assert_array_equal(seqs[2].timestamps, [2, 3, 5])
        np.testing.assert_array_equal(seqs[-1].items, [9])
        part = seqs.subset([3, 0, 3, 1])
        np.testing.assert_array_equal(part.items, [9, 4, 5, 9])
        np.testing.assert_array_equal(part.timestamps, [8, 1, 2, 8])
        np.testing.assert_array_equal(part.lengths, [1, 2, 1, 0])
        assert len(seqs.subset([])) == 0

    def test_columns_and_views_are_read_only(self):
        items = np.array([1, 2, 3])
        seqs = Sequences(items, [1, 2, 3], [3])
        for col in (seqs.items, seqs.timestamps, seqs.lengths, seqs.starts, seqs[0].items,
                    seqs[0].timestamps):
            with pytest.raises(ValueError, match="read-only"):
                col[0] = 7
        items[0] = 7  # the caller's array stays writeable; the columns are a copy
        assert seqs[0].items[0] == 1

    @pytest.mark.parametrize("items, timestamps, lengths", [
        ([1, 2], [1], [2]), ([1, 2], [1, 2], [1]), ([1, 2], [1, 2], [3, -1]),
        ([[1, 2]], [[1, 2]], [2]),
    ], ids=["unequal_columns", "short_lengths", "negative_length", "two_dimensional"])
    def test_inconsistent_columns_rejected(self, items, timestamps, lengths):
        with pytest.raises(ValueError, match="lengths partition"):
            Sequences(items, timestamps, lengths)


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
        assert loaded.split.item_vocab.index_to_raw == \
            bundle.split.item_vocab.index_to_raw
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
        ("vocab_not_utf8", r"vocab\.tsv: not UTF-8"),
        ("users_misnumbered", r"users\.tsv: indices are not dense from 0"),
        ("users_missing", r"missing .*users\.tsv"),
        ("vocab_repeated_line", r"vocab\.tsv: indices are not dense from 1"),
        ("vocab_repeated_id", r"vocab\.tsv: item id 'e' appears twice"),
        ("split_user_repeated", r"split\.json: user 8 is listed more than once"),
        ("split_user_in_two_lists", r"split\.json: user 0 is listed more than once"),
    ], ids=["truncated", "trailing_byte", "item_zero", "item_past_vocab",
            "repeated_user", "huge_user_count", "decreasing_timestamp",
            "split_user_out_of_range", "users_short", "vocab_malformed",
            "users_malformed", "split_not_json", "split_not_object",
            "split_missing_key", "vocab_not_utf8", "users_misnumbered",
            "users_missing", "vocab_repeated_line", "vocab_repeated_id",
            "split_user_repeated", "split_user_in_two_lists"])
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
            # one user twice within a list, and one user in two lists
            "split_user_repeated": ("split.json", json.dumps(
                {**manifest, "test_users": manifest["test_users"] * 2})),
            "split_user_in_two_lists": ("split.json", json.dumps(
                {**manifest, "test_users": manifest["test_users"] + [0]})),
            "vocab_repeated_line": ("vocab.tsv", text["vocab.tsv"].replace(
                "6\tf", "5\te")),
            "vocab_repeated_id": ("vocab.tsv", text["vocab.tsv"].replace(
                "6\tf", "6\te")),
            "users_misnumbered": ("users.tsv", "".join(
                "999\t" + line.split("\t", 1)[1]
                for line in text["users.tsv"].splitlines(True))),
        }
        if case in replacements:
            name, new_text = replacements[case]
            (bundle_dir / name).write_text(new_text)
        if case == "vocab_not_utf8":
            (bundle_dir / "vocab.tsv").write_bytes(
                b"\xff\xfe" + text["vocab.tsv"].encode())
        if case == "users_missing":
            (bundle_dir / "users.tsv").unlink()
        error = FileNotFoundError if case == "users_missing" else ValueError
        with pytest.raises(error, match=match):
            load_bundle(tmp_path / "bundle")

    # ids over letters, "\r" and non-ASCII, then up to two defects: an
    # entry loses its tab (missing field), gets a tab in its id or carries
    # another index (non-dense or repeated); vocab ids may repeat
    @given(data=st.data(), name=st.sampled_from(["vocab.tsv", "users.tsv"]))
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_text_files_round_trip_or_fail_naming_file(self, tmp_path, data, name):
        self._prepare(tmp_path)
        path = tmp_path / "bundle" / name
        first = 1 if name == "vocab.tsv" else 0
        count = path.read_bytes().count(b"\n")
        ids = data.draw(st.lists(st.text(st.sampled_from("ab\ré"), max_size=3),
                                 min_size=count, max_size=count))
        entries = [[index, raw, "\t"] for index, raw in enumerate(ids, first)]
        defects = data.draw(st.lists(st.tuples(
            st.integers(0, count - 1), st.sampled_from(["no_tab", "tab_in_id", "index"]),
            st.integers(-1, count + 1)), max_size=2))
        for pos, kind, index in defects:
            if kind == "no_tab":
                entries[pos][2] = ""
            elif kind == "tab_in_id":
                entries[pos][1] += "\tb"
            else:
                entries[pos][0] = index
        path.write_bytes("".join(f"{index}{tab}{raw}\n" if tab else f"{raw}\n"
                                 for index, raw, tab in entries).encode("utf-8"))
        valid = (all(tab and "\t" not in raw for _, raw, tab in entries)
                 and [e[0] for e in entries] == list(range(first, first + count))
                 and (name == "users.tsv" or len(set(ids)) == count))
        try:
            loaded = load_bundle(tmp_path / "bundle")
        except ValueError as exc:
            assert not valid, exc
            assert str(path) in str(exc)
            return
        assert valid
        got = (loaded.split.item_vocab.index_to_raw[1:] if name == "vocab.tsv"
               else loaded.user_ids)
        assert got == ids

    # up to six users of up to six items over a 9-item catalog, then up to
    # three of the per-user reader's rejection cases, anywhere: a cut, bytes
    # after the last user, an item outside 1..9, a user index out of order, a
    # wrong user count and a timestamp below its predecessor. Several
    # defects check that the first, by user and then by the per-user
    # reader's order within a user, is the one reported
    @given(data=st.data(), lengths=st.lists(st.integers(0, 6), max_size=6),
           defects=st.lists(st.sampled_from(["cut", "trailing", "item", "user_index",
                                             "user_count", "decreasing"]), max_size=3))
    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_columnar_read_equals_the_per_user_reader(self, tmp_path, data, lengths,
                                                      defects):
        n_items = 9
        users = [[u, data.draw(st.lists(st.integers(1, n_items), min_size=n, max_size=n)),
                  sorted(data.draw(st.lists(st.integers(-2**62, 2**62), min_size=n,
                                            max_size=n)))]
                 for u, n in enumerate(lengths)]
        with_items = [u for u, n in enumerate(lengths) if n]
        for defect in defects:
            if defect == "item" and with_items:
                u = data.draw(st.sampled_from(with_items))
                users[u][1][data.draw(st.integers(0, lengths[u] - 1))] = data.draw(
                    st.sampled_from([0, n_items + 1, 2**32 - 1]))
            elif defect == "user_index" and users:
                users[data.draw(st.integers(0, len(users) - 1))][0] = data.draw(
                    st.integers(0, 2**64 - 1))
            elif defect == "decreasing" and any(n >= 2 for n in lengths):
                u = data.draw(st.sampled_from([u for u, n in enumerate(lengths) if n >= 2]))
                users[u][2][-1] = users[u][2][0] - 1
        raw = np.array([len(users)], "<u8").tobytes() + b"".join(
            np.array([u, len(items)], "<u8").tobytes() + np.array(items, "<u4").tobytes()
            + np.array(ts, "<i8").tobytes() for u, items, ts in users)
        if "user_count" in defects:
            raw = np.array([data.draw(st.integers(0, 2**64 - 1))], "<u8").tobytes() + raw[8:]
        if "cut" in defects:
            raw = raw[:data.draw(st.integers(0, len(raw)))]
        if "trailing" in defects:
            raw += data.draw(st.binary(min_size=1, max_size=20))
        path = tmp_path / "sequences.bin"
        path.write_bytes(raw)
        try:
            want = read_sequences_per_user(path, n_items)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                ingest._read_sequences(path, n_items)
            assert str(got.value) == str(exc)
            return
        got = ingest._read_sequences(path, n_items)
        for col, expect in zip((got.items, got.timestamps, got.lengths), want):
            assert col.dtype == np.int64
            np.testing.assert_array_equal(col, expect)

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
