"""Interaction-log ingestion.

Parses delimited logs from their bytes into first-appearance user and item
codes and int64 timestamps (array operations, and one per-line rule for the
lines they do not cover), drops non-positive timestamps, applies the
iterative 5-interaction user/item filter, assigns dense indices (item index
0 is the padding slot), splits users 8:1:1 and reads/writes the on-disk
dataset bundle (vocab.tsv / users.tsv / sequences.bin / split.json).
``InteractionRecord`` lists are an interface for callers; ``prepare`` never
builds one. The dataset in memory is one ``Sequences``: every user's
interactions as flat columns.
``BinaryReader`` is the bounded reader every binary container (bundle,
adjacency, checkpoint) loads through.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

MIN_INTERACTIONS = 5


@dataclass(frozen=True)
class InteractionRecord:
    user: str
    item: str
    timestamp: int


@dataclass
class ParseResult:
    records: list[InteractionRecord]
    rejects: int


@dataclass(frozen=True, eq=False)
class UserSequence:
    """One user's interactions: read-only views into ``Sequences``' columns."""

    items: np.ndarray
    timestamps: np.ndarray

    def __len__(self) -> int:
        return self.items.size


class Sequences:
    """Every user's chronologically ordered interactions as flat int64
    columns: user u's item indices are ``items[starts[u]:][:lengths[u]]``,
    with their timestamps at the same positions."""

    def __init__(self, items, timestamps, lengths):
        self.items, self.timestamps, self.lengths = (
            np.array(col, dtype=np.int64) for col in (items, timestamps, lengths))
        if not (self.items.ndim == self.lengths.ndim == 1 and self.lengths.min(initial=0) >= 0
                and self.items.shape == self.timestamps.shape == (self.lengths.sum(),)):
            raise ValueError("items and timestamps must be equal 1-D columns "
                             "that the lengths partition")
        self.starts = np.cumsum(self.lengths) - self.lengths
        for col in (self.items, self.timestamps, self.lengths, self.starts):
            col.flags.writeable = False

    def __len__(self) -> int:
        return self.lengths.size

    def __getitem__(self, u) -> UserSequence:
        at = slice(self.starts[u], self.starts[u] + self.lengths[u])
        return UserSequence(self.items[at], self.timestamps[at])

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))

    def subset(self, users) -> Sequences:
        """The listed users' sequences, in list order, as new columns."""
        users = np.asarray(users, dtype=np.int64)
        lengths = self.lengths[users]
        at = (np.repeat(self.starts[users] - (np.cumsum(lengths) - lengths), lengths)
              + np.arange(lengths.sum()))
        return Sequences(self.items[at], self.timestamps[at], lengths)


@dataclass
class Vocab:
    """Dense-index to raw-id map; index 0 maps to no real item."""

    index_to_raw: list[str] = field(default_factory=lambda: [""])

    @property
    def num_real(self) -> int:
        return len(self.index_to_raw) - 1

    @property
    def size(self) -> int:
        """Total row count including the padding slot."""
        return len(self.index_to_raw)


@dataclass
class DatasetSplit:
    train_users: np.ndarray
    valid_users: np.ndarray
    test_users: np.ndarray
    item_vocab: Vocab

    def __post_init__(self):
        seen = set()
        for user in np.concatenate([self.train_users, self.valid_users,
                                    self.test_users]).tolist():
            if user in seen:
                raise ValueError(f"user {user} is listed more than once in the split")
            seen.add(user)


@dataclass
class DatasetBundle:
    sequences: Sequences
    split: DatasetSplit
    user_ids: list[str]

    def train_sequences(self) -> Sequences:
        return self.sequences.subset(self.split.train_users)


def _text_lines(path: str | Path, newline: str | None = None):
    """The lines of a UTF-8 text file; a decoding error names the file.

    ``newline`` is ``open``'s: by default a CRLF or a lone CR also ends a line.
    """
    with open(path, "r", encoding="utf-8", newline=newline) as fh:
        try:
            yield from fh
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: not UTF-8 text ({exc})") from None


def parse_log(path: str | Path, delimiter: str = ",") -> ParseResult:
    """Read one interaction per line (user, item, timestamp).

    Malformed lines (wrong field count, empty ids, a timestamp that is not
    an int64 integer) are skipped and counted; blank lines are ignored. An
    unreadable file or one that is not UTF-8 raises.
    """
    cols = read_columns(path, delimiter)
    users = np.array(cols.user_ids, dtype=object)[cols.users].tolist()
    items = np.array(cols.item_ids, dtype=object)[cols.items].tolist()
    return ParseResult(list(map(InteractionRecord, users, items, cols.timestamps.tolist())),
                       cols.rejects)


@dataclass
class LogColumns:
    """The kept lines of a log: ids coded 0.. by first appearance, int64
    timestamps and 1-based line numbers, in line order."""

    users: np.ndarray
    user_ids: list[str]
    items: np.ndarray
    item_ids: list[str]
    timestamps: np.ndarray
    lines: np.ndarray
    rejects: int


def _parse_line(line: str, delimiter: str) -> tuple[str, str, int] | tuple[()] | None:
    """One log line, without its line break, as (user, item, timestamp).

    ``()`` for a blank line (Unicode whitespace only), ``None`` for a
    malformed one.
    """
    if not line.strip():
        return ()
    parts = line.split(delimiter)
    if len(parts) != 3 or not parts[0] or not parts[1]:
        return None
    try:
        ts = int(parts[2])
    except ValueError:
        return None
    return (parts[0], parts[1], ts) if -2**63 <= ts < 2**63 else None


# lines the array parse takes at a time; its per-line temporaries stay this many long
_PARSE_BLOCK = 1 << 15


def read_columns(path: str | Path, delimiter: str) -> LogColumns:
    """``parse_log`` as coded columns, parsed from the file's bytes.

    A line is parsed with array operations when the delimiter is one ASCII
    byte, the line holds exactly two of it, both ids are non-empty and the
    timestamp is an optional ``-`` and 1-18 ASCII digits. Every other line
    goes through ``_parse_line`` at its own position, so both routes agree.
    The file is held once, with the 8 bytes ``_code_by_first_appearance``
    reads past it.
    """
    if not delimiter or "\n" in delimiter or "\r" in delimiter:
        raise ValueError(f"delimiter {delimiter!r} must be non-empty and hold no "
                         "line break")
    with open(path, "rb") as fh:  # the bytes, then 8 for the coder to read past them
        raw = bytearray(os.fstat(fh.fileno()).st_size + 8)
        got = fh.readinto(memoryview(raw)[:-8])
        raw[got:-8] = fh.read()  # a file that is not the size it was stated at
    try:
        str(memoryview(raw)[:-8], "utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text ({exc})") from None
    if b"\r" in raw:
        raw = raw.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    size = len(raw) - 8
    buf = np.frombuffer(raw, dtype=np.uint8)
    ends = np.flatnonzero(buf[:size] == ord("\n"))
    if size and buf[size - 1] != ord("\n"):
        ends = np.append(ends, size)
    starts = np.zeros_like(ends)
    starts[1:] = ends[:-1] + 1

    user_len, item_len, timestamps = np.zeros((3, len(ends)), np.int64)
    kept = np.zeros(len(ends), dtype=bool)
    sep = delimiter.encode("utf-8", "surrogatepass")
    if len(sep) == 1 and sep[0] < 128:
        _parse_simple_lines(buf, sep[0], starts, ends, user_len, item_len, timestamps, kept)
    rejects = 0
    for k in np.flatnonzero(~kept).tolist():
        parsed = _parse_line(raw[starts[k]:ends[k]].decode("utf-8"), delimiter)
        if parsed is None:
            rejects += 1
        elif parsed:
            user, item, timestamps[k] = parsed
            kept[k] = True
            user_len[k] = len(user.encode("utf-8"))
            item_len[k] = len(item.encode("utf-8"))

    kept = np.flatnonzero(kept)
    del ends
    timestamps, item_len = timestamps[kept], item_len[kept]
    starts, user_len = starts[kept], user_len[kept]
    users, user_ids = _code_by_first_appearance(raw, starts, user_len)
    starts += user_len  # each item's first byte: past the user and the delimiter
    starts += len(sep)
    del user_len
    items, item_ids = _code_by_first_appearance(raw, starts, item_len)
    kept += 1
    return LogColumns(users, user_ids, items, item_ids, timestamps, kept, rejects)


def _parse_simple_lines(buf: np.ndarray, sep: int, starts: np.ndarray, ends: np.ndarray,
                        user_len: np.ndarray, item_len: np.ndarray, timestamps: np.ndarray,
                        kept: np.ndarray) -> None:
    """``read_columns``' array parse, ``_PARSE_BLOCK`` lines at a time: for
    each line ``buf[starts[k]:ends[k]]`` that it covers, fill in entry k of
    the columns and set ``kept[k]``. ``buf`` holds a byte past the last line."""
    for lo in range(0, len(starts), _PARSE_BLOCK):
        block = slice(lo, lo + _PARSE_BLOCK)
        line_start, line_end = starts[block], ends[block]
        at = np.flatnonzero(buf[line_start[0]:line_end[-1]] == sep) + line_start[0]
        first = np.searchsorted(at, line_start)
        rows = np.flatnonzero(np.searchsorted(at, line_end) - first == 2)
        first, second = at[first[rows]], at[first[rows] + 1]
        negative = buf[second + 1] == ord("-")
        ts_start = second + 1 + negative
        digits = line_end[rows] - ts_start
        ok = (first > line_start[rows]) & (second > first + 1) & (digits >= 1) & (digits <= 18)
        ts = np.zeros(len(rows), np.int64)
        for j in range(int(digits[ok].max(initial=0))):
            has = ok & (digits > j)
            digit = buf[np.where(has, ts_start + j, 0)] - np.uint8(ord("0"))
            ok &= ~has | (digit <= 9)
            ts = np.where(has, ts * 10 + digit, ts)
        rows, first = rows[ok], first[ok]
        kept[block][rows] = True
        user_len[block][rows] = first - line_start[rows]
        item_len[block][rows] = second[ok] - first - 1
        timestamps[block][rows] = np.where(negative[ok], -ts[ok], ts[ok])


# byte k..7 of a little-endian word set to 0xFF, a byte no UTF-8 text holds
_PAD_FROM = np.array([~((1 << 8 * k) - 1) & (2**64 - 1) for k in range(9)], dtype=np.uint64)


def _code_by_first_appearance(raw: bytes | bytearray, starts: np.ndarray,
                              lengths: np.ndarray) -> tuple[np.ndarray, list[str]]:
    """Code 0.. the UTF-8 strings ``raw[s:s + n]`` in order of first
    appearance; also the distinct strings, decoded once each.

    A string is read as little-endian uint64 words padded with 0xFF, so two
    strings are equal exactly when their words are. Its last word reads up
    to 8 bytes past its end (all 8 for an empty string), so ``raw`` must
    hold 8 bytes, of any value, past every string's end. Strings of one word
    count are grouped by one argsort (a lexsort beyond one word), and each
    group's first row is its least.
    """
    # word_at[i] is the little-endian uint64 of the 8 bytes from offset i
    word_at = np.ndarray((len(raw) - 7,), "<u8", raw, strides=(1,))
    first = np.empty(len(starts), np.int64)  # the row of each row's first equal string
    n_words = np.maximum((lengths + 7) >> 3, 1)  # "" reads as one word of 0xFF
    for count in np.flatnonzero(np.bincount(n_words)).tolist():
        rows = np.flatnonzero(n_words == count)
        words = [word_at[starts[rows] + 8 * w] | _PAD_FROM[np.clip(lengths[rows] - 8 * w, 0, 8)]
                 for w in range(count)]
        order = np.argsort(words[0]) if len(words) == 1 else np.lexsort(words)
        new = np.zeros(len(rows), dtype=bool)
        new[0] = True
        for word in words:
            new[1:] |= word[order[1:]] != word[order[:-1]]
        heads = np.flatnonzero(new)
        rows = rows[order]
        first[rows] = np.repeat(np.minimum.reduceat(rows, heads),
                                np.diff(heads, append=len(rows)))
    distinct = np.flatnonzero(first == np.arange(len(first)))
    rank = np.zeros(len(first), np.int64)
    rank[distinct] = np.arange(len(distinct))
    return rank[first], [raw[s:s + n].decode("utf-8", "surrogatepass") for s, n in
                         zip(starts[distinct].tolist(), lengths[distinct].tolist())]


def _code_strings(keys: list[str]) -> tuple[np.ndarray, list[str]]:
    """``_code_by_first_appearance`` of a list of strings."""
    encoded = [key.encode("utf-8", "surrogatepass") for key in keys]
    lengths = np.fromiter(map(len, encoded), np.int64, len(encoded))
    return _code_by_first_appearance(b"".join([*encoded, bytes(8)]),
                                     np.cumsum(lengths) - lengths, lengths)


def _recode_by_first_appearance(codes: np.ndarray, keys: list[str]
                                ) -> tuple[np.ndarray, list[str]]:
    """First-appearance codes of ``[keys[c] for c in codes]``, from the codes."""
    present, first = np.unique(codes, return_index=True)
    present = present[np.argsort(first)]
    rank = np.empty(len(keys), dtype=np.int64)
    rank[present] = np.arange(len(present))
    return rank[codes], [keys[c] for c in present.tolist()]


def filter_and_index(records: list[InteractionRecord]) -> tuple[Sequences, Vocab, list[str]]:
    """Drop illegal timestamps, 5-core filter to a fixed point, index densely.

    Users and items with fewer than 5 surviving interactions are removed,
    re-counting until stable. Dense item indices start at 1 (0 = padding) in
    first-appearance order; per-user records are sorted by timestamp with
    ties kept in input order.
    """
    live = [r for r in records if r.timestamp > 0]
    return index_columns(*_code_strings([r.user for r in live]),
                         *_code_strings([r.item for r in live]),
                         np.fromiter((r.timestamp for r in live), np.int64, len(live)))


def _user_time_order(users: np.ndarray, timestamps: np.ndarray) -> np.ndarray:
    """``np.lexsort((timestamps, users))`` for user codes >= 0: one stable
    argsort of ``user * span + (timestamp - min)`` when that fits in int64."""
    if not len(users):
        return np.zeros(0, np.int64)
    low = int(timestamps.min())
    span = int(timestamps.max()) - low + 1
    if (int(users.max()) + 1) * span > 2**63:
        return np.lexsort((timestamps, users))
    return np.argsort(users * span + (timestamps - low), kind="stable")


def index_columns(users: np.ndarray, user_ids: list[str], items: np.ndarray,
                  item_raw: list[str], timestamps: np.ndarray
                  ) -> tuple[Sequences, Vocab, list[str]]:
    """``filter_and_index`` over first-appearance codes and their distinct ids."""
    keep = timestamps > 0
    while True:
        user_ok = np.bincount(users[keep], minlength=len(user_ids)) >= MIN_INTERACTIONS
        item_ok = np.bincount(items[keep], minlength=len(item_raw)) >= MIN_INTERACTIONS
        kept = keep & user_ok[users] & item_ok[items]
        if np.array_equal(kept, keep):
            break
        keep = kept
    if not keep.any():
        raise ValueError("dataset too sparse: nothing survives the 5-interaction filter")

    # re-code the survivors, so indices follow first appearance among them
    users, user_ids = _recode_by_first_appearance(users[keep], user_ids)
    items, item_raw = _recode_by_first_appearance(items[keep], item_raw)
    timestamps = timestamps[keep]
    order = _user_time_order(users, timestamps)  # timestamp ties keep input order
    sequences = Sequences(items[order] + 1, timestamps[order], np.bincount(users))
    return sequences, Vocab(["", *item_raw]), user_ids


def split_users(sequences: Sequences, seed: int, item_vocab: Vocab) -> DatasetSplit:
    """Deterministic shuffled 8:1:1 user split, rounding toward train.

    n_train = ceil(0.8 n); validation gets the floor half of the remainder,
    test the rest (17 users -> 14/1/2).
    """
    n = len(sequences)
    if n < 10:
        raise ValueError(f"need at least 10 users to split, got {n}")
    perm = np.random.default_rng(seed).permutation(n)
    n_train = int(np.ceil(0.8 * n))
    n_valid = (n - n_train) // 2
    return DatasetSplit(
        train_users=np.sort(perm[:n_train]).astype(np.int64),
        valid_users=np.sort(perm[n_train:n_train + n_valid]).astype(np.int64),
        test_users=np.sort(perm[n_train + n_valid:]).astype(np.int64),
        item_vocab=item_vocab,
    )


class BinaryReader:
    """Bounded reads from one binary container; ``finish`` rejects trailing
    bytes. Every failure is a ``ValueError`` that names the file."""

    def __init__(self, path: str | Path, magic: bytes = b""):
        self.path = path
        self.raw = Path(path).read_bytes()
        if not self.raw.startswith(magic):
            raise ValueError(f"{path}: bad magic (expected {magic!r})")
        self.pos = len(magic)

    def read(self, dtype: str, count: int, what: str) -> np.ndarray:
        return np.frombuffer(self.raw, dtype=dtype, count=count,
                             offset=self.skip(np.dtype(dtype).itemsize * count, what))

    def skip(self, nbytes: int, what: str) -> int:
        """Step over ``nbytes``; returns the offset they start at."""
        start, end = self.pos, self.pos + nbytes
        if nbytes < 0 or end > len(self.raw):
            raise ValueError(f"{self.path}: truncated in {what} (needs {end} "
                             f"bytes, file has {len(self.raw)})")
        self.pos = end
        return start

    def finish(self) -> None:
        if self.pos != len(self.raw):
            raise ValueError(f"{self.path}: {len(self.raw) - self.pos} trailing bytes")


# ---------------------------------------------------------------------------
# dataset bundle on disk
#
# sequences.bin layout (all little-endian):
#   u64 user_count
#   per user, ascending user index:
#     u64 user_index, u64 n, u32[n] item indices, i64[n] timestamps

def save_bundle(out_dir: str | Path, bundle: DatasetBundle) -> None:
    """Write the bundle's four files, each in one call; ``sequences.bin`` is
    laid out from the columns in one word array."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    vocab = bundle.split.item_vocab
    (out / "vocab.tsv").write_text("".join(
        f"{idx}\t{raw}\n" for idx, raw in enumerate(vocab.index_to_raw[1:], 1)),
        encoding="utf-8")
    (out / "users.tsv").write_text("".join(
        f"{idx}\t{raw}\n" for idx, raw in enumerate(bundle.user_ids)), encoding="utf-8")
    seqs = bundle.sequences
    n_users, total = len(seqs), seqs.items.size
    # every field is a whole number of 32-bit words: a record is its 4-word
    # header, one word per item and two per timestamp
    words = np.empty(2 + 4 * n_users + 3 * total, dtype="<u4")
    words[:2] = np.array([n_users], dtype="<u8").view("<u4")
    head = 2 + 4 * np.arange(n_users) + 3 * seqs.starts
    words[head[:, None] + np.arange(4)] = np.stack(
        [np.arange(n_users), seqs.lengths], axis=1).astype("<u8").view("<u4")
    at = np.repeat(head + 4 - seqs.starts, seqs.lengths)
    at += np.arange(total)                 # each item's word
    words[at] = seqs.items.astype("<u4")
    at += np.repeat(seqs.lengths - seqs.starts, seqs.lengths)
    at += np.arange(total)                 # each timestamp's first word
    stamps = seqs.timestamps.astype("<i8", copy=False).view("<u4").reshape(-1, 2)
    words[at] = stamps[:, 0]
    at += 1
    words[at] = stamps[:, 1]
    with open(out / "sequences.bin", "wb") as fh:
        fh.write(words)
    manifest = {key: getattr(bundle.split, key).tolist()
                for key in ("train_users", "valid_users", "test_users")}
    (out / "split.json").write_text(json.dumps(manifest, sort_keys=True, indent=1) + "\n",
                                    encoding="utf-8")


def _read_ids(path: Path, first: int) -> list[str]:
    """The ids of a two-column ``<index><TAB><id>`` TSV whose indices run
    densely from ``first``; a malformed line, then a gap, raises.

    Only LF ends a line, as ``save_bundle`` writes it, so an id keeps any CR
    it holds.
    """
    rows = []
    for line_no, line in enumerate(_text_lines(path, newline="\n"), 1):
        try:
            idx_s, raw = line.rstrip("\n").split("\t")
            rows.append((int(idx_s), raw))
        except ValueError:
            raise ValueError(f"{path}: line {line_no} is not "
                             "'<index><TAB><id>'") from None
    if [idx for idx, _ in rows] != list(range(first, first + len(rows))):
        raise ValueError(f"{path}: indices are not dense from {first}")
    return [raw for _, raw in rows]


def _gather(raw: bytes, dtype: str, offsets: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The ``counts[j]`` values of ``dtype`` stored from byte ``offsets[j]``,
    for every j in turn, as one int64 column."""
    size = np.dtype(dtype).itemsize
    value_at = np.ndarray((max(len(raw) - size + 1, 0),), dtype, raw, strides=(1,))
    return value_at[np.repeat(offsets - size * (np.cumsum(counts) - counts), counts)
                    + size * np.arange(counts.sum())].astype(np.int64)


def _read_sequences(path: Path, num_items: int) -> Sequences:
    """``sequences.bin``'s columns: the user headers are walked, then the
    items and timestamps are gathered and checked as columns. A defect is
    reported as a per-user read meets it first: by user, and within one the
    index, the items, their range, the timestamps, their order."""
    reader = BinaryReader(path)
    at, lengths, complete, failure = [], [], 0, None  # complete: users with timestamps
    try:
        for u in range(int(reader.read("<u8", 1, "header")[0])):
            got, n = struct.unpack_from("<QQ", reader.raw, reader.skip(16, "user header"))
            if got != u:
                raise ValueError(f"{path}: user index {got} where {u} belongs "
                                 "(indices must run 0..user_count-1)")
            at.append(reader.skip(4 * n, f"user {u}"))
            lengths.append(n)
            reader.skip(8 * n, f"user {u}")
            complete += 1
    except ValueError as exc:
        failure = exc
    at, lengths = np.array(at, dtype=np.int64), np.array(lengths, dtype=np.int64)
    items = _gather(reader.raw, "<u4", at, lengths)
    timestamps = _gather(reader.raw, "<i8", (at + 4 * lengths)[:complete], lengths[:complete])
    user = np.repeat(np.arange(lengths.size), lengths)
    bad_item = user[(items < 1) | (items > num_items)]
    user = user[:timestamps.size]
    bad_order = user[1:][(user[1:] == user[:-1]) & (timestamps[1:] < timestamps[:-1])]
    if bad_item.size and (not bad_order.size or bad_item[0] <= bad_order[0]):
        raise ValueError(f"{path}: user {bad_item[0]} has an item index outside "
                         f"1..{num_items}")
    if bad_order.size:
        raise ValueError(f"{path}: user {bad_order[0]}: timestamps must be non-decreasing")
    if failure is not None:
        raise failure
    reader.finish()
    return Sequences(items, timestamps, lengths)


def load_bundle(in_dir: str | Path) -> DatasetBundle:
    src = Path(in_dir)
    for name in ("vocab.tsv", "users.tsv", "sequences.bin", "split.json"):
        if not (src / name).exists():
            raise FileNotFoundError(f"dataset bundle incomplete: missing {src / name}")
    vocab_path = src / "vocab.tsv"
    item_ids = _read_ids(vocab_path, 1)
    seen = {}
    for idx, raw in enumerate(item_ids, 1):
        if seen.setdefault(raw, idx) != idx:
            raise ValueError(f"{vocab_path}: item id {raw!r} appears twice")
    vocab = Vocab(["", *item_ids])
    users_path = src / "users.tsv"
    user_ids = _read_ids(users_path, 0)
    seq_path = src / "sequences.bin"
    sequences = _read_sequences(seq_path, vocab.num_real)
    n_users = len(sequences)
    if len(user_ids) != n_users:
        raise ValueError(f"{users_path} has {len(user_ids)} lines but {seq_path} "
                         f"has {n_users} users")
    split_path = src / "split.json"
    keys = ("train_users", "valid_users", "test_users")
    try:
        manifest = json.loads(split_path.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise ValueError(f"{split_path}: not JSON ({exc})") from exc
    if not (isinstance(manifest, dict)
            and all(isinstance(manifest.get(k), list) for k in keys)):
        raise ValueError(f"{split_path}: must be an object holding the lists "
                         f"{', '.join(keys)}")
    for key in keys:
        if not all(type(u) is int and 0 <= u < n_users for u in manifest[key]):
            raise ValueError(f"{split_path}: {key} holds an entry that is not "
                             f"a user index in 0..{n_users - 1}")
    try:
        split = DatasetSplit(*(np.asarray(manifest[k], dtype=np.int64) for k in keys),
                             item_vocab=vocab)
    except ValueError as exc:
        raise ValueError(f"{split_path}: {exc}") from None
    return DatasetBundle(sequences, split, user_ids)


def prepare(log_path: str | Path, out_dir: str | Path, delimiter: str = ",",
            seed: int = 42) -> tuple[DatasetBundle, int]:
    """Full ingestion pipeline: parse, filter, split, write bundle.

    A kept user or item id that holds a tab raises, naming the first log
    line that holds it: the bundle's TSV files could not store it.
    """
    cols = read_columns(log_path, delimiter)
    sequences, vocab, user_ids = index_columns(cols.users, cols.user_ids, cols.items,
                                               cols.item_ids, cols.timestamps)
    for field, codes, ids, kept in (("user", cols.users, cols.user_ids, user_ids),
                                    ("item", cols.items, cols.item_ids, vocab.index_to_raw)):
        bad = next((raw for raw in kept if "\t" in raw), None)
        if bad is not None:
            line_no = cols.lines[np.argmax(codes == ids.index(bad))]
            raise ValueError(f"{log_path}: line {line_no}: {field} id {bad!r} holds "
                             "a tab, which the bundle cannot store")
    split = split_users(sequences, seed, vocab)
    bundle = DatasetBundle(sequences, split, user_ids)
    save_bundle(out_dir, bundle)
    return bundle, cols.rejects
