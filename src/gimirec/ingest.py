"""Interaction-log ingestion.

Parses delimited logs, drops non-positive timestamps, applies the iterative
5-interaction user/item filter, assigns dense indices (item index 0 is the
padding slot), splits users 8:1:1 and reads/writes the on-disk dataset
bundle (vocab.tsv / sequences.bin / split.json). ``BinaryReader`` is the
bounded reader every binary container (bundle, adjacency, checkpoint) loads
through.
"""

from __future__ import annotations

import json
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


@dataclass
class UserSequence:
    """One user's chronologically ordered interactions (dense indices)."""

    user_index: int
    items: np.ndarray
    timestamps: np.ndarray

    def __post_init__(self):
        self.items = np.asarray(self.items, dtype=np.int64)
        self.timestamps = np.asarray(self.timestamps, dtype=np.int64)
        if self.items.shape != self.timestamps.shape:
            raise ValueError("items and timestamps must have equal length")
        if np.any(np.diff(self.timestamps) < 0):
            raise ValueError("timestamps must be non-decreasing")

    def __len__(self) -> int:
        return int(self.items.shape[0])


@dataclass
class Vocab:
    """Bidirectional raw-id/dense-index map; index 0 maps to no real item."""

    index_to_raw: list[str] = field(default_factory=lambda: [""])
    raw_to_index: dict[str, int] = field(default_factory=dict)

    def add(self, raw: str) -> int:
        idx = self.raw_to_index.get(raw)
        if idx is None:
            idx = len(self.index_to_raw)
            self.index_to_raw.append(raw)
            self.raw_to_index[raw] = idx
        return idx

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
        sets = [set(self.train_users.tolist()), set(self.valid_users.tolist()),
                set(self.test_users.tolist())]
        total = len(sets[0]) + len(sets[1]) + len(sets[2])
        if len(sets[0] | sets[1] | sets[2]) != total:
            raise ValueError("split sets must be pairwise disjoint")


@dataclass
class DatasetBundle:
    sequences: list[UserSequence]
    split: DatasetSplit
    user_ids: list[str]

    def train_sequences(self) -> list[UserSequence]:
        return [self.sequences[u] for u in self.split.train_users]


def parse_log(path: str | Path, delimiter: str = ",") -> ParseResult:
    """Read one interaction per line (user, item, timestamp).

    Malformed lines (wrong field count, empty ids, unparsable timestamp) are
    skipped and counted; blank lines are ignored. An unreadable file raises.
    """
    records: list[InteractionRecord] = []
    rejects = 0
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n").rstrip("\r")
            if not line.strip():
                continue
            parts = line.split(delimiter)
            if len(parts) != 3 or not parts[0] or not parts[1]:
                rejects += 1
                continue
            try:
                ts = int(parts[2])
            except ValueError:
                rejects += 1
                continue
            records.append(InteractionRecord(parts[0], parts[1], ts))
    return ParseResult(records, rejects)


def filter_and_index(records: list[InteractionRecord]) -> tuple[list[UserSequence], Vocab, list[str]]:
    """Drop illegal timestamps, 5-core filter to a fixed point, index densely.

    Users and items with fewer than 5 surviving interactions are removed,
    re-counting until stable. Dense item indices start at 1 (0 = padding) in
    first-appearance order; per-user records are sorted by timestamp with
    ties kept in input order.
    """
    live = [r for r in records if r.timestamp > 0]
    while True:
        user_counts: dict[str, int] = {}
        item_counts: dict[str, int] = {}
        for r in live:
            user_counts[r.user] = user_counts.get(r.user, 0) + 1
            item_counts[r.item] = item_counts.get(r.item, 0) + 1
        kept = [r for r in live
                if user_counts[r.user] >= MIN_INTERACTIONS
                and item_counts[r.item] >= MIN_INTERACTIONS]
        if len(kept) == len(live):
            break
        live = kept
    if not live:
        raise ValueError("dataset too sparse: nothing survives the 5-interaction filter")

    item_vocab = Vocab()
    user_index: dict[str, int] = {}
    user_ids: list[str] = []
    per_user: dict[int, list[tuple[int, int, int]]] = {}
    for order, r in enumerate(live):
        u = user_index.get(r.user)
        if u is None:
            u = len(user_ids)
            user_index[r.user] = u
            user_ids.append(r.user)
            per_user[u] = []
        i = item_vocab.add(r.item)
        per_user[u].append((r.timestamp, order, i))

    sequences = []
    for u in range(len(user_ids)):
        rows = sorted(per_user[u], key=lambda t: (t[0], t[1]))
        sequences.append(UserSequence(
            user_index=u,
            items=np.array([i for _, _, i in rows], dtype=np.int64),
            timestamps=np.array([ts for ts, _, _ in rows], dtype=np.int64),
        ))
    return sequences, item_vocab, user_ids


def split_users(sequences: list[UserSequence], seed: int, item_vocab: Vocab) -> DatasetSplit:
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
        end = self.pos + np.dtype(dtype).itemsize * count
        if count < 0 or end > len(self.raw):
            raise ValueError(f"{self.path}: truncated in {what} (needs {end} "
                             f"bytes, file has {len(self.raw)})")
        arr = np.frombuffer(self.raw, dtype=dtype, count=count, offset=self.pos)
        self.pos = end
        return arr

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
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    vocab = bundle.split.item_vocab
    with open(out / "vocab.tsv", "w", encoding="utf-8") as fh:
        for idx in range(1, vocab.size):
            fh.write(f"{idx}\t{vocab.index_to_raw[idx]}\n")
    with open(out / "users.tsv", "w", encoding="utf-8") as fh:
        for idx, raw in enumerate(bundle.user_ids):
            fh.write(f"{idx}\t{raw}\n")
    with open(out / "sequences.bin", "wb") as fh:
        fh.write(np.uint64(len(bundle.sequences)).astype("<u8").tobytes())
        for seq in bundle.sequences:
            fh.write(np.array([seq.user_index, len(seq)], dtype="<u8").tobytes())
            fh.write(seq.items.astype("<u4").tobytes())
            fh.write(seq.timestamps.astype("<i8").tobytes())
    manifest = {
        "train_users": bundle.split.train_users.tolist(),
        "valid_users": bundle.split.valid_users.tolist(),
        "test_users": bundle.split.test_users.tolist(),
    }
    with open(out / "split.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=1)
        fh.write("\n")


def _read_tsv(path: Path) -> list[tuple[int, str]]:
    """The (index, id) lines of a two-column TSV; a malformed line raises."""
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, 1):
            try:
                idx_s, raw = line.rstrip("\n").split("\t")
                rows.append((int(idx_s), raw))
            except ValueError:
                raise ValueError(f"{path}: line {line_no} is not "
                                 "'<index><TAB><id>'") from None
    return rows


def load_bundle(in_dir: str | Path) -> DatasetBundle:
    src = Path(in_dir)
    for name in ("vocab.tsv", "sequences.bin", "split.json"):
        if not (src / name).exists():
            raise FileNotFoundError(f"dataset bundle incomplete: missing {src / name}")
    vocab = Vocab()
    for idx, raw in _read_tsv(src / "vocab.tsv"):
        if vocab.add(raw) != idx:
            raise ValueError(f"{src / 'vocab.tsv'}: indices are not dense from 1")
    users_path = src / "users.tsv"
    user_ids = ([raw for _, raw in _read_tsv(users_path)]
                if users_path.exists() else None)
    seq_path = src / "sequences.bin"
    reader = BinaryReader(seq_path)
    n_users = int(reader.read("<u8", 1, "header")[0])
    sequences = []
    for expected in range(n_users):
        u, n = (int(x) for x in reader.read("<u8", 2, "user header"))
        if u != expected:
            raise ValueError(f"{seq_path}: user index {u} where {expected} "
                             "belongs (indices must run 0..user_count-1)")
        items = reader.read("<u4", n, f"user {u}").astype(np.int64)
        if n and (items.min() < 1 or items.max() > vocab.num_real):
            raise ValueError(f"{seq_path}: user {u} has an item index outside "
                             f"1..{vocab.num_real}")
        ts = reader.read("<i8", n, f"user {u}").astype(np.int64)
        try:
            sequences.append(UserSequence(u, items, ts))
        except ValueError as exc:
            raise ValueError(f"{seq_path}: user {u}: {exc}") from exc
    reader.finish()
    if user_ids is None:
        user_ids = [f"user{u}" for u in range(n_users)]
    elif len(user_ids) != n_users:
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
    split = DatasetSplit(*(np.asarray(manifest[k], dtype=np.int64) for k in keys),
                         item_vocab=vocab)
    return DatasetBundle(sequences, split, user_ids)


def prepare(log_path: str | Path, out_dir: str | Path, delimiter: str = ",",
            seed: int = 42) -> tuple[DatasetBundle, int]:
    """Full ingestion pipeline: parse, filter, split, write bundle."""
    parsed = parse_log(log_path, delimiter)
    sequences, vocab, user_ids = filter_and_index(parsed.records)
    split = split_users(sequences, seed, vocab)
    bundle = DatasetBundle(sequences, split, user_ids)
    save_bundle(out_dir, bundle)
    return bundle, parsed.rejects
