import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from gimirec.global_context import (AblationVariant, HopPairAccumulator, HopPairs,
                                    build_weighted_adjacency, extract_hop_pairs)
from gimirec.ingest import UserSequence


def random_sequences(rng: np.random.Generator, n_users: int = 5,
                     n_items: int = 10, max_len: int = 12,
                     min_len: int = 5, max_gap: int = 5) -> list[UserSequence]:
    """Random dense-indexed user sequences with unit-second timestamps."""
    seqs = []
    for u in range(n_users):
        n = int(rng.integers(min_len, max_len + 1))
        items = rng.integers(1, n_items + 1, size=n).astype(np.int64)
        ts = 1 + np.cumsum(rng.integers(0, max_gap + 1, size=n)).astype(np.int64)
        seqs.append(UserSequence(u, items, ts))
    return seqs


def hop_dicts(acc: HopPairAccumulator) -> dict:
    """The accumulator's per-hop arrays as {k: {(mu, nu): weight}} dicts."""
    return {k: {(r, c): v for r, c, v in zip(h.rows.tolist(), h.cols.tolist(),
                                              h.values.tolist())}
            for k, h in acc.hops.items()}


def acc_from_dicts(weights: dict, a: float = 0.5, b: float = 0.5,
                   l_time: float = 10.0,
                   variant=AblationVariant.FULL) -> HopPairAccumulator:
    """An accumulator holding the given {k: {(mu, nu): weight}} hop dicts."""
    hops = {}
    for k in (1, 2, 3):
        pairs = sorted(weights.get(k, {}).items())
        hops[k] = HopPairs(np.array([p[0][0] for p in pairs], dtype=np.int64),
                           np.array([p[0][1] for p in pairs], dtype=np.int64),
                           np.array([p[1] for p in pairs], dtype=np.float64))
    return HopPairAccumulator(hops, a, b, l_time, variant)


@pytest.fixture
def tiny_adjacency():
    """Small honest adjacency built from random sequences (8 items)."""
    rng = np.random.default_rng(99)
    seqs = random_sequences(rng, n_users=4, n_items=8, max_len=9)
    acc = extract_hop_pairs(seqs, AblationVariant.FULL, a=0.5, b=0.5,
                            l_time=6.0, time_unit_seconds=1)
    return build_weighted_adjacency(acc, 3.0, 2.0, 1.0, 8)
