import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from gimirec import autodiff as ad
from gimirec.global_context import (AblationVariant, build_weighted_adjacency,
                                    extract_hop_pairs)
from helpers import random_sequences


@pytest.fixture
def tiny_adjacency():
    """Small honest adjacency built from random sequences (8 items)."""
    rng = np.random.default_rng(99)
    seqs = random_sequences(rng, n_users=4, n_items=8, max_len=9)
    acc = extract_hop_pairs(seqs, AblationVariant.FULL, a=0.5, b=0.5,
                            l_time=6.0, time_unit_seconds=1)
    return build_weighted_adjacency(acc, 3.0, 2.0, 1.0, 8)


@pytest.fixture
def softmax_probs(monkeypatch):
    """Every ``ad.masked_softmax`` output of the test, in call order."""
    recorded = []
    masked_softmax = ad.masked_softmax

    def recording(x, mask=None):
        out = masked_softmax(x, mask)
        recorded.append(out.data)
        return out

    monkeypatch.setattr(ad, "masked_softmax", recording)
    return recorded
