"""Global co-occurrence context.

Scans every training user's full history once, accumulating interval-weighted
1/2/3-hop item-pair weights, combines the symmetrized hop matrices into a
weighted adjacency with unit diagonal, normalizes it symmetrically and
produces global item embeddings with a single sparse-dense product.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from .ingest import BinaryReader, Sequences

HOPS = (1, 2, 3)

ADJACENCY_MAGIC = b"GIMI-ADJ1"


class AblationVariant(str, enum.Enum):
    """Progressive removal of interval weighting, counts and the threshold."""

    FULL = "full"
    NO_I = "no_I"      # per-occurrence weight 1: counts only
    NO_IN = "no_IN"    # accumulated weight clamped to 1: presence only
    NO_INT = "no_INT"  # presence only and no time-interval threshold

    @property
    def uses_interval_weight(self) -> bool:
        return self is AblationVariant.FULL

    @property
    def uses_counts(self) -> bool:
        return self in (AblationVariant.FULL, AblationVariant.NO_I)

    @property
    def uses_threshold(self) -> bool:
        return self is not AblationVariant.NO_INT


class HopPairs(NamedTuple):
    """Distinct ordered pairs (rows[j], cols[j]), sorted, and their weights."""

    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray


@dataclass
class HopPairAccumulator:
    """Per-hop accumulated occurrence weights of ordered item pairs."""

    hops: dict[int, HopPairs]
    occurrences: int = 0


def occurrence_weight(delta_t, a: float, b: float, l_time: float):
    """Linear interval weight a*(L-dt)/L + b; 1 at dt=0, b at dt=L."""
    dt = np.asarray(delta_t, dtype=np.float64)
    if np.any(dt < 0) or np.any(dt > l_time):
        raise ValueError("delta_t outside [0, L_time]; caller must filter")
    out = a * (l_time - dt) / l_time + b
    return float(out) if np.isscalar(delta_t) else out


def extract_hop_pairs(sequences: Sequences, variant: AblationVariant,
                      a: float, b: float, l_time: float,
                      time_unit_seconds: int = 86400,
                      allow_self_pairs: bool = True) -> HopPairAccumulator:
    """Accumulate 1/2/3-hop ordered pair weights over full user histories.

    An ordered pair (items[n], items[n+k]) of one user qualifies when its
    interval, converted to time units, is <= l_time (always, for the no_INT
    variant). Each pair's occurrences are summed in (user, position) order,
    so sums are reproducible bit for bit.
    """
    if a < 0 or b < 0 or abs(a + b - 1.0) > 1e-9:
        raise ValueError(f"interval weights need a+b=1, a,b>=0 (a={a}, b={b})")
    items, ts = sequences.items, sequences.timestamps
    user = np.repeat(np.arange(len(sequences)), sequences.lengths)
    # pair key mu * base + nu, exact in int64 for catalogs below 3e9 items
    base = int(items.max(initial=0)) + 1
    hops = {}
    occurrences = 0
    for k in HOPS:
        mu, nu = items[:-k], items[k:]
        dt = (ts[k:] - ts[:-k]).astype(np.float64) / time_unit_seconds
        keep = user[:-k] == user[k:]
        if variant.uses_threshold:
            keep &= dt <= l_time
        if not allow_self_pairs:
            keep &= mu != nu
        if variant.uses_interval_weight:
            w = occurrence_weight(dt[keep], a, b, l_time)
        else:
            w = np.ones(int(keep.sum()), dtype=np.float64)
        keys, inverse = np.unique(mu[keep] * base + nu[keep], return_inverse=True)
        values = np.bincount(inverse, weights=w, minlength=len(keys))
        if not variant.uses_counts:
            values[:] = 1.0
        hops[k] = HopPairs(keys // base, keys % base, values)
        occurrences += len(w)
    return HopPairAccumulator(hops, occurrences)


@dataclass
class NormalizedAdjacency:
    """The normalized adjacency; its row/column 0, the padding slot, is an
    identity row, so padding passes through the graph convolution unchanged."""

    a_norm: sp.csr_matrix


def build_weighted_adjacency(acc: HopPairAccumulator, alpha: float, beta: float,
                             gamma: float, num_items: int) -> NormalizedAdjacency:
    """Symmetrize each hop matrix, combine with identity, normalize.

    A^k = Q^k + Q^k.T;  A' = alpha A^1 + beta A^2 + gamma A^3 + I;
    a_norm = D^-1/2 A' D^-1/2 with D the diagonal of row sums. Entry (r, c)
    of A^k is q[r,c] + q[c,r], the same float as entry (c, r), so A' (and
    a_norm) are symmetric bit for bit; a self pair counts twice.
    """
    top = max(int(np.max((h.rows, h.cols), initial=0)) for h in acc.hops.values())
    if num_items < top:
        raise ValueError("num_items smaller than the largest accumulated index")
    size = num_items + 1  # padding row 0 included

    a_norm = sp.csr_matrix((size, size))  # A' until it is scaled in place below
    for hop_weight, k in zip((alpha, beta, gamma), HOPS):
        rows, cols, values = acc.hops[k]
        q = sp.csr_matrix((values, (rows, cols)), shape=(size, size))
        q = hop_weight * (q + q.T)  # Q^k is freed before the sum, this term after it
        a_norm = a_norm + q
        del q
    a_norm = a_norm + sp.identity(size, format="csr")

    degree = np.asarray(a_norm.sum(axis=1)).ravel()
    if not np.all(degree > 0):   # only a negative hop weight cancels the unit diagonal
        raise ValueError(f"adjacency row sums must be > 0, got {degree.min()}")
    d_inv_sqrt = 1.0 / np.sqrt(degree)
    # a'[r, c] * (d[r]*d[c]): the pair's scale is one product, so bit symmetry holds
    scale = np.repeat(d_inv_sqrt, np.diff(a_norm.indptr))
    scale *= d_inv_sqrt[a_norm.indices]
    a_norm.data *= scale
    return NormalizedAdjacency(a_norm)


def global_embeddings(a_norm: sp.csr_matrix, item_table: np.ndarray) -> np.ndarray:
    """One-hop graph convolution: normalized adjacency times the item table."""
    if a_norm.shape[1] != item_table.shape[0]:
        raise ValueError("adjacency and item table dimensions disagree")
    return a_norm @ item_table


# ---------------------------------------------------------------------------
# exported container: magic "GIMI-ADJ1", then little-endian
#   i64 n_rows, i64 n_cols, i64 nnz,
#   i64[n_rows+1] indptr, i64[nnz] indices, f64[nnz] values  (CSR, a_norm)

def write_adjacency(path: str | Path, adj: NormalizedAdjacency) -> None:
    m = adj.a_norm.tocsr()
    m.sort_indices()
    with open(path, "wb") as fh:
        fh.write(ADJACENCY_MAGIC)
        fh.write(np.array([m.shape[0], m.shape[1], m.nnz], dtype="<i8").tobytes())
        fh.write(m.indptr.astype("<i8").tobytes())
        fh.write(m.indices.astype("<i8").tobytes())
        fh.write(m.data.astype("<f8").tobytes())


def read_adjacency(path: str | Path) -> sp.csr_matrix:
    reader = BinaryReader(path, ADJACENCY_MAGIC)
    n_rows, n_cols, nnz = (int(x) for x in reader.read("<i8", 3, "header"))
    if n_rows != n_cols or n_rows < 0 or nnz < 0:
        raise ValueError(f"{path}: shape ({n_rows}, {n_cols}), nnz {nnz}: "
                         "not a square matrix")
    indptr = reader.read("<i8", n_rows + 1, "indptr").astype(np.int64)
    indices = reader.read("<i8", nnz, "indices").astype(np.int64)
    data = reader.read("<f8", nnz, "values").astype(np.float64)
    reader.finish()
    if indptr[0] != 0 or indptr[-1] != nnz or np.any(np.diff(indptr) < 0):
        raise ValueError(f"{path}: indptr must rise monotonically from 0 to nnz")
    if nnz and (indices.min() < 0 or indices.max() >= n_cols):
        raise ValueError(f"{path}: column index outside [0, {n_cols})")
    if not np.all(np.isfinite(data)):
        raise ValueError(f"{path}: non-finite adjacency value")
    return sp.csr_matrix((data, indices, indptr), shape=(n_rows, n_cols))


def write_global_embeddings(path: str | Path, emb: np.ndarray) -> None:
    """Raw row-major float32 matrix, one row per item table row."""
    np.ascontiguousarray(emb, dtype="<f4").tofile(path)
