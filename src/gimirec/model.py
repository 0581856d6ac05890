"""Model parameters, the shared forward pass and checkpoint serialization.

The same forward path serves training and inference: global embeddings via
the fixed normalized adjacency (only the rows a batch reads, or the full
table evaluation ranks against), interval attention over the recent window,
layered aggregation with the virtual center node, then K-interest
extraction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from . import autodiff as ad
from .aggregate import AttnProjs, LayerParams, aggregate_layers, hybrid_embeddings
from .ingest import BinaryReader
from .interests import extract_interests
from .recent import interval_attention

CHECKPOINT_MAGIC = b"GIMI-CKPT1"
CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class ModelDims:
    n_items: int     # item table rows, padding row 0 included
    d: int
    k: int
    l_rec: int
    l_time: int
    n_heads: int
    n_layers: int

    def __post_init__(self):
        for field in fields(self):
            if (value := getattr(self, field.name)) < 1:
                raise ValueError(f"ModelDims.{field.name} must be >= 1, got {value}")
        if self.d % self.n_heads != 0:
            raise ValueError("embedding dim must be divisible by head count")


class ModelParams:
    """All trainable tensors; padding row 0 of the item table stays zero."""

    def __init__(self, dims: ModelDims, tensors: dict[str, ad.Tensor]):
        self.dims = dims
        self._tensors = tensors
        self.item_table = tensors["item_embeddings"]
        self.interval_table = tensors["interval_embeddings"]
        self.interval_score_w = tensors["interval_score_weight"]
        self.interest_hidden_w = tensors["interest_hidden_weight"]
        self.interest_query_w = tensors["interest_query_weight"]
        self.layers = []
        for li in range(dims.n_layers):
            self.layers.append(LayerParams(
                item=AttnProjs(*(tensors[f"layer{li}.item.{n}"] for n in ("wq", "wk", "wv", "wo"))),
                center=AttnProjs(*(tensors[f"layer{li}.center.{n}"] for n in ("wq", "wk", "wv", "wo"))),
            ))

    @staticmethod
    def tensor_shapes(dims: ModelDims) -> dict[str, tuple]:
        shapes = {
            "item_embeddings": (dims.n_items, dims.d),
            "interval_embeddings": (dims.l_time + 1, dims.d),
            "interval_score_weight": (dims.d, 1),
            "interest_hidden_weight": (4 * dims.d, dims.d),
            "interest_query_weight": (dims.k, 4 * dims.d),
        }
        for li in range(dims.n_layers):
            for role in ("item", "center"):
                for n in ("wq", "wk", "wv", "wo"):
                    shapes[f"layer{li}.{role}.{n}"] = (dims.d, dims.d)
        return shapes

    @classmethod
    def init(cls, dims: ModelDims, rng: np.random.Generator,
             dtype=np.float32) -> "ModelParams":
        """Symmetric uniform init with scale 1/sqrt(d), in declaration order."""
        scale = 1.0 / np.sqrt(dims.d)
        tensors = {}
        for name, shape in cls.tensor_shapes(dims).items():
            data = rng.uniform(-scale, scale, size=shape).astype(dtype)
            if name == "item_embeddings":
                data[0] = 0.0
            tensors[name] = ad.Tensor(data, requires_grad=True)
        return cls(dims, tensors)

    def named(self) -> dict[str, ad.Tensor]:
        return dict(self._tensors)

    def zero_grad(self):
        for t in self._tensors.values():
            t.grad = None

    @property
    def dtype(self):
        return self.item_table.dtype

    def astype(self, dtype) -> "ModelParams":
        tensors = {n: ad.Tensor(t.data.astype(dtype), requires_grad=True)
                   for n, t in self._tensors.items()}
        return ModelParams(self.dims, tensors)


def cast_adjacency(a_norm: sp.csr_matrix, dtype) -> sp.csr_matrix:
    """``a_norm`` in the model dtype, uncopied if already in it. Unchecked:
    the CLI checks a file's as it reads it, and a build is symmetric."""
    return a_norm.astype(dtype, copy=False)


def check_adjacency_shape(params: ModelParams, a_norm: sp.csr_matrix) -> None:
    n_items = params.item_table.shape[0]
    if a_norm.shape != (n_items, n_items):
        raise ValueError(f"adjacency shape {a_norm.shape} does not match "
                         f"the item table's {n_items} rows")


def forward_interests(params: ModelParams, a_norm: sp.csr_matrix,
                      item_idx: np.ndarray, buckets: np.ndarray,
                      mask: np.ndarray, dropout_rate: float = 0.0,
                      rng: np.random.Generator | None = None,
                      residual: bool = False,
                      extra_rows: tuple[np.ndarray, ...] = ()) -> tuple[ad.Tensor, dict]:
    """Window batch -> (interests (B, K, d), aux tensors): the global rows a
    batch reads (``ad.spmm_rows``), then ``forward_from_table``.

    aux carries the global table, the per-item matrix and the interest
    attention. The global table has all V rows but only those the caller
    reads are computed: the window items and the indices in ``extra_rows``
    (a loss passes its targets and negatives); every other row is zero.
    """
    if residual:  # the keyword is kept only for perfbench/
        raise ValueError("residual must be False (the option was removed)")
    check_adjacency_shape(params, a_norm)
    read = np.zeros(params.item_table.shape[0], dtype=bool)
    read[item_idx] = True
    for idx in extra_rows:
        read[idx] = True
    e_global = ad.spmm_rows(a_norm, params.item_table,
                            np.flatnonzero(read))                  # (V, d)
    return forward_from_table(params, e_global, item_idx, buckets, mask,
                              dropout_rate, rng)


def forward_from_table(params: ModelParams, e_global: ad.Tensor,
                       item_idx: np.ndarray, buckets: np.ndarray,
                       mask: np.ndarray, dropout_rate: float = 0.0,
                       rng: np.random.Generator | None = None) -> tuple[ad.Tensor, dict]:
    """``forward_interests`` after the sparse product: the window batch's
    interests from a (V, d) global table whose ``item_idx`` rows are set.

    Evaluation passes the full table it ranks against; SciPy sums each CSR
    row in the same order whether or not the matrix is sliced, so the result
    is bit-equal to ``forward_interests``.
    """
    global_rows = ad.gather(e_global, item_idx)                   # (B, L, d)
    e_time = interval_attention(buckets, params.interval_table,
                                params.interval_score_w, mask)
    hybrid = hybrid_embeddings(global_rows, e_time, mask)
    e_user = aggregate_layers(
        hybrid, global_rows, params.layers, params.dims.n_heads, mask,
        dropout_rate=dropout_rate, rng=rng)
    interests, attn = extract_interests(
        e_user, params.interest_hidden_w, params.interest_query_w, mask)
    return interests, {"e_global": e_global, "e_user": e_user,
                       "interest_attn": attn}


# ---------------------------------------------------------------------------
# checkpoint container: magic "GIMI-CKPT1", then little-endian
#   u32 version,
#   i64[7] dims (n_items, d, K, L_rec, L_time, H, L_layer),
#   u32 tensor_count,
#   per tensor: u32 name_len, name bytes (utf-8), u32 ndim, i64[ndim] shape,
#               f32[] row-major values

def save_checkpoint(path: str | Path, params: ModelParams) -> None:
    d = params.dims
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(np.uint32(CHECKPOINT_VERSION).astype("<u4").tobytes())
        fh.write(np.array([d.n_items, d.d, d.k, d.l_rec, d.l_time,
                           d.n_heads, d.n_layers], dtype="<i8").tobytes())
        named = params.named()
        fh.write(np.uint32(len(named)).astype("<u4").tobytes())
        for name, tensor in named.items():
            raw = name.encode("utf-8")
            fh.write(np.uint32(len(raw)).astype("<u4").tobytes())
            fh.write(raw)
            arr = np.ascontiguousarray(tensor.data, dtype="<f4")
            fh.write(np.uint32(arr.ndim).astype("<u4").tobytes())
            fh.write(np.array(arr.shape, dtype="<i8").tobytes())
            fh.write(arr.tobytes())


def load_checkpoint(path: str | Path, dtype=np.float32) -> ModelParams:
    """Read a checkpoint; a malformed container raises ``ValueError``.

    Each tensor's declared shape is checked against the header dims before
    its values are read, the values must be finite, and the file must end
    exactly after the last tensor.
    """
    reader = BinaryReader(path, CHECKPOINT_MAGIC)
    version = int(reader.read("<u4", 1, "header")[0])
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {version}")
    header = [int(x) for x in reader.read("<i8", 7, "header")]
    if min(header) < 1:
        raise ValueError(f"{path}: model dims must be positive, got {header}")
    dims = ModelDims(*header)
    # the shape table grows with the layer count: bound it by the file first
    if dims.n_layers > len(reader.raw):
        raise ValueError(f"{path}: {dims.n_layers} layers cannot fit in "
                         f"{len(reader.raw)} bytes")
    expected = ModelParams.tensor_shapes(dims)
    tensors = {}
    for _ in range(int(reader.read("<u4", 1, "header")[0])):
        name_len = int(reader.read("<u4", 1, "tensor name")[0])
        raw_name = reader.read("u1", name_len, "tensor name").tobytes()
        name = raw_name.decode("utf-8", "replace")
        if name not in expected or name in tensors:
            raise ValueError(f"{path}: unexpected or repeated tensor {name!r}")
        ndim = int(reader.read("<u4", 1, name)[0])
        shape = tuple(int(x) for x in reader.read("<i8", ndim, name))
        if shape != expected[name]:
            raise ValueError(f"{path}: tensor {name!r} has shape {shape}, "
                             f"model dims imply {expected[name]}")
        data = reader.read("<f4", math.prod(shape), name).reshape(shape).astype(dtype)
        if not np.all(np.isfinite(data)):
            raise ValueError(f"{path}: non-finite value in tensor {name!r}")
        tensors[name] = ad.Tensor(data, requires_grad=True)
    if set(tensors) != set(expected):
        raise ValueError("checkpoint tensor names do not match model dims")
    reader.finish()
    return ModelParams(dims, tensors)
