"""Parameter container, shared forward pass and checkpoint format."""

import contextlib
import dataclasses
import re

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import HealthCheck, given, settings, strategies as st

from gimirec import autodiff as ad
from gimirec.model import (CHECKPOINT_MAGIC, ModelDims, ModelParams,
                           cast_adjacency, forward_interests, load_checkpoint,
                           save_checkpoint)

DIMS = ModelDims(n_items=9, d=8, k=2, l_rec=4, l_time=6, n_heads=2, n_layers=2)


def fresh_params(seed=0, dtype=np.float64):
    return ModelParams.init(DIMS, np.random.default_rng(seed), dtype=dtype)


class TestModelParams:
    def test_shapes(self):
        params = fresh_params()
        named = params.named()
        assert named["item_embeddings"].shape == (9, 8)
        assert named["interval_embeddings"].shape == (7, 8)
        assert named["interval_score_weight"].shape == (8, 1)
        assert named["interest_hidden_weight"].shape == (32, 8)
        assert named["interest_query_weight"].shape == (2, 32)
        assert named["layer1.center.wo"].shape == (8, 8)
        assert len(named) == 5 + 2 * 2 * 4

    def test_padding_row_zero_and_scale(self):
        params = fresh_params()
        table = params.item_table.data
        assert np.all(table[0] == 0.0)
        assert np.abs(table[1:]).max() <= 1.0 / np.sqrt(8)

    def test_same_seed_same_init(self):
        a, b = fresh_params(3), fresh_params(3)
        for (na, ta), (nb, tb) in zip(a.named().items(), b.named().items()):
            assert na == nb
            np.testing.assert_array_equal(ta.data, tb.data)

    @pytest.mark.parametrize("value", [0, -2])
    @pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(ModelDims)])
    def test_dims_below_one_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"^ModelDims.{field} must be >= 1, got {value}$"):
            dataclasses.replace(DIMS, **{field: value})

    def test_head_divisibility_enforced(self):
        with pytest.raises(ValueError):
            ModelDims(n_items=5, d=6, k=2, l_rec=3, l_time=4, n_heads=4,
                      n_layers=1)


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        params = fresh_params(dtype=np.float32)
        path = tmp_path / "checkpoint.bin"
        save_checkpoint(path, params)
        assert path.read_bytes()[:10] == CHECKPOINT_MAGIC
        loaded = load_checkpoint(path)
        assert loaded.dims == DIMS
        for name, tensor in params.named().items():
            np.testing.assert_array_equal(loaded.named()[name].data,
                                          tensor.data)

    def test_float64_params_serialize_as_f32(self, tmp_path):
        params = fresh_params(dtype=np.float64)
        path = tmp_path / "checkpoint.bin"
        save_checkpoint(path, params)
        loaded = load_checkpoint(path, dtype=np.float64)
        np.testing.assert_array_equal(
            loaded.item_table.data,
            params.item_table.data.astype(np.float32).astype(np.float64))

    @pytest.mark.parametrize("case, match", [
        ("trailing_bytes", "trailing bytes"),
        ("swapped_shape", r"'item_embeddings' has shape \(8, 9\)"),
        ("negative_dim", r"'layer1.center.wo' has shape \(8, -1\)"),
        ("truncated_values", "truncated in layer1.center.wo"),
        ("truncated_header", "truncated in header"),
        ("zero_dim", "ModelDims.d must be >= 1, got 0"),
        ("version", "unsupported checkpoint version 2"),
        ("heads_not_dividing_dim", "embedding dim must be divisible by head count"),
        ("repeated_tensor", "repeated tensor 'item_embeddings'"),
        ("nan_value", "non-finite value in tensor 'layer1.center.wo'"),
        ("huge_layer_count", "2199023255554 layers cannot fit"),
        ("missing_tensor", "checkpoint tensor names do not match model dims"),
    ])
    def test_malformed_checkpoint_rejected(self, tmp_path, case, match):
        path = tmp_path / "checkpoint.bin"
        save_checkpoint(path, fresh_params(dtype=np.float32))
        raw = path.read_bytes()

        def shape_at(name):  # offset of the i64 shape after name and u32 ndim
            return raw.index(name.encode()) + len(name) + 4

        first, last = shape_at("item_embeddings"), shape_at("layer1.center.wo")
        second = raw.index(b"interval_embeddings")
        bad = {
            "trailing_bytes": raw + b"junk",
            "swapped_shape": raw[:first] + np.array([8, 9], "<i8").tobytes()
                             + raw[first + 16:],
            "negative_dim": raw[:last] + np.array([8, -1], "<i8").tobytes()
                            + raw[last + 16:],
            "truncated_values": raw[:-3],
            "truncated_header": raw[:30],
            "zero_dim": raw[:22] + np.array([0], "<i8").tobytes() + raw[30:],
            "version": raw[:10] + np.uint32(2).tobytes() + raw[14:],
            # d = 6 and n_heads = 4
            "heads_not_dividing_dim": raw[:22] + np.array([6], "<i8").tobytes()
                                      + raw[30:54] + np.array([4], "<i8").tobytes()
                                      + raw[62:],
            "repeated_tensor": raw[:second - 4] + np.uint32(15).tobytes()
                               + b"item_embeddings" + raw[second + 19:],
            "nan_value": raw[:-4] + np.array([np.nan], "<f4").tobytes(),
            "huge_layer_count": raw[:62] + np.array([2 + 2**41], "<i8").tobytes()
                                + raw[70:],
            # the count says 20 tensors and the last one is gone
            "missing_tensor": raw[:70] + np.uint32(20).tobytes()
                              + raw[74:raw.index(b"layer1.center.wo") - 4],
        }[case]
        path.write_bytes(bad)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: .*{match}"):
            load_checkpoint(path)

    @given(cut=st.integers(0, 2**20),
           flips=st.lists(st.tuples(st.integers(0, 2**20), st.integers(1, 255)),
                          min_size=1, max_size=3))
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_truncated_or_corrupted_checkpoint_fails_cleanly(self, tmp_path,
                                                             cut, flips):
        path = tmp_path / "checkpoint.bin"
        save_checkpoint(path, fresh_params(dtype=np.float32))
        raw = path.read_bytes()
        path.write_bytes(raw[:cut % len(raw)])
        with pytest.raises(ValueError):
            load_checkpoint(path)
        bad = bytearray(raw)
        for offset, mask in flips:
            bad[offset % len(raw)] ^= mask
        path.write_bytes(bytes(bad))
        # a changed value can still be a valid float: loading may succeed
        with contextlib.suppress(ValueError):
            load_checkpoint(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"WRONG-MAGIC!" + b"\x00" * 16)
        with pytest.raises(ValueError, match="magic"):
            load_checkpoint(path)


class TestForward:
    def test_shapes_and_determinism(self, tiny_adjacency):
        params = fresh_params()
        rng = np.random.default_rng(1)
        items = rng.integers(0, 9, size=(3, 4))
        buckets = rng.integers(0, 7, size=(3, 4, 4))
        mask = np.ones((3, 4), dtype=bool)
        items[mask == 0] = 0
        a = cast_adjacency(tiny_adjacency.a_norm, np.float64)
        out1, aux = forward_interests(params, a, items, buckets, mask)
        out2, _ = forward_interests(params, a, items, buckets, mask)
        assert out1.shape == (3, 2, 8)
        assert aux["e_user"].shape == (3, 4, 8)
        np.testing.assert_array_equal(out1.data, out2.data)

    def test_forward_accepts_float32(self, tiny_adjacency):
        params = fresh_params(dtype=np.float32)
        a = cast_adjacency(tiny_adjacency.a_norm, np.float32)
        items = np.array([[0, 1, 2, 3]])
        buckets = np.zeros((1, 4, 4), dtype=np.int64)
        mask = np.array([[False, True, True, True]])
        out, _ = forward_interests(params, a, items, buckets, mask)
        assert out.dtype == np.float32

    def test_adjacency_of_another_catalog_rejected(self, tiny_adjacency):
        params = fresh_params()
        a = cast_adjacency(sp.block_diag([tiny_adjacency.a_norm,
                                          sp.identity(1)]).tocsr(), np.float64)
        items = np.array([[0, 1, 2, 3]])
        buckets = np.zeros((1, 4, 4), dtype=np.int64)
        mask = np.array([[False, True, True, True]])
        with pytest.raises(ValueError, match=r"adjacency shape \(10, 10\) does "
                                             r"not match the item table's 9 rows"):
            forward_interests(params, a, items, buckets, mask)

    def test_removed_residual_option_rejected(self, tiny_adjacency):
        params = fresh_params()
        a = cast_adjacency(tiny_adjacency.a_norm, np.float64)
        items = np.array([[0, 1, 2, 3]])
        buckets = np.zeros((1, 4, 4), dtype=np.int64)
        mask = np.array([[False, True, True, True]])
        with pytest.raises(ValueError, match=r"^residual must be False \(the option "
                                             r"was removed\)$"):
            forward_interests(params, a, items, buckets, mask, residual=True)
        kept, _ = forward_interests(params, a, items, buckets, mask, residual=False)
        plain, _ = forward_interests(params, a, items, buckets, mask)
        np.testing.assert_array_equal(kept.data, plain.data)
