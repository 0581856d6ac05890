"""Hybrid embeddings, center node and the layered attention aggregation."""

import numpy as np
import pytest

from gimirec import autodiff as ad
from gimirec.aggregate import (AttnProjs, LayerParams, aggregate_layers,
                               hybrid_embeddings, init_center,
                               multi_head_attention)

from oracles import aggregate_oracle, mha_oracle


def tensor(rng, *shape, requires_grad=True):
    return ad.Tensor(rng.normal(size=shape), requires_grad=requires_grad)


def random_layers(rng, d, n_layers):
    layers = []
    for _ in range(n_layers):
        layers.append(LayerParams(
            item=AttnProjs(*(tensor(rng, d, d) for _ in range(4))),
            center=AttnProjs(*(tensor(rng, d, d) for _ in range(4))),
        ))
    return layers


def layers_as_dicts(layers):
    out = []
    for lp in layers:
        out.append({f"{role}.{name}": getattr(getattr(lp, role), name).data
                    for role in ("item", "center")
                    for name in ("wq", "wk", "wv", "wo")})
    return out


class TestHybridAndCenter:
    def test_zero_time_embedding_passthrough(self):
        rng = np.random.default_rng(0)
        rows = tensor(rng, 2, 4, 3)
        mask = np.ones((2, 4), dtype=bool)
        zero = ad.Tensor(np.zeros((2, 4, 3)))
        out = hybrid_embeddings(rows, zero, mask)
        np.testing.assert_array_equal(out.data, rows.data)

    def test_pads_zeroed_and_sum_exact(self):
        rng = np.random.default_rng(1)
        rows, times = tensor(rng, 1, 3, 2), tensor(rng, 1, 3, 2)
        mask = np.array([[False, True, True]])
        out = hybrid_embeddings(rows, times, mask)
        assert np.all(out.data[0, 0] == 0.0)
        np.testing.assert_array_equal(
            out.data[0, 1:], rows.data[0, 1:] + times.data[0, 1:])

    def test_center_single_item_is_that_row(self):
        rng = np.random.default_rng(2)
        hybrid = tensor(rng, 1, 3, 4)
        mask = np.array([[False, False, True]])
        hybrid.data[0, :2] = 0.0
        center = init_center(hybrid, mask)
        np.testing.assert_array_equal(center.data[0], hybrid.data[0, 2])

    def test_center_opposite_rows_cancel(self):
        v = np.array([[1.0, -2.0], [-1.0, 2.0]])[None]
        center = init_center(ad.Tensor(v), np.ones((1, 2), dtype=bool))
        np.testing.assert_allclose(center.data, 0.0, atol=1e-15)

    def test_center_masked_mean_matches_loop(self):
        rng = np.random.default_rng(3)
        hybrid = tensor(rng, 4, 6, 5)
        mask = rng.random((4, 6)) > 0.4
        mask[:, -1] = True
        hybrid.data[~mask] = 0.0
        center = init_center(hybrid, mask)
        for b in range(4):
            expect = hybrid.data[b][mask[b]].mean(axis=0)
            np.testing.assert_allclose(center.data[b], expect, atol=1e-7)

    def test_center_requires_real_slot(self):
        with pytest.raises(ValueError):
            init_center(ad.Tensor(np.zeros((1, 2, 3))),
                        np.zeros((1, 2), dtype=bool))


class TestMultiHeadAttention:
    def test_matches_single_query_oracle(self):
        rng = np.random.default_rng(4)
        d, heads, t = 8, 2, 5
        projs = AttnProjs(*(tensor(rng, d, d) for _ in range(4)))
        query = tensor(rng, 1, 1, d)
        keys = tensor(rng, 1, t, d)
        mask = np.array([True, True, False, True, False])
        out = multi_head_attention(query, keys, projs, heads,
                                   key_mask=mask[None, None, None, :])
        expect = mha_oracle(query.data[0, 0], keys.data[0], projs.wq.data,
                            projs.wk.data, projs.wv.data, projs.wo.data,
                            heads, mask)
        np.testing.assert_allclose(out.data[0, 0], expect, atol=1e-10)

    def test_identity_projections_give_convex_combination(self, softmax_probs):
        # one real item, token set [0; center; q; global]: with identity
        # projections and one head the output is a convex mix of the tokens
        rng = np.random.default_rng(5)
        d = 4
        eye = lambda: ad.Tensor(np.eye(d), requires_grad=True)
        projs = AttnProjs(eye(), eye(), eye(), eye())
        q = tensor(rng, 1, 1, d)
        tokens = ad.Tensor(np.stack([np.zeros(d), q.data[0, 0].copy(),
                                     q.data[0, 0], rng.normal(size=d)])[None])
        out = multi_head_attention(q, tokens, projs, 1)
        (probs,) = softmax_probs
        probs = probs[0, 0, 0]
        assert probs.min() >= 0.0 and abs(probs.sum() - 1.0) < 1e-12
        np.testing.assert_allclose(out.data[0, 0],
                                   probs @ tokens.data[0], atol=1e-12)


class TestAggregateLayers:
    def _setup(self, rng, b=3, l=4, d=8, n_layers=2):
        hybrid_data = rng.normal(size=(b, l, d))
        mask = np.ones((b, l), dtype=bool)
        for row in mask:
            row[:rng.integers(0, l - 1)] = False
        hybrid_data[~mask] = 0.0
        hybrid = ad.Tensor(hybrid_data, requires_grad=True)
        rows = tensor(rng, b, l, d)
        rows.data[~mask] = 0.0
        return hybrid, rows, random_layers(rng, d, n_layers), mask

    def test_no_layers_rejected(self):
        rng = np.random.default_rng(6)
        hybrid, rows, _, mask = self._setup(rng)
        with pytest.raises(ValueError):
            aggregate_layers(hybrid, rows, [], 2, mask)

    def test_matches_independent_oracle(self):
        rng = np.random.default_rng(7)
        hybrid, rows, layers, mask = self._setup(rng, b=3, l=4, d=8, n_layers=2)
        e_user, center = aggregate_layers(hybrid, rows, layers, 2, mask)
        dicts = layers_as_dicts(layers)
        for b in range(3):
            q_expect, c_expect = aggregate_oracle(
                hybrid.data[b], rows.data[b], dicts, 2, mask[b])
            np.testing.assert_allclose(e_user.data[b], q_expect, atol=1e-9)
            np.testing.assert_allclose(center.data[b], c_expect, atol=1e-9)

    def test_attention_rows_sum_to_one_everywhere(self, softmax_probs):
        rng = np.random.default_rng(8)
        hybrid, rows, layers, mask = self._setup(rng, n_layers=3)
        aggregate_layers(hybrid, rows, layers, 2, mask)
        # per layer: item attention, then center attention
        assert len(softmax_probs) == 6
        for probs in softmax_probs[0::2]:
            sums = probs[mask].sum(axis=-1)  # (real, H, 1) rows
            np.testing.assert_allclose(sums, 1.0, atol=1e-6)
        for probs in softmax_probs[1::2]:
            np.testing.assert_allclose(probs.sum(axis=-1), 1.0, atol=1e-6)

    def test_padding_rows_zero_and_receive_no_center_attention(self, softmax_probs):
        rng = np.random.default_rng(9)
        hybrid, rows, layers, mask = self._setup(rng, b=4, l=5)
        e_user, _ = aggregate_layers(hybrid, rows, layers, 2, mask)
        assert np.all(e_user.data[~mask] == 0.0)
        assert len(softmax_probs) == 4
        for probs in softmax_probs[1::2]:  # center attention of each layer
            # keys are [center, slots...]; padding key slots get zero mass
            for b in range(4):
                np.testing.assert_array_equal(
                    probs[b, :, :, 1:][:, :, ~mask[b]], 0.0)

    def test_batch_permutation_equivariance(self):
        rng = np.random.default_rng(10)
        hybrid, rows, layers, mask = self._setup(rng, b=4)
        out1, c1 = aggregate_layers(hybrid, rows, layers, 2, mask)
        perm = np.array([2, 0, 3, 1])
        hybrid_p = ad.Tensor(hybrid.data[perm])
        rows_p = ad.Tensor(rows.data[perm])
        out2, c2 = aggregate_layers(hybrid_p, rows_p, layers, 2, mask[perm])
        np.testing.assert_array_equal(out2.data, out1.data[perm])
        np.testing.assert_array_equal(c2.data, c1.data[perm])

    def test_forward_bitwise_deterministic(self):
        rng = np.random.default_rng(11)
        hybrid, rows, layers, mask = self._setup(rng, n_layers=3)
        a, _ = aggregate_layers(hybrid, rows, layers, 2, mask)
        b, _ = aggregate_layers(hybrid, rows, layers, 2, mask)
        assert np.array_equal(a.data, b.data)

    def test_residual_flag_changes_output(self):
        rng = np.random.default_rng(12)
        hybrid, rows, layers, mask = self._setup(rng)
        plain, _ = aggregate_layers(hybrid, rows, layers, 2, mask)
        res, _ = aggregate_layers(hybrid, rows, layers, 2, mask, residual=True)
        assert not np.allclose(plain.data, res.data)

    def test_dropout_only_in_training(self):
        rng = np.random.default_rng(13)
        hybrid, rows, layers, mask = self._setup(rng)
        drop, _ = aggregate_layers(hybrid, rows, layers, 2, mask,
                                   dropout_rate=0.5,
                                   rng=np.random.default_rng(0))
        plain, _ = aggregate_layers(hybrid, rows, layers, 2, mask)
        assert not np.allclose(drop.data, plain.data)
