"""Hybrid embeddings, center node and the layered attention aggregation."""

import numpy as np
import pytest

from gimirec import autodiff as ad
from gimirec.aggregate import (AttnProjs, LayerParams, _mix_tokens, _sources, _spread,
                               aggregate_layers, hybrid_embeddings, init_center,
                               multi_head_attention)

from helpers import fd_check, tape_arrays
from oracles import (aggregate_layers_token_tensor, aggregate_layers_with_last_center,
                     aggregate_oracle, mha_oracle,
                     multi_head_attention_projected_tokens)


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
        query = tensor(rng, 1, d)
        keys = tensor(rng, 1, t, d)
        mask = np.array([True, True, False, True, False])
        out = multi_head_attention(query, keys, projs, heads, key_mask=mask[None])
        expect = mha_oracle(query.data[0], keys.data[0], projs.wq.data,
                            projs.wk.data, projs.wv.data, projs.wo.data,
                            heads, mask)
        np.testing.assert_allclose(out.data[0], expect, atol=1e-10)

    def test_identity_projections_give_convex_combination(self, softmax_probs):
        # one real item, token set [0; center; q; global]: with identity
        # projections and one head the output is a convex mix of the tokens
        rng = np.random.default_rng(5)
        d = 4
        eye = lambda: ad.Tensor(np.eye(d), requires_grad=True)
        projs = AttnProjs(eye(), eye(), eye(), eye())
        q = tensor(rng, 1, d)
        tokens = ad.Tensor(np.stack([np.zeros(d), q.data[0].copy(),
                                     q.data[0], rng.normal(size=d)])[None])
        out = multi_head_attention(q, tokens, projs, 1)
        (probs,) = softmax_probs
        probs = probs[0, 0]
        assert probs.min() >= 0.0 and abs(probs.sum() - 1.0) < 1e-12
        np.testing.assert_allclose(out.data[0], probs @ tokens.data[0], atol=1e-12)

    @staticmethod
    def _inputs(rng, n, t, d, masked):
        projs = AttnProjs(*(tensor(rng, d, d) for _ in range(4)))
        for w in (projs.wq, projs.wk, projs.wv, projs.wo):
            w.data /= np.sqrt(d)  # the model's init scale: softmaxes unsaturated
        key_mask = None
        if masked:  # the centre's [itself; slots...] keys over padded windows
            key_mask = rng.random((n, t)) > 0.5
            key_mask[:, 0] = True
            key_mask[:3, 1:] = False  # rows that read a single valid key
        return tensor(rng, n, d), tensor(rng, n, t, d), projs, key_mask

    @pytest.mark.parametrize("n_heads", [1, 2, 4])
    @pytest.mark.parametrize("t, masked", [(4, False), (1 + 6, True)],
                             ids=["item", "center"])
    @pytest.mark.parametrize("dropout_rate", [0.0, 0.3])
    def test_matches_projected_token_formulation(self, n_heads, t, masked,
                                                 dropout_rate):
        # the form that projected all T key tokens with wk and wv
        def run(attention):
            rng = np.random.default_rng(17)
            query, keys, projs, key_mask = self._inputs(rng, 9, t, 8, masked)
            draws = np.random.default_rng(18)
            out = attention(query, keys, projs, n_heads, key_mask=key_mask,
                            dropout_rate=dropout_rate, rng=draws)
            ad.sumt(ad.mul(out, ad.Tensor(rng.normal(size=out.shape)))).backward()
            grads = [x.grad for x in (query, keys, projs.wq, projs.wk,
                                      projs.wv, projs.wo)]
            return [out.data] + grads, draws.bit_generator.state

        new, new_state = run(multi_head_attention)
        old, old_state = run(multi_head_attention_projected_tokens)
        for got, expect in zip(new, old):
            assert np.abs(got - expect).max() <= 1e-12 * np.abs(expect).max()
        # the dropout mask has the same shape, so the stream is not moved
        assert new_state == old_state

    def test_finite_difference_gradients_with_key_mask(self):
        rng = np.random.default_rng(19)
        query, keys, projs, key_mask = self._inputs(rng, 4, 5, 4, masked=True)
        weights = ad.Tensor(rng.normal(size=(4, 4)))
        fd_check(lambda q, k, *w: ad.mul(multi_head_attention(
                     q, k, AttnProjs(*w), 2, key_mask=key_mask), weights),
                 [query, keys, projs.wq, projs.wk, projs.wv, projs.wo])


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
        e_user = aggregate_layers(hybrid, rows, layers, 2, mask)
        dicts = layers_as_dicts(layers)
        for b in range(3):
            q_expect, _ = aggregate_oracle(
                hybrid.data[b], rows.data[b], dicts, 2, mask[b])
            np.testing.assert_allclose(e_user.data[b], q_expect, atol=1e-9)

    def test_attention_rows_sum_to_one_everywhere(self, softmax_probs):
        rng = np.random.default_rng(8)
        hybrid, rows, layers, mask = self._setup(rng, n_layers=3)
        aggregate_layers(hybrid, rows, layers, 2, mask)
        # per layer: item attention, then center attention but in the last
        assert len(softmax_probs) == 5
        for probs in softmax_probs[0::2]:
            sums = probs[mask.ravel()].sum(axis=-1)  # (real, H) rows
            np.testing.assert_allclose(sums, 1.0, atol=1e-6)
        for probs in softmax_probs[1::2]:
            np.testing.assert_allclose(probs.sum(axis=-1), 1.0, atol=1e-6)

    def test_padding_rows_zero_and_receive_no_center_attention(self, softmax_probs):
        rng = np.random.default_rng(9)
        hybrid, rows, layers, mask = self._setup(rng, b=4, l=5)
        e_user = aggregate_layers(hybrid, rows, layers, 2, mask)
        assert np.all(e_user.data[~mask] == 0.0)
        assert len(softmax_probs) == 3
        for probs in softmax_probs[1::2]:  # center attention of each layer
            # keys are [center, slots...]; padding key slots get zero mass
            for b in range(4):
                np.testing.assert_array_equal(probs[b, :, 1:][:, ~mask[b]], 0.0)

    # the "False-" in the ids is the residual flag these tests once varied
    @pytest.mark.parametrize("n_layers", [1, 2], ids=lambda n: f"False-{n}")
    @pytest.mark.parametrize("dropout_rate", [0.0, 0.3])
    def test_matches_token_tensor_formulation(self, n_layers, dropout_rate):
        # the (B, L, 4, d) token tensor built with slices and broadcasts,
        # attended with one query row per item, that the flat gather replaced
        def run(aggregate):
            rng = np.random.default_rng(14)
            hybrid, rows, layers, mask = self._setup(rng, b=5, l=6,
                                                     n_layers=n_layers)
            projections = [getattr(getattr(lp, role), name) for lp in layers
                           for role in ("item", "center")
                           for name in ("wq", "wk", "wv", "wo")]
            for w in projections:  # the model's init scale: softmaxes unsaturated
                w.data /= np.sqrt(8)
            weights = rng.normal(size=(5, 6, 8))
            e_user = aggregate(hybrid, rows, layers, 2, mask,
                               dropout_rate=dropout_rate,
                               rng=np.random.default_rng(15))
            ad.sumt(ad.mul(e_user, ad.Tensor(weights))).backward()
            # the last layer's center projections feed nothing
            return [e_user.data] + [t.grad for t in [hybrid, rows] + projections[:-4]]

        for got, expect in zip(run(aggregate_layers),
                               run(aggregate_layers_token_tensor)):
            assert np.abs(got - expect).max() <= 1e-12 * np.abs(expect).max()

    @pytest.mark.parametrize("n_layers", [1, 2, 3], ids=lambda n: f"False-{n}")
    def test_skipping_last_center_matches_full_update(self, n_layers):
        # the formulation that still ran the last layer's center attention
        def run(aggregate):
            rng = np.random.default_rng(16)
            hybrid, rows, layers, mask = self._setup(rng, b=5, l=6,
                                                     n_layers=n_layers)
            projections = [getattr(getattr(lp, role), name) for lp in layers
                           for role in ("item", "center")
                           for name in ("wq", "wk", "wv", "wo")]
            for w in projections:
                w.data /= np.sqrt(8)
            out = aggregate(hybrid, rows, layers, 2, mask)
            e_user = out[0] if isinstance(out, tuple) else out
            ad.sumt(ad.mul(e_user, ad.Tensor(rng.normal(size=(5, 6, 8))))).backward()
            return [e_user.data] + [t.grad for t in [hybrid, rows] + projections]

        new, old = run(aggregate_layers), run(aggregate_layers_with_last_center)
        for got, expect in zip(new, old):
            if expect is None:  # the last layer's center projections
                assert got is None
                continue
            assert np.abs(got - expect).max() <= 1e-12 * np.abs(expect).max()
        assert sum(g is None for g in old) == 4

    def test_tape_holds_no_per_token_or_per_head_tensor(self):
        # every array the graph keeps, as node data or in a backward closure,
        # is smaller than an (N, 4, d), (H, N, d) or (N, H, d) tensor
        rng = np.random.default_rng(20)
        hybrid, rows, layers, mask = self._setup(rng, b=6, l=8, d=16, n_layers=3)
        out = aggregate_layers(hybrid, rows, layers, 4, mask,
                               dropout_rate=0.3, rng=np.random.default_rng(21))
        sizes = [a.size for a in tape_arrays(out)]
        n, d = 6 * 8, 16  # the (N, H, 4) probabilities are N·d
        assert max(sizes) < 2 * n * d, max(sizes)

    def test_batch_permutation_equivariance(self):
        rng = np.random.default_rng(10)
        hybrid, rows, layers, mask = self._setup(rng, b=4)
        out1 = aggregate_layers(hybrid, rows, layers, 2, mask)
        perm = np.array([2, 0, 3, 1])
        hybrid_p = ad.Tensor(hybrid.data[perm])
        rows_p = ad.Tensor(rows.data[perm])
        out2 = aggregate_layers(hybrid_p, rows_p, layers, 2, mask[perm])
        np.testing.assert_array_equal(out2.data, out1.data[perm])

    def test_forward_bitwise_deterministic(self):
        rng = np.random.default_rng(11)
        hybrid, rows, layers, mask = self._setup(rng, n_layers=3)
        a = aggregate_layers(hybrid, rows, layers, 2, mask)
        b = aggregate_layers(hybrid, rows, layers, 2, mask)
        assert np.array_equal(a.data, b.data)

    def test_removed_residual_option_rejected(self):
        rng = np.random.default_rng(12)
        hybrid, rows, layers, mask = self._setup(rng)
        with pytest.raises(ValueError, match=r"residual must be False \(the option was removed\)"):
            aggregate_layers(hybrid, rows, layers, 2, mask, residual=True)
        plain = aggregate_layers(hybrid, rows, layers, 2, mask)
        kept = aggregate_layers(hybrid, rows, layers, 2, mask, residual=False)
        assert np.array_equal(plain.data, kept.data)

    def test_dropout_only_in_training(self):
        rng = np.random.default_rng(13)
        hybrid, rows, layers, mask = self._setup(rng)
        drop = aggregate_layers(hybrid, rows, layers, 2, mask,
                                dropout_rate=0.5, rng=np.random.default_rng(0))
        plain = aggregate_layers(hybrid, rows, layers, 2, mask)
        assert not np.allclose(drop.data, plain.data)


def test_mix_tokens_only_reads_its_projection():
    # the item update's backward may keep a projection it mixes, so the
    # mix must not use one as scratch
    rng = np.random.default_rng(23)
    b, l, d, n_heads = 3, 5, 8, 2
    proj = rng.normal(size=((2 * l + 1) * b, d))
    before = proj.tobytes()
    heads = np.repeat(np.eye(n_heads), d // n_heads, axis=0)
    w = rng.random((b * l, n_heads, 4))
    out = _mix_tokens(_spread(w, heads, (b, l, d)), proj)
    assert proj.tobytes() == before
    own, row, center = _sources(proj, b)
    left = np.concatenate([np.zeros((b, 1, d)), own[:, :-1]], axis=1)
    tokens = (left, center, own, row)
    expect = sum((w[..., t] @ heads.T).reshape(b, l, d) * token
                 for t, token in enumerate(tokens))
    np.testing.assert_allclose(out, expect, rtol=1e-13, atol=1e-15)
