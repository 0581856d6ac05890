"""Interest extraction and training-time selection."""

import numpy as np
import pytest

from gimirec import autodiff as ad
from gimirec.interests import extract_interests, select_training_interest

from oracles import extract_interests_column_layout, interests_oracle


def tensor(rng, *shape):
    return ad.Tensor(rng.normal(size=shape), requires_grad=True)


class TestExtractInterests:
    def test_single_real_item_any_k(self):
        rng = np.random.default_rng(0)
        d = 6
        e_user = ad.Tensor(np.zeros((1, 4, d)))
        e_user.data[0, 3] = rng.normal(size=d)
        mask = np.array([[False, False, False, True]])
        interests, attn = extract_interests(
            e_user, tensor(rng, 4 * d, d), tensor(rng, 3, 4 * d), mask)
        for k in range(3):
            np.testing.assert_allclose(interests.data[0, k],
                                       e_user.data[0, 3], atol=1e-12)
            np.testing.assert_allclose(attn.data[0, k],
                                       [0, 0, 0, 1], atol=1e-12)

    def test_zero_input_gives_uniform_attention_zero_interests(self):
        rng = np.random.default_rng(1)
        d = 4
        e_user = ad.Tensor(np.zeros((1, 5, d)))
        mask = np.array([[False, True, True, True, True]])
        interests, attn = extract_interests(
            e_user, tensor(rng, 4 * d, d), tensor(rng, 2, 4 * d), mask)
        np.testing.assert_allclose(attn.data[0, :, 1:], 0.25, atol=1e-12)
        np.testing.assert_allclose(interests.data, 0.0, atol=1e-12)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(2)
        d, l, k = 8, 5, 3
        for _ in range(10):
            e_user = tensor(rng, 2, l, d)
            w2, w3 = tensor(rng, 4 * d, d), tensor(rng, k, 4 * d)
            mask = rng.random((2, l)) > 0.3
            mask[:, 0] = True
            interests, attn = extract_interests(e_user, w2, w3, mask)
            for b in range(2):
                exp_i, exp_a = interests_oracle(e_user.data[b], w2.data,
                                                w3.data, mask[b])
                np.testing.assert_allclose(interests.data[b], exp_i, atol=1e-9)
                np.testing.assert_allclose(attn.data[b], exp_a, atol=1e-9)

    @pytest.mark.parametrize("b, l, d, k", [(3, 5, 8, 2), (128, 20, 32, 4), (2, 1, 4, 8)])
    def test_matches_column_layout_form(self, b, l, d, k):
        """The row-layout products agree with the (B, 4d, L) column layout
        they replaced: float64 outputs and the gradients of the per-item
        matrix and both weights to 1e-12 (relative to each array's max)."""
        rng = np.random.default_rng(5)
        data = [rng.normal(size=(b, l, d)), rng.normal(size=(4 * d, d)) / np.sqrt(d),
                rng.normal(size=(k, 4 * d)) / np.sqrt(4 * d)]
        mask = rng.random((b, l)) > 0.3
        mask[:, -1] = True
        seeds = rng.normal(size=(b, k, d)), rng.normal(size=(b, k, l))
        results = []
        for form in (extract_interests, extract_interests_column_layout):
            leaves = [ad.Tensor(x.copy(), requires_grad=True) for x in data]
            interests, attn = form(*leaves, mask)
            ad.add(ad.sumt(ad.mul(interests, ad.Tensor(seeds[0]))),
                   ad.sumt(ad.mul(attn, ad.Tensor(seeds[1])))).backward()
            results.append([interests.data, attn.data] + [t.grad for t in leaves])
        for got, want in zip(*results):
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_attention_rows_are_distributions(self):
        rng = np.random.default_rng(3)
        d = 4
        e_user = tensor(rng, 3, 6, d)
        mask = rng.random((3, 6)) > 0.5
        mask[:, 2] = True
        _, attn = extract_interests(e_user, tensor(rng, 4 * d, d),
                                    tensor(rng, 4, 4 * d), mask)
        np.testing.assert_allclose(attn.data.sum(axis=-1), 1.0, atol=1e-6)
        assert attn.data.min() >= 0.0
        assert np.all(attn.data[~mask[:, None, :].repeat(4, 1)] == 0.0)


class TestSelectTrainingInterest:
    def test_k_equals_one_always_first(self):
        rng = np.random.default_rng(4)
        interests = tensor(rng, 5, 1, 3)
        target = tensor(rng, 5, 3)
        chosen, rows = select_training_interest(interests, target)
        np.testing.assert_array_equal(chosen, 0)
        np.testing.assert_array_equal(rows.data, interests.data[:, 0])

    def test_sign_selects_aligned_interest(self):
        e = np.array([1.0, 2.0, 0.5])
        interests = ad.Tensor(np.stack([e, -e])[None])
        chosen, rows = select_training_interest(interests,
                                                ad.Tensor(e[None]))
        assert chosen[0] == 0
        np.testing.assert_array_equal(rows.data[0], e)

    def test_matches_brute_force_argmax(self):
        rng = np.random.default_rng(5)
        interests = tensor(rng, 16, 4, 6)
        target = tensor(rng, 16, 6)
        chosen, _ = select_training_interest(interests, target)
        for b in range(16):
            scores = [float(interests.data[b, k] @ target.data[b])
                      for k in range(4)]
            assert chosen[b] == int(np.argmax(scores))

    def test_positive_rescaling_invariance(self):
        rng = np.random.default_rng(6)
        interests = tensor(rng, 8, 4, 5)
        target = tensor(rng, 8, 5)
        chosen, _ = select_training_interest(interests, target)
        for c in (1e-3, 7.0, 1e4):
            scaled = ad.Tensor(target.data * c)
            chosen_c, _ = select_training_interest(interests, scaled)
            np.testing.assert_array_equal(chosen, chosen_c)

    def test_tie_breaks_to_smallest_index(self):
        v = np.array([2.0, 0.0])
        interests = ad.Tensor(np.stack([v, v.copy(), v * 0.5])[None])
        chosen, _ = select_training_interest(
            interests, ad.Tensor(np.array([[1.0, 0.0]])))
        assert chosen[0] == 0

    def test_gradient_only_through_selected_row(self):
        rng = np.random.default_rng(7)
        interests = tensor(rng, 2, 3, 4)
        target = ad.Tensor(rng.normal(size=(2, 4)))
        chosen, rows = select_training_interest(interests, target)
        ad.sumt(ad.mul(rows, rows)).backward()
        grad = interests.grad
        for b in range(2):
            for k in range(3):
                if k == chosen[b]:
                    assert np.any(grad[b, k] != 0.0)
                else:
                    np.testing.assert_array_equal(grad[b, k], 0.0)
