"""Example sampling, loss, gradients, Adam and the training loop."""

import tracemalloc

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings, strategies as st

from gimirec import autodiff as ad
from gimirec import model, train
from gimirec.config import PRESETS, HyperParams
from gimirec.global_context import AblationVariant, build_weighted_adjacency, extract_hop_pairs
from gimirec.ingest import DatasetBundle, DatasetSplit, Vocab, prepare
from gimirec.interests import select_training_interest
from gimirec.model import (ModelDims, ModelParams, cast_adjacency, forward_interests,
                           load_checkpoint)
from gimirec.recent import make_window
from gimirec.serve_eval import evaluate
from gimirec.synthetic import PlantedConfig, planted_cluster_records, write_log
from gimirec.train import (AdamState, ExampleSampler, GradCheckResult, TrainingExample,
                           _relative_error, adam_step, batch_loss, build_batch,
                           gradient_check, make_examples, sampled_softmax_nll,
                           train_loop)

from helpers import random_sequences, sequences_of
import oracles
from oracles import full_loss_oracle


def tensor(rng, *shape):
    return ad.Tensor(rng.normal(size=shape), requires_grad=True)


class TestSampledSoftmaxNll:
    def test_orthogonal_vectors_give_log_counts(self):
        # selected orthogonal to target and negatives: all logits 0
        d, n = 4, 7
        selected = ad.Tensor(np.eye(1, d))           # e_0
        target = ad.Tensor(np.eye(1, d, 1))          # e_1
        negs = ad.Tensor(np.tile(np.eye(1, d, 2), (1, n, 1)))
        nll = sampled_softmax_nll(selected, target, negs)
        np.testing.assert_allclose(nll.data, np.log(1 + n), atol=1e-12)

    def test_dominant_target_drives_loss_to_zero(self):
        selected = ad.Tensor(np.array([[50.0, 0.0]]))
        target = ad.Tensor(np.array([[1.0, 0.0]]))
        negs = ad.Tensor(np.array([[[0.0, 1.0], [-1.0, 0.0]]]))
        nll = sampled_softmax_nll(selected, target, negs)
        assert nll.data[0] < 1e-9

    def test_invariant_under_negative_permutation(self):
        rng = np.random.default_rng(0)
        selected, target = tensor(rng, 2, 5), tensor(rng, 2, 5)
        negs = rng.normal(size=(2, 6, 5))
        base = sampled_softmax_nll(selected, target, ad.Tensor(negs)).data
        perm = sampled_softmax_nll(
            selected, target, ad.Tensor(negs[:, ::-1].copy())).data
        np.testing.assert_allclose(base, perm, atol=1e-12)

    def test_overflow_safe(self):
        selected = ad.Tensor(np.array([[1e3, 1e3]]))
        target = ad.Tensor(np.array([[1.0, 1.0]]))
        negs = ad.Tensor(np.array([[[2.0, 2.0]]]))
        assert np.isfinite(sampled_softmax_nll(selected, target, negs).data).all()


def catalog_sampler(n_items, n_neg, l_rec=4, seed=0):
    """A sampler over the random sequences of 6 users, 2 to 12 items long."""
    rng = np.random.default_rng(seed)
    seqs = random_sequences(rng, n_users=6, n_items=n_items, max_len=12, min_len=2)
    return ExampleSampler(np.arange(6), seqs, l_rec, n_neg, n_items), seqs


class TestExampleStream:
    def test_negative_constraints(self):
        sampler, _ = catalog_sampler(12, 5)
        *_, targets, negs = sampler.draw(2000, np.random.default_rng(1))
        assert negs.shape == (2000, 5)
        ordered = np.sort(negs, axis=1)
        assert (ordered[:, 1:] != ordered[:, :-1]).all()
        assert not (negs == targets[:, None]).any()
        assert negs.min() >= 1 and negs.max() <= 12

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_negatives_hold_the_sampler_invariant(self, data):
        """Floyd's subset and the every-other-item branch, over catalog sizes
        and n_neg: distinct real items other than the target, and a stream
        budget of 2 + n_neg doubles per example (2 when every other item is
        a negative)."""
        n_items = data.draw(st.integers(2, 40), label="n_items")
        n_neg = data.draw(st.integers(1, n_items + 2), label="n_neg")
        n = data.draw(st.integers(1, 60), label="n")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        sampler, _ = catalog_sampler(n_items, n_neg, seed=seed)
        rng = np.random.default_rng(seed)
        *_, targets, negs = sampler.draw(n, rng)
        assert negs.shape == (n, min(n_neg, n_items - 1))
        ordered = np.sort(negs, axis=1)
        assert (ordered[:, 1:] != ordered[:, :-1]).all()
        assert (negs >= 1).all() and (negs <= n_items).all()
        assert not (negs == targets[:, None]).any()
        budget = n * (2 + (n_neg if n_neg < n_items - 1 else 0))
        assert rng.random() == np.random.default_rng(seed).random(budget + 1)[-1]

    def test_exhaustive_negatives_when_vocab_small(self):
        for n_neg in (10, 11, 50):
            sampler, _ = catalog_sampler(11, n_neg)
            rng = np.random.default_rng(2)
            *_, targets, negs = sampler.draw(30, rng)
            for target, row in zip(targets, negs):
                assert sorted(row.tolist()) == [i for i in range(1, 12) if i != target]
            # the exhaustive branch draws only the user and the position
            assert rng.random() == np.random.default_rng(2).random(30 * 2 + 1)[-1]

    def test_negatives_uniform_chi_square(self):
        n_items, n_neg = 9, 3
        sampler, _ = catalog_sampler(n_items, n_neg)
        *_, targets, negs = sampler.draw(30_000, np.random.default_rng(6))
        for target in range(1, n_items + 1):
            rows = negs[targets == target]
            if len(rows) < 200:
                continue
            counts = np.bincount(rows.ravel(), minlength=n_items + 1)
            assert counts[0] == 0 and counts[target] == 0
            others = np.delete(counts[1:], target - 1)
            _, p = scipy.stats.chisquare(others)
            assert p > 0.001, (target, others)

    def test_batch_equals_single_draws(self):
        sampler, seqs = catalog_sampler(30, 5)
        batch = sampler.draw(40, np.random.default_rng(7))
        rng = np.random.default_rng(7)
        singles = [sampler.draw(1, rng) for _ in range(40)]
        for got, parts in zip(batch, zip(*singles)):
            np.testing.assert_array_equal(got, np.concatenate(parts))
        # make_examples is the same stream, one example at a time
        stream = make_examples(np.arange(6), seqs, 4, 5, 30,
                               np.random.default_rng(7))
        for i in range(40):
            ex = next(stream)
            assert (ex.user_index, ex.target_item) == (batch[0][i], batch[4][i])
            for got, expect in zip((ex.window.items, ex.window.timestamps,
                                    ex.window.mask, ex.negatives),
                                   (batch[1][i], batch[2][i], batch[3][i],
                                    batch[5][i])):
                np.testing.assert_array_equal(got, expect)

    def test_windows_and_targets_match_make_window(self):
        sampler, seqs = catalog_sampler(30, 5, l_rec=5)
        users, items, timestamps, mask, targets, _ = sampler.draw(
            500, np.random.default_rng(8))
        # the draws behind them: user row, target position 2..N, 5 negatives
        u = np.random.default_rng(8).random((500, 2 + 5))
        rows = np.floor(u[:, 0] * 6).astype(int)
        positions = 2 + np.floor(u[:, 1] * (sampler.lengths[rows] - 1)).astype(int)
        assert (mask.sum(axis=1) < 5).any() and mask.all(axis=1).any()
        for i in range(500):
            seq = seqs[users[i]]
            window = make_window(seq, positions[i], 5)
            np.testing.assert_array_equal(items[i], window.items)
            np.testing.assert_array_equal(timestamps[i], window.timestamps)
            np.testing.assert_array_equal(mask[i], window.mask)
            assert targets[i] == seq.items[positions[i] - 1]

    def test_draws_equal_those_over_the_train_users_columns(self):
        # the sampler reads the shared columns through each train user's
        # start; the formulation it replaced copied the train users'
        # sequences into columns of their own
        rng = np.random.default_rng(12)
        seqs = random_sequences(rng, n_users=30, n_items=40, max_len=15, min_len=2)
        users = rng.permutation(30)[:17]
        shared = ExampleSampler(users, seqs, 5, 6, 40)
        copied = ExampleSampler(
            np.arange(17), sequences_of(*((seqs[u].items, seqs[u].timestamps) for u in users)),
            5, 6, 40)
        rng_a, rng_b = np.random.default_rng(13), np.random.default_rng(13)
        for _ in range(20):
            got, want = shared.draw(64, rng_a), copied.draw(64, rng_b)
            np.testing.assert_array_equal(got[0], users[want[0]])
            for a, b in zip(got[1:], want[1:]):
                np.testing.assert_array_equal(a, b)

    def test_short_user_or_empty_split_rejected(self):
        rng = np.random.default_rng(9)
        pairs = [(s.items, s.timestamps)
                 for s in random_sequences(rng, n_users=4, n_items=9, min_len=5)]
        pairs[2] = ([3], [10])
        seqs = sequences_of(*pairs)
        with pytest.raises(ValueError, match="train user 2 has 1 interaction"):
            ExampleSampler(np.array([0, 1, 2, 3]), seqs, 4, 3, 9)
        with pytest.raises(ValueError, match="train split is empty"):
            ExampleSampler(np.array([], dtype=np.int64), seqs, 4, 3, 9)
        ExampleSampler(np.array([0, 1, 3]), seqs, 4, 3, 9)

    def test_make_examples_draws_only_uniform_negatives(self):
        seqs = random_sequences(np.random.default_rng(9), n_users=3, n_items=9, min_len=2)
        rng = np.random.default_rng(1)
        with pytest.raises(ValueError, match="^distribution must be 'uniform' .*"
                                             "got 'log_uniform'$"):
            next(make_examples(np.arange(3), seqs, 4, 3, 9, rng, "log_uniform"))
        example = next(make_examples(np.arange(3), seqs, 4, 3, 9, rng, "uniform"))
        assert 1 <= example.target_item <= 9

    def test_target_position_range_and_window(self):
        rng = np.random.default_rng(4)
        seqs = random_sequences(rng, n_users=3, n_items=9, max_len=6, min_len=5)
        stream = make_examples(np.arange(3), seqs, l_rec=4, n_neg=3,
                               n_real_items=9, rng=rng)
        for _ in range(50):
            ex = next(stream)
            seq = seqs[ex.user_index]
            pos = np.where(seq.items == ex.target_item)[0]
            assert len(pos) > 0
            assert ex.window.items.shape == (4,)
            # window items all precede the target position
            real = ex.window.items[ex.window.mask]
            assert len(real) >= 1

    def test_target_positions_uniform_chi_square(self):
        rng = np.random.default_rng(5)
        n = 8
        seqs = sequences_of((np.arange(1, n + 1), np.arange(1, n + 1)))
        stream = make_examples(np.array([0]), seqs, l_rec=4, n_neg=2,
                               n_real_items=n, rng=rng)
        counts = np.zeros(n + 1)
        for _ in range(10_000):
            ex = next(stream)
            counts[ex.target_item] += 1
        observed = counts[2:]  # positions 2..N (items == positions here)
        assert counts[1] == 0
        _, p = scipy.stats.chisquare(observed)
        assert p > 0.01

    def test_example_invariants_enforced(self):
        with pytest.raises(ValueError):
            TrainingExample(0, make_window(
                sequences_of(([1, 2], [1, 2]))[0], 2, 3),
                target_item=5, negatives=np.array([5, 6]))


def tiny_setup(seed=0, n_items=6, d=4, k=2, l_rec=3, l_time=5, n_layers=1,
               dtype=np.float64):
    rng = np.random.default_rng(seed)
    seqs = random_sequences(rng, n_users=4, n_items=n_items, max_len=8)
    acc = extract_hop_pairs(seqs, AblationVariant.FULL, 0.5, 0.5,
                            float(l_time), 1)
    adj = build_weighted_adjacency(acc, 3.0, 2.0, 1.0, n_items)
    dims = ModelDims(n_items + 1, d, k, l_rec, l_time, 2, n_layers)
    params = ModelParams.init(dims, rng, dtype=dtype)
    example = next(make_examples(np.array([0]), seqs, l_rec, 3, n_items, rng))
    return params, cast_adjacency(adj.a_norm, dtype), example, seqs


def example_gradients(example, params, a_norm):
    """Every parameter's gradient of one example's loss (dropout off)."""
    params.zero_grad()
    value, _ = batch_loss(params, a_norm, build_batch([example], params.dims.l_time, 1))
    value.backward()
    return {n: t.grad if t.grad is not None else np.zeros_like(t.data)
            for n, t in params.named().items()}


class TestLossAndGradients:
    def test_loss_matches_independent_scalar_oracle(self):
        for seed in range(8):
            params, a_norm, example, _ = tiny_setup(seed)
            batch = build_batch([example], params.dims.l_time, 1)
            with ad.no_grad():
                got = batch_loss(params, a_norm, batch)[0].item()
            expect = full_loss_oracle(
                {n: t.data for n, t in params.named().items()},
                a_norm.toarray(), params.dims, batch.item_idx[0],
                batch.buckets[0], batch.mask[0], example.target_item,
                example.negatives)
            assert abs(got - expect) <= 1e-10

    @pytest.mark.parametrize("equal_buckets", [False, True])
    def test_batch_loss_matches_replaced_formulation(self, monkeypatch,
                                                     softmax_probs, equal_buckets):
        params, a_norm, _, seqs = tiny_setup(5, n_items=8, d=8, k=3, l_rec=6,
                                             n_layers=2)
        stream = make_examples(np.arange(4), seqs, 6, 3, 8,
                               np.random.default_rng(11))
        batch = build_batch([next(stream) for _ in range(16)],
                            params.dims.l_time, 1)
        assert not batch.mask.all()
        if equal_buckets:
            batch.buckets[:] = 3

        def run():
            params.zero_grad()
            softmax_probs.clear()
            value, _ = batch_loss(params, a_norm, batch)
            value.backward()
            # the interval attention is the forward pass's first softmax
            return value.item(), softmax_probs[0], {
                n: t.grad for n, t in params.named().items()}

        new_loss, new_attn, new_grads = run()
        monkeypatch.setattr(ad, "matmul", oracles.matmul_stacked)
        monkeypatch.setattr(ad, "gather", oracles.gather_add_at)
        monkeypatch.setattr(model, "aggregate_layers",
                            oracles.aggregate_layers_token_tensor)
        monkeypatch.setattr(model, "interval_attention",
                            oracles.interval_attention_dense)
        old_loss, old_attn, old_grads = run()
        assert abs(new_loss - old_loss) <= 1e-12 * abs(old_loss)
        np.testing.assert_allclose(new_attn, old_attn, rtol=1e-12, atol=1e-15)
        largest = max(np.abs(g).max() for g in old_grads.values() if g is not None)
        for name, g in old_grads.items():
            if g is None:  # the last layer's center attention feeds nothing
                assert new_grads[name] is None, name
                continue
            scale = np.abs(g).max()
            if equal_buckets and name == "interval_score_weight":
                # attention is uniform whatever the scores: zero up to rounding
                scale = largest
            assert np.abs(new_grads[name] - g).max() <= 1e-12 * scale, name

    def test_batch_loss_matches_full_global_table(self, monkeypatch):
        params, a_norm, _, seqs = tiny_setup(6, n_items=40, d=8, k=3, l_rec=4,
                                             n_layers=2)
        stream = make_examples(np.arange(4), seqs, 4, 3, 40,
                               np.random.default_rng(12))
        batch = build_batch([next(stream) for _ in range(8)],
                            params.dims.l_time, 1)
        window = set(batch.item_idx.ravel().tolist())
        targets = set(batch.targets.tolist())
        negatives = set(batch.negatives.ravel().tolist())
        # some rows are read only as a target, some only as a negative
        assert targets - window - negatives and negatives - window - targets
        read = sorted(window | targets | negatives)

        def run():
            params.zero_grad()
            value, aux = batch_loss(params, a_norm, batch)
            value.backward()
            return value.item(), aux["e_global"].data, {
                n: t.grad for n, t in params.named().items()}

        new_loss, new_table, new_grads = run()
        monkeypatch.setattr(ad, "spmm_rows", oracles.spmm_full_table)
        old_loss, old_table, old_grads = run()
        assert new_loss == old_loss
        np.testing.assert_array_equal(new_table[read], old_table[read])
        for name, g in old_grads.items():
            if g is None:  # the last layer's center attention feeds nothing
                assert new_grads[name] is None, name
                continue
            assert np.abs(new_grads[name] - g).max() <= 1e-12 * np.abs(g).max(), name

    def test_unselected_interest_query_rows_get_zero_gradient(self):
        params, a_norm, _, seqs = tiny_setup(1, k=4)
        # window needs >= 2 real items, else the position softmax is constant
        seq = seqs[0]
        target = int(seq.items[-1])
        example = TrainingExample(
            0, make_window(seq, len(seq), 3), target,
            np.array([i for i in range(1, 7) if i != target][:3]))
        batch = build_batch([example], params.dims.l_time, 1)
        value, aux = batch_loss(params, a_norm, batch)
        value.backward()
        chosen = int(aux["chosen_interest"][0])
        grad = params.interest_query_w.grad
        for k in range(4):
            if k == chosen:
                assert np.any(grad[k] != 0.0)
            else:
                np.testing.assert_array_equal(grad[k], 0.0)

    def test_padding_row_gradient_zero(self):
        params, a_norm, example, _ = tiny_setup(2)
        grads = example_gradients(example, params, a_norm)
        np.testing.assert_array_equal(grads["item_embeddings"][0], 0.0)

    def test_item_gradient_is_adjoint_of_global_gradient(self):
        # the item table feeds the loss only through the fixed sparse product
        params, a_norm, example, _ = tiny_setup(3)
        grads = example_gradients(example, params, a_norm)
        batch = build_batch([example], params.dims.l_time, 1)
        params.zero_grad()
        _, aux = batch_loss(params, a_norm, batch)
        # backward releases aux["e_global"]'s gradient: take it from a leaf
        # copy of the table run through the rest of the model and the loss
        table = ad.Tensor(aux["e_global"].data.copy(), requires_grad=True)
        interests, _ = model.forward_from_table(params, table, batch.item_idx,
                                                batch.buckets, batch.mask)
        target_emb = ad.gather(table, batch.targets)
        _, selected = select_training_interest(interests, target_emb)
        nll = sampled_softmax_nll(selected, target_emb, ad.gather(table, batch.negatives))
        ad.scale(ad.sumt(nll), 1.0 / batch.item_idx.shape[0]).backward()
        chained = a_norm.T @ table.grad
        np.testing.assert_allclose(grads["item_embeddings"], chained,
                                   atol=1e-12)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_gradient_fails_the_check(self):
        # max() skips a NaN placed after a finite error, so NaN reads as inf
        errors = _relative_error(np.array([1.0, np.nan, np.inf]), np.ones(3))
        assert errors == np.inf
        assert not GradCheckResult({"w": errors}, errors, 1e-4).passed

    def test_gradient_check_on_three_models(self):
        for seed in (0, 1, 2):
            result = gradient_check(seed=seed)
            assert result.passed, result.per_tensor


class TestAdam:
    def _params(self, value=1.0):
        dims = ModelDims(3, 4, 1, 2, 2, 2, 1)
        params = ModelParams.init(dims, np.random.default_rng(0),
                                  dtype=np.float64)
        for t in params.named().values():
            t.data = np.full_like(t.data, value)
        params.item_table.data[0] = 0.0
        return params

    def test_zero_gradient_changes_nothing(self):
        params = self._params()
        before = {n: t.data.copy() for n, t in params.named().items()}
        state = AdamState(lr=0.1)
        adam_step(params, {n: np.zeros_like(t.data)
                           for n, t in params.named().items()}, state)
        assert state.step == 1
        for n, t in params.named().items():
            np.testing.assert_array_equal(t.data, before[n])

    def test_lr_zero_changes_nothing(self):
        params = self._params()
        before = {n: t.data.copy() for n, t in params.named().items()}
        grads = {n: np.ones_like(t.data) for n, t in params.named().items()}
        adam_step(params, grads, AdamState(lr=0.0))
        for n, t in params.named().items():
            np.testing.assert_array_equal(t.data, before[n])

    def test_constant_gradient_step_size_approaches_lr(self):
        params = self._params()
        state = AdamState(lr=0.01)
        grads = {n: np.full_like(t.data, 0.37)
                 for n, t in params.named().items()}
        last = params.interval_score_w.data.copy()
        for _ in range(1000):
            adam_step(params, grads, state)
            step = np.abs(params.interval_score_w.data - last).max()
            last = params.interval_score_w.data.copy()
        assert abs(step - 0.01) <= 0.05 * 0.01

    def test_two_step_hand_trace(self):
        # lr=0.1, betas (0.9, 0.999), eps 1e-8, theta0=1, g=0.5 twice
        params = self._params(1.0)
        state = AdamState(lr=0.1)
        grads = {n: np.full_like(t.data, 0.5)
                 for n, t in params.named().items()}
        adam_step(params, grads, state)
        assert abs(params.interval_score_w.data[0, 0] - 0.900000002) <= 1e-12
        adam_step(params, grads, state)
        assert abs(params.interval_score_w.data[0, 0] - 0.8000000040000006) <= 1e-12

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_out_of_place_update_bit_for_bit(self, dtype):
        dims = ModelDims(30, 8, 2, 4, 5, 2, 1)
        params = ModelParams.init(dims, np.random.default_rng(1), dtype=dtype)
        reference = params.astype(dtype)
        state, ref_state = AdamState(lr=0.01), AdamState(lr=0.01)
        rng = np.random.default_rng(2)
        for _ in range(20):
            # the padding row's gradient is non-zero, and must be dropped
            grads = {n: rng.normal(scale=10.0 ** rng.integers(-6, 2),
                                   size=t.data.shape).astype(dtype)
                     for n, t in params.named().items()}
            before = {n: t.data for n, t in params.named().items()}
            kept = {n: a.copy() for n, a in before.items()}
            adam_step(params, grads, state)
            oracles.adam_step_out_of_place(reference, grads, ref_state)
            for n, t in params.named().items():
                assert t.data.dtype == dtype and state.m[n].dtype == dtype
                np.testing.assert_array_equal(t.data, reference.named()[n].data)
                np.testing.assert_array_equal(state.m[n], ref_state.m[n])
                np.testing.assert_array_equal(state.v[n], ref_state.v[n])
                # the data is rebound, not written over
                np.testing.assert_array_equal(before[n], kept[n])
        np.testing.assert_array_equal(params.item_table.data[0], 0.0)

    def test_padding_row_stays_frozen(self):
        params = self._params()
        grads = {n: np.ones_like(t.data) for n, t in params.named().items()}
        state = AdamState(lr=0.5)
        for _ in range(3):
            adam_step(params, grads, state)
        np.testing.assert_array_equal(params.item_table.data[0], 0.0)


def make_bundle(seed=0, n_users=14, n_items=20):
    rng = np.random.default_rng(seed)
    seqs = random_sequences(rng, n_users=n_users, n_items=n_items,
                            max_len=9, min_len=6)
    vocab = Vocab(["", *(f"item{i}" for i in range(n_items))])
    from gimirec.ingest import split_users
    split = split_users(seqs, seed, vocab)
    return DatasetBundle(seqs, split, [f"user{u}" for u in range(n_users)])


class TestTrainLoop:
    def _hp(self, **kw):
        base = dict(d=8, k=2, l_rec=4, l_time=5, n_heads=2, n_layers=1,
                    batch=4, neg_samples=3, max_steps=20, eval_every=10,
                    lr=0.01, dropout=0.1, time_unit_seconds=1, seed=123,
                    dtype="float64")
        base.update(kw)
        return HyperParams(**base).validate()

    def test_zero_steps_persists_initial_params(self, tmp_path):
        bundle = make_bundle()
        hp = self._hp(max_steps=0)
        from gimirec.train import build_adjacency_from_bundle
        adj = build_adjacency_from_bundle(bundle, hp)
        result = train_loop(hp, bundle, adj.a_norm, tmp_path / "run")
        from gimirec.model import load_checkpoint
        ckpt = load_checkpoint(result.checkpoint_path, dtype=np.float64)
        dims = ModelDims(bundle.split.item_vocab.size, hp.d, hp.k, hp.l_rec,
                         hp.l_time, hp.n_heads, hp.n_layers)
        init = ModelParams.init(dims, np.random.default_rng(hp.seed),
                                dtype=np.float64)
        for name, t in init.named().items():
            np.testing.assert_array_equal(
                ckpt.named()[name].data,
                t.data.astype(np.float32).astype(np.float64))

    def test_bit_identical_checkpoints_same_seed(self, tmp_path):
        bundle = make_bundle()
        hp = self._hp()
        from gimirec.train import build_adjacency_from_bundle
        adj = build_adjacency_from_bundle(bundle, hp)
        r1 = train_loop(hp, bundle, adj.a_norm, tmp_path / "a")
        r2 = train_loop(hp, bundle, adj.a_norm, tmp_path / "b")
        assert r1.checkpoint_path.read_bytes() == r2.checkpoint_path.read_bytes()
        assert [h["loss"] for h in r1.history] == [h["loss"] for h in r2.history]

    def test_training_log_one_line_per_eval(self, tmp_path):
        bundle = make_bundle()
        hp = self._hp(max_steps=20, eval_every=10)
        from gimirec.train import build_adjacency_from_bundle
        adj = build_adjacency_from_bundle(bundle, hp)
        result = train_loop(hp, bundle, adj.a_norm, tmp_path / "run")
        lines = result.log_path.read_text().strip().splitlines()
        assert len(lines) == 2
        assert all("recall@20=" in ln and "wall=" in ln for ln in lines)

    def test_loss_matches_single_example_replay(self, tmp_path):
        # what a benchmark replay runs: make_examples + build_batch +
        # batch_loss + adam_step on the one seeded stream
        bundle = make_bundle()
        hp = self._hp(max_steps=10, eval_every=1)
        from gimirec.train import build_adjacency_from_bundle
        adj = build_adjacency_from_bundle(bundle, hp)
        result = train_loop(hp, bundle, adj.a_norm, tmp_path / "run")
        rng = np.random.default_rng(hp.seed)
        dims = ModelDims(bundle.split.item_vocab.size, hp.d, hp.k, hp.l_rec,
                         hp.l_time, hp.n_heads, hp.n_layers)
        params = ModelParams.init(dims, rng, dtype=np.float64)
        a_norm = cast_adjacency(adj.a_norm, np.float64)
        stream = make_examples(bundle.split.train_users, bundle.sequences,
                               hp.l_rec, hp.neg_samples,
                               bundle.split.item_vocab.num_real, rng)
        state = AdamState(lr=hp.lr)
        losses = []
        for _ in range(hp.max_steps):
            batch = build_batch([next(stream) for _ in range(hp.batch)],
                                hp.l_time, hp.time_unit_seconds)
            params.zero_grad()
            value, _ = batch_loss(params, a_norm, batch,
                                  dropout_rate=hp.dropout, rng=rng)
            value.backward()
            adam_step(params, {n: t.grad if t.grad is not None
                               else np.zeros_like(t.data)
                               for n, t in params.named().items()}, state)
            losses.append(value.item())
        assert [h["loss"] for h in result.history] == losses

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_gradient_stops_before_update(self, tmp_path, monkeypatch):
        bundle = make_bundle()
        hp = self._hp(max_steps=5, eval_every=5)
        from gimirec.train import build_adjacency_from_bundle
        adj = build_adjacency_from_bundle(bundle, hp)
        finite_tanh = ad.tanh

        def tanh_with_inf_gradient(a):
            out = finite_tanh(a)
            out._backward = lambda g: ad._accum(a, np.full_like(a.data, np.inf))
            return out

        monkeypatch.setattr(ad, "tanh", tanh_with_inf_gradient)
        from gimirec.model import load_checkpoint, save_checkpoint
        dims = ModelDims(bundle.split.item_vocab.size, hp.d, hp.k, hp.l_rec,
                         hp.l_time, hp.n_heads, hp.n_layers)
        # an earlier run's checkpoint in the directory must not be reported
        (tmp_path / "run").mkdir()
        save_checkpoint(tmp_path / "run" / "checkpoint.bin",
                        ModelParams.init(dims, np.random.default_rng(hp.seed + 1)))
        result = train_loop(hp, bundle, adj.a_norm, tmp_path / "run")
        assert result.diverged and result.steps_run == 1
        assert result.log_path.read_text() == "step=1 diverged: non-finite gradient\n"
        ckpt = load_checkpoint(result.checkpoint_path, dtype=np.float64)
        init = ModelParams.init(dims, np.random.default_rng(hp.seed),
                                dtype=np.float64)
        for name, t in init.named().items():
            np.testing.assert_array_equal(
                ckpt.named()[name].data,
                t.data.astype(np.float32).astype(np.float64))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_aborts_with_checkpoint(self, tmp_path):
        bundle = make_bundle()
        hp = self._hp(lr=1e18, max_steps=50, eval_every=5, dtype="float32")
        from gimirec.train import build_adjacency_from_bundle
        adj = build_adjacency_from_bundle(bundle, hp)
        result = train_loop(hp, bundle, adj.a_norm, tmp_path / "run")
        assert result.diverged
        assert result.steps_run < 50
        assert result.checkpoint_path.exists()


def test_smoke_training_equals_replaced_primitives(tmp_path, monkeypatch):
    """20 float32 steps of the smoke model (criterion 6's config) on the
    planted bundle, and an evaluation of the result, with ``masked_softmax``,
    ``gather`` and ``bucket_sum`` as they are and as they were before their
    rewrites: equal losses, parameters and report."""
    write_log(tmp_path / "log.csv", planted_cluster_records(PlantedConfig(), seed=1))
    bundle, _ = prepare(tmp_path / "log.csv", tmp_path / "bundle", seed=1)
    hp = HyperParams(**{**PRESETS["amazon-books"], "d": 32, "n_layers": 1, "lr": 0.005,
                        "max_steps": 20, "eval_every": 20, "seed": 1}).validate()
    assert hp.dtype == "float32"
    a_norm = train.build_adjacency_from_bundle(bundle, hp).a_norm
    runs = []
    for replaced in (False, True):
        losses = []

        def recording(*args, **kwargs):
            value, aux = batch_loss(*args, **kwargs)
            losses.append(value.item())
            return value, aux

        with monkeypatch.context() as mp:
            mp.setattr(train, "batch_loss", recording)
            if replaced:
                mp.setattr(ad, "masked_softmax", oracles.masked_softmax_reductions)
                mp.setattr(ad, "gather", oracles.gather_add_at)
                mp.setattr(ad, "bucket_sum", oracles.bucket_sum_take_along_axis)
            result = train_loop(hp, bundle, a_norm, tmp_path / f"run{replaced}")
            report = evaluate(bundle.sequences, bundle.split.test_users,
                              load_checkpoint(result.checkpoint_path),
                              cast_adjacency(a_norm, np.float32))
        runs.append((losses, result.checkpoint_path.read_bytes(), report))
    assert len(runs[0][0]) == 20 and runs[0][2].user_count > 0
    assert runs[0] == runs[1]


@pytest.fixture(scope="module")
def criterion6(tmp_path_factory):
    """Criterion 6's planted bundle, smoke config and adjacency."""
    root = tmp_path_factory.mktemp("criterion6")
    write_log(root / "log.csv", planted_cluster_records(PlantedConfig(), seed=11))
    bundle, _ = prepare(root / "log.csv", root / "bundle", seed=11)
    hp = HyperParams(**{**PRESETS["amazon-books"], "d": 32, "n_layers": 1, "lr": 0.005,
                        "max_steps": 20, "eval_every": 20, "seed": 11}).validate()
    return bundle, hp, train.build_adjacency_from_bundle(bundle, hp).a_norm


def test_backward_holds_under_half_the_forward_tape(criterion6):
    """What backward allocates above the forward tape, traced on one smoke
    batch, stays under half the tape: interior gradients are released."""
    bundle, hp, a_norm = criterion6
    vocab = bundle.split.item_vocab
    dims = ModelDims(vocab.size, hp.d, hp.k, hp.l_rec, hp.l_time, hp.n_heads, hp.n_layers)
    rng = np.random.default_rng(hp.seed)
    params = ModelParams.init(dims, rng, dtype=np.float32)
    adj = cast_adjacency(a_norm, np.float32)
    batch = ExampleSampler(bundle.split.train_users, bundle.sequences, hp.l_rec,
                           hp.neg_samples, vocab.num_real).batch(
        hp.batch, rng, hp.l_time, hp.time_unit_seconds)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        value, _ = batch_loss(params, adj, batch, dropout_rate=hp.dropout, rng=rng)
        after_forward = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        value.backward()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    tape = after_forward - before
    assert tape > 1e6
    assert peak - after_forward < 0.5 * tape, (peak - after_forward, tape)


def test_smoke_training_equals_keep_interior_backward(criterion6, tmp_path, monkeypatch):
    """20 float32 smoke steps give the same checkpoint bytes with the
    backward that kept every interior gradient."""
    bundle, hp, a_norm = criterion6
    assert hp.dtype == "float32"
    checkpoints = []
    for replaced in (False, True):
        with monkeypatch.context() as mp:
            if replaced:
                mp.setattr(ad, "backward", oracles.backward_keep_interior)
            result = train_loop(hp, bundle, a_norm, tmp_path / f"run{replaced}")
        assert result.steps_run == 20
        checkpoints.append(result.checkpoint_path.read_bytes())
    assert checkpoints[0] == checkpoints[1]


def tape_nodes(root):
    """Every tensor reachable from ``root`` that requires a gradient."""
    nodes, stack = {}, [root]
    while stack:
        node = stack.pop()
        if node.requires_grad and id(node) not in nodes:
            nodes[id(node)] = node
            stack.extend(node._parents)
    return list(nodes.values())


@pytest.mark.parametrize("config", [dict(seed=0), dict(seed=1, n_layers=2),
                                    dict(seed=2, k=4, n_layers=2)],
                         ids=["one_layer", "two_layers", "k4"])
def test_gradcheck_leaf_gradients_equal_keep_interior_backward(config, monkeypatch):
    """On gradcheck models (float64), every leaf gradient is bit-identical
    to the backward that kept interior gradients, and no interior one is
    left behind."""
    backward = ad.backward
    compared = []

    def both(root):
        backward(root)
        nodes = tape_nodes(root)
        leaves = [n for n in nodes if n._backward is None]
        assert all(n.grad is None for n in nodes if n._backward is not None)
        released = [n.grad for n in leaves]
        for n in leaves:
            n.grad = None
        oracles.backward_keep_interior(root)
        for n, grad in zip(leaves, released):
            assert grad.dtype == np.float64
            np.testing.assert_array_equal(grad, n.grad, strict=True)
        compared.append(len(leaves))

    monkeypatch.setattr(ad, "backward", both)
    assert gradient_check(**config).passed
    assert len(compared) == 1 and compared[0] >= 9  # the tensors the loss reads
