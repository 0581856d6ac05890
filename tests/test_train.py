"""Example sampling, loss, gradients, Adam and the training loop."""

import numpy as np
import pytest
import scipy.stats

from gimirec import autodiff as ad
from gimirec import model
from gimirec.config import HyperParams
from gimirec.global_context import AblationVariant, build_weighted_adjacency, extract_hop_pairs
from gimirec.ingest import DatasetBundle, DatasetSplit, UserSequence, Vocab
from gimirec.model import ModelDims, ModelParams, cast_adjacency, forward_interests
from gimirec.recent import make_window
from gimirec.train import (AdamState, TrainingExample, adam_step, batch_loss,
                           build_batch, gradient_check, gradients, loss,
                           make_examples, sample_negatives,
                           sampled_softmax_nll, train_loop)

from helpers import random_sequences
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


class TestExampleStream:
    def test_negative_constraints(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            target = int(rng.integers(1, 13))
            negs = sample_negatives(12, target, 5, rng)
            assert len(negs) == 5 and len(set(negs.tolist())) == 5
            assert target not in negs and 0 not in negs
            assert negs.min() >= 1 and negs.max() <= 12

    def test_exhaustive_negatives_when_vocab_small(self):
        rng = np.random.default_rng(2)
        negs = sample_negatives(11, 4, 10, rng)
        assert sorted(negs.tolist()) == [1, 2, 3, 5, 6, 7, 8, 9, 10, 11]

    def test_log_uniform_distribution_skews_low(self):
        rng = np.random.default_rng(3)
        draws = np.concatenate([
            sample_negatives(100, 50, 10, rng, "log_uniform")
            for _ in range(400)])
        low = (draws <= 10).mean()
        high = (draws > 90).mean()
        assert low > 2 * high

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
        seqs = [UserSequence(0, np.arange(1, n + 1), np.arange(1, n + 1))]
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
                UserSequence(0, np.array([1, 2]), np.array([1, 2])), 2, 3),
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
    seq = seqs[0]
    pos = int(rng.integers(2, len(seq) + 1))
    target = int(seq.items[pos - 1])
    example = TrainingExample(0, make_window(seq, pos, l_rec), target,
                              sample_negatives(n_items, target, 3, rng))
    return params, cast_adjacency(adj.a_norm, dtype), example, seqs


class TestLossAndGradients:
    def test_loss_matches_independent_scalar_oracle(self):
        for seed in range(8):
            params, a_norm, example, _ = tiny_setup(seed)
            got = loss(example, params, a_norm, time_unit_seconds=1)
            batch = build_batch([example], params.dims.l_time, 1)
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
            sample_negatives(6, target, 3, np.random.default_rng(9)))
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
        grads = gradients(example, params, a_norm, time_unit_seconds=1)
        np.testing.assert_array_equal(grads["item_embeddings"][0], 0.0)

    def test_item_gradient_is_adjoint_of_global_gradient(self):
        # the item table feeds the loss only through the fixed sparse product
        params, a_norm, example, _ = tiny_setup(3)
        grads = gradients(example, params, a_norm, time_unit_seconds=1)
        batch = build_batch([example], params.dims.l_time, 1)
        params.zero_grad()
        value, aux = batch_loss(params, a_norm, batch)
        value.backward()
        chained = a_norm.T @ aux["e_global"].grad
        np.testing.assert_allclose(grads["item_embeddings"], chained,
                                   atol=1e-12)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_gradient_reported_with_name(self):
        params, a_norm, example, _ = tiny_setup(4)
        params.interval_score_w.data[:] = np.inf
        with pytest.raises(RuntimeError, match="parameter"):
            gradients(example, params, a_norm, time_unit_seconds=1)

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
    vocab = Vocab()
    for i in range(n_items):
        vocab.add(f"item{i}")
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
        result = train_loop(hp, bundle, adj.a_norm, tmp_path / "run", n_eval=3)
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
        r1 = train_loop(hp, bundle, adj.a_norm, tmp_path / "a", n_eval=3)
        r2 = train_loop(hp, bundle, adj.a_norm, tmp_path / "b", n_eval=3)
        assert r1.checkpoint_path.read_bytes() == r2.checkpoint_path.read_bytes()
        assert [h["loss"] for h in r1.history] == [h["loss"] for h in r2.history]

    def test_training_log_one_line_per_eval(self, tmp_path):
        bundle = make_bundle()
        hp = self._hp(max_steps=20, eval_every=10)
        from gimirec.train import build_adjacency_from_bundle
        adj = build_adjacency_from_bundle(bundle, hp)
        result = train_loop(hp, bundle, adj.a_norm, tmp_path / "run", n_eval=3)
        lines = result.log_path.read_text().strip().splitlines()
        assert len(lines) == 2
        assert all("recall@3=" in ln and "wall=" in ln for ln in lines)

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
        result = train_loop(hp, bundle, adj.a_norm, tmp_path / "run", n_eval=3)
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
        result = train_loop(hp, bundle, adj.a_norm, tmp_path / "run", n_eval=3)
        assert result.diverged
        assert result.steps_run < 50
        assert result.checkpoint_path.exists()
