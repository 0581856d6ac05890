"""Acceptance suite: one test per release criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one status line per
criterion. Budgeted criteria assert their own wall-clock limits.
"""

import time

import numpy as np
import pytest

from gimirec import autodiff as ad
from gimirec.ablation import (compare_variant_matrices, direction_holds,
                              run_ablation, variant_accumulators)
from gimirec.config import HyperParams, PRESETS
from gimirec.global_context import (AblationVariant, build_weighted_adjacency,
                                    extract_hop_pairs, global_embeddings)
from gimirec.ingest import prepare
from gimirec.model import ModelDims, ModelParams, cast_adjacency, forward_interests, load_checkpoint
from gimirec.recent import make_window, stack_windows
from gimirec.serve_eval import (evaluate, evaluate_ranker, metrics,
                                popularity_counts, popularity_lists,
                                random_lists, top_n)
from gimirec.synthetic import PlantedConfig, planted_cluster_records, write_log
from gimirec.train import (build_adjacency_from_bundle, run_gradient_checks,
                           train_loop)

from helpers import acc_from_dicts, hop_dicts, random_sequences, sequences_of
from oracles import hop_pairs_oracle, interval_matrix, metrics_oracle

FULL = AblationVariant.FULL


def report(n, text):
    print(f"\n[acceptance] criterion {n}: {text}: PASS")


@pytest.fixture(scope="module")
def planted_bundle(tmp_path_factory):
    """The shared planted-structure dataset (clusters + sessions + noise)."""
    root = tmp_path_factory.mktemp("planted")
    records = planted_cluster_records(PlantedConfig(), seed=11)
    write_log(root / "log.csv", records)
    bundle, _ = prepare(root / "log.csv", root / "bundle", seed=11)
    return root, bundle


def test_criterion_1_pair_extraction_oracle():
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    for trial in range(200):
        n_users = int(rng.integers(1, 21))
        seqs = random_sequences(rng, n_users=n_users, n_items=25,
                                max_len=50, min_len=1, max_gap=4)
        variant = list(AblationVariant)[trial % 4]
        acc = extract_hop_pairs(seqs, variant, 0.65, 0.35, l_time=6.0,
                                time_unit_seconds=1)
        expect, occurrences = hop_pairs_oracle(
            seqs, variant.value, 0.65, 0.35, 6.0, 1)
        assert hop_dicts(acc) == expect  # dict equality: bit-exact floats
        assert acc.occurrences == occurrences
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    report(1, f"200 random datasets match the brute-force oracle exactly "
              f"({elapsed:.1f}s)")


def test_criterion_2_gce_algebra():
    # empty accumulator: identity adjacency, bit-exact passthrough
    empty = extract_hop_pairs(sequences_of(), FULL, 0.5, 0.5, 8.0, 1)
    adj = build_weighted_adjacency(empty, 1.0, 0.5, 0.25, 6)
    table = np.random.default_rng(0).normal(size=(7, 5))
    assert np.array_equal(global_embeddings(adj.a_norm, table), table)

    # two-item hand case
    acc = acc_from_dicts({1: {(1, 2): 2.0, (2, 1): 1.0}})
    adj2 = build_weighted_adjacency(acc, 1.0, 0.0, 0.0, 2)
    np.testing.assert_allclose(adj2.a_norm.toarray()[1:, 1:],
                               [[0.25, 0.75], [0.75, 0.25]], atol=1e-12)

    # sparse vs dense product on 50 random 20-item graphs
    rng = np.random.default_rng(7)
    for _ in range(50):
        seqs = random_sequences(rng, n_users=8, n_items=20, max_len=15)
        acc = extract_hop_pairs(seqs, FULL, 0.6, 0.4, 5.0, 1)
        a = build_weighted_adjacency(acc, 4.5, 2.0, 1.0, 20)
        t = rng.normal(size=(21, 8))
        assert np.abs(a.a_norm @ t - a.a_norm.toarray() @ t).max() <= 1e-12
    report(2, "identity passthrough bit-exact, 2x2 hand case and 50 "
              "sparse-vs-dense products within 1e-12")


def test_criterion_3_gradient_check():
    start = time.perf_counter()
    results = run_gradient_checks(n_models=20, base_seed=0, tolerance=1e-4)
    elapsed = time.perf_counter() - start
    worst = max(r.max_rel_err for r in results)
    assert all(r.passed for r in results), worst
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    report(3, f"20 tiny models, max relative error {worst:.2e} <= 1e-4 "
              f"({elapsed:.1f}s)")


def test_criterion_4_normalization_suite(softmax_probs):
    rng = np.random.default_rng(33)
    checked_rows = 0
    for trial in range(10):
        seqs = random_sequences(rng, n_users=6, n_items=12, max_len=14)
        acc = extract_hop_pairs(seqs, FULL, 0.5, 0.5, 6.0, 1)
        adj = build_weighted_adjacency(acc, 3.0, 2.0, 1.0, 12)
        dense = adj.a_norm.toarray()
        assert np.array_equal(dense, dense.T)  # bit-exact symmetry

        dims = ModelDims(13, 8, 3, 5, 6, 2, 2)
        params = ModelParams.init(dims, rng, dtype=np.float64)
        seq = seqs[0]
        window = make_window(seq, len(seq), dims.l_rec)
        tmat = interval_matrix(window, dims.l_time, 1)
        assert np.array_equal(tmat, tmat.T)
        assert np.all(np.diag(tmat) == 0.0)
        assert tmat.min() >= 0.0 and tmat.max() <= dims.l_time

        items, buckets, mask = stack_windows([window], dims.l_time, 1)
        softmax_probs.clear()
        forward_interests(params, cast_adjacency(adj.a_norm, np.float64),
                          items, buckets, mask)
        # interval attention, item and center attention per layer (no center
        # update in the last), interests
        assert len(softmax_probs) == 1 + 2 * dims.n_layers
        for call, probs in enumerate(softmax_probs):
            sums = probs.sum(axis=-1)
            real = sums[np.abs(sums) > 1e-9]  # padded query rows are zero
            np.testing.assert_allclose(real, 1.0, atol=1e-6,
                                       err_msg=f"softmax call {call}")
            checked_rows += real.size
    assert checked_rows > 100
    report(4, f"{checked_rows} softmax rows sum to 1 within 1e-6; adjacency "
              f"and interval matrices symmetric/clamped")


def test_criterion_5_metrics_oracle():
    cases = [
        (["a", "x"], {"a", "b"}, 2),
        (["x", "y", "z"], {"a"}, 3),
        (["a", "b"], {"a", "b"}, 2),
        (["b", "a"], {"a", "b"}, 2),
        (["a"], {"a", "b", "c"}, 1),
        (["x", "a"], {"a"}, 2),
        (["a", "x", "b", "y"], {"a", "b"}, 4),
        (["y", "x", "a", "b"], {"a", "b"}, 4),
        (list("abcde"), {"e"}, 5),
        (list("abcde"), {"a", "e"}, 5),
        (list("vwxyz"), {"a", "b"}, 5),
        (["a"], {"a"}, 1),
        (["x", "b", "y", "a"], {"a", "b", "c"}, 4),
        (list("abc"), {"a", "b", "c"}, 3),
        (list("xya"), {"a", "b", "c", "d"}, 3),
        (["b", "c", "a"], {"a"}, 3),
        (list("pqrsab"), {"a", "b"}, 6),
        (["a", "b", "x"], {"b"}, 3),
        (list("mnop"), {"m", "p"}, 4),
        (list("zya"), {"z", "a"}, 3),
    ]
    assert len(cases) == 20
    for ranked, truth, n in cases:
        got = metrics(ranked, truth, n)
        expect = metrics_oracle(ranked, truth, n)
        assert got == pytest.approx(expect, abs=1e-12)
    # the worked example, recomputed by the oracle and frozen
    recall, ndcg, hit = metrics(["a", "x"], {"a", "b"}, 2)
    assert (recall, hit) == (0.5, 1.0)
    assert ndcg == pytest.approx(0.6131471927654584, abs=1e-12)
    assert ndcg == pytest.approx(metrics_oracle(["a", "x"], {"a", "b"}, 2)[1])
    report(5, "20 constructed cases incl. the worked example match the "
              "independent oracle")


def test_criterion_6_end_to_end_smoke(planted_bundle):
    start = time.perf_counter()
    root, bundle = planted_bundle
    vocab = bundle.split.item_vocab
    # Amazon-style preset scaled down to desk size
    hp = HyperParams(**{**PRESETS["amazon-books"]}, seed=11).validate()
    from dataclasses import replace
    hp = replace(hp, d=32, n_layers=1, max_steps=1100, eval_every=550,
                 lr=0.005).validate()
    assert (hp.k, hp.l_rec, hp.d) == (4, 20, 32)
    assert hp.max_steps <= 5000

    adj = build_adjacency_from_bundle(bundle, hp)
    result = train_loop(hp, bundle, adj.a_norm, root / "smoke_run")
    assert not result.diverged
    params = load_checkpoint(result.checkpoint_path)
    a_cast = adj.a_norm.astype(params.dtype)
    model = evaluate(bundle.sequences, bundle.split.test_users, params,
                     a_cast, n_list=(20,)).per_n[20].recall

    counts = popularity_counts(bundle.train_sequences(), vocab.size)
    pop = evaluate_ranker(bundle.sequences, bundle.split.test_users,
                          lambda prefixes, n: popularity_lists(counts, prefixes, n),
                          n_list=(20,)).per_n[20].recall
    rng = np.random.default_rng(123)
    rnd = evaluate_ranker(bundle.sequences, bundle.split.test_users,
                          lambda prefixes, n: random_lists(rng, vocab.size, prefixes, n),
                          n_list=(20,)).per_n[20].recall
    elapsed = time.perf_counter() - start
    assert model >= 5.0 * pop, f"model {model:.4f} vs popularity {pop:.4f}"
    assert model >= 10.0 * rnd, f"model {model:.4f} vs random {rnd:.4f}"
    assert elapsed < 300.0, f"took {elapsed:.0f}s"
    report(6, f"recall@20 {model:.3f} vs popularity {pop:.3f} "
              f"({model / pop:.1f}x) and random {rnd:.3f} "
              f"({model / rnd:.1f}x) in {elapsed:.0f}s")


def test_criterion_7_ablation_direction(planted_bundle, tmp_path):
    root, bundle = planted_bundle
    hp = HyperParams(d=16, k=4, l_rec=20, l_time=3, n_layers=1, batch=64,
                     max_steps=250, eval_every=250, lr=0.005).validate()
    # hard gate: the four variants differ only through the documented
    # interval-weight / count / threshold switches
    accs = variant_accumulators(bundle, hp)
    wiring = compare_variant_matrices(accs)
    bad = [k for k, ok in wiring.items() if not ok]
    assert not bad, f"variant wiring broken: {bad}"

    results = run_ablation(bundle, hp, accs, seeds=[0, 1, 2], out_dir=tmp_path)
    table = {r.variant.value: r.recall for r in results}
    held = direction_holds(results)
    # reported, not enforced: desk-scale budgets may not separate variants
    report(7, f"variant switches verified; recall@20 {table}; "
              f"full >= every ablation: {held}")


def test_criterion_8_k_sweep_harness():
    rng = np.random.default_rng(8)
    seqs = random_sequences(rng, n_users=5, n_items=10, max_len=9)
    acc = extract_hop_pairs(seqs, FULL, 0.5, 0.5, 5.0, 1)
    adj = build_weighted_adjacency(acc, 3.0, 2.0, 1.0, 10)
    for k in (1, 2, 4, 8):
        dims = ModelDims(11, 8, k, 5, 5, 2, 1)
        params = ModelParams.init(dims, rng, dtype=np.float64)
        window = make_window(seqs[0], len(seqs[0]), 5)
        items, buckets, mask = stack_windows([window], 5, 1)
        interests, _ = forward_interests(
            params, cast_adjacency(adj.a_norm, np.float64), items, buckets,
            mask)
        assert interests.shape == (1, k, 8)
    # retrieval takes the max over interests: an item liked by only the
    # last interest must still surface first
    e_global = np.zeros((4, 3))
    e_global[2] = [0.0, 0.0, 4.0]
    e_global[1] = [1.0, 0.0, 0.0]
    interests = np.array([[1.0, 0.0, 0.0]] * 7 + [[0.0, 0.0, 1.0]])
    ranked = top_n(interests, e_global, 2)
    assert ranked[0] == 2
    report(8, "K in {1,2,4,8} produces K interests; retrieval scores by "
              "max over interests")


def test_criterion_9_cost_bound(planted_bundle):
    rng = np.random.default_rng(9)
    checked = 0
    for _ in range(25):
        seqs = random_sequences(rng, n_users=int(rng.integers(1, 15)),
                                n_items=12, max_len=40, min_len=1)
        total = sum(len(s) for s in seqs)
        for variant in AblationVariant:
            acc = extract_hop_pairs(seqs, variant, 0.5, 0.5, 5.0, 1)
            assert acc.occurrences <= 3 * total
            checked += 1
    _, bundle = planted_bundle
    acc = extract_hop_pairs(bundle.train_sequences(), FULL, 0.65, 0.35,
                            64.0, 86400)
    total = sum(len(s) for s in bundle.train_sequences())
    assert acc.occurrences <= 3 * total
    report(9, f"pair occurrences <= 3x interactions on {checked + 1} inputs "
              f"(planted set: {acc.occurrences} <= {3 * total})")


def test_criterion_10_bit_identical_training(tmp_path):
    rng = np.random.default_rng(10)
    cfg = PlantedConfig(n_clusters=3, items_per_cluster=8, n_users=30,
                        n_hot_items=5, n_tail_items=30,
                        cluster_draw_frac=(0.6, 0.9))
    write_log(tmp_path / "log.csv", planted_cluster_records(cfg, seed=2))
    bundle, _ = prepare(tmp_path / "log.csv", tmp_path / "bundle", seed=2)
    hp = HyperParams(d=8, k=2, l_rec=6, l_time=4, n_heads=2, n_layers=2,
                     batch=8, neg_samples=5, max_steps=40, eval_every=20,
                     lr=0.01, dropout=0.1, seed=77, dtype="float64",
                     threads=1).validate()
    adj = build_adjacency_from_bundle(bundle, hp)
    r1 = train_loop(hp, bundle, adj.a_norm, tmp_path / "a")
    r2 = train_loop(hp, bundle, adj.a_norm, tmp_path / "b")
    b1 = r1.checkpoint_path.read_bytes()
    b2 = r2.checkpoint_path.read_bytes()
    assert b1 == b2
    report(10, f"two float64 single-thread runs produced bit-identical "
               f"checkpoints ({len(b1)} bytes)")
