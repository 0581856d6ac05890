"""Variant wiring checks and the ablation runner on a miniature dataset."""

from dataclasses import replace

import numpy as np
from hypothesis import given, settings, strategies as st

from gimirec import ablation
from gimirec.ablation import (VARIANT_ORDER, compare_variant_matrices,
                              direction_holds, run_ablation, variant_accumulators,
                              VariantResult)
from gimirec.config import HyperParams
from gimirec.global_context import AblationVariant, HopPairs
from gimirec.ingest import prepare
from gimirec.synthetic import PlantedConfig, planted_cluster_records, write_log
from gimirec.train import build_adjacency_from_bundle

from oracles import pairs_within_sets


def mini_bundle(tmp_path, seed=4):
    cfg = PlantedConfig(n_clusters=3, items_per_cluster=8, n_users=30,
                        n_hot_items=5, n_tail_items=30,
                        cluster_draw_frac=(0.6, 0.9))
    write_log(tmp_path / "log.csv", planted_cluster_records(cfg, seed=seed))
    bundle, _ = prepare(tmp_path / "log.csv", tmp_path / "bundle", seed=seed)
    return bundle


def test_variant_matrices_differ_only_via_switches(tmp_path):
    bundle = mini_bundle(tmp_path)
    hp = HyperParams(l_time=3).validate()
    wiring = compare_variant_matrices(variant_accumulators(bundle, hp))
    assert wiring and all(wiring.values()), wiring


def hop_pairs(pairs) -> HopPairs:
    """Sorted distinct pairs as the accumulator stores them."""
    rows, cols = np.array(sorted(pairs), dtype=np.int64).reshape(-1, 2).T
    return HopPairs(rows, cols, np.ones(rows.size))


PAIRS = st.sets(st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=25)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_pairs_within_matches_sets(data):
    sup = data.draw(PAIRS)
    sub = set(data.draw(st.lists(st.sampled_from(sorted(sup)), max_size=10))
              if sup else [])
    if data.draw(st.booleans()):
        sub |= data.draw(PAIRS)                    # most often not a subset
    a, b = hop_pairs(sub), hop_pairs(sup)
    assert ablation._pairs_within(a, b) == pairs_within_sets(a, b)


def test_pairs_within_both_outcomes():
    sup = hop_pairs({(1, 2), (1, 7), (3, 0), (9, 9)})
    assert ablation._pairs_within(hop_pairs({(1, 7), (9, 9)}), sup)
    assert ablation._pairs_within(hop_pairs(set()), hop_pairs(set()))
    for outside in ({(1, 3)}, {(0, 0)}, {(9, 10)}, {(2, 1)}):
        assert not ablation._pairs_within(hop_pairs(outside), sup)
    assert not ablation._pairs_within(sup, hop_pairs(set()))


def test_variant_report_equals_set_check(tmp_path, monkeypatch):
    bundle = mini_bundle(tmp_path)
    for l_time in (1, 3):
        accs = variant_accumulators(bundle, HyperParams(l_time=l_time).validate())
        report = compare_variant_matrices(accs)
        with monkeypatch.context() as mp:
            mp.setattr(ablation, "_pairs_within", pairs_within_sets)
            assert report == compare_variant_matrices(accs)


def test_run_ablation_covers_all_variants(tmp_path):
    bundle = mini_bundle(tmp_path)
    hp = HyperParams(d=8, k=2, l_rec=6, l_time=3, n_heads=2, n_layers=1,
                     batch=8, neg_samples=4, max_steps=10, eval_every=10,
                     lr=0.01).validate()
    results = run_ablation(bundle, hp, variant_accumulators(bundle, hp), seeds=[0],
                           out_dir=tmp_path / "runs")
    assert [r.variant for r in results] == list(VARIANT_ORDER)
    for r in results:
        assert 0.0 <= r.recall <= 1.0
        assert len(r.per_seed_recall) == 1
        assert (tmp_path / "runs" / f"{r.variant.value}_seed0"
                / "checkpoint.bin").exists()


def test_adjacency_built_once_per_variant(tmp_path, monkeypatch):
    bundle = mini_bundle(tmp_path)
    hp = HyperParams(d=8, k=2, l_rec=6, l_time=3, n_heads=2, n_layers=1,
                     batch=8, neg_samples=4, max_steps=10, eval_every=10,
                     lr=0.01).validate()
    accs = variant_accumulators(bundle, hp)
    built = []
    build = ablation.build_weighted_adjacency

    def spy(acc, *args):
        built.append((acc, build(acc, *args)))
        return built[-1][1]

    monkeypatch.setattr(ablation, "build_weighted_adjacency", spy)
    results = run_ablation(bundle, hp, accs, seeds=[0, 1], out_dir=tmp_path / "runs")
    assert [id(acc) for acc, _ in built] == [id(accs[v]) for v in VARIANT_ORDER]
    # from the given accumulators, each adjacency is the one the bundle gives
    for variant, (_, adj) in zip(VARIANT_ORDER, built):
        expect = build_adjacency_from_bundle(bundle, replace(hp, variant=variant)).a_norm
        for field in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(adj.a_norm, field), getattr(expect, field))
    # each seed's run is the one it makes alone
    alone = [run_ablation(bundle, hp, accs, seeds=[seed], out_dir=tmp_path / f"alone{seed}")
             for seed in (0, 1)]
    for result, *single in zip(results, *alone):
        assert result == VariantResult(
            result.variant,
            *(float(np.mean([getattr(r, f) for r in single]))
              for f in ("recall", "ndcg", "hit_rate")),
            [r.recall for r in single])


def test_direction_holds_logic():
    rows = [VariantResult(v, recall, 0.0, 0.0, [recall])
            for v, recall in zip(VARIANT_ORDER, (0.5, 0.4, 0.3, 0.2))]
    assert direction_holds(rows)
    rows[1] = VariantResult(AblationVariant.NO_I, 0.6, 0.0, 0.0, [0.6])
    assert not direction_holds(rows)
