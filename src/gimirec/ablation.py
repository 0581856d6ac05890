"""Ablation harness: run the four global-context variants side by side.

The variants must differ only through the documented switches (interval
weighting, occurrence counts, interval threshold); ``compare_variant_matrices``
checks exactly that on the accumulators of ``variant_accumulators``, and
``run_ablation`` trains and evaluates each variant over several seeds.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .config import HyperParams
from .global_context import (AblationVariant, HopPairs, build_weighted_adjacency,
                             extract_hop_pairs)
from .ingest import DatasetBundle
from .serve_eval import evaluate
from .train import train_loop
from .model import load_checkpoint

VARIANT_ORDER = (AblationVariant.FULL, AblationVariant.NO_I,
                 AblationVariant.NO_IN, AblationVariant.NO_INT)


@dataclass
class VariantResult:
    variant: AblationVariant
    recall: float
    ndcg: float
    hit_rate: float
    per_seed_recall: list[float]


def _pairs_within(sub: HopPairs, sup: HopPairs) -> bool:
    """Whether every (row, col) pair of ``sub`` is also one of ``sup``'s.

    Both hold sorted distinct pairs, so their row * base + col keys are
    sorted and one ``np.searchsorted`` finds each of ``sub``'s.
    """
    base = int(max(sub.cols.max(initial=0), sup.cols.max(initial=0))) + 1
    keys, wanted = sup.rows * base + sup.cols, sub.rows * base + sub.cols
    at = np.searchsorted(keys, wanted)
    return bool(at.size == 0 or (at.max() < keys.size
                                 and np.array_equal(keys[at], wanted)))


def variant_accumulators(bundle: DatasetBundle, hp: HyperParams) -> dict:
    """Each variant's ``HopPairAccumulator`` over the training-split users."""
    train = bundle.train_sequences()
    return {v: extract_hop_pairs(train, v, hp.a, hp.b, float(hp.l_time),
                                 hp.time_unit_seconds, hp.allow_self_pairs)
            for v in VARIANT_ORDER}


def compare_variant_matrices(accs: dict) -> dict:
    """Facts tying each variant's accumulator to its documented switch.

    Returns a report dict; every boolean in it must be True for the variants
    to be considered wired correctly.
    """
    report: dict[str, bool] = {}
    for k in (1, 2, 3):
        full, no_i, no_in, no_int = (accs[v].hops[k] for v in VARIANT_ORDER)
        same_support = all(np.array_equal(h.rows, full.rows)
                           and np.array_equal(h.cols, full.cols)
                           for h in (no_i, no_in))
        report[f"hop{k}_same_support_under_threshold"] = same_support
        report[f"hop{k}_no_threshold_superset"] = _pairs_within(no_in, no_int)
        report[f"hop{k}_counts_are_integers"] = bool(np.all(
            (no_i.values == np.floor(no_i.values)) & (no_i.values >= 1.0)))
        report[f"hop{k}_presence_is_binary"] = bool(
            np.all(no_in.values == 1.0) and np.all(no_int.values == 1.0))
        report[f"hop{k}_interval_weight_bounded_by_count"] = same_support and bool(
            np.all(full.values <= no_i.values + 1e-9))
    return report


def run_ablation(bundle: DatasetBundle, hp: HyperParams, accs: dict, seeds: list[int],
                 out_dir, log_fn=None) -> list[VariantResult]:
    """Train and evaluate (test users, N = 20) every variant from ``accs`` per seed."""
    results = []
    for variant in VARIANT_ORDER:
        adj = build_weighted_adjacency(accs[variant], hp.alpha, hp.beta, hp.gamma,
                                       bundle.split.item_vocab.num_real)
        rows = []
        for seed in seeds:
            hp_v = replace(hp, variant=variant, seed=seed).validate()
            run_dir = Path(out_dir) / f"{variant.value}_seed{seed}"
            result = train_loop(hp_v, bundle, adj.a_norm, run_dir)
            params = load_checkpoint(result.checkpoint_path)
            report = evaluate(bundle.sequences, bundle.split.test_users, params,
                              adj.a_norm.astype(params.dtype), n_list=(20,),
                              time_unit_seconds=hp_v.time_unit_seconds,
                              residual=hp_v.residual)
            rows.append(report.per_n[20])
            if log_fn is not None:
                log_fn(f"{variant.value} seed={seed} recall@20={rows[-1].recall:.4f}")
        means = (float(np.mean([getattr(r, f) for r in rows]))
                 for f in ("recall", "ndcg", "hit_rate"))
        results.append(VariantResult(variant, *means, [r.recall for r in rows]))
    return results


def direction_holds(results: list[VariantResult]) -> bool:
    """True when the full variant's mean recall tops every ablation."""
    full = next(r for r in results if r.variant is AblationVariant.FULL)
    return all(full.recall >= r.recall for r in results
               if r.variant is not AblationVariant.FULL)
