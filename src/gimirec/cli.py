"""Command-line interface.

Subcommands: prepare, gce, train, eval, recommend, gradcheck, ablate.
Hyperparameters resolve as defaults <- --preset <- --config file <-
GIMI_SEED <- --set key=value overrides.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .ablation import (compare_variant_matrices, direction_holds, run_ablation,
                       variant_accumulators)
from .config import ConfigError, PRESETS, load_config
from .global_context import (global_embeddings, read_adjacency, write_adjacency,
                             write_global_embeddings)
from .ingest import load_bundle, prepare
from .model import ModelDims, ModelParams, cast_adjacency, load_checkpoint
from .serve_eval import evaluate, recommend
from .synthetic import PlantedConfig, planted_cluster_records, write_log
from .train import build_adjacency_from_bundle, run_gradient_checks, train_loop


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", default=None, help="flat key=value config file")
    p.add_argument("--preset", choices=sorted(PRESETS), default=None,
                   help="hyperparameter preset")
    p.add_argument("--set", dest="overrides", action="append", default=[],
                   metavar="KEY=VALUE", help="override one hyperparameter")


def _resolve_config(args):
    return load_config(args.config, args.overrides, args.preset)


def _config_echo(hp) -> dict:
    d = dataclasses.asdict(hp)
    d["variant"] = hp.variant.value
    return d


def _build_info() -> dict:
    try:
        # the package's own checkout, not the caller's working directory
        git = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                             cwd=Path(__file__).parent,
                             capture_output=True, text=True, timeout=5)
        commit = git.stdout.strip() if git.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    return {"package": "gimirec", "version": __version__, "git": commit}


def _int_list(flag: str, raw: str) -> list[int]:
    try:
        return [int(x) for x in raw.split(",")]
    except ValueError:
        raise ValueError(f"{flag} must be comma-separated integers, got {raw!r}") from None


def _require(path: Path, hint: str) -> Path:
    if not path.exists():
        raise FileNotFoundError(f"{path} not found; {hint}")
    return path


def _load_bundle_checkpoint(args):
    """The bundle and ``--checkpoint``, which must have the same item rows."""
    bundle = load_bundle(args.bundle)
    ckpt_path = _require(Path(args.checkpoint), "run `gimirec train` first")
    params = load_checkpoint(ckpt_path)
    if bundle.split.item_vocab.size != params.dims.n_items:
        raise ValueError(f"{args.bundle} has {bundle.split.item_vocab.size} item "
                         f"rows but {ckpt_path} has {params.dims.n_items} items")
    return bundle, ckpt_path, params


def _read_adjacency(args, owner, n_items: int, dtype):
    """``--adjacency`` (default: <bundle>/adjacency.bin) cast to ``dtype``: the
    one check of a file's adjacency. It must have the ``n_items`` rows of
    ``owner`` (a checkpoint or bundle), be symmetric and stay finite."""
    adj_path = Path(args.adjacency) if args.adjacency else Path(args.bundle) / "adjacency.bin"
    _require(adj_path, "run `gimirec gce --bundle ... --out ...` first")
    a_norm = read_adjacency(adj_path)
    if a_norm.shape[0] != n_items:
        raise ValueError(f"{adj_path} has {a_norm.shape[0]} rows but {owner} "
                         f"has {n_items} items")
    if (a_norm != a_norm.T).nnz != 0:
        raise ValueError(f"{adj_path} (for {owner}): normalized adjacency must be symmetric")
    with np.errstate(over="ignore"):
        cast = cast_adjacency(a_norm, dtype)
    if not np.all(np.isfinite(cast.data)):
        raise ValueError(f"{adj_path} (for {owner}): adjacency value overflows "
                         f"{np.dtype(dtype)}")
    return cast


def _load_model_inputs(args):
    bundle, ckpt_path, params = _load_bundle_checkpoint(args)
    a_norm = _read_adjacency(args, ckpt_path, params.dims.n_items, params.dtype)
    return bundle, a_norm, params


def cmd_prepare(args) -> int:
    hp = _resolve_config(args)
    bundle, rejects = prepare(args.input, args.out, args.delimiter, hp.seed)
    vocab = bundle.split.item_vocab
    print(f"bundle written to {args.out}")
    print(f"users={len(bundle.sequences)} items={vocab.num_real} "
          f"interactions={bundle.sequences.items.size} rejects={rejects}")
    print(f"split: train={len(bundle.split.train_users)} "
          f"valid={len(bundle.split.valid_users)} "
          f"test={len(bundle.split.test_users)}")
    return 0


def cmd_gce(args) -> int:
    hp = _resolve_config(args)
    if args.checkpoint:
        bundle, _, params = _load_bundle_checkpoint(args)
    else:
        bundle = load_bundle(args.bundle)
        dims = ModelDims(bundle.split.item_vocab.size, hp.d, hp.k, hp.l_rec,
                         hp.l_time, hp.n_heads, hp.n_layers)
        params = ModelParams.init(dims, np.random.default_rng(hp.seed))
    table = params.item_table.data.astype(np.float64)
    adj = build_adjacency_from_bundle(bundle, hp)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_adjacency(out / "adjacency.bin", adj)
    write_global_embeddings(out / "global_emb.f32", global_embeddings(adj.a_norm, table))
    print(f"adjacency: {adj.a_norm.shape[0]}x{adj.a_norm.shape[1]}, "
          f"nnz={adj.a_norm.nnz} -> {out / 'adjacency.bin'}")
    print(f"global embeddings ({adj.a_norm.shape[0]}x{table.shape[1]}, f32) "
          f"-> {out / 'global_emb.f32'}")
    return 0


def cmd_train(args) -> int:
    hp = _resolve_config(args)
    bundle = load_bundle(args.bundle)
    # checked before train_loop writes to --out; train_loop does not test it again
    a_norm = _read_adjacency(args, args.bundle, bundle.split.item_vocab.size, hp.dtype)
    result = train_loop(hp, bundle, a_norm, args.out, log_fn=print)
    if result.diverged:
        kept = ("last good checkpoint retained" if result.history else
                f"no validation ran; {result.checkpoint_path} holds its last parameters"
                if result.checkpoint_path.exists() else
                "no validation ran and its parameters are not finite; no checkpoint written")
        print(f"training diverged; {kept}", file=sys.stderr)
        return 1
    print(f"checkpoint: {result.checkpoint_path}")
    print(f"log: {result.log_path}")
    print("best validation recall@20: "
          + (f"{result.best_recall:.6f}" if result.history else "none (no validation ran)"))
    return 0


def cmd_eval(args) -> int:
    hp = _resolve_config(args)
    n_list = tuple(_int_list("--n", args.n))
    bundle, a_norm, params = _load_model_inputs(args)
    users = (bundle.split.test_users if args.split == "test"
             else bundle.split.valid_users)
    report = evaluate(bundle.sequences, users, params, a_norm, n_list=n_list,
                      time_unit_seconds=hp.time_unit_seconds)
    payload = {
        "split": args.split,
        **report.to_dict(),
        "config": _config_echo(hp),
        "build": _build_info(),
    }
    text = json.dumps(payload, indent=2, sort_keys=True)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    print(text)
    return 0


def cmd_recommend(args) -> int:
    if args.n < 1:
        raise ValueError(f"-n must be at least 1, got {args.n}")
    users = _int_list("--users", args.users)
    hp = _resolve_config(args)
    bundle, a_norm, params = _load_model_inputs(args)
    real = bundle.split.item_vocab.num_real
    if args.n > real:
        raise ValueError(f"-n must be at most the catalog's {real} items, got {args.n}")
    seqs = bundle.sequences
    for u in users:
        if not 0 <= u < len(seqs):
            raise ValueError(f"user index {u} outside 0..{len(seqs) - 1} of {args.bundle}")
        if not seqs.lengths[u]:
            raise ValueError(f"user index {u} of {args.bundle} has no interactions to "
                             "recommend from")
    ranked = recommend(params, a_norm, seqs.subset(users), args.n, hp.time_unit_seconds)
    vocab = bundle.split.item_vocab
    for u, row in zip(users, ranked):
        # a short list means too few candidates, reported when that user is
        # reached, so the users before it are still printed
        items = row[row >= 0]
        if len(items) < args.n:
            raise ValueError(f"cannot rank {args.n} items from {len(items)} candidates")
        names = [vocab.index_to_raw[int(i)] for i in items]
        print(f"user {u} ({bundle.user_ids[u]}): {' '.join(names)}")
    return 0


def cmd_gradcheck(args) -> int:
    results = run_gradient_checks(n_models=args.models, base_seed=args.seed)
    worst = max(r.max_rel_err for r in results)
    for i, r in enumerate(results):
        status = "ok" if r.passed else "FAIL"
        print(f"model {i}: max rel err {r.max_rel_err:.3e} [{status}]")
    passed = all(r.passed for r in results)
    print(f"max rel err {worst:.3e} {'<=' if passed else '>'} "
          f"{results[0].tolerance:g}: {'PASS' if passed else 'FAIL'}")
    return 0 if passed else 1


def cmd_ablate(args) -> int:
    seeds = _int_list("--seeds", args.seeds)
    if min(seeds) < 0:
        raise ValueError(f"--seeds must be non-negative, got {args.seeds!r}")
    repeated = [s for i, s in enumerate(seeds) if s in seeds[:i]]
    if repeated:
        raise ValueError(f"--seeds repeats seed {repeated[0]}, got {args.seeds!r}")
    hp = _resolve_config(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.bundle:
        bundle = load_bundle(args.bundle)
    else:
        print("no bundle given; generating the planted-cluster synthetic dataset")
        log_path = out / "synthetic_log.csv"
        write_log(log_path, planted_cluster_records(PlantedConfig(), seed=hp.seed))
        bundle, _ = prepare(log_path, out / "bundle", seed=hp.seed)
    accs = variant_accumulators(bundle, hp)
    matrix_report = compare_variant_matrices(accs)
    wired = all(matrix_report.values())
    print("variant wiring checks:", "ok" if wired else "FAILED")
    for key in sorted(key for key, ok in matrix_report.items() if not ok):
        print(f"  {key}: FAILED")
    if not wired:
        return 1
    results = run_ablation(bundle, hp, accs, seeds, out / "runs", log_fn=print)
    print(f"{'variant':<8} {'recall@20':>10} {'ndcg@20':>10} {'hit@20':>10}")
    for row in results:
        print(f"{row.variant.value:<8} {row.recall:>10.4f} {row.ndcg:>10.4f} "
              f"{row.hit_rate:>10.4f}")
    print("full beats every ablation:" ,
          "yes" if direction_holds(results) else "no (reported, not enforced)")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="gimirec",
        description="Multi-interest sequential recommender with "
                    "interval-weighted global co-occurrence context")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prepare", help="parse, filter, split and write a dataset bundle")
    p.add_argument("--input", required=True, help="delimited interaction log")
    p.add_argument("--out", required=True)
    p.add_argument("--delimiter", default=",")
    _add_config_flags(p)
    p.set_defaults(func=cmd_prepare)

    p = sub.add_parser("gce", help="build and export the global-context adjacency and embeddings")
    p.add_argument("--bundle", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--checkpoint", default=None,
                   help="use this checkpoint's item table (default: fresh init)")
    _add_config_flags(p)
    p.set_defaults(func=cmd_gce)

    p = sub.add_parser("train", help="train and keep the best-on-validation checkpoint")
    p.add_argument("--bundle", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--adjacency", default=None,
                   help="adjacency container (default: <bundle>/adjacency.bin)")
    _add_config_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="report retrieval metrics on a held-out split")
    p.add_argument("--bundle", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--adjacency", default=None)
    p.add_argument("--split", choices=("valid", "test"), default="test")
    p.add_argument("--n", default="20,50", help="comma-separated cutoffs")
    p.add_argument("--out", default=None, help="also write the JSON report here")
    _add_config_flags(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("recommend", help="top-N items for listed user indices")
    p.add_argument("--bundle", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--adjacency", default=None)
    p.add_argument("--users", required=True, help="comma-separated user indices")
    p.add_argument("-n", type=int, default=20)
    _add_config_flags(p)
    p.set_defaults(func=cmd_recommend)

    p = sub.add_parser("gradcheck", help="finite-difference check on tiny models")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--models", type=int, default=3)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("ablate", help="run all four global-context variants and compare")
    p.add_argument("--out", required=True)
    p.add_argument("--bundle", default=None,
                   help="dataset bundle (default: generate synthetic data)")
    p.add_argument("--seeds", default="0,1,2")
    _add_config_flags(p)
    p.set_defaults(func=cmd_ablate)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
