"""End-to-end run on a small planted-structure dataset.

Generates a synthetic log (two interest clusters per user, timestamped
sessions, background noise), ingests it, builds the global-context
adjacency from the training split, trains briefly, then compares retrieval
quality against popularity and random baselines and prints one user's
recommendations. The work directory is removed when the demo ends.
"""

import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np

from gimirec.config import HyperParams
from gimirec.ingest import prepare
from gimirec.model import load_checkpoint
from gimirec.serve_eval import (compute_global_table, evaluate,
                                evaluate_ranker, infer_interests,
                                popularity_counts, popularity_top_n,
                                random_top_n, top_n)
from gimirec.synthetic import PlantedConfig, planted_cluster_records, write_log
from gimirec.train import build_adjacency_from_bundle, train_loop

with tempfile.TemporaryDirectory(prefix="gimirec-demo-") as tmp:
    work = Path(tmp)
    print("working directory:", work)

    cfg = PlantedConfig(n_users=200)  # smaller than the acceptance run, faster
    write_log(work / "log.csv", planted_cluster_records(cfg, seed=1))
    bundle, rejects = prepare(work / "log.csv", work / "bundle", seed=1)
    vocab = bundle.split.item_vocab
    print(f"users={len(bundle.sequences)} items={vocab.num_real} "
          f"interactions={sum(len(s) for s in bundle.sequences)}")

    hp = HyperParams(d=32, k=4, l_rec=20, n_layers=1, batch=64, max_steps=500,
                     eval_every=250, lr=0.005, seed=1).validate()
    adj = build_adjacency_from_bundle(bundle, hp)
    print(f"adjacency: {adj.a_norm.shape[0]} rows, nnz={adj.a_norm.nnz}")

    result = train_loop(hp, bundle, adj.a_norm, work / "run", log_fn=print)
    params = load_checkpoint(result.checkpoint_path)
    a_cast = adj.a_norm.astype(params.dtype)

    model = evaluate(bundle.sequences, bundle.split.test_users, params, a_cast,
                     n_list=(20,)).per_n[20].recall
    counts = popularity_counts(bundle.train_sequences(), vocab.size)
    pop = evaluate_ranker(bundle.sequences, bundle.split.test_users,
                          lambda n, ex: popularity_top_n(counts, n, ex),
                          n_list=(20,)).per_n[20].recall
    rng = np.random.default_rng(0)
    rnd = evaluate_ranker(bundle.sequences, bundle.split.test_users,
                          lambda n, ex: random_top_n(rng, vocab.size, n, ex),
                          n_list=(20,)).per_n[20].recall
    print(f"\ntest recall@20:  model {model:.3f}  popularity {pop:.3f}  "
          f"random {rnd:.3f}")

    user = int(bundle.split.test_users[0])
    seq = bundle.sequences[user]
    vectors = infer_interests(seq, len(seq), params, a_cast)
    ranked = top_n(vectors, compute_global_table(params, a_cast), 10,
                   exclude=set(seq.items.tolist()))
    print(f"\nuser {user} recent items:",
          [vocab.index_to_raw[i] for i in seq.items[-8:]])
    print(f"top-10 recommendations:",
          [vocab.index_to_raw[int(i)] for i in ranked])
