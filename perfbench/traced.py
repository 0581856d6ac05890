"""Traced run: spans around every library call, and isolated layer timings.

The traced run replays what the untraced run drives — set-up, the step
loop, the 80/20 evaluation and one-user requests — call by call from the
same public functions, with a span around each call. Spans (name, start,
end, parent, one id per step or request) are kept in memory and written
out when the run ends, with a per-span table of counts, medians and self
time.

Per-layer backward cost cannot be read off the whole-step backward, so
after every step each layer function is called again on detached leaf
copies of that step's real inputs, and its forward and ``backward()`` are
timed in separate spans. These calls draw no randomness from the training
generator and mutate nothing, so the replayed steps stay bit-identical to
``train.train_loop``, which the run checks.

The tracing overhead is the replayed loop's wall time, less the isolated
layer calls, over the mean wall time of two untraced ``train_loop`` calls of
the same length, one made before the replay and one after.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from gimirec import autodiff as ad
from gimirec import ingest, serve_eval, train
from gimirec.aggregate import AttnProjs, LayerParams, aggregate_layers, hybrid_embeddings
from gimirec.global_context import build_weighted_adjacency, extract_hop_pairs
from gimirec.interests import extract_interests, select_training_interest
from gimirec.model import (ModelDims, ModelParams, cast_adjacency,
                           forward_interests, load_checkpoint, save_checkpoint)
from gimirec.recent import interval_attention, make_window, stack_windows

import harness
from harness import TOP_N, Outcome

# evaluate() scores users in chunks of this many; the replay does the same
EVAL_CHUNK = 256

# per-layer metric -> span whose median duration per call it reports
SPAN_METRICS = {
    "ingest.parse_log_ms": "ingest.parse_log",
    "ingest.filter_and_index_ms": "ingest.filter_and_index",
    "global_context.extract_hop_pairs_ms": "global_context.extract_hop_pairs",
    "global_context.build_adjacency_ms": "global_context.build_adjacency",
    "global_context.spmm_fwd_ms": "global_context.spmm.fwd",
    "global_context.spmm_bwd_ms": "global_context.spmm.bwd",
    "recent.build_batch_ms": "recent.build_batch",
    "recent.interval_attention_fwd_ms": "recent.interval_attention.fwd",
    "recent.interval_attention_bwd_ms": "recent.interval_attention.bwd",
    "aggregate.layers_fwd_ms": "aggregate.layers.fwd",
    "aggregate.layers_bwd_ms": "aggregate.layers.bwd",
    "interests.extract_fwd_ms": "interests.extract.fwd",
    "interests.extract_bwd_ms": "interests.extract.bwd",
    "train.sample_ms": "train.sample",
    "train.loss_head_fwd_ms": "train.loss_head.fwd",
    "train.loss_head_bwd_ms": "train.loss_head.bwd",
    "train.forward_ms": "train.forward",
    "train.adam_ms": "train.adam",
    "autodiff.backward_ms": "autodiff.backward",
    "model.forward_interests_ms": "model.forward_interests",
    "model.save_checkpoint_ms": "model.save_checkpoint",
    "serve_eval.global_table_ms": "serve_eval.global_table",
    "serve_eval.infer_interests_ms": "serve_eval.infer_interests",
    "serve_eval.top_n_ms": "serve_eval.top_n",
    "serve_eval.metrics_ms": "serve_eval.metrics",
}

# isolated layers, in the order the step runs them
LAYERS = ("global_context.spmm", "recent.interval_attention", "aggregate.layers",
          "interests.extract", "train.loss_head")

CHECKPOINT_SAVES = 5


class Tracer:
    """Spans in memory: [name, start, end, parent index, operation id]."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, op=None):
        parent = self._open[-1] if self._open else None
        if op is None and parent is not None:
            op = self.spans[parent][4]
        record = [name, time.perf_counter(), None, parent, op]
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._open.pop()

    def durations_ms(self, name: str) -> list[float]:
        return [1000.0 * (s[2] - s[1]) for s in self.spans if s[0] == name]

    def self_ms(self) -> list[float]:
        """Each span's duration less the part its children cover."""
        own = [1000.0 * (s[2] - s[1]) for s in self.spans]
        for s in self.spans:
            if s[3] is not None:
                own[s[3]] -= 1000.0 * (s[2] - s[1])
        return own

    def table(self) -> dict:
        own = self.self_ms()
        rows: dict[str, dict] = {}
        for s, self_ms in zip(self.spans, own):
            row = rows.setdefault(s[0], {"count": 0, "total_ms": 0.0,
                                         "self_ms": 0.0, "durations": []})
            duration = 1000.0 * (s[2] - s[1])
            row["count"] += 1
            row["total_ms"] += duration
            row["self_ms"] += self_ms
            row["durations"].append(duration)
        for row in rows.values():
            durations = row.pop("durations")
            row["median_ms"] = float(np.median(durations))
            row["p95_ms"] = float(np.percentile(durations, 95))
        return rows

    def write(self, path: Path) -> None:
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for i, (s, self_ms) in enumerate(zip(self.spans, self.self_ms())):
                fh.write(json.dumps({
                    "i": i, "name": s[0], "start_ms": 1000.0 * (s[1] - origin),
                    "end_ms": 1000.0 * (s[2] - origin), "parent": s[3],
                    "id": s[4], "self_ms": self_ms}) + "\n")


def _leaf(array: np.ndarray) -> ad.Tensor:
    return ad.Tensor(array, requires_grad=True)


# ---------------------------------------------------------------------------
# set-up, call by call as ingest.prepare and build_adjacency_from_bundle make them

def traced_setup(tracer: Tracer, hp, log_path: Path, work: Path, outcome: Outcome):
    with tracer.span("setup", op="setup"):
        with tracer.span("ingest.parse_log"):
            parsed = ingest.parse_log(log_path)
        with tracer.span("ingest.filter_and_index"):
            sequences, vocab, user_ids = ingest.filter_and_index(parsed.records)
        with tracer.span("ingest.split_and_save"):
            split = ingest.split_users(sequences, hp.seed, vocab)
            bundle = ingest.DatasetBundle(sequences, split, user_ids)
            ingest.save_bundle(work / "bundle", bundle)
        with tracer.span("global_context.extract_hop_pairs"):
            acc = extract_hop_pairs(
                bundle.train_sequences(), hp.variant, hp.a, hp.b, float(hp.l_time),
                time_unit_seconds=hp.time_unit_seconds,
                allow_self_pairs=hp.allow_self_pairs)
        with tracer.span("global_context.build_adjacency"):
            adj = build_weighted_adjacency(acc, hp.alpha, hp.beta, hp.gamma,
                                           vocab.num_real)
    problems = harness.check_adjacency(adj.a_norm, vocab.num_real)
    expected = harness.pair_occurrences(bundle, hp)
    if acc.occurrences != expected:
        problems.append(f"{acc.occurrences} pair occurrences, expected {expected}")
    outcome.record("setup", 1, int(bool(problems)), problems)
    return bundle, adj, len(parsed.records)


# ---------------------------------------------------------------------------
# step loop

def isolate_layers(tracer: Tracer, dims: ModelDims, weights: dict, a_norm,
                   batch, aux: dict, hp, rng: np.random.Generator) -> float:
    """Time each layer's forward and backward on leaf copies of real inputs.

    Returns the loss the isolated loss head computes, which must equal the
    step's loss.
    """
    def timed(name: str, forward):
        with tracer.span(name + ".fwd"):
            out = forward()
        root = out[0] if isinstance(out, tuple) else out
        with tracer.span(name + ".bwd"):
            root.backward()
        return root

    mask = batch.mask
    e_global = aux["e_global"].data
    timed("global_context.spmm",
          lambda: ad.spmm(a_norm, a_norm, _leaf(weights["item_embeddings"])))
    e_time = timed("recent.interval_attention", lambda: interval_attention(
        batch.buckets, _leaf(weights["interval_embeddings"]),
        _leaf(weights["interval_score_weight"]), mask))

    layers = [LayerParams(*(AttnProjs(*(_leaf(weights[f"layer{li}.{role}.{n}"])
                                        for n in ("wq", "wk", "wv", "wo")))
                            for role in ("item", "center")))
              for li in range(dims.n_layers)]

    def aggregate():
        rows = _leaf(e_global[batch.item_idx])
        hybrid = hybrid_embeddings(rows, _leaf(e_time.data), mask)
        return aggregate_layers(hybrid, rows, layers, dims.n_heads, mask,
                                dropout_rate=hp.dropout, rng=rng,
                                residual=hp.residual)

    timed("aggregate.layers", aggregate)
    interests = timed("interests.extract", lambda: extract_interests(
        _leaf(aux["e_user"].data), _leaf(weights["interest_hidden_weight"]),
        _leaf(weights["interest_query_weight"]), mask))

    def loss_head():
        table = _leaf(e_global)
        target_emb = ad.gather(table, batch.targets)
        _, selected = select_training_interest(_leaf(interests.data), target_emb)
        nll = train.sampled_softmax_nll(selected, target_emb,
                                        ad.gather(table, batch.negatives))
        return ad.scale(ad.sumt(nll), 1.0 / batch.item_idx.shape[0])

    return timed("train.loss_head", loss_head).item()


def replay_training(tracer: Tracer, hp, bundle, a_norm, work: Path,
                    outcome: Outcome):
    """train_loop's step loop and end-of-run validation, one span per call.

    Returns (mean loss over the steps, rows_used_share per step).
    """
    vocab = bundle.split.item_vocab
    dims = ModelDims(n_items=vocab.size, d=hp.d, k=hp.k, l_rec=hp.l_rec,
                     l_time=hp.l_time, n_heads=hp.n_heads, n_layers=hp.n_layers)
    dtype = np.float64 if hp.dtype == "float64" else np.float32
    isolated_rng = np.random.default_rng([hp.seed, 3])
    loss_sum = 0.0
    shares = []
    with tracer.span("train.loop", op="train"):
        with tracer.span("train.init"):
            rng = np.random.default_rng(hp.seed)
            params = ModelParams.init(dims, rng, dtype=dtype)
            adj = cast_adjacency(a_norm, dtype)
            stream = train.make_examples(bundle.split.train_users, bundle.sequences,
                                         hp.l_rec, hp.neg_samples, vocab.num_real,
                                         rng, hp.neg_distribution)
            state = train.AdamState(lr=hp.lr)
        for step in range(1, hp.max_steps + 1):
            with tracer.span("train.step", op=step):
                with tracer.span("train.sample"):
                    examples = [next(stream) for _ in range(hp.batch)]
                with tracer.span("recent.build_batch"):
                    batch = train.build_batch(examples, hp.l_time, hp.time_unit_seconds)
                params.zero_grad()
                with tracer.span("train.forward"):
                    value, aux = train.batch_loss(params, adj, batch,
                                                  dropout_rate=hp.dropout, rng=rng,
                                                  residual=hp.residual)
                if not np.isfinite(value.data):
                    outcome.record("train_steps", hp.max_steps - step + 1,
                                   hp.max_steps - step + 1, ["non-finite loss"])
                    break
                with tracer.span("autodiff.backward"):
                    value.backward()
                grads = {n: (t.grad if t.grad is not None else np.zeros_like(t.data))
                         for n, t in params.named().items()}
                # adam_step rebinds each tensor's data, so these stay the
                # step's inputs
                weights = {n: t.data for n, t in params.named().items()}
                with tracer.span("train.adam"):
                    train.adam_step(params, grads, state)
            loss_sum += value.item()
            with tracer.span("isolated", op=step):
                head_loss = isolate_layers(tracer, dims, weights, adj, batch, aux,
                                           hp, isolated_rng)
            problems = [] if head_loss == value.item() else [
                f"step {step}: isolated loss head {head_loss} != step loss {value.item()}"]
            outcome.record("train_steps", 1, int(bool(problems)), problems)
            shares.append(harness.rows_used_share(harness.batch_rows(examples),
                                                  vocab.num_real))
        with tracer.span("serve_eval.evaluate"):
            serve_eval.evaluate(bundle.sequences, bundle.split.valid_users, params,
                                adj, n_list=(TOP_N,),
                                time_unit_seconds=hp.time_unit_seconds,
                                residual=hp.residual, threads=hp.threads)
        with tracer.span("model.save_checkpoint"):
            save_checkpoint(work / "replay.bin", params)
    for _ in range(CHECKPOINT_SAVES - 1):
        with tracer.span("model.save_checkpoint", op="checkpoint"):
            save_checkpoint(work / "replay.bin", params)
    return loss_sum / hp.max_steps, shares


# ---------------------------------------------------------------------------
# read path

def replay_evaluation(tracer: Tracer, hp, bundle, params, a_norm,
                      outcome: Outcome, op: str):
    """evaluate()'s 80/20 protocol over the test split, one span per call.

    Returns (recall@N, users scored, users skipped).
    """
    jobs = []
    skipped = 0
    with tracer.span("eval.replay", op=op):
        for u in bundle.split.test_users:
            seq = bundle.sequences[int(u)]
            prefix = (8 * len(seq)) // 10
            truth = set(seq.items[prefix:].tolist())
            if prefix < 1 or not truth:
                skipped += 1
                continue
            jobs.append((seq, prefix, truth))
        with tracer.span("serve_eval.global_table"):
            e_global = serve_eval.compute_global_table(params, a_norm)
        rows = []
        for i in range(0, len(jobs), EVAL_CHUNK):
            chunk = jobs[i:i + EVAL_CHUNK]
            with tracer.span("recent.stack_windows"):
                items, buckets, mask = stack_windows(
                    [make_window(seq, prefix + 1, hp.l_rec) for seq, prefix, _ in chunk],
                    hp.l_time, hp.time_unit_seconds)
            with tracer.span("model.forward_interests"), ad.no_grad():
                interests, _ = forward_interests(params, a_norm, items, buckets,
                                                 mask, residual=hp.residual)
            for (seq, prefix, truth), vectors in zip(chunk, interests.data):
                exclude = set(seq.items[:prefix].tolist())
                with tracer.span("serve_eval.top_n"):
                    ranked = serve_eval.top_n(vectors, e_global, TOP_N, exclude)
                with tracer.span("serve_eval.metrics"):
                    rows.append(serve_eval.metrics(ranked, truth, TOP_N))
                problems = harness.check_ranking(ranked, vectors, e_global, TOP_N,
                                                 exclude)
                outcome.record("eval_users", 1, int(bool(problems)), problems[:1])
    recall = float(np.array(rows, dtype=np.float64).mean(axis=0)[0]) if rows else 0.0
    return recall, len(jobs), skipped


def timed_train_loop(hp, bundle, a_norm, out_dir: Path):
    start = time.perf_counter()
    result = train.train_loop(hp, bundle, a_norm, out_dir)
    return result, 1000.0 * (time.perf_counter() - start)


def run(workload: harness.Workload, seed: int, seconds: float, work: Path,
        out_dir: Path) -> tuple[dict, dict]:
    """Traced run; returns (result line, summary). Writes spans and the table."""
    work.mkdir(parents=True, exist_ok=True)
    out_dir.mkdir(parents=True, exist_ok=True)
    log_path = work / "log.csv"
    harness.generate_log(workload, seed, log_path)
    outcome = Outcome()
    tracer = Tracer()
    hp = harness.hyperparams(workload, seed)

    bundle, adj, log_records = traced_setup(tracer, hp, log_path, work, outcome)

    # untraced train_loop calls before and after the replay, so that drift in
    # machine speed cancels out of the overhead ratio
    base, before_ms = timed_train_loop(hp, bundle, adj.a_norm, work / "train_before")
    mean_loss, shares = replay_training(tracer, hp, bundle, adj.a_norm, work, outcome)
    after, after_ms = timed_train_loop(hp, bundle, adj.a_norm, work / "train_after")
    if any(not r.history or r.history[-1]["loss"] != mean_loss for r in (base, after)):
        outcome.record("train_steps", 0, 0, ["replayed loss differs from train_loop"])

    params = load_checkpoint(base.checkpoint_path)
    a_norm = adj.a_norm.astype(params.dtype)
    with tracer.span("serve_eval.evaluate", op="eval"):
        report = serve_eval.evaluate(bundle.sequences, bundle.split.test_users,
                                     params, a_norm, n_list=(TOP_N,),
                                     time_unit_seconds=hp.time_unit_seconds,
                                     residual=hp.residual, threads=hp.threads)
    eval_start = time.perf_counter()
    repeat = 0
    while repeat == 0 or time.perf_counter() - eval_start < 0.25 * seconds:
        recall, scored, skipped = replay_evaluation(tracer, hp, bundle, params,
                                                    a_norm, outcome, f"eval{repeat}")
        if scored != report.user_count or abs(recall - report.per_n[TOP_N].recall) > 1e-12:
            outcome.record("eval_users", 0, 0, ["replayed evaluation differs from evaluate"])
        repeat += 1

    user_rng = np.random.default_rng([seed, 1])
    req_start = time.perf_counter()
    i = 0
    while i < workload.min_requests or time.perf_counter() - req_start < 0.25 * seconds:
        with tracer.span("request", op=f"r{i}"):
            ranked, vectors, e_global, exclude = harness.recommend(
                bundle, hp, params, a_norm, int(user_rng.integers(len(bundle.sequences))),
                span=tracer.span)
        problems = harness.check_ranking(ranked, vectors, e_global, TOP_N, exclude)
        outcome.record("requests", 1, int(bool(problems)), problems[:1])
        i += 1

    metrics = {name: (float(np.median(tracer.durations_ms(span))), "ms")
               for name, span in SPAN_METRICS.items()}
    steps = tracer.durations_ms("train.step")
    step_fwd_bwd = np.add(tracer.durations_ms("train.forward"),
                          tracer.durations_ms("autodiff.backward"))
    isolated = np.sum([np.add(tracer.durations_ms(f"{layer}.fwd"),
                              tracer.durations_ms(f"{layer}.bwd"))
                       for layer in LAYERS], axis=0)
    loop_ms = tracer.durations_ms("train.loop")[0] - sum(tracer.durations_ms("isolated"))
    inputs = harness.descriptors(bundle, adj, hp, log_records,
                                 float(np.median(shares)))
    metrics.update({
        "ingest.kept_share": (inputs["kept_share"], "share"),
        "global_context.pair_occurrences": (inputs["pair_occurrences"], "count"),
        "global_context.adjacency_nnz": (inputs["adjacency_nnz"], "count"),
        "global_context.rows_used_share": (inputs["rows_used_share"], "share"),
        "train.step_ms_p50": (harness.percentile(steps, 50), "ms"),
        "train.step_ms_p95": (harness.percentile(steps, 95), "ms"),
        "train.layer_coverage": (float(np.median(isolated / step_fwd_bwd)), "ratio"),
        "serve_eval.users_scored": (scored, "count"),
        "serve_eval.users_skipped": (skipped, "count"),
        "serve_eval.recall_at_20": (report.per_n[TOP_N].recall, "recall"),
        "trace.overhead_ratio": (2.0 * loop_ms / (before_ms + after_ms), "ratio"),
    })

    stem = f"{workload.name}-seed{seed}"
    tracer.write(out_dir / f"{stem}.spans.jsonl")
    summary = {"workload": workload.name, "seed": seed, "trace": 1,
               "phases": outcome.summary(), "problems": outcome.problems[:20],
               "spans": len(tracer.spans),
               "inputs": inputs}
    result = outcome.result(metrics)
    (out_dir / f"{stem}.layers.json").write_text(json.dumps(
        {"summary": summary, "metrics": result["metrics"], "spans": tracer.table()},
        indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return result, summary
