"""Training: example sampling, sampled-softmax loss, Adam, gradient checks.

The loss runs the full pipeline (sparse global rows -> recent interval
attention -> aggregation -> interest extraction -> target-driven selection)
and is differentiated end to end by the autodiff tape. A central-difference
checker validates every parameter tensor on tiny 64-bit models.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from . import autodiff as ad
from . import serve_eval
from .config import HyperParams
from .global_context import AblationVariant, build_weighted_adjacency, extract_hop_pairs
from .ingest import DatasetBundle, UserSequence
from .model import ModelDims, ModelParams, cast_adjacency, forward_interests, save_checkpoint
from .recent import RecentWindow, make_window, stack_windows
from .interests import select_training_interest


@dataclass
class TrainingExample:
    user_index: int
    window: RecentWindow
    target_item: int
    negatives: np.ndarray

    def __post_init__(self):
        if self.target_item in self.negatives:
            raise ValueError("target must not appear among negatives")
        if np.any(self.negatives == 0):
            raise ValueError("padding index cannot be a negative sample")


def sample_negatives(n_real_items: int, target: int, n_neg: int,
                     rng: np.random.Generator,
                     distribution: str = "uniform") -> np.ndarray:
    """Draw negatives without replacement from real items, excluding target."""
    available = n_real_items - 1
    if n_neg >= available:
        negs = np.arange(1, n_real_items + 1, dtype=np.int64)
        return negs[negs != target]
    if distribution == "uniform":
        idx = rng.choice(available, size=n_neg, replace=False).astype(np.int64) + 1
        idx[idx >= target] += 1
        return idx
    if distribution == "log_uniform":
        weights = 1.0 / np.arange(1, n_real_items + 1, dtype=np.float64)
        weights[target - 1] = 0.0
        weights /= weights.sum()
        return rng.choice(np.arange(1, n_real_items + 1), size=n_neg,
                          replace=False, p=weights).astype(np.int64)
    raise ValueError(f"unknown negative distribution {distribution!r}")


def make_examples(train_users: np.ndarray, sequences: list[UserSequence],
                  l_rec: int, n_neg: int, n_real_items: int,
                  rng: np.random.Generator, distribution: str = "uniform"):
    """Endless example stream: uniform user, uniform target position 2..N."""
    train_users = np.asarray(train_users)
    while True:
        u = int(train_users[rng.integers(len(train_users))])
        seq = sequences[u]
        pos = int(rng.integers(2, len(seq) + 1))
        yield TrainingExample(
            user_index=u,
            window=make_window(seq, pos, l_rec),
            target_item=int(seq.items[pos - 1]),
            negatives=sample_negatives(n_real_items, int(seq.items[pos - 1]),
                                       n_neg, rng, distribution),
        )


@dataclass
class Batch:
    item_idx: np.ndarray   # (B, L)
    buckets: np.ndarray    # (B, L, L)
    mask: np.ndarray       # (B, L)
    targets: np.ndarray    # (B,)
    negatives: np.ndarray  # (B, n_neg)


def build_batch(examples: list[TrainingExample], l_time: float,
                time_unit_seconds: int) -> Batch:
    items, buckets, mask = stack_windows([e.window for e in examples],
                                         l_time, time_unit_seconds)
    return Batch(
        item_idx=items, buckets=buckets, mask=mask,
        targets=np.array([e.target_item for e in examples], dtype=np.int64),
        negatives=np.stack([e.negatives for e in examples]),
    )


def sampled_softmax_nll(selected: ad.Tensor, target_emb: ad.Tensor,
                        neg_emb: ad.Tensor) -> ad.Tensor:
    """Per-example -log softmax over {target} + negatives, max-stabilized.

    selected: (B, d); target_emb: (B, d); neg_emb: (B, n, d) -> (B,).
    """
    b, d = selected.shape
    pos = ad.sumt(ad.mul(selected, target_emb), axis=-1)             # (B,)
    neg = ad.reshape(ad.matmul(ad.reshape(selected, (b, 1, d)),
                               ad.swapaxes(neg_emb, -1, -2)),
                     (b, neg_emb.shape[1]))
    logits = ad.concat([ad.reshape(pos, (b, 1)), neg], axis=1)
    return ad.add(ad.logsumexp(logits), ad.scale(pos, -1.0))


def batch_loss(params: ModelParams, a_norm: sp.csr_matrix, batch: Batch,
               dropout_rate: float = 0.0,
               rng: np.random.Generator | None = None,
               residual: bool = False) -> tuple[ad.Tensor, dict]:
    """Mean sampled-softmax loss over the batch; full forward pipeline.

    Only the global rows of the windows, targets and negatives are computed.
    """
    interests, aux = forward_interests(
        params, a_norm, batch.item_idx, batch.buckets, batch.mask,
        dropout_rate=dropout_rate, rng=rng, residual=residual,
        extra_rows=(batch.targets, batch.negatives))
    e_global = aux["e_global"]
    target_emb = ad.gather(e_global, batch.targets)
    chosen, selected = select_training_interest(interests, target_emb)
    neg_emb = ad.gather(e_global, batch.negatives)
    nll = sampled_softmax_nll(selected, target_emb, neg_emb)
    total = ad.scale(ad.sumt(nll), 1.0 / batch.item_idx.shape[0])
    aux["chosen_interest"] = chosen
    return total, aux


def loss(example: TrainingExample, params: ModelParams, a_norm: sp.csr_matrix,
         time_unit_seconds: int = 86400, residual: bool = False) -> float:
    """Single-example loss with dropout off; returns a plain float."""
    batch = build_batch([example], params.dims.l_time, time_unit_seconds)
    with ad.no_grad():
        value, _ = batch_loss(params, a_norm, batch, residual=residual)
    return value.item()


def gradients(example: TrainingExample, params: ModelParams,
              a_norm: sp.csr_matrix, time_unit_seconds: int = 86400,
              residual: bool = False) -> dict[str, np.ndarray]:
    """Exact reverse-mode gradients of the single-example loss."""
    params.zero_grad()
    batch = build_batch([example], params.dims.l_time, time_unit_seconds)
    value, _ = batch_loss(params, a_norm, batch, residual=residual)
    value.backward()
    grads = {}
    for name, tensor in params.named().items():
        g = tensor.grad if tensor.grad is not None else np.zeros_like(tensor.data)
        if not np.all(np.isfinite(g)):
            raise RuntimeError(f"non-finite gradient in parameter {name!r}")
        grads[name] = g
    return grads


# ---------------------------------------------------------------------------
# Adam

@dataclass
class AdamState:
    lr: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


def adam_step(params: ModelParams, grads: dict[str, np.ndarray],
              state: AdamState) -> None:
    """One bias-corrected Adam update; the item padding row stays frozen.

    The moments are updated in place; each tensor's data is rebound to a new
    array, so a reference taken before the step keeps the step's inputs.
    """
    state.step += 1
    t = state.step
    for name, tensor in params.named().items():
        g = grads[name]
        if name == "item_embeddings" and g[0].any():
            g = g.copy()
            g[0] = 0.0
        if name not in state.m:
            state.m[name] = np.zeros_like(tensor.data)
            state.v[name] = np.zeros_like(tensor.data)
        m, v = state.m[name], state.v[name]
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * (g * g)
        m_hat = m / (1.0 - state.beta1 ** t)
        v_hat = v / (1.0 - state.beta2 ** t)
        tensor.data = tensor.data - state.lr * m_hat / (np.sqrt(v_hat) + state.eps)


# ---------------------------------------------------------------------------
# training loop

@dataclass
class TrainResult:
    checkpoint_path: Path
    log_path: Path
    history: list[dict]
    best_recall: float
    diverged: bool
    steps_run: int


def build_adjacency_from_bundle(bundle: DatasetBundle, hp: HyperParams):
    """Adjacency from training-split users only (no validation/test leakage)."""
    acc = extract_hop_pairs(
        bundle.train_sequences(), hp.variant, hp.a, hp.b, float(hp.l_time),
        time_unit_seconds=hp.time_unit_seconds,
        allow_self_pairs=hp.allow_self_pairs)
    return build_weighted_adjacency(acc, hp.alpha, hp.beta, hp.gamma,
                                    bundle.split.item_vocab.num_real)


def train_loop(hp: HyperParams, bundle: DatasetBundle, a_norm: sp.csr_matrix,
               out_dir: str | Path, n_eval: int = 20,
               log_fn=None) -> TrainResult:
    """Mini-batch training with periodic validation and best-checkpoint keep.

    Deterministic for a fixed config/seed in single-threaded mode: one RNG
    drives example sampling, negative draws and dropout in a fixed order,
    and evaluation consumes no randomness.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    dtype = np.float64 if hp.dtype == "float64" else np.float32
    vocab = bundle.split.item_vocab
    dims = ModelDims(n_items=vocab.size, d=hp.d, k=hp.k, l_rec=hp.l_rec,
                     l_time=hp.l_time, n_heads=hp.n_heads, n_layers=hp.n_layers)
    rng = np.random.default_rng(hp.seed)
    params = ModelParams.init(dims, rng, dtype=dtype)
    adj = cast_adjacency(a_norm, dtype)
    stream = make_examples(bundle.split.train_users, bundle.sequences,
                           hp.l_rec, hp.neg_samples, vocab.num_real, rng,
                           hp.neg_distribution)
    state = AdamState(lr=hp.lr)
    ckpt_path = out / "checkpoint.bin"
    log_path = out / "train_log.txt"
    history: list[dict] = []
    best_recall = -1.0
    diverged = False
    loss_accum = 0.0
    loss_count = 0
    start = time.perf_counter()

    def evaluate_now(step: int, log_file) -> None:
        nonlocal best_recall, loss_accum, loss_count
        report = serve_eval.evaluate(
            bundle.sequences, bundle.split.valid_users, params, adj,
            n_list=(n_eval,), time_unit_seconds=hp.time_unit_seconds,
            residual=hp.residual, threads=hp.threads)
        row = report.per_n[n_eval]
        mean_loss = loss_accum / max(loss_count, 1)
        wall = time.perf_counter() - start
        entry = dict(step=step, loss=mean_loss, recall=row.recall,
                     ndcg=row.ndcg, hit_rate=row.hit_rate, wall=wall)
        history.append(entry)
        line = (f"step={step} loss={mean_loss:.6f} recall@{n_eval}={row.recall:.6f} "
                f"ndcg@{n_eval}={row.ndcg:.6f} hit@{n_eval}={row.hit_rate:.6f} "
                f"wall={wall:.2f}")
        log_file.write(line + "\n")
        log_file.flush()
        if log_fn is not None:
            log_fn(line)
        if row.recall > best_recall:
            best_recall = row.recall
            save_checkpoint(ckpt_path, params)
        loss_accum = 0.0
        loss_count = 0

    with open(log_path, "w", encoding="utf-8") as log_file:
        step = 0
        for step in range(1, hp.max_steps + 1):
            examples = [next(stream) for _ in range(hp.batch)]
            batch = build_batch(examples, hp.l_time, hp.time_unit_seconds)
            params.zero_grad()
            value, _ = batch_loss(params, adj, batch,
                                  dropout_rate=hp.dropout, rng=rng,
                                  residual=hp.residual)
            if not np.isfinite(value.data):
                log_file.write(f"step={step} diverged: non-finite loss\n")
                diverged = True
                break
            value.backward()
            grads = {n: (t.grad if t.grad is not None else np.zeros_like(t.data))
                     for n, t in params.named().items()}
            if not all(np.isfinite(g).all() for g in grads.values()):
                log_file.write(f"step={step} diverged: non-finite gradient\n")
                diverged = True
                break
            adam_step(params, grads, state)
            loss_accum += value.item()
            loss_count += 1
            if step % hp.eval_every == 0 or step == hp.max_steps:
                evaluate_now(step, log_file)
        if best_recall < 0:  # no validation saved: keep this run's parameters
            save_checkpoint(ckpt_path, params)
    return TrainResult(ckpt_path, log_path, history, best_recall, diverged, step)


# ---------------------------------------------------------------------------
# finite-difference gradient checking

@dataclass
class GradCheckResult:
    per_tensor: dict[str, float]
    max_rel_err: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_rel_err <= self.tolerance


def _relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    denom = np.maximum(1e-4, np.maximum(np.abs(analytic), np.abs(numeric)))
    return float((np.abs(analytic - numeric) / denom).max())


def gradient_check(seed: int, n_items: int = 8, d: int = 4, k: int = 2,
                   l_rec: int = 4, l_time: int = 5, n_heads: int = 2,
                   n_layers: int = 1, n_neg: int = 3, fd_step: float = 1e-5,
                   tolerance: float = 1e-4) -> GradCheckResult:
    """Analytic vs central-difference gradients on one random tiny model.

    Runs in float64 with dropout off; the step is scaled per element. The
    data path is honest: a small random dataset drives the co-occurrence
    adjacency and the checked example.
    """
    rng = np.random.default_rng(seed)
    sequences = []
    for u in range(4):
        n = int(rng.integers(5, 9))
        items = rng.integers(1, n_items + 1, size=n).astype(np.int64)
        gaps = rng.integers(0, l_time + 3, size=n).astype(np.int64)
        ts = 1 + np.cumsum(gaps)
        sequences.append(UserSequence(u, items, ts))
    acc = extract_hop_pairs(sequences, AblationVariant.FULL,
                            a=0.5, b=0.5, l_time=float(l_time), time_unit_seconds=1)
    adj = build_weighted_adjacency(acc, 3.0, 2.0, 1.0, n_items)
    a_norm = cast_adjacency(adj.a_norm, np.float64)

    dims = ModelDims(n_items=n_items + 1, d=d, k=k, l_rec=l_rec,
                     l_time=l_time, n_heads=n_heads, n_layers=n_layers)
    params = ModelParams.init(dims, rng, dtype=np.float64)
    seq = sequences[int(rng.integers(len(sequences)))]
    pos = int(rng.integers(2, len(seq) + 1))
    target = int(seq.items[pos - 1])
    example = TrainingExample(
        user_index=seq.user_index,
        window=make_window(seq, pos, l_rec),
        target_item=target,
        negatives=sample_negatives(n_items, target, n_neg, rng),
    )
    batch = build_batch([example], l_time, time_unit_seconds=1)

    analytic = gradients(example, params, a_norm, time_unit_seconds=1)

    def forward() -> float:
        with ad.no_grad():
            value, _ = batch_loss(params, a_norm, batch)
        return value.item()

    per_tensor = {}
    for name, tensor in params.named().items():
        flat = tensor.data.ravel()
        numeric = np.zeros_like(flat)
        for i in range(flat.size):
            orig = flat[i]
            h = fd_step * max(1.0, abs(orig))
            flat[i] = orig + h
            up = forward()
            flat[i] = orig - h
            down = forward()
            flat[i] = orig
            numeric[i] = (up - down) / (2.0 * h)
        per_tensor[name] = _relative_error(analytic[name].ravel(), numeric)
    return GradCheckResult(per_tensor, max(per_tensor.values()), tolerance)


def run_gradient_checks(n_models: int = 20, base_seed: int = 0,
                        tolerance: float = 1e-4) -> list[GradCheckResult]:
    """Gradient-check a spread of tiny models (d in {4,8}, K in {1,2,4},
    L_rec <= 5, 1-2 layers)."""
    results = []
    for i in range(n_models):
        rng = np.random.default_rng(base_seed + 1000 + i)
        results.append(gradient_check(
            seed=base_seed + i,
            n_items=int(rng.integers(6, 13)),
            d=int(rng.choice([4, 8])),
            k=int(rng.choice([1, 2, 4])),
            l_rec=int(rng.integers(3, 6)),
            n_heads=2,
            n_layers=int(rng.choice([1, 2])),
            tolerance=tolerance,
        ))
    return results
