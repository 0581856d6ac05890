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
from .ingest import DatasetBundle, Sequences
from .model import ModelDims, ModelParams, cast_adjacency, forward_interests, save_checkpoint
from .recent import RecentWindow, cut_windows, stack_windows, window_buckets
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


class ExampleSampler:
    """Training examples drawn as arrays.

    An example is a uniform train user, a uniform target position 2..N in
    that user's sequence with the window of up to ``l_rec`` items before it,
    and ``n_neg`` distinct negatives from the real items other than the
    target: a uniform subset by Floyd's algorithm. When ``n_neg`` covers
    every other item, all of them are the negatives.

    Each example reads exactly ``2 + n_draws`` doubles from ``rng.random``,
    in order: user, position, then one per negative (``n_draws`` is 0 when
    all other items are negatives). So a batch of n consumes the stream
    exactly as n single draws do.
    """

    def __init__(self, train_users: np.ndarray, sequences: Sequences,
                 l_rec: int, n_neg: int, n_real_items: int):
        self.users = users = np.asarray(train_users, dtype=np.int64)
        if users.size == 0:
            raise ValueError("the train split is empty: no examples to draw")
        self.items, self.timestamps = sequences.items, sequences.timestamps
        self.starts, self.lengths = sequences.starts[users], sequences.lengths[users]
        short = np.flatnonzero(self.lengths < 2)
        if short.size:
            raise ValueError(f"train user {users[short[0]]} has "
                             f"{self.lengths[short[0]]} interaction(s); a "
                             "training example needs at least 2")
        self.l_rec, self.n_real_items = l_rec, n_real_items
        self.n_neg = max(min(n_neg, n_real_items - 1), 0)
        self.n_draws = n_neg if n_neg < n_real_items - 1 else 0

    def draw(self, n: int, rng: np.random.Generator):
        """n examples as (users, window items, window timestamps, mask,
        targets, negatives); windows equal ``make_window``'s."""
        u = rng.random((n, 2 + self.n_draws))
        row = (u[:, 0] * len(self.users)).astype(np.int64)
        target_at = 1 + (u[:, 1] * (self.lengths[row] - 1)).astype(np.int64)
        items, timestamps, mask = cut_windows(
            self.items, self.timestamps, self.starts[row], self.lengths[row],
            target_at + 1, self.l_rec)
        targets = self.items[self.starts[row] + target_at]
        return (self.users[row], items, timestamps, mask, targets,
                self._negatives(u[:, 2:], targets))

    def _negatives(self, u: np.ndarray, targets: np.ndarray) -> np.ndarray:
        """Negatives from the (n, n_draws) draws: picks in 0..n_real_items-2
        map to items 1..n_real_items, skipping each row's target."""
        if not self.n_draws:  # every other item
            picks = np.broadcast_to(np.arange(self.n_neg), (len(targets), self.n_neg))
        else:
            # Floyd: a uniform n_draws-subset, one draw per member
            picks = np.empty(u.shape, dtype=np.int64)
            first = self.n_real_items - 1 - self.n_draws
            for c in range(self.n_draws):
                t = (u[:, c] * (first + c + 1)).astype(np.int64)
                taken = (picks[:, :c] == t[:, None]).any(axis=1)
                picks[:, c] = np.where(taken, first + c, t)
        negatives = picks + 1
        negatives += negatives >= targets[:, None]
        return negatives

    def batch(self, n: int, rng: np.random.Generator, l_time: float,
              time_unit_seconds: int) -> Batch:
        _, items, timestamps, mask, targets, negatives = self.draw(n, rng)
        return Batch(items, window_buckets(timestamps, mask, l_time, time_unit_seconds),
                     mask, targets, negatives)


def make_examples(train_users: np.ndarray, sequences: Sequences,
                  l_rec: int, n_neg: int, n_real_items: int,
                  rng: np.random.Generator, distribution: str = "uniform"):
    """Endless stream of single ``ExampleSampler`` draws: n of them consume
    the stream exactly as one batch of n."""
    if distribution != "uniform":  # kept only for perfbench/
        raise ValueError(f"distribution must be 'uniform' (the option was removed), "
                         f"got {distribution!r}")
    sampler = ExampleSampler(train_users, sequences, l_rec, n_neg, n_real_items)
    while True:
        user, items, timestamps, mask, target, negatives = (
            a[0] for a in sampler.draw(1, rng))
        yield TrainingExample(int(user), RecentWindow(items, timestamps, mask),
                              int(target), negatives)


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
        dropout_rate=dropout_rate, rng=rng, residual=residual,  # perfbench/ passes it
        extra_rows=(batch.targets, batch.negatives))
    e_global = aux["e_global"]
    target_emb = ad.gather(e_global, batch.targets)
    chosen, selected = select_training_interest(interests, target_emb)
    neg_emb = ad.gather(e_global, batch.negatives)
    nll = sampled_softmax_nll(selected, target_emb, neg_emb)
    total = ad.scale(ad.sumt(nll), 1.0 / batch.item_idx.shape[0])
    aux["chosen_interest"] = chosen
    return total, aux


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

    The moments are updated in place and the temporaries go to two buffers
    per tensor; each tensor's data is rebound to a new array (the second
    buffer), so a reference taken before the step keeps the step's inputs.
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
        step, denom = np.empty_like(m), np.empty_like(m)
        m *= state.beta1
        m += np.multiply(g, 1.0 - state.beta1, out=step)
        v *= state.beta2
        np.multiply(g, g, out=step)
        v += np.multiply(step, 1.0 - state.beta2, out=step)
        np.divide(m, 1.0 - state.beta1 ** t, out=step)
        step *= state.lr
        np.divide(v, 1.0 - state.beta2 ** t, out=denom)
        np.sqrt(denom, out=denom)
        denom += state.eps
        step /= denom
        tensor.data = np.subtract(tensor.data, step, out=denom)


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
               out_dir: str | Path, log_fn=None) -> TrainResult:
    """Mini-batch training with periodic validation and best-checkpoint keep.

    Deterministic for a fixed config/seed in single-threaded mode: one RNG
    drives example sampling, negative draws and dropout in a fixed order,
    and evaluation consumes no randomness.
    """
    dtype = np.float64 if hp.dtype == "float64" else np.float32
    adj = cast_adjacency(a_norm, dtype)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    vocab = bundle.split.item_vocab
    dims = ModelDims(n_items=vocab.size, d=hp.d, k=hp.k, l_rec=hp.l_rec,
                     l_time=hp.l_time, n_heads=hp.n_heads, n_layers=hp.n_layers)
    rng = np.random.default_rng(hp.seed)
    params = ModelParams.init(dims, rng, dtype=dtype)
    sampler = ExampleSampler(bundle.split.train_users, bundle.sequences,
                             hp.l_rec, hp.neg_samples, vocab.num_real)
    state = AdamState(lr=hp.lr)
    ckpt_path = out / "checkpoint.bin"
    log_path = out / "train_log.txt"
    history: list[dict] = []
    best_recall = -1.0
    diverged = None  # what turned non-finite
    loss_sum, loss_count = 0.0, 0
    start = time.perf_counter()
    with open(log_path, "w", encoding="utf-8") as log_file:
        step = 0
        for step in range(1, hp.max_steps + 1):
            batch = sampler.batch(hp.batch, rng, hp.l_time, hp.time_unit_seconds)
            params.zero_grad()
            # the previous step's graph lives until this call returns: freeing
            # it first let glibc trim the heap, and refaulting it was slower
            value, _ = batch_loss(params, adj, batch,
                                  dropout_rate=hp.dropout, rng=rng)
            if not np.isfinite(value.data):
                diverged = "loss"
                break
            value.backward()
            grads = {n: (t.grad if t.grad is not None else np.zeros_like(t.data))
                     for n, t in params.named().items()}
            if not all(np.isfinite(g).all() for g in grads.values()):
                diverged = "gradient"
                break
            adam_step(params, grads, state)
            loss_sum += value.item()
            loss_count += 1
            if step % hp.eval_every and step < hp.max_steps:
                continue
            if not all(np.isfinite(t.data).all() for t in params.named().values()):
                diverged = "parameters"  # an update overflowed: validate nothing
                break
            row = serve_eval.evaluate(
                bundle.sequences, bundle.split.valid_users, params, adj,
                n_list=(20,), time_unit_seconds=hp.time_unit_seconds).per_n[20]
            mean_loss, wall = loss_sum / loss_count, time.perf_counter() - start
            loss_sum, loss_count = 0.0, 0
            history.append(dict(step=step, loss=mean_loss, recall=row.recall,
                                ndcg=row.ndcg, hit_rate=row.hit_rate, wall=wall))
            line = (f"step={step} loss={mean_loss:.6f} recall@20={row.recall:.6f} "
                    f"ndcg@20={row.ndcg:.6f} hit@20={row.hit_rate:.6f} wall={wall:.2f}")
            log_file.write(line + "\n")
            log_file.flush()
            if log_fn is not None:
                log_fn(line)
            if row.recall > best_recall:
                best_recall = row.recall
                save_checkpoint(ckpt_path, params)
        if diverged:
            log_file.write(f"step={step} diverged: non-finite {diverged}\n")
        if best_recall < 0:  # no validation saved: keep this run's parameters,
            if all(np.isfinite(t.data).all() for t in params.named().values()):
                save_checkpoint(ckpt_path, params)
            else:  # unless an update overflowed; an earlier run's file goes too
                ckpt_path.unlink(missing_ok=True)
                log_file.write("no checkpoint written: non-finite parameters\n")
    return TrainResult(ckpt_path, log_path, history, best_recall, diverged is not None, step)


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
    err = np.abs(analytic - numeric) / denom
    return float(np.where(np.isnan(err), np.inf, err).max())  # a NaN never passes


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
    items, timestamps, lengths = [], [], []
    for _ in range(4):
        lengths.append(int(rng.integers(5, 9)))
        items.append(rng.integers(1, n_items + 1, size=lengths[-1]))
        timestamps.append(1 + np.cumsum(rng.integers(0, l_time + 3, size=lengths[-1])))
    sequences = Sequences(np.concatenate(items), np.concatenate(timestamps), lengths)
    acc = extract_hop_pairs(sequences, AblationVariant.FULL,
                            a=0.5, b=0.5, l_time=float(l_time), time_unit_seconds=1)
    adj = build_weighted_adjacency(acc, 3.0, 2.0, 1.0, n_items)
    a_norm = cast_adjacency(adj.a_norm, np.float64)

    dims = ModelDims(n_items=n_items + 1, d=d, k=k, l_rec=l_rec,
                     l_time=l_time, n_heads=n_heads, n_layers=n_layers)
    params = ModelParams.init(dims, rng, dtype=np.float64)
    batch = ExampleSampler(np.arange(len(sequences)), sequences, l_rec, n_neg,
                           n_items).batch(1, rng, l_time, time_unit_seconds=1)
    value, _ = batch_loss(params, a_norm, batch)
    value.backward()
    analytic = {n: t.grad if t.grad is not None else np.zeros_like(t.data)
                for n, t in params.named().items()}

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
    if n_models < 1:
        raise ValueError(f"n_models must be at least 1, got {n_models}")
    if base_seed < 0:
        raise ValueError(f"seed must be >= 0, got {base_seed}")
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
