"""Untraced benchmark run: workloads, timed phases, output checks, result.

A run generates a planted-cluster log from the seed, writes it to disk and
then drives the library only through the public functions the CLI uses:

* set-up: ``ingest.prepare`` + ``train.build_adjacency_from_bundle`` +
  model init, repeated and reported as a median;
* write path: ``train.train_loop`` calls of S/2 and S steps, each with one
  end-of-run validation;
* read path: ``serve_eval.evaluate`` over the test split, repeated, and
  one-user requests (``compute_global_table`` + ``infer_interests`` +
  ``top_n``, what ``gimirec recommend`` does per user) in a closed loop
  with one client and no think time.

Every output that can be checked is checked, and each failed check counts
as a failed operation of its phase.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import os
import resource
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from gimirec import ingest, serve_eval, synthetic, train
from gimirec.config import PRESETS, HyperParams
from gimirec.model import ModelDims, ModelParams, cast_adjacency, load_checkpoint

TOP_N = 20
ROUNDS = 3

# The acceptance criterion-6 model: amazon-books with d=32 and one layer.
SMOKE_MODEL = dict(d=32, n_layers=1, lr=0.005)


@dataclass(frozen=True)
class Workload:
    name: str
    data: synthetic.PlantedConfig
    model: dict                 # overrides on top of the amazon-books preset
    train_steps: int            # S; the first train_loop call runs S // 2
    setups: int                 # set-up repetitions; setup_s is their median
    min_requests: int = 200     # p95 then has ten samples beyond it


# Why each workload exists, and which layers it exercises: README.md.
# BENCHMARK.json gates smoke and wide; preset is run by hand, because its
# timings spread past any regression bound on a small shared machine.
WORKLOADS = {
    "smoke": Workload("smoke", synthetic.PlantedConfig(), SMOKE_MODEL,
                      train_steps=60, setups=7),
    "preset": Workload("preset", synthetic.PlantedConfig(), {},
                       train_steps=4, setups=7),
    "wide": Workload("wide",
                     synthetic.PlantedConfig(n_clusters=500, n_users=5000,
                                             n_tail_items=20000),
                     SMOKE_MODEL, train_steps=16, setups=3),
}


def hyperparams(workload: Workload, seed: int, steps: int | None = None) -> HyperParams:
    """Model config of a workload; ``steps`` training steps, one validation."""
    steps = workload.train_steps if steps is None else steps
    hp = HyperParams(**PRESETS["amazon-books"])
    return dataclasses.replace(hp, **workload.model, seed=seed, threads=1,
                               max_steps=steps, eval_every=steps).validate()


# ---------------------------------------------------------------------------
# inputs

_WRITE_LOG = """
import json, sys
from gimirec import synthetic
fields = {k: tuple(v) if isinstance(v, list) else v
          for k, v in json.loads(sys.argv[1]).items()}
records = synthetic.planted_cluster_records(synthetic.PlantedConfig(**fields),
                                            int(sys.argv[2]))
synthetic.write_log(sys.argv[3], records)
"""


def generate_log(workload: Workload, seed: int, path: Path) -> None:
    """Write the seeded log from a child process and wait for it to end.

    The generator's record list then never counts towards this process's
    peak RSS, which measures the program alone. A plain subprocess leaves
    nothing behind, unlike multiprocessing's spawn helpers.
    """
    src = str(Path(synthetic.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    subprocess.run([sys.executable, "-c", _WRITE_LOG,
                    json.dumps(dataclasses.asdict(workload.data)), str(seed),
                    str(path)],
                   env=env, check=True)


# ---------------------------------------------------------------------------
# checks; each returns a list of problems, empty when the output is correct

def check_adjacency(a_norm, n_real_items: int) -> list[str]:
    problems = []
    rows = n_real_items + 1
    if a_norm.shape != (rows, rows):
        problems.append(f"adjacency shape {a_norm.shape}, expected {(rows, rows)}")
    elif (a_norm != a_norm.T).nnz != 0:
        problems.append("adjacency is not symmetric")
    return problems


def check_ranking(ranked: np.ndarray, vectors: np.ndarray, e_global: np.ndarray,
                  n: int, exclude: set) -> list[str]:
    """One top-N list against scores the benchmark recomputes itself.

    The list must hold N distinct real, non-excluded items whose
    max-over-interests scores do not increase and are not beaten by any
    candidate left out.
    """
    ranked = np.asarray(ranked)
    if ranked.shape != (n,):
        return [f"expected {n} items, got shape {ranked.shape}"]
    problems = []
    if len(set(ranked.tolist())) != n:
        problems.append("duplicate items")
    if np.any(ranked <= 0) or np.any(ranked >= e_global.shape[0]):
        problems.append("padding or out-of-range item")
        return problems
    if exclude & set(ranked.tolist()):
        problems.append("excluded item recommended")
    scores = (e_global @ np.atleast_2d(vectors).T).max(axis=1)
    picked = scores[ranked]
    if np.any(np.diff(picked) > 0):
        problems.append("scores increase down the list")
    rest = np.ones(e_global.shape[0], dtype=bool)
    rest[0] = False
    rest[ranked] = False
    if exclude:
        rest[np.fromiter(exclude, dtype=np.int64)] = False
    if rest.any() and scores[rest].max() > picked.min():
        problems.append("a left-out candidate outscores the list")
    return problems


def eligible_users(bundle: ingest.DatasetBundle, users: np.ndarray) -> int:
    """Users the 80/20 protocol scores: a non-empty prefix and ground truth."""
    count = 0
    for u in users:
        n = len(bundle.sequences[int(u)])
        prefix = (8 * n) // 10
        count += prefix >= 1 and n > prefix
    return count


# ---------------------------------------------------------------------------
# result bookkeeping

@dataclass
class Phase:
    attempted: int = 0
    failed: int = 0


@dataclass
class Outcome:
    """Operations and check failures of one run, per phase."""

    phases: dict[str, Phase] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)

    def record(self, phase: str, attempted: int, failed: int = 0,
               problems: list[str] = ()) -> None:
        p = self.phases.setdefault(phase, Phase())
        p.attempted += attempted
        p.failed += failed
        self.problems.extend(f"{phase}: {m}" for m in problems)

    def result(self, metrics: dict[str, tuple[float, str]]) -> dict:
        attempted = sum(p.attempted for p in self.phases.values())
        failed = sum(p.failed for p in self.phases.values())
        return {
            "correct": failed == 0 and not self.problems,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": float(v), "unit": unit}
                        for name, (v, unit) in metrics.items()},
        }

    def summary(self) -> dict:
        return {name: {"attempted": p.attempted, "failed": p.failed}
                for name, p in self.phases.items()}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


# ---------------------------------------------------------------------------
# phases

def setup_once(log_path: Path, bundle_dir: Path, hp: HyperParams):
    """prepare + adjacency build + model init; returns (bundle, adj, seconds)."""
    start = time.perf_counter()
    bundle, _ = ingest.prepare(log_path, bundle_dir, seed=hp.seed)
    adj = train.build_adjacency_from_bundle(bundle, hp)
    vocab = bundle.split.item_vocab
    dims = ModelDims(n_items=vocab.size, d=hp.d, k=hp.k, l_rec=hp.l_rec,
                     l_time=hp.l_time, n_heads=hp.n_heads, n_layers=hp.n_layers)
    dtype = np.float64 if hp.dtype == "float64" else np.float32
    ModelParams.init(dims, np.random.default_rng(hp.seed), dtype=dtype)
    cast_adjacency(adj.a_norm, dtype)
    return bundle, adj, time.perf_counter() - start


def checked_setup(hp: HyperParams, log_path: Path, bundle_dir: Path,
                  outcome: Outcome):
    """One set-up with its adjacency check; returns (bundle, adj, seconds)."""
    bundle, adj, seconds = setup_once(log_path, bundle_dir, hp)
    problems = check_adjacency(adj.a_norm, bundle.split.item_vocab.num_real)
    outcome.record("setup", 1, int(bool(problems)), problems)
    return bundle, adj, seconds


def schedule(n_setups: int, n_trains: int) -> list[str]:
    """Set-ups and train calls in one sequence, train calls spread evenly.

    >>> schedule(6, 3)
    ['setup', 'setup', 'train', 'setup', 'setup', 'train', 'setup', 'setup', 'train']
    """
    n = n_setups + n_trains
    train_at = {(k + 1) * n // n_trains - 1 for k in range(n_trains)}
    return ["train" if i in train_at else "setup" for i in range(n)]


def train_once(workload: Workload, seed: int, steps: int, bundle, a_norm,
               out_dir: Path, outcome: Outcome):
    """One train_loop call with its end-of-run validation.

    Returns (examples trained, wall seconds, mean loss over the steps,
    checkpoint path).
    """
    hp = hyperparams(workload, seed, steps)
    start = time.perf_counter()
    result = train.train_loop(hp, bundle, a_norm, out_dir)
    wall = time.perf_counter() - start
    # train_loop stops at the first non-finite loss: count that step and the
    # ones never run as failed
    failed = steps - result.steps_run + 1 if result.diverged else 0
    loss = result.history[-1]["loss"] if result.history else float("nan")
    problems = [] if failed == 0 and np.isfinite(loss) else ["non-finite loss"]
    outcome.record("train_steps", steps, max(failed, int(bool(problems))), problems)
    return steps * hp.batch, wall, loss, result.checkpoint_path


def evaluate_once(hp: HyperParams, bundle, params, a_norm, expected: int,
                  outcome: Outcome):
    """evaluate() over the test split; returns (users, wall seconds, recall@N)."""
    start = time.perf_counter()
    report = serve_eval.evaluate(
        bundle.sequences, bundle.split.test_users, params, a_norm,
        n_list=(TOP_N,), time_unit_seconds=hp.time_unit_seconds,
        residual=hp.residual, threads=hp.threads)
    wall = time.perf_counter() - start
    recall = report.per_n[TOP_N].recall
    problems = []
    if report.user_count != expected:
        problems.append(f"user_count {report.user_count}, eligible {expected}")
    if not 0.0 <= recall <= 1.0:
        problems.append(f"recall {recall} outside [0, 1]")
    outcome.record("eval_users", expected, expected if problems else 0, problems)
    return report.user_count, wall, recall


def _no_span(_name: str):
    return contextlib.nullcontext()


def recommend(bundle, hp: HyperParams, params, a_norm, u: int, span=_no_span):
    """What ``gimirec recommend`` does for one user, once the model is loaded.

    ``span(name)`` wraps each library call; the traced run passes its tracer.
    """
    seq = bundle.sequences[u]
    with span("serve_eval.global_table"):
        e_global = serve_eval.compute_global_table(params, a_norm)
    with span("serve_eval.infer_interests"):
        vectors = serve_eval.infer_interests(seq, len(seq), params, a_norm,
                                             time_unit_seconds=hp.time_unit_seconds,
                                             residual=hp.residual)
    exclude = set(seq.items.tolist())
    with span("serve_eval.top_n"):
        ranked = serve_eval.top_n(vectors, e_global, TOP_N, exclude=exclude)
    return ranked, vectors, e_global, exclude


def request_once(bundle, hp: HyperParams, params, a_norm, u: int,
                 outcome: Outcome) -> float:
    """One request, timed alone and checked after; returns its latency in ms."""
    start = time.perf_counter()
    ranked, vectors, e_global, exclude = recommend(bundle, hp, params, a_norm, u)
    latency = 1000.0 * (time.perf_counter() - start)
    problems = check_ranking(ranked, vectors, e_global, TOP_N, exclude)
    outcome.record("requests", 1, int(bool(problems)), problems[:1])
    return latency


def pair_occurrences(bundle, hp: HyperParams) -> int:
    """Hop pairs within the interval threshold over the training users.

    An independent count of what ``extract_hop_pairs`` accumulates for the
    full variant with self pairs allowed.
    """
    total = 0
    for seq in bundle.train_sequences():
        for k in (1, 2, 3):
            dt = (seq.timestamps[k:] - seq.timestamps[:-k]) / hp.time_unit_seconds
            total += int(np.count_nonzero(dt <= hp.l_time))
    return total


def rows_used_share(item_rows: list[np.ndarray], n_real_items: int) -> float:
    """Unique real item rows one batch reads, as a share of the catalog."""
    used = np.unique(np.concatenate([np.ravel(r) for r in item_rows]))
    return float(np.count_nonzero(used) / n_real_items)


def batch_rows(examples) -> list[np.ndarray]:
    return [np.concatenate([e.window.items, [e.target_item], e.negatives])
            for e in examples]


def descriptors(bundle, adj, hp: HyperParams, log_records: int,
                batch_share: float) -> dict:
    """Input properties a later claim can cite."""
    interactions = int(sum(len(s) for s in bundle.sequences))
    return {
        "items_V": bundle.split.item_vocab.num_real,
        "users": len(bundle.sequences),
        "interactions": interactions,
        "log_records": log_records,
        "kept_share": interactions / log_records,
        "adjacency_nnz": int(adj.a_norm.nnz),
        "pair_occurrences": pair_occurrences(bundle, hp),
        "rows_used_share": batch_share,
    }


def sampled_rows_used_share(bundle, hp: HyperParams, seed: int,
                            n_batches: int = 10) -> float:
    """Median rows_used_share over batches drawn like training draws them."""
    vocab = bundle.split.item_vocab
    stream = train.make_examples(bundle.split.train_users, bundle.sequences,
                                 hp.l_rec, hp.neg_samples, vocab.num_real,
                                 np.random.default_rng([seed, 2]),
                                 hp.neg_distribution)
    shares = [rows_used_share(batch_rows([next(stream) for _ in range(hp.batch)]),
                              vocab.num_real)
              for _ in range(n_batches)]
    return float(np.median(shares))


def count_lines(path: Path) -> int:
    with open(path, "rb") as fh:
        return sum(1 for _ in fh)


def run(workload: Workload, seed: int, seconds: float, work: Path) -> tuple[dict, dict]:
    """Untraced run; returns (result line, summary with phases and inputs).

    After one set-up, a train_loop call of S/2 steps gives the model that
    evaluation and requests load, and the reference for the tail loss. The
    remaining set-ups and ROUNDS train_loop calls of S steps then alternate,
    each followed by evaluations and requests, so that every timed phase
    samples the whole run: on a shared machine, speed drifts over seconds
    to minutes. Throughputs and mean latency pool work and wall time over the
    run; the p95 latency pools all requests. Evaluation and requests each get
    a quarter of ``seconds``, split evenly after each set-up or train call.
    """
    work.mkdir(parents=True, exist_ok=True)
    log_path = work / "log.csv"
    generate_log(workload, seed, log_path)
    outcome = Outcome()
    hp = hyperparams(workload, seed)
    bundle, adj, seconds_0 = checked_setup(hp, log_path, work / "bundle", outcome)
    setup_times = [seconds_0]

    # Training is deterministic and validation draws no randomness, so the
    # S/2-step call replays the first half of every S-step call exactly and
    # the mean loss of steps S/2+1..S is 2 * mean(S) - mean(S/2).
    steps = workload.train_steps
    _, _, half_loss, checkpoint = train_once(workload, seed, steps // 2, bundle,
                                             adj.a_norm, work / "train_half", outcome)
    # the trained model as `gimirec eval` / `recommend` load it
    params = load_checkpoint(checkpoint)
    a_norm = adj.a_norm.astype(params.dtype)
    expected_users = eligible_users(bundle, bundle.split.test_users)
    user_rng = np.random.default_rng([seed, 1])
    plan = schedule(workload.setups - 1, ROUNDS)
    phase_s = 0.25 * seconds / len(plan)
    trained = np.zeros(2)   # examples, seconds
    scored = np.zeros(2)    # users, seconds
    losses, recalls, latencies = [], [], []
    for i, item in enumerate(plan):
        if item == "setup":
            bundle_dir = work / "bundle_again"
            setup_times.append(checked_setup(hp, log_path, bundle_dir, outcome)[2])
            shutil.rmtree(bundle_dir)
        else:
            examples, wall, loss, _ = train_once(
                workload, seed, steps, bundle, adj.a_norm, work / f"train{i}", outcome)
            trained += (examples, wall)
            losses.append(loss)
        deadline = time.perf_counter() + phase_s
        evaluations = 0
        while evaluations == 0 or time.perf_counter() < deadline:
            users_scored, wall, recall = evaluate_once(hp, bundle, params, a_norm,
                                                       expected_users, outcome)
            scored += (users_scored, wall)
            recalls.append(recall)
            evaluations += 1
        deadline = time.perf_counter() + phase_s
        quota = -(-workload.min_requests * (i + 1) // len(plan))
        while len(latencies) < quota or time.perf_counter() < deadline:
            u = int(user_rng.integers(len(bundle.sequences)))
            latencies.append(request_once(bundle, hp, params, a_norm, u, outcome))
    if len(set(losses)) != 1:
        outcome.record("train_steps", 0, 0, ["identical train_loop calls disagree"])
    if len(set(recalls)) != 1:
        outcome.record("eval_users", 0, 0, ["identical evaluations disagree"])

    metrics = {
        "setup_s": (float(np.median(setup_times)), "s"),
        "train_examples_per_s": (trained[0] / trained[1], "examples/s"),
        "train_loss_tail": (2.0 * losses[0] - half_loss, "nats"),
        "eval_users_per_s": (scored[0] / scored[1], "users/s"),
        "recommend_ms_mean": (float(np.mean(latencies)), "ms"),
        "recommend_ms_p95": (percentile(latencies, 95), "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    summary = {"workload": workload.name, "seed": seed, "trace": 0,
               "phases": outcome.summary(), "problems": outcome.problems[:20],
               "samples": {"setups": len(setup_times),
                           "train_calls": ROUNDS + 1,
                           "evaluations": len(recalls),
                           "requests": len(latencies)},
               "quality": {"recall_at_20": recalls[0]},
               "recommend_ms_p50": percentile(latencies, 50),
               "inputs": descriptors(bundle, adj, hp, count_lines(log_path),
                                     sampled_rows_used_share(bundle, hp, seed))}
    return outcome.result(metrics), summary
