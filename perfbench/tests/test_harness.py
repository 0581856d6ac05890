"""Harness tests at tiny sizes: every named metric is emitted with its unit,
forced failures are counted, and the checks reject bad rankings.

Run with: python -m pytest perfbench/tests
"""

import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import harness
import traced
from gimirec import serve_eval, synthetic

BENCH = Path(__file__).resolve().parent.parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))

TINY = harness.Workload(
    "tiny",
    synthetic.PlantedConfig(n_clusters=4, items_per_cluster=10, n_users=60,
                            n_tail_items=30),
    dict(d=8, n_heads=2, n_layers=1, l_rec=6, batch=8, neg_samples=4),
    train_steps=4, setups=2, min_requests=6)


def expected_units(section: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[section]}


def units(result: dict) -> dict:
    return {name: m["unit"] for name, m in result["metrics"].items()}


def test_untraced_run_emits_every_end_to_end_metric(tmp_path):
    result, summary = harness.run(TINY, seed=3, seconds=0.2, work=tmp_path)
    assert result["correct"], summary["problems"]
    assert result["failed"] == 0
    assert result["attempted"] == sum(p["attempted"] for p in summary["phases"].values())
    assert units(result) == expected_units("end_to_end")
    assert all(np.isfinite(m["value"]) and m["value"] > 0
               for m in result["metrics"].values())
    assert set(summary["phases"]) == {"setup", "train_steps", "eval_users", "requests"}
    assert set(summary["inputs"]) >= {"items_V", "interactions", "adjacency_nnz",
                                      "pair_occurrences", "rows_used_share",
                                      "kept_share"}
    json.dumps(result)


def test_traced_run_emits_every_per_layer_metric_and_spans(tmp_path):
    out = tmp_path / "traces"
    result, summary = traced.run(TINY, seed=3, seconds=0.2, work=tmp_path / "work",
                                 out_dir=out)
    assert result["correct"], summary["problems"]
    assert units(result) == expected_units("per_layer")
    assert result["metrics"]["train.layer_coverage"]["value"] > 0
    spans = [json.loads(line) for line in
             (out / "tiny-seed3.spans.jsonl").read_text().splitlines()]
    assert len(spans) == summary["spans"]
    steps = [s for s in spans if s["name"] == "train.step"]
    assert [s["id"] for s in steps] == list(range(1, TINY.train_steps + 1))
    for s in spans:
        assert s["end_ms"] >= s["start_ms"] and s["self_ms"] <= s["end_ms"] - s["start_ms"] + 1e-9
        if s["parent"] is not None and spans[s["parent"]]["name"] in ("train.step", "request"):
            assert s["id"] == spans[s["parent"]]["id"]
    assert {s["name"] for s in spans if s["parent"] is not None
            and spans[s["parent"]]["name"] == "request"} == {
        "serve_eval.global_table", "serve_eval.infer_interests", "serve_eval.top_n"}
    table = json.loads((out / "tiny-seed3.layers.json").read_text())
    assert table["spans"]["train.step"]["count"] == TINY.train_steps


def test_forced_ranking_failure_counts_every_request(tmp_path, monkeypatch):
    real_top_n = serve_eval.top_n

    def duplicated(vectors, e_global, n, exclude=None):
        ranked = real_top_n(vectors, e_global, n, exclude)
        ranked[-1] = ranked[0]
        return ranked

    monkeypatch.setattr(serve_eval, "top_n", duplicated)
    result, summary = harness.run(TINY, seed=3, seconds=0.2, work=tmp_path)
    requests = summary["phases"]["requests"]
    assert requests["attempted"] >= TINY.min_requests
    assert requests["failed"] == requests["attempted"]
    assert result["failed"] == requests["failed"]
    assert not result["correct"]
    assert units(result) == expected_units("end_to_end")


def test_forced_user_count_failure_is_counted(tmp_path, monkeypatch):
    real_evaluate = serve_eval.evaluate

    def short_count(*args, **kwargs):
        report = real_evaluate(*args, **kwargs)
        return replace(report, user_count=report.user_count - 1)

    monkeypatch.setattr(serve_eval, "evaluate", short_count)
    result, summary = harness.run(TINY, seed=3, seconds=0.2, work=tmp_path)
    assert summary["phases"]["eval_users"]["failed"] > 0
    assert result["failed"] == summary["phases"]["eval_users"]["failed"]
    assert not result["correct"]


def test_check_ranking_rejects_each_defect():
    rng = np.random.default_rng(0)
    e_global = rng.standard_normal((30, 4))
    vectors = rng.standard_normal((2, 4))
    exclude = {3, 4}
    real = serve_eval.top_n(vectors, e_global, 5, exclude)
    assert harness.check_ranking(real, vectors, e_global, 5, exclude) == []
    scores = (e_global @ vectors.T).max(axis=1)
    outside = next(i for i in np.argsort(-scores) if i not in set(real) | exclude | {0})
    cases = {
        "short": real[:4],
        "duplicate": np.r_[real[:4], real[0]],
        "padding": np.r_[real[:4], 0],
        "excluded": np.r_[real[:4], 3],
        "order": real[::-1],
        "left out": np.r_[real[:3], real[4], outside],
    }
    for name, ranked in cases.items():
        assert harness.check_ranking(np.asarray(ranked), vectors, e_global, 5,
                                     exclude), name


def test_check_adjacency_rejects_asymmetry_and_wrong_size():
    import scipy.sparse as sp
    sym = sp.csr_matrix(np.array([[1.0, 0.5, 0], [0.5, 1.0, 0], [0, 0, 1.0]]))
    assert harness.check_adjacency(sym, 2) == []
    assert harness.check_adjacency(sym, 3)
    assert harness.check_adjacency(sp.csr_matrix(np.triu(sym.toarray())), 2)


def test_pair_occurrence_count_matches_extraction(tmp_path):
    from gimirec import train
    from gimirec.global_context import extract_hop_pairs
    harness.generate_log(TINY, 5, tmp_path / "log.csv")
    hp = harness.hyperparams(TINY, 5)
    bundle, _, _ = harness.setup_once(tmp_path / "log.csv", tmp_path / "b", hp)
    acc = extract_hop_pairs(bundle.train_sequences(), hp.variant, hp.a, hp.b,
                            float(hp.l_time), time_unit_seconds=hp.time_unit_seconds,
                            allow_self_pairs=hp.allow_self_pairs)
    assert harness.pair_occurrences(bundle, hp) == acc.occurrences
    assert train.build_adjacency_from_bundle(bundle, hp).a_norm.nnz > 0


def test_log_generation_is_seeded_and_leaves_no_child_running(tmp_path):
    for name in ("a.csv", "b.csv"):
        harness.generate_log(TINY, 7, tmp_path / name)
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    # no child of this process is left, finished or not
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_run_without_library_sources_fails_without_result(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "smoke", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_workload_names_agree():
    import run
    gated = {w["name"] for w in SPEC["workloads"]}
    assert set(harness.WORKLOADS) == set(run.WORKLOADS) == gated | {"preset"}
