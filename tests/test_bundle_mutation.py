"""Seeded mutations of every file that ``prepare``, ``eval`` and
``recommend`` read: the interaction log, the four bundle files (vocab.tsv,
users.tsv, sequences.bin, split.json), the adjacency, the checkpoint and a
``--config`` file. Each command either succeeds or exits 1 with an
``error:`` line, and never warns or prints a NaN; a bundle that ``prepare``
writes loads."""

import json
import math
import shutil
import warnings

import numpy as np
import pytest

from gimirec.cli import main
from gimirec.ingest import load_bundle
from gimirec.synthetic import PlantedConfig, planted_cluster_records, write_log

SMALL = ["--set", "d=8", "--set", "k=2", "--set", "l_rec=6", "--set", "l_time=4",
         "--set", "n_layers=1", "--set", "n_heads=2", "--set", "batch=8",
         "--set", "eval_every=2", "--set", "neg_samples=4", "--set", "seed=5"]
FILES = ("vocab.tsv", "users.tsv", "sequences.bin", "split.json")
MODEL_FILES = ("adjacency.bin", "checkpoint.bin", "run.cfg")
KINDS = ("flip", b"\x00", b"\xff", b"\n", b"\t", b"-", "truncate", "insert",
         "duplicate")
PER_KIND = 6
# the keys a config file may set for eval and recommend; no thread count, so
# a mutated digit cannot ask for many threads
CONFIG = ("d = 8\nk = 2\nl_rec = 6\nl_time = 4\nn_layers = 1\nn_heads = 2\n"
          "time_unit_seconds = 86400\nresidual = false\nseed = 5\n")


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """A planted bundle, its adjacency, a 2-step checkpoint and a config
    file; also the bundle's user count."""
    root = tmp_path_factory.mktemp("mutation")
    cfg = PlantedConfig(n_clusters=2, items_per_cluster=8, n_users=30,
                        n_hot_items=4, n_tail_items=20)
    write_log(root / "log.csv", planted_cluster_records(cfg, seed=11))
    assert main(["prepare", "--input", str(root / "log.csv"),
                 "--out", str(root / "bundle"), "--set", "seed=5"]) == 0
    assert main(["gce", "--bundle", str(root / "bundle"), "--out", str(root),
                 *SMALL]) == 0
    assert main(["train", "--bundle", str(root / "bundle"),
                 "--adjacency", str(root / "adjacency.bin"), "--out", str(root),
                 *SMALL, "--set", "max_steps=2"]) == 0
    (root / "run.cfg").write_text(CONFIG, encoding="utf-8")
    return root, (root / "bundle" / "users.tsv").read_text().count("\n")


def mutate(raw: bytes, kind, rng: np.random.Generator) -> bytes:
    """``raw`` with one mutation of the given kind at a seeded position."""
    at = int(rng.integers(len(raw)))
    if kind == "flip":
        return raw[:at] + bytes([raw[at] ^ 1 << int(rng.integers(8))]) + raw[at + 1:]
    if kind == "truncate":
        return raw[:at]
    if kind == "insert":
        return raw[:at] + rng.bytes(int(rng.integers(1, 9))) + raw[at:]
    if kind == "duplicate":
        span = raw[at:at + int(rng.integers(1, 33))]
        return raw[:at] + span + raw[at:]
    return raw[:at] + kind + raw[at + 1:]


def read_or_reject(capsys, bundle, n_users, model_files, kind, extra=()):
    """Run eval and recommend (every user, so each sequence is read) and
    hold each outcome to exit 0 or exit 1 with an ``error:`` line."""
    common = ["--bundle", str(bundle), "--checkpoint", str(model_files / "checkpoint.bin"),
              "--adjacency", str(model_files / "adjacency.bin"), *extra, *SMALL]
    for argv in (["eval", "--n", "3,5", *common],
                 ["recommend", "--users", ",".join(map(str, range(n_users))), "-n", "3",
                  *common]):
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(argv)
        out, err = capsys.readouterr()
        assert code in (0, 1), (argv[0], kind)
        if code:
            assert err.startswith("error: "), (argv[0], kind, err)
            continue
        assert "NaN" not in out, (argv[0], kind, out)
        if argv[0] == "eval":
            metrics = json.loads(out)["metrics"].values()
            assert all(math.isfinite(v) for row in metrics for v in row.values())


@pytest.mark.parametrize("case", range(len(KINDS) * PER_KIND))
@pytest.mark.parametrize("name", FILES)
def test_mutated_bundle_is_read_or_rejected(pipeline, tmp_path, capsys, name, case):
    root, n_users = pipeline
    kind = KINDS[case % len(KINDS)]
    rng = np.random.default_rng([FILES.index(name), case])
    bundle = tmp_path / "bundle"
    shutil.copytree(root / "bundle", bundle)
    path = bundle / name
    path.write_bytes(mutate(path.read_bytes(), kind, rng))
    read_or_reject(capsys, bundle, n_users, root, kind)


@pytest.mark.parametrize("case", range(len(KINDS) * PER_KIND))
@pytest.mark.parametrize("name", MODEL_FILES)
def test_mutated_model_input_is_read_or_rejected(pipeline, tmp_path, capsys, name,
                                                 case):
    root, n_users = pipeline
    kind = KINDS[case % len(KINDS)]
    rng = np.random.default_rng([len(FILES) + MODEL_FILES.index(name), case])
    for original in MODEL_FILES:
        shutil.copy(root / original, tmp_path / original)
    path = tmp_path / name
    path.write_bytes(mutate(path.read_bytes(), kind, rng))
    read_or_reject(capsys, root / "bundle", n_users, tmp_path, kind,
                   ["--config", str(tmp_path / "run.cfg")])


# prepare takes ~10 ms, so the log gets four times the mutations
@pytest.mark.parametrize("case", range(len(KINDS) * 4 * PER_KIND))
def test_mutated_log_is_prepared_or_rejected(pipeline, tmp_path, capsys, case):
    root, _ = pipeline
    kind = KINDS[case % len(KINDS)]
    rng = np.random.default_rng([len(FILES) + len(MODEL_FILES), case])
    log = tmp_path / "log.csv"
    log.write_bytes(mutate((root / "log.csv").read_bytes(), kind, rng))
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["prepare", "--input", str(log), "--out", str(tmp_path / "bundle"),
                     "--set", "seed=5"])
    err = capsys.readouterr().err
    assert code in (0, 1), kind
    if code:
        assert err.startswith("error: "), (kind, err)
    else:
        load_bundle(tmp_path / "bundle")
